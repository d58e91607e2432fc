"""Averaged-drift estimation tests.

The linear family gives closed forms to test against: stationary mean
m = (c1*x + c2*mean(mu))/(gamma - c3), averaged drift
a11*x + a12*mean(mu) + a13*m, stationary variance s2^2/(2*gamma) when the
frozen equation decouples, and ensemble-mean relaxation rate gamma - c3.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math

import numpy as np
import pytest

from mvx_avgfilter import SCHEMA_VERSION, averaging
from mvx_avgfilter.averaging import (
    ORACLE_VERSION,
    AveragedDriftOracle,
    BbarEstimate,
    ErgodicDecayProfile,
    analytic_bbar_linear,
    default_burn_in,
    ergodic_decay_profile,
    estimate_bbar,
    invariant_moments,
    make_drift_oracle,
)
from mvx_avgfilter.errors import (
    DimensionMismatch,
    FitFailure,
    InsufficientWindow,
    InvalidParams,
    UnsupportedModel,
    ValidationError,
)
from mvx_avgfilter.measure import MeasureSummary, dirac_summary, summarize_points
from mvx_avgfilter.model import LinearModelParams, ModelSpec, make_linear_model
from mvx_avgfilter.sde import FrozenRunConfig, simulate_frozen
from mvx_avgfilter.streams import normal_increments

REF = LinearModelParams()


def ref_model(params=REF, x0=1.0, z0=1.0):
    return make_linear_model(params, n=1, m=1, l=1, x0=[x0], z0=[z0])


# ===== closed forms =====


def test_analytic_reference_value():
    out = analytic_bbar_linear(REF, np.array([1.0]), np.zeros(1))
    assert out[0] == pytest.approx(-1.0 / 3.0, abs=1e-15)


def test_analytic_zero_at_origin():
    out = analytic_bbar_linear(REF, np.zeros(1), np.zeros(1))
    assert out[0] == 0.0


def test_analytic_general_formula():
    p = LinearModelParams(a11=-0.7, a12=0.4, a13=0.9, gamma=1.8, c1=0.6, c2=-0.3, c3=0.2)
    x, mu_mean = 1.3, -0.5
    m = (p.c1 * x + p.c2 * mu_mean) / (p.gamma - p.c3)
    want = p.a11 * x + p.a12 * mu_mean + p.a13 * m
    out = analytic_bbar_linear(p, np.array([x]), np.array([mu_mean]))
    assert out[0] == pytest.approx(want, abs=1e-15)


def test_analytic_batched_rows():
    xs = np.array([[0.0], [1.0], [-2.0]])
    out = analytic_bbar_linear(REF, xs, np.zeros(1))
    assert out.shape == (3, 1)
    assert out[1, 0] == pytest.approx(-1.0 / 3.0, abs=1e-15)


def test_default_burn_in():
    # beta1 - beta2 = 2*(gamma - c3) = 3 for the reference coefficients
    assert default_burn_in(REF) == pytest.approx(5.0 / 3.0)


# ===== estimate_bbar =====


def test_estimate_matches_reference_value():
    model = ref_model()
    cfg = FrozenRunConfig(M=1000, dt=0.01, burn_in=default_burn_in(REF), avg_window=5.0, seed=4)
    est = estimate_bbar(model, np.array([1.0]), dirac_summary([0.0]), cfg)
    assert isinstance(est, BbarEstimate)
    assert est.stderr[0] > 0.0
    assert abs(est.value[0] - (-1.0 / 3.0)) <= 3.0 * est.stderr[0]
    assert est.value[0] == pytest.approx(-1.0 / 3.0, abs=0.03)


def test_estimate_rejects_short_window():
    model = ref_model()
    cfg = FrozenRunConfig(M=100, dt=0.01, burn_in=0.0, avg_window=0.05, seed=0)
    with pytest.raises(InsufficientWindow):
        estimate_bbar(model, np.array([1.0]), dirac_summary([0.0]), cfg)


def test_stderr_calibrated_against_seed_spread():
    # the run-to-run spread is dominated by the ensemble's collective mean
    # mode; the reported SE must track it even though the averaging window
    # holds only a handful of its correlation times
    model = ref_model()
    x = np.array([1.0])
    mu = dirac_summary(x)
    vals, ses = [], []
    for seed in range(8):
        cfg = FrozenRunConfig(
            M=1000, dt=0.01, burn_in=default_burn_in(REF), avg_window=5.0, seed=seed
        )
        est = estimate_bbar(model, x, mu, cfg)
        vals.append(float(est.value[0]))
        ses.append(float(est.stderr[0]))
    covered = sum(abs(v + 1.0 / 3.0) <= 3.0 * s for v, s in zip(vals, ses))
    assert covered >= 7
    ratio = np.mean(ses) / np.std(vals)
    assert 0.45 <= ratio <= 2.5


def test_estimate_deterministic():
    model = ref_model()
    cfg = FrozenRunConfig(M=200, dt=0.01, burn_in=0.5, avg_window=2.0, seed=8)
    a = estimate_bbar(model, np.array([0.5]), dirac_summary([0.2]), cfg)
    b = estimate_bbar(model, np.array([0.5]), dirac_summary([0.2]), cfg)
    assert np.array_equal(a.value, b.value)
    assert np.array_equal(a.stderr, b.stderr)


def test_estimate_tracks_analytic_on_grid():
    model = ref_model()
    cfg = FrozenRunConfig(M=500, dt=0.01, burn_in=default_burn_in(REF), avg_window=5.0, seed=12)
    mu = dirac_summary([0.0])
    for x in np.linspace(-2.0, 2.0, 10):
        est = estimate_bbar(model, np.array([x]), mu, cfg)
        want = analytic_bbar_linear(REF, np.array([x]), mu.mean)[0]
        assert abs(est.value[0] - want) <= 3.0 * est.stderr[0], f"x={x}"


def test_estimate_uses_mu_mean():
    p = LinearModelParams(a12=0.5, c2=0.8)
    model = ref_model(p)
    cfg = FrozenRunConfig(M=800, dt=0.01, burn_in=default_burn_in(p), avg_window=5.0, seed=3)
    mu = dirac_summary([1.5])
    est = estimate_bbar(model, np.array([0.3]), mu, cfg)
    want = analytic_bbar_linear(p, np.array([0.3]), mu.mean)[0]
    assert abs(est.value[0] - want) <= max(3.0 * est.stderr[0], 0.03)


# ===== invariant measure moments =====


def test_invariant_moments_ou():
    p = LinearModelParams(gamma=2.0, c1=0.0, c2=0.0, c3=0.0, s2=1.0)
    model = ref_model(p, z0=0.0)
    cfg = FrozenRunConfig(M=4000, dt=0.005, burn_in=2.0, avg_window=6.0, seed=19)
    mom = invariant_moments(model, np.zeros(1), dirac_summary([0.0]), cfg)
    assert mom.mean[0] == pytest.approx(0.0, abs=0.02)
    assert mom.second_moment == pytest.approx(0.25, rel=0.05)


def test_invariant_moments_shifted_mean():
    model = ref_model()
    cfg = FrozenRunConfig(M=2000, dt=0.01, burn_in=2.0, avg_window=5.0, seed=6)
    mom = invariant_moments(model, np.array([1.0]), dirac_summary([0.0]), cfg)
    # m = c1*1/(gamma - c3) = 2/3; var = s2^2/(2*gamma) = 0.25
    assert mom.mean[0] == pytest.approx(2.0 / 3.0, abs=0.03)
    assert mom.second_moment == pytest.approx((2.0 / 3.0) ** 2 + 0.25, rel=0.08)


def test_second_moment_envelope():
    model = ref_model()
    cfg = FrozenRunConfig(M=600, dt=0.01, burn_in=2.0, avg_window=3.0, seed=2)
    mu = dirac_summary([0.0])

    def ratio(x):
        mom = invariant_moments(model, np.array([x]), mu, cfg)
        return mom.second_moment / (1.0 + x * x + float(mu.mean @ mu.mean))

    fitted = max(ratio(x) for x in (-2.0, -1.0, 0.0, 1.0, 2.0))
    for x in (-3.0, -1.5, 0.5, 2.5):
        assert ratio(x) <= 1.2 * fitted


@pytest.mark.parametrize("dt", [0.25, 0.1])
def test_invariant_second_moment_is_the_euler_chains(dt):
    # with x = 0 and c1 = c2 = c3 = 0 the frozen run is the Euler chain
    # z' = (1 - gamma*dt)*z + s2*sqrt(dt)*xi, whose stationary second moment is
    # s2^2/(gamma*(2 - gamma*dt)), not the continuous law's s2^2/(2*gamma) = 0.25
    p = LinearModelParams(gamma=2.0, c1=0.0, c2=0.0, c3=0.0, s2=1.0)
    model = ref_model(p, z0=0.0)
    cfg = FrozenRunConfig(M=2000, dt=dt, burn_in=5.0, avg_window=400 * dt, seed=21)
    mom = invariant_moments(model, np.zeros(1), dirac_summary([0.0]), cfg)
    exact = p.s2**2 / (p.gamma * (2.0 - p.gamma * dt))
    assert abs(mom.second_moment - exact) <= 3.0 * mom.stderr_second
    assert abs(mom.second_moment - 0.25) > 10.0 * mom.stderr_second


def test_every_window_statistic_refuses_a_window_under_ten_steps():
    model = ref_model()
    x, mu = np.array([1.0]), dirac_summary([0.0])
    cfg = FrozenRunConfig(M=100, dt=0.01, burn_in=0.0, avg_window=0.05, seed=0)
    # without linear_params the decay target comes from a tail run as long as t_grid
    nonlinear = dataclasses.replace(model, linear_params=None)
    short_grid = np.array([0.0, 0.02, 0.05])
    for run in (
        lambda: invariant_moments(model, x, mu, cfg),
        lambda: ergodic_decay_profile(nonlinear, x, mu, cfg, t_grid=short_grid),
    ):
        with pytest.raises(InsufficientWindow, match=r"avg_window=0\.05 shorter than 10\*dt=0\.1"):
            run()


# ===== ergodic decay =====


def test_decay_profile_recovers_rate():
    model = ref_model()
    cfg = FrozenRunConfig(M=2000, dt=0.01, burn_in=0.0, avg_window=1.0, seed=14)
    t_grid = np.linspace(0.0, 2.0, 21)
    prof = ergodic_decay_profile(
        model, np.array([1.0]), dirac_summary([0.0]), cfg, t_grid=t_grid, z_init=np.array([3.0])
    )
    assert isinstance(prof, ErgodicDecayProfile)
    rate = REF.gamma - REF.c3
    assert 0.5 * rate <= prof.fitted_rate <= 2.0 * rate
    assert prof.fit_r2 >= 0.9


def test_decay_profile_monotone_after_smoothing():
    model = ref_model()
    cfg = FrozenRunConfig(M=2000, dt=0.01, burn_in=0.0, avg_window=1.0, seed=14)
    t_grid = np.linspace(0.0, 2.0, 21)
    prof = ergodic_decay_profile(
        model, np.array([1.0]), dirac_summary([0.0]), cfg, t_grid=t_grid, z_init=np.array([3.0])
    )
    # centred 3-point mean, each end padded with its own value
    d = prof.deviations
    padded = np.concatenate([d[:1], d, d[-1:]])
    sm = (padded[:-2] + padded[1:-1] + padded[2:]) / 3.0
    used = np.flatnonzero(prof.used_mask)
    for a, b in zip(used[:-1], used[1:]):
        assert sm[b] <= sm[a] + 0.25 * prof.noise_floor


def test_decay_target_without_linear_params_is_the_stationary_mean():
    # the target then comes from an independent stationary run's window mean
    model = dataclasses.replace(ref_model(), linear_params=None)
    cfg = FrozenRunConfig(M=2000, dt=0.01, burn_in=0.0, avg_window=1.0, seed=14)
    prof = ergodic_decay_profile(
        model, np.array([1.0]), dirac_summary([0.0]), cfg,
        t_grid=np.linspace(0.0, 2.0, 21), z_init=np.array([3.0]),
    )
    want = (REF.c1 * 1.0 + REF.c2 * 0.0) / (REF.gamma - REF.c3)
    assert prof.target.shape == (1,)
    assert abs(prof.target[0] - want) <= 0.03


def test_decay_profile_needs_replications():
    model = ref_model()
    cfg = FrozenRunConfig(M=50, dt=0.01, burn_in=0.0, avg_window=1.0, seed=0)
    with pytest.raises(InvalidParams):
        ergodic_decay_profile(model, np.array([1.0]), dirac_summary([0.0]), cfg)


@pytest.mark.parametrize(
    "t_grid", [[-0.5, 0.0, 0.5, 1.0, 2.0], [0.0, math.nan, 1.0], [0.0, 1.0, math.inf], []]
)
def test_decay_profile_refuses_a_negative_or_non_finite_time(t_grid):
    # a negative time would index the path from its end
    cfg = FrozenRunConfig(M=100, dt=0.01, burn_in=0.0, avg_window=1.0, seed=0)
    with pytest.raises(InvalidParams, match="t_grid must be nonempty, finite and >= 0"):
        ergodic_decay_profile(
            ref_model(), np.array([1.0]), dirac_summary([0.0]), cfg, t_grid=np.array(t_grid)
        )


def test_decay_profile_fit_failure_at_stationarity():
    model = ref_model()
    cfg = FrozenRunConfig(M=500, dt=0.01, burn_in=0.0, avg_window=1.0, seed=5)
    # start exactly at the stationary mean: deviations sit at the noise floor
    with pytest.raises(FitFailure):
        ergodic_decay_profile(
            model,
            np.array([1.0]),
            dirac_summary([0.0]),
            cfg,
            t_grid=np.linspace(0.0, 2.0, 11),
            z_init=np.array([2.0 / 3.0]),
        )


# ===== input widths of the frozen runs =====

# (x, mean of mu, z0) with one of them too wide for the n = m = 1 model
WRONG_WIDTH = {
    "x": (np.array([1.0, 2.0]), [1.0], None, "slow input x has 2 components"),
    "mu": (np.array([1.0]), [1.0, 2.0], None, "slow law mean has 2 components"),
    "z0": (np.array([1.0]), [1.0], np.zeros(2), "initial fast state has 2 components"),
}


@pytest.mark.parametrize("case", sorted(WRONG_WIDTH))
def test_frozen_runs_refuse_inputs_of_the_wrong_width(case):
    x, mu_at, z0, message = WRONG_WIDTH[case]
    model, mu = ref_model(), dirac_summary(mu_at)
    cfg = FrozenRunConfig(M=100, dt=0.05, burn_in=0.5, avg_window=1.0, seed=5)
    runs = [
        lambda: simulate_frozen(model, x, mu, cfg, z0=z0),
        lambda: ergodic_decay_profile(model, x, mu, cfg, z_init=z0),
    ]
    if z0 is None:  # these two always start from model.z0
        runs += [
            lambda: estimate_bbar(model, x, mu, cfg),
            lambda: invariant_moments(model, x, mu, cfg),
        ]
    for run in runs:
        with pytest.raises(DimensionMismatch, match=message):
            run()


# ===== drift oracle =====


def frozen_cfg(seed=30, M=400):
    return FrozenRunConfig(M=M, dt=0.01, burn_in=1.0, avg_window=2.0, seed=seed)


def test_oracle_analytic_linear_matches_closed_form():
    model = ref_model()
    oracle = make_drift_oracle(model, mode="analytic-linear")
    pts = np.array([[0.0], [1.0], [-1.5]])
    mu = summarize_points(pts)
    out = oracle(pts, mu)
    want = analytic_bbar_linear(REF, pts, mu.mean)
    assert np.array_equal(out, want)


@pytest.mark.parametrize("n", [1, 2])
def test_closed_form_drift_is_analytic_bbar_linear_on_rows_and_on_a_point(n):
    model = make_linear_model(REF, n=n, m=n, l=n, x0=[1.0] * n, z0=[1.0] * n)
    drift = make_drift_oracle(model, mode="analytic-linear")
    rows = np.random.default_rng(n).normal(size=(7, n))
    mu = summarize_points(rows)
    out = drift(rows, mu)
    assert out.shape == (7, n)
    assert out.tobytes() == analytic_bbar_linear(REF, rows, mu.mean).tobytes()
    point = drift(rows[3], mu)
    assert point.shape == (n,)
    assert point.tobytes() == analytic_bbar_linear(REF, rows[3], mu.mean).tobytes()
    assert point.tobytes() == out[3].tobytes()


def test_oracle_analytic_rejects_nonlinear():
    base = ref_model()
    model = ModelSpec(
        n=1, m=1, l=1, x0=np.zeros(1), z0=np.zeros(1),
        b1=base.b1, sigma1=base.sigma1,
        b2=lambda x, mu, z, nu: -2.0 * z**3,
        sigma2=base.sigma2, h=base.h,
    )
    with pytest.raises(UnsupportedModel):
        make_drift_oracle(model, mode="analytic-linear")


def test_closed_form_refuses_a_linear_model_with_a_swapped_coefficient():
    # the linear family at c3 = 0 with b1 = a11*x + a13*z^2; dataclasses.replace keeps
    # linear_params
    p = LinearModelParams(c3=0.0)
    z_squared = make_linear_model(p, n=1, m=1, l=1, x0=[1.0], z0=[1.0])
    model = dataclasses.replace(z_squared, b1=lambda x, mu, z: p.a11 * x + p.a13 * z * z)
    # z is N(c1*x/gamma, s2^2/(2*gamma)) with x frozen, so the exact averaged drift at
    # x = 2 is a11*2 + a13*(1 + 1/4) = -0.75; the linear closed form reads -1.0 there
    x = np.array([2.0])
    assert p.a11 * 2.0 + p.a13 * ((p.c1 * 2.0 / p.gamma) ** 2 + p.s2**2 / (2 * p.gamma)) == -0.75
    assert analytic_bbar_linear(p, x, np.zeros(1))[0] == -1.0
    with pytest.raises(UnsupportedModel, match="b1, sigma1, b2 and sigma2 that make_linear_model"):
        make_drift_oracle(model, mode="analytic-linear")
    base = ref_model()
    for name in ("sigma1", "b2", "sigma2"):
        original = getattr(base, name)
        swapped = dataclasses.replace(base, **{name: lambda *args: original(*args)})
        with pytest.raises(UnsupportedModel):
            make_drift_oracle(swapped, mode="analytic-linear")
    # another family member's map evaluates other params
    other = make_linear_model(LinearModelParams(a11=-2.0), n=1, m=1, l=1, x0=[1.0], z0=[1.0])
    with pytest.raises(UnsupportedModel):
        make_drift_oracle(dataclasses.replace(base, b1=other.b1), mode="analytic-linear")


def test_closed_form_keeps_a_replaced_sensor_and_a_wrapped_coefficient():
    base = ref_model()
    mu = dirac_summary([0.3])
    want = analytic_bbar_linear(REF, np.array([0.5]), mu.mean).tobytes()

    @functools.wraps(base.b2)
    def b2(*args):  # a call counter or profiler wraps a map like this
        return base.b2(*args)

    for model in (
        dataclasses.replace(base, h=lambda x, mu: 2.0 * x),
        dataclasses.replace(base, b2=b2),
    ):
        drift = make_drift_oracle(model, mode="analytic-linear")
        assert drift(np.array([0.5]), mu).tobytes() == want


@pytest.mark.parametrize("quant", [0.0, -0.05, math.nan, math.inf])
def test_oracle_refuses_a_quant_that_is_not_finite_and_positive(quant):
    for build in (
        lambda: AveragedDriftOracle(ref_model(), frozen_cfg(), quant=quant),
        lambda: make_drift_oracle(ref_model(), "estimated", frozen_cfg=frozen_cfg(), quant=quant),
    ):
        with pytest.raises(InvalidParams, match="quant must be finite and positive"):
            build()


def test_oracle_estimated_mode_needs_frozen_cfg():
    with pytest.raises(InvalidParams):
        make_drift_oracle(ref_model(), mode="estimated")


def test_oracle_cache_hits_are_bit_exact():
    model = ref_model()
    oracle = make_drift_oracle(model, mode="estimated", frozen_cfg=frozen_cfg())
    pts = np.array([[0.5], [1.0]])
    mu = dirac_summary([0.0])
    first = oracle(pts, mu)
    assert oracle.stats["misses"] == 2
    second = oracle(pts, mu)
    assert oracle.stats["misses"] == 2
    assert oracle.stats["hits"] >= 2
    assert np.array_equal(first, second)


def test_oracle_cell_is_estimate_bbar_at_its_centre_under_the_oracles_own_frozen_config():
    model = ref_model()
    cfg = frozen_cfg(M=100)
    mu = summarize_points(np.array([[0.12], [0.31]]))  # mean 0.215, second moment 0.05525
    key = (10, 4, 1)  # rint of 0.52, 0.215 and 0.05525 over the quant 0.05
    centre = MeasureSummary(mean=np.array([4 * 0.05]), second_moment=1 * 0.05)
    want = estimate_bbar(model, np.array([10 * 0.05]), centre, cfg).value
    oracle = make_drift_oracle(model, mode="estimated", frozen_cfg=cfg, quant=0.05)
    assert isinstance(oracle, AveragedDriftOracle)
    got = oracle(np.array([0.52]), mu)
    assert list(oracle._cache) == [key]
    assert got.tobytes() == want.tobytes()

    # cells filled one per call and many per call, in either order, are each
    # estimate_bbar at their centre under the oracle's own config
    rows = np.array([[0.52], [-0.31], [1.07], [0.0], [0.74]])
    one_by_one = make_drift_oracle(model, mode="estimated", frozen_cfg=cfg, quant=0.05)
    for row in rows[::-1]:
        one_by_one(row, mu)
    many = make_drift_oracle(model, mode="estimated", frozen_cfg=cfg, quant=0.05)
    many(rows, mu)
    assert sorted(one_by_one._cache) == sorted(many._cache)
    assert len(many._cache) == len(rows)
    for key in many._cache:
        centre_x = np.array(key[:1], dtype=float) * 0.05
        centre = MeasureSummary(mean=np.array([key[1] * 0.05]), second_moment=key[2] * 0.05)
        want = estimate_bbar(model, centre_x, centre, cfg).value.tobytes()
        assert many._cache[key].tobytes() == one_by_one._cache[key].tobytes() == want


def test_estimated_cells_are_the_closed_form_plus_the_burn_in_transient_plus_one_constant():
    # Every cell runs on the oracle's one frozen block, and each particle update
    # of the linear family is affine in (x, mean(mu)). So the ensemble mean is
    # m_k = m* + r^k (z0 - m*) + N_k, with r = 1 - (gamma - c3) dt,
    # m* = (c1 x + c2 mean(mu))/(gamma - c3) and a noise part N_k that no cell
    # changes; b-hat - b-bar is then the burn-in transient
    # D = a13 (z0 - m*) mean_window r^k plus the one constant a13 mean_window N_k.
    p = REF
    model = ref_model()
    cfg = FrozenRunConfig(M=200, dt=0.01, burn_in=default_burn_in(p), avg_window=5.0, seed=101)
    oracle = make_drift_oracle(model, mode="estimated", frozen_cfg=cfg, quant=0.05)
    xs = np.arange(-6, 18).reshape(-1, 1) * 0.05  # 24 cells in x
    for points in ([[0.4], [0.6]], [[1.1], [1.3]]):  # two cells of mean(mu)
        oracle(xs, summarize_points(np.array(points)))
    assert len(oracle._cache) == 48
    keys = np.array(sorted(oracle._cache), dtype=float)
    est = np.array([oracle._cache[tuple(int(k) for k in key)][0] for key in keys])
    x, mu_mean = keys[:, 0] * 0.05, keys[:, 1] * 0.05
    window = np.arange(round(cfg.burn_in / cfg.dt), cfg.n_steps + 1)
    factor = np.mean((1.0 - (p.gamma - p.c3) * cfg.dt) ** window)
    assert factor == pytest.approx(1.0659e-2, rel=1e-4)  # at default_burn_in
    m_star = (p.c1 * x + p.c2 * mu_mean) / (p.gamma - p.c3)
    transient = p.a13 * (model.z0[0] - m_star) * factor
    offset = est - analytic_bbar_linear(p, x, mu_mean) - transient
    assert np.ptp(offset) <= 1e-12
    assert np.ptp(transient) > 1e-3  # the transient moves across the cells


def test_oracle_quantization_snaps_nearby_points():
    model = ref_model()
    oracle = make_drift_oracle(model, mode="estimated", frozen_cfg=frozen_cfg(), quant=0.05)
    mu = dirac_summary([0.0])
    a = oracle(np.array([[0.5]]), mu)
    b = oracle(np.array([[0.51]]), mu)  # same cell as 0.5 at q=0.05
    c = oracle(np.array([[0.58]]), mu)  # different cell
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert oracle.stats["misses"] == 2


def test_oracle_insertion_order_independent():
    model = ref_model()
    mu = dirac_summary([0.0])
    a = make_drift_oracle(model, mode="estimated", frozen_cfg=frozen_cfg())
    b = make_drift_oracle(model, mode="estimated", frozen_cfg=frozen_cfg())
    va1 = a(np.array([[0.3]]), mu)
    va2 = a(np.array([[1.1]]), mu)
    vb2 = b(np.array([[1.1]]), mu)
    vb1 = b(np.array([[0.3]]), mu)
    assert np.array_equal(va1, vb1)
    assert np.array_equal(va2, vb2)


def test_oracle_estimates_track_analytic():
    # z0 = 0 and a burn-in of two relaxation times keep the transient bias
    # of the time average well under the tolerance
    model = ref_model(z0=0.0)
    cfg = FrozenRunConfig(M=800, dt=0.01, burn_in=2.0, avg_window=2.0, seed=41)
    oracle = make_drift_oracle(model, mode="estimated", frozen_cfg=cfg, quant=0.05)
    mu = dirac_summary([0.0])
    for x in (-1.0, 0.0, 1.0):
        got = oracle(np.array([[x]]), mu)[0, 0]
        cell = round(x / 0.05) * 0.05
        want = analytic_bbar_linear(REF, np.array([cell]), mu.mean)[0]
        assert got == pytest.approx(want, abs=0.05)


def test_oracle_difference_quotients_bounded():
    model = ref_model()
    oracle = make_drift_oracle(
        model, mode="estimated", frozen_cfg=frozen_cfg(M=2000, seed=51), quant=0.05
    )
    mu = dirac_summary([0.0])
    xs = np.arange(-1.0, 1.01, 0.5)
    vals = [float(oracle(np.array([[x]]), mu)[0, 0]) for x in xs]
    # d/dx of the averaged drift: a11 + a13*c1/(gamma - c3) = -1/3
    lip = abs(REF.a11 + REF.a13 * REF.c1 / (REF.gamma - REF.c3))
    for v0, v1 in zip(vals[:-1], vals[1:]):
        assert abs(v1 - v0) / 0.5 <= 1.5 * lip


def test_oracle_persistence_round_trip(tmp_path):
    model = ref_model()
    path = tmp_path / "cache.json"
    cfg = frozen_cfg()
    a = make_drift_oracle(model, mode="estimated", frozen_cfg=cfg)
    mu = dirac_summary([0.0])
    pts = np.array([[0.25], [0.9]])
    va = a(pts, mu)
    a.save_cache(path)

    b = make_drift_oracle(model, mode="estimated", frozen_cfg=cfg)
    b.load_cache(path)
    vb = b(pts, mu)
    assert np.array_equal(va, vb)
    assert b.stats["misses"] == 0
    assert b.stats["hits"] >= 2


def test_oracle_persistence_rejects_mismatched_cfg(tmp_path):
    model = ref_model()
    path = tmp_path / "cache.json"
    a = make_drift_oracle(model, mode="estimated", frozen_cfg=frozen_cfg(seed=30))
    a(np.array([[0.0]]), dirac_summary([0.0]))
    a.save_cache(path)
    b = make_drift_oracle(model, mode="estimated", frozen_cfg=frozen_cfg(seed=31))
    with pytest.raises(ValidationError):
        b.load_cache(path)


def test_oracle_cache_records_its_version_under_the_digest(tmp_path):
    model = ref_model()
    path = tmp_path / "cache.json"
    a = make_drift_oracle(model, mode="estimated", frozen_cfg=frozen_cfg())
    a(np.array([[0.0]]), dirac_summary([0.0]))
    a.save_cache(path)
    doc = json.loads(path.read_text())
    assert doc["oracle_version"] == ORACLE_VERSION == 2
    payload = {"oracle_version": 2, "quant": 0.05, "dims": [1, 1, 1],
               "frozen_cfg": dataclasses.asdict(frozen_cfg())}
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()
    assert doc["digest"] == digest


def version1_cache(path, cfg, entries):
    """A drift cache in the format oracle version 1 wrote: no oracle_version,
    and a digest of the quantization, frozen config and dimensions alone."""
    payload = {"quant": 0.05, "frozen_cfg": dataclasses.asdict(cfg), "dims": [1, 1, 1]}
    doc = {
        "schema": f"{SCHEMA_VERSION} drift-cache",
        "digest": hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest(),
        "quant": 0.05,
        "frozen_cfg": dataclasses.asdict(cfg),
        "entries": entries,
    }
    path.write_text(json.dumps(doc, indent=1))


def test_oracle_refuses_a_version_1_cache(tmp_path):
    model = ref_model()
    path = tmp_path / "cache.json"
    version1_cache(path, frozen_cfg(), [{"key": [0, 0, 0], "value": [0.25]}])
    oracle = make_drift_oracle(model, mode="estimated", frozen_cfg=frozen_cfg())
    with pytest.raises(ValidationError, match="oracle version 1 cells; this oracle is version 2"):
        oracle.load_cache(path)
    assert oracle._cache == {}


@pytest.mark.parametrize("version", [1, 3, "2", None])
def test_oracle_refuses_a_cache_of_another_version(tmp_path, version):
    model = ref_model()
    path = tmp_path / "cache.json"
    a = make_drift_oracle(model, mode="estimated", frozen_cfg=frozen_cfg())
    a(np.array([[0.0]]), dirac_summary([0.0]))
    a.save_cache(path)
    doc = json.loads(path.read_text())
    doc["oracle_version"] = version
    path.write_text(json.dumps(doc))
    oracle = make_drift_oracle(model, mode="estimated", frozen_cfg=frozen_cfg())
    with pytest.raises(ValidationError, match=f"version {version!r} cells; this oracle is version 2"):
        oracle.load_cache(path)
    path.write_text(json.dumps([doc]))
    with pytest.raises(ValidationError, match="not a JSON object"):
        oracle.load_cache(path)
    assert oracle._cache == {}


@pytest.mark.parametrize(
    "bad",
    [
        {"key": [0, 0, 1], "value": [float("nan")]},
        {"key": [0, 0, 1], "value": [float("inf")]},
        {"key": [1, 2], "value": [5.0, 6.0]},  # an n = 2 cell in an n = 1 cache
        {"key": [0, 0, 1], "value": [5.0, 6.0]},
        {"key": [0, 0.5, 1], "value": [0.5]},
        {"key": [True, 0, 1], "value": [0.5]},
        {"key": [0, 0, 1], "value": ["0.5"]},
        {"key": [0, 0, 1]},
        [[0, 0, 1], [0.5]],
    ],
)
def test_oracle_cache_refuses_malformed_entries(tmp_path, bad):
    model = ref_model()
    path = tmp_path / "cache.json"
    make_drift_oracle(model, mode="estimated", frozen_cfg=frozen_cfg()).save_cache(path)
    doc = json.loads(path.read_text())
    doc["entries"] = [{"key": [0, 0, 0], "value": [0.5]}, bad]
    path.write_text(json.dumps(doc))
    oracle = make_drift_oracle(model, mode="estimated", frozen_cfg=frozen_cfg())
    with pytest.raises(ValidationError, match="drift cache entry 1 needs a key of 3 integers"):
        oracle.load_cache(path)
    assert oracle._cache == {}  # nothing from a refused file is kept
    doc["entries"] = {"key": [0, 0, 0], "value": [0.5]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="no list of entries"):
        oracle.load_cache(path)


def test_oracle_thread_safety():
    from concurrent.futures import ThreadPoolExecutor

    model = ref_model()
    oracle = make_drift_oracle(model, mode="estimated", frozen_cfg=frozen_cfg(M=100))
    mu = dirac_summary([0.0])
    xs = [np.array([[0.05 * i]]) for i in range(8)] * 4
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda p: oracle(p, mu), xs))
    # same input -> same output regardless of which worker computed it
    serial = make_drift_oracle(model, mode="estimated", frozen_cfg=frozen_cfg(M=100))
    for p, r in zip(xs, results):
        assert np.array_equal(r, serial(p, mu))


def test_cold_oracle_draws_its_frozen_block_once_under_racing_misses(monkeypatch):
    import sys
    from concurrent.futures import ThreadPoolExecutor

    draws = []

    def counted(*args):
        draws.append(args)
        return normal_increments(*args)

    monkeypatch.setattr(averaging, "normal_increments", counted)
    model = ref_model()
    cfg = FrozenRunConfig(M=20, dt=0.05, burn_in=0.5, avg_window=1.0, seed=9)
    oracle = make_drift_oracle(model, mode="estimated", frozen_cfg=cfg)
    mu = dirac_summary([0.0])
    xs = [np.array([[0.05 * (i % 12)]]) for i in range(48)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(oracle, p, mu) for p in xs]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(draws) == 1  # one block for every cell, however the misses raced
    assert len(oracle._cache) == 12
    assert oracle.stats["hits"] + oracle.stats["misses"] == 48
    for p, r in zip(xs, results):
        centre = np.rint(p[0] / 0.05) * 0.05
        assert r.tobytes() == estimate_bbar(model, centre, dirac_summary([0.0]), cfg).value.tobytes()


def counted_estimates(monkeypatch, before=None):
    """Record the arguments of every estimate_bbar call the oracles make;
    ``before`` runs first on each call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        if before is not None:
            before()
        return estimate_bbar(*args, **kwargs)

    monkeypatch.setattr(averaging, "estimate_bbar", counted)
    return calls


def test_racing_misses_of_one_cell_run_one_estimate_and_count_one_miss(monkeypatch):
    import sys
    import time
    from concurrent.futures import ThreadPoolExecutor

    calls = counted_estimates(monkeypatch, before=lambda: time.sleep(0.05))
    model = ref_model()
    cfg = FrozenRunConfig(M=20, dt=0.05, burn_in=0.5, avg_window=1.0, seed=9)
    oracle = make_drift_oracle(model, mode="estimated", frozen_cfg=cfg)
    mu = dirac_summary([0.0])
    xs = [np.array([[0.05 * (i % 12)]]) for i in range(48)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(oracle, p, mu) for p in xs]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    # a thread that finds its cell being estimated waits for it and counts a hit
    assert len(calls) == 12
    assert oracle.stats["misses"] == 12
    assert oracle.stats["hits"] + oracle.stats["misses"] == 48
    assert not oracle._running
    for p, r in zip(xs, results):
        centre = np.rint(p[0] / 0.05) * 0.05
        assert r.tobytes() == estimate_bbar(model, centre, mu, cfg).value.tobytes()


def test_an_estimate_that_raises_reaches_every_thread_waiting_on_its_cell(monkeypatch):
    import threading
    from concurrent.futures import ThreadPoolExecutor

    waiting = threading.Semaphore(0)

    class CountedWaits(averaging._Estimate):
        def result(self):
            waiting.release()
            return super().result()

    def fail():
        # raise only once the other seven threads wait on this cell
        for _ in range(7):
            assert waiting.acquire(timeout=30)
        raise FitFailure("the estimate failed")

    monkeypatch.setattr(averaging, "_Estimate", CountedWaits)
    calls = counted_estimates(monkeypatch, before=fail)
    cfg = FrozenRunConfig(M=20, dt=0.05, burn_in=0.5, avg_window=1.0, seed=9)
    oracle = make_drift_oracle(ref_model(), mode="estimated", frozen_cfg=cfg)
    mu = dirac_summary([0.0])
    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = [pool.submit(oracle, np.array([[0.5]]), mu) for _ in range(8)]
        for f in futures:
            with pytest.raises(FitFailure, match="the estimate failed"):
                f.result(timeout=60)
    assert len(calls) == 1
    assert oracle.stats == {"hits": 0, "misses": 0}
    assert not oracle._cache and not oracle._running

    # the failed cell is not cached: the next lookup estimates it again
    monkeypatch.setattr(averaging, "estimate_bbar", estimate_bbar)
    want = estimate_bbar(ref_model(), np.array([0.5]), mu, cfg).value
    assert oracle(np.array([0.5]), mu).tobytes() == want.tobytes()
    assert oracle.stats == {"hits": 0, "misses": 1}


def test_the_benchmark_oracle_fills_121_cells_from_63_frozen_runs(monkeypatch):
    # the oracle-estimated benchmark workload at seed 101: its law visits 121
    # cells but only 63 (x, mean) pairs, and the linear family never reads the
    # second moment, so each pair's first run fills the pair's other cells
    from mvx_avgfilter.sde import SdeConfig, simulate_averaged

    calls = counted_estimates(monkeypatch)
    model = ref_model()
    cfg = FrozenRunConfig(M=200, dt=0.01, burn_in=default_burn_in(REF), avg_window=5.0, seed=101)
    oracle = make_drift_oracle(model, mode="estimated", frozen_cfg=cfg, quant=0.05)
    run_cfg = SdeConfig(epsilon=0.1, T=0.4, dt_macro=0.01, micro_substeps=1, N=200, seed=0)
    simulate_averaged(model, oracle, run_cfg)
    assert oracle.stats["misses"] == len(oracle._cache) == 121
    assert oracle.stats["hits"] + oracle.stats["misses"] == run_cfg.n_steps * run_cfg.N
    assert len(calls) == len({key[:-1] for key in oracle._cache}) == 63
    for key, value in oracle._cache.items():
        centre = MeasureSummary(mean=np.array([key[1] * 0.05]), second_moment=key[2] * 0.05)
        want = estimate_bbar(model, np.array([key[0] * 0.05]), centre, cfg).value
        assert value.tobytes() == want.tobytes()


def second_moment_model(c):
    """The reference model with c * second_moment(mu) added to b2."""
    base = ref_model()

    def b2(x, mu, z, nu):
        return base.b2(x, mu, z, nu) + c * mu.second_moment

    return dataclasses.replace(base, b2=b2)


# two laws of mean 0.5 and second moments 0.26 and 0.34: cells 5 and 7
SAME_MEAN = (summarize_points(np.array([[0.4], [0.6]])), summarize_points(np.array([[0.2], [0.8]])))


@pytest.mark.parametrize("c", [0.3, 0.0])
def test_an_estimate_that_read_the_second_moment_shares_its_run_with_no_other_cell(
    monkeypatch, c
):
    # the rule is whether the estimate read the second moment, not whether
    # the value moved with it: at c = 0 it still reads it, so no cell shares
    calls = counted_estimates(monkeypatch)
    model = second_moment_model(c)
    oracle = make_drift_oracle(model, mode="estimated", frozen_cfg=frozen_cfg(M=100))
    xs = np.array([[0.0], [0.5], [1.0]])
    first, second = (oracle(xs, mu) for mu in SAME_MEAN)
    assert sorted({key[-1] for key in oracle._cache}) == [5, 7]
    assert len(calls) == oracle.stats["misses"] == len(oracle._cache) == 6
    if c:
        assert np.all(first != second)
    else:
        assert np.array_equal(first, second)


def test_cells_a_cache_load_adds_share_no_run(monkeypatch, tmp_path):
    path = tmp_path / "cache.json"
    x = np.array([0.5])
    cold = make_drift_oracle(ref_model(), mode="estimated", frozen_cfg=frozen_cfg(M=100))
    cold(x, SAME_MEAN[0])
    cold.save_cache(path)

    calls = counted_estimates(monkeypatch)
    warm = make_drift_oracle(ref_model(), mode="estimated", frozen_cfg=frozen_cfg(M=100))
    warm.load_cache(path)
    warm(x, SAME_MEAN[0])  # a loaded cell: a hit, no run
    assert len(calls) == 0 and warm.stats == {"hits": 1, "misses": 0}
    got = warm(x, SAME_MEAN[1])  # same (x, mean), other second moment: its own run
    assert len(calls) == 1 and warm.stats == {"hits": 1, "misses": 1}
    assert got.tobytes() == cold(x, SAME_MEAN[1]).tobytes()
    # from that run, which the warm oracle saw read nothing, a third cell shares
    warm(x, summarize_points(np.array([[0.0], [1.0]])))  # second moment 0.5: cell 10
    assert len(calls) == 1 and warm.stats == {"hits": 1, "misses": 2}
