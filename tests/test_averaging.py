"""Averaged-drift estimation tests.

The linear family gives closed forms to test against: stationary mean
m = (c1*x + c2*mean(mu))/(gamma - c3), averaged drift
a11*x + a12*mean(mu) + a13*m, stationary variance s2^2/(2*gamma) when the
frozen equation decouples, and ensemble-mean relaxation rate gamma - c3.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from mvx_avgfilter.averaging import (
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
from mvx_avgfilter.streams import derive_seed

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


def test_oracle_cell_is_estimate_bbar_at_its_centre_under_its_derived_seed():
    model = ref_model()
    cfg = frozen_cfg(M=100)
    oracle = make_drift_oracle(model, mode="estimated", frozen_cfg=cfg, quant=0.05)
    assert isinstance(oracle, AveragedDriftOracle)
    mu = summarize_points(np.array([[0.12], [0.31]]))  # mean 0.215, second moment 0.05525
    got = oracle(np.array([0.52]), mu)
    key = (10, 4, 1)  # rint of 0.52, 0.215 and 0.05525 over the quant 0.05
    assert list(oracle._cache) == [key]
    centre = MeasureSummary(mean=np.array([4 * 0.05]), second_moment=1 * 0.05)
    seeded = dataclasses.replace(cfg, seed=derive_seed(cfg.seed, "cell", *key))
    want = estimate_bbar(model, np.array([10 * 0.05]), centre, seeded).value
    assert got.tobytes() == want.tobytes()


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
