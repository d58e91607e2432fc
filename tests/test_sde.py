"""Integrator tests.

Independent routes used as oracles:
  - driftless diffusion has exact Gaussian marginal, Var = s1^2 * T
  - scalar linear ODE under Euler: known contraction factor (1 - dt/3)^K,
    limit e^{-T/3}
  - hand-rolled micro-step loop (written here, not imported) cross-checks the
    auxiliary process in the single-segment case
  - Ornstein-Uhlenbeck stationary moments: mean c1*x/gamma, variance
    s2^2/(2*gamma)
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from mvx_avgfilter import sde
from mvx_avgfilter.errors import (
    DimensionMismatch,
    GridMismatch,
    Instability,
    InvalidParams,
    MissingDelta,
)
from mvx_avgfilter.experiments import SweepConfig, averaging_error_sweep, filter_error_sweep
from mvx_avgfilter.filtering import (
    FilterConfig,
    generate_observations,
    get_functional,
    log_likelihood_increment,
    run_filter,
)
from mvx_avgfilter.measure import summarize_points, systematic_resample_indices
from mvx_avgfilter.model import LinearModelParams, ModelSpec, make_linear_model
from mvx_avgfilter.sde import (
    FrozenRunConfig,
    SdeConfig,
    coupled_pair,
    estimate_dissipativity,
    simulate_auxiliary,
    simulate_averaged,
    simulate_frozen,
    simulate_slow_fast,
    suggest_micro_substeps,
    validate_stability,
)
from mvx_avgfilter.streams import normal_increments, stream

REF = LinearModelParams()


def ref_model(params=REF, x0=1.0, z0=1.0):
    return make_linear_model(params, n=1, m=1, l=1, x0=[x0], z0=[z0])


# ===== config validation =====


def test_config_static_invariants():
    with pytest.raises(InvalidParams):
        SdeConfig(epsilon=0.1, T=1.0, dt_macro=2.0, N=10)  # dt > T
    with pytest.raises(InvalidParams):
        SdeConfig(epsilon=0.0, T=1.0, dt_macro=0.1, N=10)
    with pytest.raises(InvalidParams):
        SdeConfig(epsilon=0.1, T=1.0, dt_macro=0.1, N=1)
    with pytest.raises(InvalidParams):
        SdeConfig(epsilon=0.1, T=1.0, dt_macro=0.3, N=10)  # grid does not close at T


def test_stability_rule_suggests_substeps():
    model = ref_model()
    cfg = SdeConfig(epsilon=0.01, T=1.0, dt_macro=0.01, micro_substeps=1, N=10)
    with pytest.raises(InvalidParams) as err:
        validate_stability(model, cfg)
    assert "micro_substeps" in str(err.value)
    assert "8" in str(err.value)  # ceil(0.01*2/(0.25*0.01))
    assert suggest_micro_substeps(0.01, 0.01, 2.0) == 8
    ok = SdeConfig(epsilon=0.01, T=1.0, dt_macro=0.01, micro_substeps=8, N=10)
    validate_stability(model, ok)


@pytest.mark.parametrize("eps,needed", [(0.002, 70), (0.02, 8)])
def test_stability_rule_is_the_suggested_count_at_ties(eps, needed):
    # dt*gamma/(cap*eps) lands on a float tie at both points: 70.0 and 7.000000000000001
    model = ref_model(LinearModelParams(gamma=3.5))
    assert suggest_micro_substeps(0.01, eps, 3.5) == needed
    ok = SdeConfig(epsilon=eps, T=0.02, dt_macro=0.01, micro_substeps=needed, N=4)
    validate_stability(model, ok)
    simulate_slow_fast(model, ok)
    coarse = dataclasses.replace(ok, micro_substeps=needed - 1)
    with pytest.raises(InvalidParams) as err:
        validate_stability(model, coarse)
    assert f"micro_substeps={needed - 1}," in str(err.value)
    assert str(err.value).endswith(f"needs micro_substeps >= {needed}")


def test_dissipativity_probe_linear():
    assert estimate_dissipativity(ref_model()) == pytest.approx(REF.gamma, rel=1e-6)


# ===== simulate_slow_fast =====


def test_constant_slow_when_b1_sigma1_zero():
    params = LinearModelParams(a11=0.0, a12=0.0, a13=0.0, s1=0.0)
    model = ref_model(params, x0=0.7)
    cfg = SdeConfig(epsilon=0.1, T=0.5, dt_macro=0.05, micro_substeps=4, N=50, seed=3)
    path = simulate_slow_fast(model, cfg)
    assert np.all(path.slow == 0.7)


def test_initial_clouds_are_dirac():
    model = ref_model(x0=1.0, z0=-2.0)
    cfg = SdeConfig(epsilon=0.1, T=0.2, dt_macro=0.05, micro_substeps=4, N=20, seed=1)
    path = simulate_slow_fast(model, cfg)
    assert np.all(path.slow[0] == 1.0)
    assert np.all(path.fast[0] == -2.0)
    assert path.times[0] == 0.0
    assert path.times[-1] == pytest.approx(0.2)


def test_driftless_slow_variance():
    params = LinearModelParams(a11=0.0, a12=0.0, a13=0.0, s1=0.7)
    model = ref_model(params, x0=0.0)
    cfg = SdeConfig(epsilon=0.1, T=1.0, dt_macro=0.01, micro_substeps=1, N=10_000, seed=11)
    path = simulate_slow_fast(model, cfg)
    var = float(np.var(path.slow[-1][:, 0], ddof=1))
    assert var == pytest.approx(0.49, rel=0.05)


def test_determinism_bitwise():
    model = ref_model()
    cfg = SdeConfig(epsilon=0.05, T=0.5, dt_macro=0.01, micro_substeps=2, N=64, seed=42)
    a = simulate_slow_fast(model, cfg)
    b = simulate_slow_fast(model, cfg)
    assert np.array_equal(a.slow, b.slow)
    assert np.array_equal(a.fast, b.fast)


def test_adding_particles_preserves_existing_paths():
    model = ref_model()
    small = SdeConfig(epsilon=0.1, T=0.3, dt_macro=0.05, micro_substeps=4, N=8, seed=7)
    large = SdeConfig(epsilon=0.1, T=0.3, dt_macro=0.05, micro_substeps=4, N=16, seed=7)
    pa = simulate_slow_fast(model, small)
    pb = simulate_slow_fast(model, large)
    # noise streams for the first 8 particles are identical by construction;
    # trajectories still differ through the empirical law, so compare noise
    a = normal_increments(7, "signal-slow", 6, 8, 1, 1.0)
    b = normal_increments(7, "signal-slow", 6, 16, 1, 1.0)
    assert np.array_equal(a, b[:, :8, :])
    assert pa.slow[1].shape[0] == 8 and pb.slow[1].shape[0] == 16


def test_moment_envelope():
    model = ref_model(x0=1.0, z0=1.0)
    for eps in (0.1, 0.05, 0.02):
        k = suggest_micro_substeps(0.01, eps, REF.gamma)
        cfg = SdeConfig(epsilon=eps, T=1.0, dt_macro=0.01, micro_substeps=k, N=500, seed=13)
        path = simulate_slow_fast(model, cfg)
        for p in (1, 2):
            bound = 10.0 * (1.0 + 1.0 + 1.0)  # |x0|^{2p} = |z0|^{2p} = 1
            worst_x = max(
                float(np.mean(np.sum(pts**2, axis=1) ** p)) for pts in path.slow
            )
            worst_z = max(
                float(np.mean(np.sum(pts**2, axis=1) ** p)) for pts in path.fast
            )
            assert worst_x <= bound
            assert worst_z <= bound


def test_instability_reported_with_step():
    # anti-dissipative fast drift blows up fast
    base = ref_model()
    model = ModelSpec(
        n=1, m=1, l=1,
        x0=np.zeros(1), z0=np.ones(1),
        b1=base.b1, sigma1=base.sigma1,
        b2=lambda x, mu, z, nu: 1e40 * z,
        sigma2=base.sigma2, h=base.h,
    )
    cfg = SdeConfig(epsilon=0.01, T=1.0, dt_macro=0.1, micro_substeps=1, N=10, seed=0)
    with np.errstate(over="ignore"), pytest.raises(Instability) as err:
        simulate_slow_fast(model, cfg)
    assert err.value.step is not None


def test_brownian_increment_variance():
    dt = 0.25
    draws = normal_increments(99, "check", 400, 50, 1, math.sqrt(dt))
    ratio = draws.var(ddof=1) / dt
    n = draws.size
    assert abs(ratio - 1.0) <= 3.0 * math.sqrt(2.0 / (n - 1))


# ===== simulate_frozen =====


def test_frozen_stationary_mean():
    params = LinearModelParams(gamma=2.0, c1=1.0, c2=0.0, c3=0.0, s2=1.0)
    model = ref_model(params)
    cfg = FrozenRunConfig(M=4000, dt=0.01, burn_in=2.0, avg_window=5.0, seed=5)
    path = simulate_frozen(model, np.array([1.0]), _zero_summary(1), cfg)
    tail = [summarize_points(pts).mean[0] for pts in path.fast[len(path.times) // 2 :]]
    assert np.mean(tail) == pytest.approx(0.5, abs=0.02)


def test_frozen_zero_case():
    params = LinearModelParams(gamma=2.0, c1=1.0, c2=0.5, c3=0.0, s2=1.0)
    model = ref_model(params, z0=0.0)
    cfg = FrozenRunConfig(M=2000, dt=0.01, burn_in=0.0, avg_window=2.0, seed=5)
    path = simulate_frozen(model, np.zeros(1), _zero_summary(1), cfg)
    for pts in path.fast:
        assert abs(float(summarize_points(pts).mean[0])) < 0.1


def test_frozen_ou_variance():
    params = LinearModelParams(gamma=2.0, c1=0.0, c2=0.0, c3=0.0, s2=1.0)
    model = ref_model(params, z0=0.0)
    cfg = FrozenRunConfig(M=4000, dt=0.005, burn_in=2.0, avg_window=6.0, seed=17)
    path = simulate_frozen(model, np.zeros(1), _zero_summary(1), cfg)
    half = len(path.times) // 2
    tail_var = np.mean([
        summarize_points(pts).second_moment - float(summarize_points(pts).mean[0]) ** 2
        for pts in path.fast[half:]
    ])
    assert tail_var == pytest.approx(0.25, rel=0.05)


def test_frozen_deterministic_contraction():
    params = LinearModelParams(gamma=2.0, c1=0.0, c2=0.0, c3=0.0, s2=0.0)
    model = ref_model(params, z0=1.0)
    cfg = FrozenRunConfig(M=10, dt=0.01, burn_in=0.0, avg_window=4.0, seed=0)
    path = simulate_frozen(model, np.zeros(1), _zero_summary(1), cfg)
    final = summarize_points(path.fast[-1])
    assert abs(float(final.mean[0])) < 1e-3
    assert final.second_moment < 1e-3


def _frozen_model(b2, sigma2, z0=1.0):
    base = ref_model()
    return ModelSpec(
        n=1, m=1, l=1,
        x0=np.zeros(1), z0=np.full(1, z0),
        b1=base.b1, sigma1=base.sigma1,
        b2=b2, sigma2=sigma2, h=base.h,
    )


@pytest.mark.parametrize("avg_window", [0.2, 0.04])  # overflow mid-run, and on the last step
def test_frozen_overflow_raises_at_its_step(avg_window):
    # z grows by 1e98 a step from z0 = 1, so it first overflows at step 4
    model = _frozen_model(lambda x, mu, z, nu: 1e100 * z, lambda x, mu, z, nu: np.eye(1))
    cfg = FrozenRunConfig(M=6, dt=0.01, burn_in=0.0, avg_window=avg_window, seed=0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(Instability) as err:
        simulate_frozen(model, np.zeros(1), _zero_summary(1), cfg)
    assert (err.value.step, err.value.time) == (4, 4 * 0.01)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("avg_window", [0.1, 0.03])  # a mid-run step, and the last step
def test_frozen_non_finite_particle_raises_at_its_step(bad, avg_window):
    calls = []

    def b2(x, mu, z, nu):
        calls.append(None)
        out = np.zeros_like(z)
        if len(calls) == 3:
            out[1] = bad  # one particle of the third step only
        return out

    model = _frozen_model(b2, lambda x, mu, z, nu: np.eye(1))
    cfg = FrozenRunConfig(M=5, dt=0.01, burn_in=0.0, avg_window=avg_window, seed=0)
    with np.errstate(invalid="ignore"), pytest.raises(Instability) as err:
        simulate_frozen(model, np.zeros(1), _zero_summary(1), cfg)
    assert (err.value.step, err.value.time) == (3, 3 * 0.01)


def test_frozen_finite_state_whose_sum_overflows_runs():
    zero_drift = lambda x, mu, z, nu: np.zeros_like(z)  # noqa: E731
    model = _frozen_model(zero_drift, lambda x, mu, z, nu: np.zeros((1, 1)), z0=1e308)
    cfg = FrozenRunConfig(M=4, dt=0.01, burn_in=0.0, avg_window=0.1, seed=0)
    with np.errstate(over="ignore"):
        path = simulate_frozen(model, np.zeros(1), _zero_summary(1), cfg)
    assert np.all(path.fast == 1e308)


def test_frozen_run_summarizes_each_state_once(monkeypatch):
    model = ref_model()
    cfg = FrozenRunConfig(M=7, dt=0.05, burn_in=0.1, avg_window=0.3, seed=4)
    mu = _zero_summary(1)
    want = simulate_frozen(model, np.ones(1), mu, cfg).fast
    seen = []

    def counting(points, weights=None):
        seen.append(points)
        return summarize_points(points, weights)

    monkeypatch.setattr(sde, "summarize_points", counting)
    path = simulate_frozen(model, np.ones(1), mu, cfg)
    assert np.array_equal(path.fast, want)
    assert len(seen) == cfg.n_steps  # the states before each step, not the last one
    assert all(np.array_equal(p, z) for p, z in zip(seen, path.fast[:-1]))


@pytest.mark.parametrize("N", [1, 7, 200, 2000, 4097])
def test_one_column_diffusion_is_the_bytes_of_matmul(N):
    dw = np.random.default_rng(N).normal(size=(N, 1))
    dw[::3] = 0.0
    dw[1::3] = -0.0
    columns = [np.full((rows, 1), v) for rows in (1, 3) for v in (0.5, -0.5, 0.0, -0.0, np.inf)]
    columns.append(np.array([[0.25], [-0.0], [-3.0]]))
    for sig in columns:
        with np.errstate(invalid="ignore"):
            got = sde._apply_sigma(sig, dw, sig.shape[0])
            want = dw @ sig.T
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# ===== finiteness of the slow-fast, averaged and auxiliary runs =====
# Each run checks a state through the mean of the summary its next step makes,
# and the last state plainly; Instability names the step the state belongs to.


def _poisoning(fn, at, bad):
    """fn, except that call number ``at`` puts ``bad`` into particle 1."""
    calls = []

    def wrapped(*args):
        calls.append(None)
        out = np.array(fn(*args), dtype=float)
        if len(calls) == at:
            out[1] = bad
        return out

    return wrapped


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("T", [0.1, 0.03])  # a mid-run step, and the last step
@pytest.mark.parametrize("state", ["slow", "fast"])
def test_slow_fast_non_finite_particle_raises_at_its_step(bad, T, state):
    base = ref_model()
    cfg = SdeConfig(epsilon=0.1, T=T, dt_macro=0.01, micro_substeps=2, N=5, seed=1)
    if state == "slow":  # b1 runs once per macro step
        model = dataclasses.replace(base, b1=_poisoning(base.b1, 3, bad))
    else:  # b2 runs once per micro-substep; poison the last one of step 3
        model = dataclasses.replace(base, b2=_poisoning(base.b2, 6, bad))
    with np.errstate(invalid="ignore"), pytest.raises(Instability) as err:
        simulate_slow_fast(model, cfg)
    assert (err.value.step, err.value.time) == (3, 3 * 0.01)
    assert f"{state} state" in str(err.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("T", [0.1, 0.03])
def test_averaged_non_finite_particle_raises_at_its_step(bad, T):
    drift = _poisoning(lambda x, mu: -x, 3, bad)
    cfg = SdeConfig(epsilon=0.1, T=T, dt_macro=0.01, N=5, seed=1)
    with np.errstate(invalid="ignore"), pytest.raises(Instability) as err:
        simulate_averaged(ref_model(), drift, cfg)
    assert (err.value.step, err.value.time) == (3, 3 * 0.01)


# delta_eps=0.03 restarts at steps 0, 3, 6, 9: step 3 is a restart, whose
# computed state is replaced before any summary sees it; step 4 is not; T=0.04
# makes step 4 the last.
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("step, T", [(3, 0.1), (4, 0.1), (4, 0.04)])
def test_auxiliary_non_finite_particle_raises_at_its_step(bad, step, T):
    base = ref_model()
    cfg = SdeConfig(
        epsilon=0.1, T=T, dt_macro=0.01, micro_substeps=2, N=5, seed=1, delta_eps=0.03
    )
    path = simulate_slow_fast(base, cfg)
    model = dataclasses.replace(base, b2=_poisoning(base.b2, 2 * step, bad))
    with np.errstate(invalid="ignore"), pytest.raises(Instability) as err:
        simulate_auxiliary(model, path, cfg)
    assert (err.value.step, err.value.time) == (step, step * 0.01)


def test_runs_of_a_finite_state_whose_sum_overflows():
    # every particle sits at 1e308 and never moves: each summary's sum
    # overflows, but no point is non-finite, so every run must finish
    zero = lambda x, *args: np.zeros_like(x)  # noqa: E731
    model = ModelSpec(
        n=1, m=1, l=1, x0=np.full(1, 1e308), z0=np.full(1, 1e308),
        b1=zero, sigma1=lambda x, mu: np.zeros((1, 1)),
        b2=lambda x, mu, z, nu: np.zeros_like(z),
        sigma2=lambda x, mu, z, nu: np.zeros((1, 1)), h=lambda x, mu: x,
    )
    cfg = SdeConfig(epsilon=0.1, T=0.05, dt_macro=0.01, N=5, seed=1, delta_eps=0.02)
    with np.errstate(over="ignore"):
        path = simulate_slow_fast(model, cfg)
        averaged = simulate_averaged(model, zero, cfg)
        aux = simulate_auxiliary(model, path, cfg)
    for states in (path.slow, path.fast, averaged.slow, aux.aux):
        assert np.all(states == 1e308)


def _zero_summary(d):
    from mvx_avgfilter.measure import MeasureSummary

    return MeasureSummary(mean=np.zeros(d), second_moment=0.0, n_points=1)


# ===== simulate_averaged =====


def test_averaged_constant_when_zero():
    params = LinearModelParams(a11=0.0, a12=0.0, a13=0.0, s1=0.0)
    model = ref_model(params, x0=2.0)
    cfg = SdeConfig(epsilon=0.1, T=0.5, dt_macro=0.05, micro_substeps=1, N=30, seed=0)
    path = simulate_averaged(model, lambda x, mu: np.zeros_like(x), cfg)
    assert np.all(path.slow == 2.0)
    assert path.fast is None


def test_averaged_scalar_ode():
    params = LinearModelParams(a11=-1.0, a12=0.0, a13=1.0, s1=0.0)
    model = ref_model(params, x0=1.0)
    dt = 0.01
    cfg = SdeConfig(epsilon=0.1, T=1.0, dt_macro=dt, micro_substeps=1, N=10, seed=0)
    path = simulate_averaged(model, lambda x, mu: -x / 3.0, cfg)
    xT = float(path.slow[-1][0, 0])
    euler = (1.0 - dt / 3.0) ** 100
    assert xT == pytest.approx(euler, abs=1e-12)
    assert xT == pytest.approx(math.exp(-1.0 / 3.0), abs=5e-4)


def test_averaged_bit_identical_when_z_free():
    params = LinearModelParams(a11=-1.0, a12=0.3, a13=0.0, s1=0.5)
    model = ref_model(params)
    cfg = SdeConfig(epsilon=0.05, T=0.5, dt_macro=0.01, micro_substeps=2, N=100, seed=23)
    p = params

    def analytic(x, mu):
        w = (p.c1 * x + p.c2 * mu.mean) / (p.gamma - p.c3)
        return p.a11 * x + p.a12 * mu.mean + p.a13 * w

    sf = simulate_slow_fast(model, cfg)
    av = simulate_averaged(model, analytic, cfg)
    assert np.array_equal(sf.slow, av.slow)


# ===== coupled_pair =====


def test_coupled_pair_exact_zero_when_z_free():
    params = LinearModelParams(a11=-1.0, a12=0.2, a13=0.0, s1=0.5)
    model = ref_model(params)
    cfg = SdeConfig(epsilon=0.1, T=0.5, dt_macro=0.01, micro_substeps=1, N=100, seed=2)
    p = params

    def analytic(x, mu):
        w = (p.c1 * x + p.c2 * mu.mean) / (p.gamma - p.c3)
        return p.a11 * x + p.a12 * mu.mean + p.a13 * w

    sf, av = coupled_pair(model, analytic, cfg)
    assert np.max(np.abs(sf.slow - av.slow)) == 0.0


def test_coupled_pair_error_shrinks_with_epsilon():
    model = ref_model()
    p = REF

    def analytic(x, mu):
        w = (p.c1 * x + p.c2 * mu.mean) / (p.gamma - p.c3)
        return p.a11 * x + p.a12 * mu.mean + p.a13 * w

    sups = {}
    for eps in (0.1, 0.01):
        k = suggest_micro_substeps(0.01, eps, p.gamma)
        cfg = SdeConfig(epsilon=eps, T=1.0, dt_macro=0.01, micro_substeps=k, N=400, seed=31)
        sf, av = coupled_pair(model, analytic, cfg)
        worst = np.zeros(400)
        for ca, cb in zip(sf.slow, av.slow):
            worst = np.maximum(worst, np.linalg.norm(ca - cb, axis=1))
        sups[eps] = float(np.mean(worst**2))
    assert sups[0.01] < sups[0.1]


def test_coupled_pair_deterministic_matches_quadrature():
    # sigma1 = 0: averaged arm is a deterministic ODE; compare against scipy
    from scipy.integrate import solve_ivp

    params = LinearModelParams(a11=-1.0, a12=0.0, a13=1.0, s1=0.0)
    model = ref_model(params, x0=1.0)
    p = params

    def analytic(x, mu):
        w = (p.c1 * x + p.c2 * mu.mean) / (p.gamma - p.c3)
        return p.a11 * x + p.a12 * mu.mean + p.a13 * w

    def rhs(t, y):
        w = p.c1 * y / (p.gamma - p.c3)
        return p.a11 * y + p.a13 * w

    ref = solve_ivp(rhs, (0.0, 1.0), [1.0], rtol=1e-10, atol=1e-12).y[0, -1]
    errs = {}
    for dt in (0.01, 0.005):
        cfg = SdeConfig(epsilon=0.05, T=1.0, dt_macro=dt, micro_substeps=2, N=16, seed=3)
        _, av = coupled_pair(model, analytic, cfg)
        errs[dt] = abs(float(av.slow[-1][0, 0]) - ref)
    # first-order scheme: halving dt roughly halves the bias
    bias_estimate = 2.0 * abs(errs[0.01] - errs[0.005])
    assert errs[0.01] <= 2.0 * bias_estimate + 1e-9


# ===== simulate_auxiliary =====


def test_auxiliary_requires_delta():
    model = ref_model()
    cfg = SdeConfig(epsilon=0.1, T=0.2, dt_macro=0.05, micro_substeps=4, N=16, seed=5)
    path = simulate_slow_fast(model, cfg)
    with pytest.raises(MissingDelta):
        simulate_auxiliary(model, path, cfg)


def test_auxiliary_rejects_mismatched_config():
    model = ref_model()
    cfg = SdeConfig(epsilon=0.1, T=0.2, dt_macro=0.05, micro_substeps=4, N=16, seed=5)
    path = simulate_slow_fast(model, cfg)
    other = SdeConfig(
        epsilon=0.1, T=0.2, dt_macro=0.05, micro_substeps=4, N=16, seed=6, delta_eps=0.1
    )
    with pytest.raises(GridMismatch):
        simulate_auxiliary(model, path, other)


@pytest.mark.parametrize("T", [0.3, 0.1])
def test_auxiliary_rejects_other_horizon(T):
    model = ref_model()
    cfg = SdeConfig(epsilon=0.1, T=0.2, dt_macro=0.05, micro_substeps=4, N=16, seed=5)
    path = simulate_slow_fast(model, cfg)
    other = SdeConfig(
        epsilon=0.1, T=T, dt_macro=0.05, micro_substeps=4, N=16, seed=5, delta_eps=0.1
    )
    with pytest.raises(GridMismatch, match=rf"{other.n_steps} macro steps .* has 4"):
        simulate_auxiliary(model, path, other)


def test_auxiliary_identical_for_constant_slow():
    params = LinearModelParams(a11=0.0, a12=0.0, a13=0.0, s1=0.0)
    model = ref_model(params)
    cfg = SdeConfig(
        epsilon=0.05, T=0.5, dt_macro=0.01, micro_substeps=2, N=64, seed=9, delta_eps=0.1
    )
    path = simulate_slow_fast(model, cfg)
    aux = simulate_auxiliary(model, path, cfg)
    assert np.array_equal(path.fast, aux.aux)


def test_auxiliary_single_segment_matches_manual_frozen_run():
    model = ref_model()
    cfg = SdeConfig(
        epsilon=0.05, T=0.3, dt_macro=0.01, micro_substeps=3, N=32, seed=77, delta_eps=1.0
    )
    path = simulate_slow_fast(model, cfg)
    aux = simulate_auxiliary(model, path, cfg)

    # hand-rolled fast loop with inputs frozen at time 0, same noise
    p = REF
    eps, dt, ksub, n_steps = cfg.epsilon, cfg.dt_macro, cfg.micro_substeps, 30
    dts = dt / ksub
    w = normal_increments(77, "signal-fast", n_steps * ksub, 32, 1, math.sqrt(dts))
    zh = path.fast[0].copy()
    x_frozen = path.slow[0]
    mu_mean = x_frozen.mean(axis=0)
    for k in range(n_steps):
        nu_mean = zh.mean(axis=0)
        for s in range(ksub):
            drift = -p.gamma * zh + p.c1 * x_frozen + p.c2 * mu_mean + p.c3 * nu_mean
            zh = zh + drift * (dts / eps) + (p.s2 / math.sqrt(eps)) * w[k * ksub + s]
        np.testing.assert_array_equal(zh, aux.aux[k + 1])


def test_auxiliary_error_shrinks_with_delta():
    model = ref_model()
    stats = {}
    for delta in (0.25, 0.05):
        cfg = SdeConfig(
            epsilon=0.05, T=1.0, dt_macro=0.01, micro_substeps=2, N=256, seed=15, delta_eps=delta
        )
        path = simulate_slow_fast(model, cfg)
        aux = simulate_auxiliary(model, path, cfg)
        worst = max(
            float(np.mean(np.sum((cz - ca) ** 2, axis=1)))
            for cz, ca in zip(path.fast, aux.aux)
        )
        stats[delta] = worst
    assert stats[0.05] < stats[0.25]


# ===== slow-increment smallness =====


def test_slow_increment_smallness_stable_across_eps():
    model = ref_model()

    def stat(eps):
        delta = eps * (-math.log(eps)) ** (1.0 / 3.0)
        k = suggest_micro_substeps(0.01, eps, REF.gamma)
        cfg = SdeConfig(epsilon=eps, T=1.0, dt_macro=0.01, micro_substeps=k, N=256, seed=21)
        path = simulate_slow_fast(model, cfg)
        seg = max(1, round(delta / 0.01))
        worst = 0.0
        for idx, pts in enumerate(path.slow):
            anchor = path.slow[(idx // seg) * seg]
            worst = max(worst, float(np.mean(np.sum((pts - anchor) ** 2, axis=1))))
        return worst, delta

    s1, d1 = stat(0.1)
    c = s1 / (d1 + d1**2)
    s2, d2 = stat(0.05)
    assert s2 <= 1.5 * c * (d2 + d2**2)


# ===== noise dimensions follow the model: x in R^n, z in R^m, y in R^l =====


def mixed_dims_model(n, m, l, sigma1=None):
    """Nonlinear model with square diffusions; no two of n, m, l need agree."""

    def b1(x, mu, z):
        return -x + 0.5 * np.tanh(z.sum(axis=-1, keepdims=True)) + 0.1 * mu.mean

    def b2(x, mu, z, nu):
        return -2.0 * z + 0.5 * x.mean(axis=-1, keepdims=True) + 0.1 * nu.mean + shift

    def h(x, mu):
        return np.tanh(x.sum(axis=-1, keepdims=True) * np.linspace(0.5, 1.5, l))

    shift = np.linspace(0.0, 0.1, m)  # makes b2 refuse a z of any other width
    sig1 = 0.5 * np.eye(n) if sigma1 is None else sigma1
    return ModelSpec(
        n=n, m=m, l=l, x0=np.full(n, 0.4), z0=np.full(m, -0.2),
        b1=b1, sigma1=lambda x, mu: sig1, b2=b2,
        sigma2=lambda x, mu, z, nu: 0.7 * np.eye(m), h=h,
    )


MIXED_DIMS = [(1, 2, 2), (2, 3, 1)]
MIXED_CFG = SdeConfig(
    epsilon=0.1, T=0.2, dt_macro=0.02, micro_substeps=4, N=12, seed=3, delta_eps=0.04
)


@pytest.mark.parametrize("n,m,l", MIXED_DIMS)
def test_simulators_draw_noise_in_the_model_dimensions(n, m, l):
    model = mixed_dims_model(n, m, l)
    cfg = MIXED_CFG
    assert estimate_dissipativity(model) == pytest.approx(2.0)
    path = simulate_slow_fast(model, cfg)
    assert path.slow.shape == (11, 12, n) and path.fast.shape == (11, 12, m)
    avg = simulate_averaged(model, lambda x, mu: -x, cfg)
    assert avg.slow.shape == (11, 12, n)
    aux = simulate_auxiliary(model, path, cfg)
    assert aux.aux.shape == (11, 12, m)
    frozen_cfg = FrozenRunConfig(M=9, dt=0.05, burn_in=0.1, avg_window=0.2, seed=2)
    frozen = simulate_frozen(model, np.zeros(n), summarize_points(path.slow[-1]), frozen_cfg)
    assert frozen.fast.shape == (frozen_cfg.n_steps + 1, 9, m)
    for arr in (path.slow, path.fast, avg.slow, aux.aux, frozen.fast):
        assert np.isfinite(arr).all()


@pytest.mark.parametrize("n,m,l", MIXED_DIMS)
def test_filter_arms_draw_noise_in_the_model_dimensions(n, m, l):
    model = mixed_dims_model(n, m, l)
    cfg = MIXED_CFG
    obs = generate_observations(model, simulate_slow_fast(model, cfg), 0, cfg.dt_macro, 7)
    assert obs.increments.shape == (10, l)
    fcfg = FilterConfig(Nf=20, resample_threshold=0.5, functional="tanh")
    for kind, drift in (("multiscale", None), ("averaged", lambda x, mu: -x)):
        traj = run_filter(kind, model, drift, obs, fcfg, cfg)
        assert np.isfinite(traj.pi_F).all()


@pytest.mark.parametrize("shape", [(2, 2), (12, 2, 2), (1, 2)])
def test_diffusion_of_the_wrong_width_is_refused(shape):
    model = mixed_dims_model(1, 2, 2, sigma1=np.full(shape, 0.5))
    with pytest.raises(DimensionMismatch, match="2 columns but the noise increments have 1"):
        simulate_slow_fast(model, MIXED_CFG)


# which diffusion each run gets one row too many of: sigma1 (n=1) or sigma2 (m=2)
BAD_ROWS = {
    "slow-fast-sigma1": "2 rows but the state width is 1",
    "slow-fast-sigma2": "3 rows but the state width is 2",
    "averaged": "2 rows but the state width is 1",
    "frozen": "3 rows but the state width is 2",
    "auxiliary": "3 rows but the state width is 2",
    "filter-multiscale": "2 rows but the state width is 1",
    "filter-averaged": "2 rows but the state width is 1",
}


@pytest.mark.parametrize("run", sorted(BAD_ROWS))
def test_diffusion_with_the_wrong_row_count_is_refused(run):
    good = mixed_dims_model(1, 2, 2)
    bad_slow = mixed_dims_model(1, 2, 2, sigma1=np.full((2, 1), 0.5))
    bad_fast = dataclasses.replace(good, sigma2=lambda x, mu, z, nu: np.full((3, 2), 0.7))
    cfg = MIXED_CFG
    path = simulate_slow_fast(good, cfg)
    obs = generate_observations(good, path, 0, cfg.dt_macro, 7)
    fcfg = FilterConfig(Nf=20, resample_threshold=0.5, functional="tanh")
    frozen_cfg = FrozenRunConfig(M=9, dt=0.05, burn_in=0.1, avg_window=0.2, seed=2)
    mu = summarize_points(path.slow[-1])
    runs = {
        "slow-fast-sigma1": lambda: simulate_slow_fast(bad_slow, cfg),
        "slow-fast-sigma2": lambda: simulate_slow_fast(bad_fast, cfg),
        "averaged": lambda: simulate_averaged(bad_slow, lambda x, mu: -x, cfg),
        "frozen": lambda: simulate_frozen(bad_fast, np.zeros(1), mu, frozen_cfg),
        "auxiliary": lambda: simulate_auxiliary(bad_fast, path, cfg),
        "filter-multiscale": lambda: run_filter("multiscale", bad_slow, None, obs, fcfg, cfg),
        "filter-averaged": lambda: run_filter(
            "averaged", bad_slow, lambda x, mu: -x, obs, fcfg, cfg
        ),
    }
    with pytest.raises(DimensionMismatch, match=BAD_ROWS[run]):
        runs[run]()


@pytest.mark.parametrize("sweep", ["averaging", "filter", "filter-multiscale-arms"])
def test_each_sweep_probes_the_model_once(sweep, monkeypatch):
    probe = sde.estimate_dissipativity
    calls = []
    monkeypatch.setattr(
        sde, "estimate_dissipativity", lambda model: calls.append(model) or probe(model)
    )
    model = mixed_dims_model(1, 2, 2)
    cfg = SweepConfig(
        eps_grid=(0.1, 0.05),
        mc_reps=4,
        base_sde=MIXED_CFG,
        filter_cfg=FilterConfig(Nf=20, resample_threshold=0.5, functional="tanh"),
    )
    drift = lambda x, mu: -x  # noqa: E731
    if sweep == "averaging":
        averaging_error_sweep(model, drift, cfg)
    elif sweep == "filter":
        filter_error_sweep(model, drift, "tanh", cfg)
    else:
        filter_error_sweep(model, None, "tanh", cfg, arms=("multiscale", "multiscale"))
    assert calls == [model]


# ===== one step kernel: bitwise against the hand-written Euler loops =====
#
# The loops below are the integrators as they were written out inline, one
# per simulator and one per filter arm.  They are the reference the shared
# step kernels must reproduce bit for bit.


def _reference_slow_fast(model, cfg):
    ksub, dt, eps = cfg.micro_substeps, cfg.dt_macro, cfg.epsilon
    dts = dt / ksub
    x = np.tile(np.asarray(model.x0, dtype=float).reshape(1, -1), (cfg.N, 1))
    z = np.tile(np.asarray(model.z0, dtype=float).reshape(1, -1), (cfg.N, 1))
    dw_slow = normal_increments(
        cfg.seed, "signal-slow", cfg.n_steps, cfg.N, model.n, math.sqrt(dt)
    )
    dw_fast = normal_increments(
        cfg.seed, "signal-fast", cfg.n_steps * ksub, cfg.N, model.m, math.sqrt(dts)
    )
    inv_sqrt_eps = 1.0 / math.sqrt(eps)
    slow, fast = [x], [z]
    for k in range(cfg.n_steps):
        mu = summarize_points(x)
        nu = summarize_points(z)
        x_macro = x
        x = (
            x
            + np.asarray(model.b1(x_macro, mu, z)) * dt
            + _sigma_dw(model.sigma1(x_macro, mu), dw_slow[k])
        )
        for s in range(ksub):
            dw = dw_fast[k * ksub + s]
            z = (
                z
                + np.asarray(model.b2(x_macro, mu, z, nu)) * (dts / eps)
                + _sigma_dw(model.sigma2(x_macro, mu, z, nu), dw) * inv_sqrt_eps
            )
        slow.append(x)
        fast.append(z)
    return np.stack(slow), np.stack(fast)


def _reference_frozen(model, x, mu, cfg):
    x_frozen = np.tile(np.asarray(x, dtype=float).reshape(1, -1), (cfg.M, 1))
    z = np.tile(np.asarray(model.z0, dtype=float).reshape(1, -1), (cfg.M, 1))
    dw = normal_increments(cfg.seed, "frozen", cfg.n_steps, cfg.M, model.m, math.sqrt(cfg.dt))
    fast = [z]
    for k in range(cfg.n_steps):
        nu = summarize_points(z)
        z = (
            z
            + np.asarray(model.b2(x_frozen, mu, z, nu)) * cfg.dt
            + _sigma_dw(model.sigma2(x_frozen, mu, z, nu), dw[k])
        )
        fast.append(z)
    return np.stack(fast)


def _reference_averaged(model, drift, cfg):
    dt = cfg.dt_macro
    x = np.tile(np.asarray(model.x0, dtype=float).reshape(1, -1), (cfg.N, 1))
    dw_slow = normal_increments(
        cfg.seed, "signal-slow", cfg.n_steps, cfg.N, model.n, math.sqrt(dt)
    )
    slow = [x]
    for k in range(cfg.n_steps):
        mu = summarize_points(x)
        x = x + np.asarray(drift(x, mu)) * dt + _sigma_dw(model.sigma1(x, mu), dw_slow[k])
        slow.append(x)
    return np.stack(slow)


def _reference_auxiliary(model, path, cfg):
    ksub, dt, eps = cfg.micro_substeps, cfg.dt_macro, cfg.epsilon
    dts = dt / ksub
    seg = max(1, int(round(cfg.delta_eps / dt)))
    dw_fast = normal_increments(
        cfg.seed, "signal-fast", cfg.n_steps * ksub, cfg.N, model.m, math.sqrt(dts)
    )
    inv_sqrt_eps = 1.0 / math.sqrt(eps)
    aux = [path.fast[0]]
    for k in range(cfg.n_steps):
        if k % seg == 0:
            zh = path.fast[k]
            x_frozen = path.slow[k]
            mu_frozen = summarize_points(x_frozen)
        nu = summarize_points(zh)
        for s in range(ksub):
            dw = dw_fast[k * ksub + s]
            zh = (
                zh
                + np.asarray(model.b2(x_frozen, mu_frozen, zh, nu)) * (dts / eps)
                + _sigma_dw(model.sigma2(x_frozen, mu_frozen, zh, nu), dw) * inv_sqrt_eps
            )
        aux.append(zh)
    return np.stack(aux)


def _reference_filter(kind, model, drift, obs, cfg, sde_cfg):
    n_steps, dt, nf = sde_cfg.n_steps, sde_cfg.dt_macro, cfg.Nf
    multiscale = kind == "multiscale"
    f_func = get_functional(cfg.functional)
    x = np.tile(np.asarray(model.x0, dtype=float).reshape(1, -1), (nf, 1))
    dw_slow = normal_increments(sde_cfg.seed, "filter-slow", n_steps, nf, model.n, math.sqrt(dt))
    if multiscale:
        z = np.tile(np.asarray(model.z0, dtype=float).reshape(1, -1), (nf, 1))
        ksub = sde_cfg.micro_substeps
        dts = dt / ksub
        dw_fast = normal_increments(
            sde_cfg.seed, "filter-fast", n_steps * ksub, nf, model.m, math.sqrt(dts)
        )
        inv_sqrt_eps = 1.0 / math.sqrt(sde_cfg.epsilon)
    resample_rng = stream(sde_cfg.seed, "filter-resample")
    pi, rho, ess = [], [], []
    logw = np.zeros(nf)
    log_offset = 0.0
    u = np.exp(logw)
    s = u.sum()
    pi.append(float((u * f_func(x, obs.signal_law_trace[0])).sum() / s))
    ess.append(float(s * s / (u @ u)))
    rho.append(0.0)
    for k in range(n_steps):
        mu_k = obs.signal_law_trace[k]
        logw = logw + log_likelihood_increment(model.h(x, mu_k), obs.increments[k], dt)
        mx = logw.max()
        u = np.exp(logw - mx)
        s = u.sum()
        ess_k = float(s * s / (u @ u))
        log_rho_next = log_offset + mx + math.log(s / nf)
        if ess_k < cfg.resample_threshold * nf:
            idx = systematic_resample_indices(u / s, float(resample_rng.random()))
            x = x[idx]
            if multiscale:
                z = z[idx]
            logw = np.zeros(nf)
            u = np.ones(nf)
            s = u.sum()
            log_offset = log_rho_next
        x_macro = x
        if multiscale:
            nu_k = obs.fast_law_trace[k]
            x = (
                x
                + np.asarray(model.b1(x_macro, mu_k, z)) * dt
                + _sigma_dw(model.sigma1(x_macro, mu_k), dw_slow[k])
            )
            for s_i in range(ksub):
                dw = dw_fast[k * ksub + s_i]
                z = (
                    z
                    + np.asarray(model.b2(x_macro, mu_k, z, nu_k)) * (dts / sde_cfg.epsilon)
                    + _sigma_dw(model.sigma2(x_macro, mu_k, z, nu_k), dw) * inv_sqrt_eps
                )
        else:
            x = (
                x
                + np.asarray(drift(x, mu_k)) * dt
                + _sigma_dw(model.sigma1(x, mu_k), dw_slow[k])
            )
        fv = np.asarray(f_func(x, obs.signal_law_trace[k + 1]), dtype=float)
        pi.append(float((u * fv).sum() / s))
        ess.append(ess_k)
        rho.append(log_rho_next)
    return np.array(pi), np.array(ess), np.array(rho)


def _sigma_dw(sig, dw):
    sig = np.asarray(sig, dtype=float)
    return dw @ sig.T if sig.ndim == 2 else np.einsum("nij,nj->ni", sig, dw)


KERNEL_MODELS = {
    "linear-2": lambda: make_linear_model(
        LinearModelParams(), n=2, m=2, l=2, x0=[1.0, -0.5], z0=[0.5, 1.0]
    ),
    "mixed-1-2-2": lambda: mixed_dims_model(1, 2, 2),
    "mixed-2-3-1": lambda: mixed_dims_model(2, 3, 1),
}


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_step_kernels_reproduce_the_hand_written_loops(name):
    model = KERNEL_MODELS[name]()
    cfg = SdeConfig(
        epsilon=0.1, T=0.2, dt_macro=0.02, micro_substeps=4, N=12, seed=3, delta_eps=0.04
    )
    drift = lambda x, mu: -x + 0.1 * mu.mean  # noqa: E731

    path = simulate_slow_fast(model, cfg)
    ref_slow, ref_fast = _reference_slow_fast(model, cfg)
    assert np.array_equal(path.slow, ref_slow) and np.array_equal(path.fast, ref_fast)
    averaged = simulate_averaged(model, drift, cfg)
    assert np.array_equal(averaged.slow, _reference_averaged(model, drift, cfg))
    aux = simulate_auxiliary(model, path, cfg)
    assert np.array_equal(aux.aux, _reference_auxiliary(model, path, cfg))
    frozen_cfg = FrozenRunConfig(M=9, dt=0.05, burn_in=0.1, avg_window=0.2, seed=2)
    x = np.full(model.n, 0.3)
    mu = summarize_points(path.slow[-1])
    frozen = simulate_frozen(model, x, mu, frozen_cfg)
    assert np.array_equal(frozen.fast, _reference_frozen(model, x, mu, frozen_cfg))

    obs = generate_observations(model, path, 0, cfg.dt_macro, 7)
    fcfg = FilterConfig(Nf=20, resample_threshold=1.0, functional="tanh")
    for kind, arm_drift in (("multiscale", None), ("averaged", drift)):
        traj = run_filter(kind, model, arm_drift, obs, fcfg, cfg)
        pi, ess, rho = _reference_filter(kind, model, arm_drift, obs, fcfg, cfg)
        assert traj.resample_events  # threshold 1.0 resamples on the first step
        assert np.array_equal(traj.pi_F, pi)
        assert np.array_equal(traj.ess, ess)
        assert np.array_equal(traj.log_rho1, rho)
