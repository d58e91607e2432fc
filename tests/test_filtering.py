"""Observation generation, Girsanov weights, particle filter, Kalman oracle.

Oracles: Brownian quadratic variation and scaling for raw observations,
exact exponential-martingale mean 1 (conditional Gaussian computation), a
Kalman-Bucy recursion on the exact discretized linear-Gaussian sub-case,
and closed-form Riccati fixed points.
"""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from mvx_avgfilter.errors import (
    GridMismatch,
    IndexOutOfRange,
    InvalidParams,
    UnsupportedModel,
    WeightCollapse,
)
from mvx_avgfilter.filtering import (
    FilterConfig,
    FilterTrajectory,
    ObservationPath,
    _record_pi,
    filter_discrepancy,
    generate_observations,
    get_functional,
    kalman_oracle,
    log_likelihood_increment,
    make_linear_sensor_model,
    martingale_check,
    run_filter,
)
from mvx_avgfilter.measure import summarize_points, systematic_resample_indices
from mvx_avgfilter.model import LinearModelParams, make_linear_model
from mvx_avgfilter.sde import SdeConfig, simulate_slow_fast
from mvx_avgfilter.streams import normal_increments, stream

REF = LinearModelParams()


def ref_model(params=REF, x0=1.0, z0=1.0):
    return make_linear_model(params, n=1, m=1, l=1, x0=[x0], z0=[z0])


def silent_model(x0=1.0):
    # hscale = 0 makes the sensor vanish identically
    return ref_model(LinearModelParams(hscale=0.0), x0=x0)


def signal_cfg(T=0.5, dt=0.01, N=64, seed=101, eps=0.1):
    return SdeConfig(epsilon=eps, T=T, dt_macro=dt, micro_substeps=1, N=N, seed=seed)


# ===== generate_observations =====


def test_pure_brownian_quadratic_variation():
    model = silent_model()
    cfg = SdeConfig(epsilon=0.1, T=1.0, dt_macro=1e-3, micro_substeps=1, N=4, seed=1)
    path = simulate_slow_fast(model, cfg)
    obs = generate_observations(model, path, 0, seed_v=7)
    qv = float(np.sum(obs.increments**2))
    assert 0.9 <= qv <= 1.1


def test_increment_variance_scales_with_dt():
    model = silent_model()
    for dt, steps in ((0.01, 100), (0.005, 200)):
        cfg = SdeConfig(epsilon=0.1, T=1.0, dt_macro=dt, micro_substeps=1, N=4, seed=2)
        path = simulate_slow_fast(model, cfg)
        obs = generate_observations(model, path, 0, seed_v=3)
        v = float(np.var(obs.increments, ddof=1))
        assert abs(v - dt) <= 3.0 * dt * math.sqrt(2.0 / (steps - 1))


def test_increments_within_sensor_bound_of_noise():
    model = ref_model()  # |h| <= 2 sqrt(l) = 2
    cfg = signal_cfg()
    path = simulate_slow_fast(model, cfg)
    obs = generate_observations(model, path, 2, seed_v=11)
    dv = normal_increments(11, "observation", len(obs.increments), 1, 1, math.sqrt(0.01))[:, 0, :]
    assert np.all(np.abs(obs.increments) <= np.abs(dv) + 2.0 * 0.01 + 1e-12)


def test_reference_particle_bounds():
    model = ref_model()
    path = simulate_slow_fast(model, signal_cfg(N=16))
    with pytest.raises(IndexOutOfRange):
        generate_observations(model, path, 16, seed_v=0)
    with pytest.raises(IndexOutOfRange):
        generate_observations(model, path, -1, seed_v=0)


def test_observations_on_the_signal_grid():
    model = ref_model()
    path = simulate_slow_fast(model, signal_cfg(T=0.5, dt=0.01))
    obs = generate_observations(model, path, 0, seed_v=5)
    assert np.array_equal(obs.times, path.times)
    assert len(obs.increments) == len(obs.times) - 1
    assert len(obs.signal_law_trace) == len(obs.times)
    assert len(obs.fast_law_trace) == len(obs.times)
    dv = normal_increments(5, "observation", len(obs.increments), 1, 1, math.sqrt(0.01))
    for k, increment in enumerate(obs.increments):
        # the reference: dY_k = dV_k + h(X_ref at t_k, slow law at t_k) * dt, record by record
        h_k = np.asarray(model.h(path.slow[k, 0], obs.signal_law_trace[k]))
        assert increment.tobytes() == (dv[k, 0] + h_k * 0.01).tobytes()


def test_observation_determinism():
    model = ref_model()
    path = simulate_slow_fast(model, signal_cfg())
    a = generate_observations(model, path, 1, seed_v=9)
    b = generate_observations(model, path, 1, seed_v=9)
    assert np.array_equal(a.increments, b.increments)


# ===== likelihood increment =====


def test_log_likelihood_increment_values():
    assert log_likelihood_increment(np.zeros(1), np.array([0.3]), 0.01) == 0.0
    got = log_likelihood_increment(np.array([1.0]), np.array([0.1]), 0.01)
    assert got == pytest.approx(0.095, abs=1e-15)
    got = log_likelihood_increment(np.array([2.0]), np.zeros(1), 0.01)
    assert got == pytest.approx(-0.02, abs=1e-15)


def test_log_likelihood_increment_batched():
    h = np.array([[1.0], [2.0], [0.0]])
    dy = np.array([0.1])
    out = log_likelihood_increment(h, dy, 0.01)
    assert out.shape == (3,)
    assert out[0] == pytest.approx(0.095)
    assert out[2] == 0.0


# ===== functionals =====


def test_functional_registry():
    pts = np.array([[0.5], [-1.0]])
    mu = summarize_points(pts)
    ones = get_functional("one")(pts, mu)
    assert np.array_equal(ones, np.ones(2))
    ident = get_functional("identity")(pts, mu)
    assert np.array_equal(ident, pts[:, 0])
    th = get_functional("tanh")(pts, mu)
    want = np.tanh(pts[:, 0]) + math.tanh(float(mu.mean[0]))
    assert np.allclose(th, want, atol=1e-15)
    assert np.all(np.abs(th) <= 2.0)
    with pytest.raises(InvalidParams):
        get_functional("cubic")


# ===== run_filter =====


def make_obs(model, cfg, ref_idx=0, seed_v=40):
    path = simulate_slow_fast(model, cfg)
    return generate_observations(model, path, ref_idx, seed_v=seed_v)


def test_constant_functional_is_exactly_one():
    model = ref_model()
    cfg = signal_cfg()
    obs = make_obs(model, cfg)
    fcfg = FilterConfig(Nf=50, resample_threshold=0.5, functional="one", p=1)
    traj = run_filter("multiscale", model, None, obs, fcfg, cfg)
    assert np.all(traj.pi_F == 1.0)


def test_silent_sensor_keeps_weights_uniform():
    model = silent_model()
    cfg = signal_cfg()
    obs = make_obs(model, cfg)
    fcfg = FilterConfig(Nf=40, resample_threshold=0.5, functional="tanh", p=1)
    traj = run_filter("multiscale", model, None, obs, fcfg, cfg)
    assert np.all(traj.ess == 40.0)
    assert traj.resample_events == []
    assert np.all(traj.log_rho1 == 0.0)


def test_silent_sensor_pi_is_prior_mean():
    model = silent_model()
    cfg = signal_cfg()
    obs = make_obs(model, cfg)
    fcfg = FilterConfig(Nf=40, resample_threshold=0.5, functional="identity", p=1)
    traj = run_filter("multiscale", model, None, obs, fcfg, cfg, record_weights=True)
    f_vals = traj.debug["f_values"]
    for k in range(len(traj.times)):
        assert traj.pi_F[k] == pytest.approx(float(f_vals[k].mean()), abs=1e-14)


def test_kallianpur_striebel_identity_bit_exact():
    model = ref_model()
    cfg = signal_cfg(T=0.4)
    obs = make_obs(model, cfg)
    fcfg = FilterConfig(Nf=64, resample_threshold=0.8, functional="tanh", p=1)
    traj = run_filter("multiscale", model, None, obs, fcfg, cfg, record_weights=True)
    lw = traj.debug["log_weights"]
    fv = traj.debug["f_values"]
    for k in range(len(traj.times)):
        u = np.exp(lw[k] - lw[k].max())
        assert traj.pi_F[k] == float((u * fv[k]).sum() / u.sum())


def test_pi_reuses_step_weights_bitwise_with_frequent_resampling():
    # threshold 1.0 resamples whenever the weights are not all equal
    model = ref_model()
    cfg = signal_cfg(T=0.4)
    obs = make_obs(model, cfg)
    fcfg = FilterConfig(Nf=64, resample_threshold=1.0, functional="tanh", p=1)
    traj = run_filter("multiscale", model, None, obs, fcfg, cfg, record_weights=True)
    assert len(traj.resample_events) >= len(traj.times) - 2
    lw = traj.debug["log_weights"]
    fv = traj.debug["f_values"]
    for k in range(len(traj.times)):
        assert traj.pi_F[k] == _record_pi(lw[k], fv[k])[0]


def test_ess_range_and_event_consistency():
    # a steep linear sensor separates particle weights quickly
    model = make_linear_sensor_model(
        LinearModelParams(a11=-1.0, a12=0.0, a13=0.0, s1=1.0), gain=3.0, x0=1.0, z0=0.0
    )
    cfg = signal_cfg(T=1.0, seed=55)
    obs = make_obs(model, cfg, seed_v=56)
    fcfg = FilterConfig(Nf=30, resample_threshold=0.9, functional="tanh", p=1)
    traj = run_filter("multiscale", model, None, obs, fcfg, cfg)
    assert np.all(traj.ess >= 1.0) and np.all(traj.ess <= 30.0)
    assert len(traj.resample_events) > 0
    expected = [k for k in range(1, len(traj.times)) if traj.ess[k] < 0.9 * 30.0]
    assert traj.resample_events == expected


def test_weight_collapse():
    import dataclasses as dc

    model = ref_model()
    cfg = signal_cfg()
    obs = make_obs(model, cfg)
    broken = dc.replace(model, h=lambda x, mu: np.full_like(x, np.nan))
    fcfg = FilterConfig(Nf=20, resample_threshold=0.5, functional="one", p=1)
    with pytest.raises(WeightCollapse):
        run_filter("multiscale", broken, None, obs, fcfg, cfg)


def test_filter_determinism():
    model = ref_model()
    cfg = signal_cfg()
    obs = make_obs(model, cfg)
    fcfg = FilterConfig(Nf=60, resample_threshold=0.6, functional="tanh", p=1)
    a = run_filter("multiscale", model, None, obs, fcfg, cfg)
    b = run_filter("multiscale", model, None, obs, fcfg, cfg)
    assert np.array_equal(a.pi_F, b.pi_F)
    assert np.array_equal(a.log_rho1, b.log_rho1)
    assert a.resample_events == b.resample_events


def test_averaged_kind_needs_drift():
    model = ref_model()
    cfg = signal_cfg()
    obs = make_obs(model, cfg)
    fcfg = FilterConfig(Nf=20, resample_threshold=0.5, functional="one", p=1)
    with pytest.raises(InvalidParams):
        run_filter("averaged", model, None, obs, fcfg, cfg)


def test_averaged_kind_runs():
    from mvx_avgfilter.averaging import make_drift_oracle

    model = ref_model()
    cfg = signal_cfg()
    obs = make_obs(model, cfg)
    oracle = make_drift_oracle(model, mode="analytic-linear")
    fcfg = FilterConfig(Nf=30, resample_threshold=0.5, functional="tanh", p=1)
    traj = run_filter("averaged", model, oracle, obs, fcfg, cfg)
    assert np.all(np.isfinite(traj.pi_F))


@pytest.mark.parametrize(
    "dt, message", [(0.015, "not an integer multiple"), (0.03, "stride 3 does not divide")]
)
@pytest.mark.parametrize("caller", ["martingale_check"])
def test_observation_stride_rule(caller, dt, message):
    # 50 steps of 0.01: 0.015 is no multiple of the step, and 3 does not divide 50.
    # An observation record takes the signal's own step, so only the martingale
    # check has a stride left to refuse.
    model = ref_model()
    cfg = signal_cfg(T=0.5, dt=0.01)
    with pytest.raises(GridMismatch, match=message):
        martingale_check(model, 1000, cfg, dt=dt)


def test_grid_mismatch_between_obs_and_filter():
    model = ref_model()
    cfg = signal_cfg(T=0.5, dt=0.01)
    obs = make_obs(model, cfg)
    other = SdeConfig(epsilon=0.1, T=0.5, dt_macro=0.025, micro_substeps=2, N=64, seed=101)
    fcfg = FilterConfig(Nf=20, resample_threshold=0.5, functional="one", p=1)
    with pytest.raises(GridMismatch):
        run_filter("multiscale", model, None, obs, fcfg, other)


def test_multiscale_needs_fast_trace():
    model = ref_model()
    cfg = signal_cfg()
    obs = make_obs(model, cfg)
    stripped = ObservationPath(
        times=obs.times,
        increments=obs.increments,
        signal_law_trace=obs.signal_law_trace,
        fast_law_trace=None,
    )
    fcfg = FilterConfig(Nf=20, resample_threshold=0.5, functional="one", p=1)
    with pytest.raises(GridMismatch):
        run_filter("multiscale", model, None, stripped, fcfg, cfg)


def test_filter_config_validation():
    with pytest.raises(InvalidParams):
        FilterConfig(Nf=5, resample_threshold=0.5, functional="one", p=1)
    with pytest.raises(InvalidParams):
        FilterConfig(Nf=20, resample_threshold=0.0, functional="one", p=1)
    with pytest.raises(InvalidParams):
        FilterConfig(Nf=20, resample_threshold=1.5, functional="one", p=1)


def test_filter_tracks_kalman_posterior_mean():
    model = make_linear_sensor_model(
        LinearModelParams(a11=-1.0, a12=0.0, a13=0.0, s1=0.5), gain=1.0, x0=1.0, z0=0.0
    )
    cfg = SdeConfig(epsilon=0.1, T=0.5, dt_macro=0.01, micro_substeps=1, N=64, seed=71)
    obs = make_obs(model, cfg, ref_idx=3, seed_v=72)
    kal = kalman_oracle(model, obs)
    fcfg = FilterConfig(Nf=500, resample_threshold=0.5, functional="identity", p=1)
    traj = run_filter("multiscale", model, None, obs, fcfg, cfg)
    err = float(np.mean(np.abs(traj.pi_F - kal.mean)))
    bound = 5.0 / math.sqrt(500) * float(np.mean(np.sqrt(np.maximum(kal.variance, 0.0))))
    assert err <= bound


# ===== resampling unbiasedness at the filter level =====


def test_resampling_preserves_pi_in_expectation():
    model = ref_model()
    cfg = signal_cfg(T=0.3, seed=81)
    obs = make_obs(model, cfg, seed_v=82)
    fcfg = FilterConfig(Nf=80, resample_threshold=0.05, functional="tanh", p=1)
    traj = run_filter("multiscale", model, None, obs, fcfg, cfg, record_weights=True)
    # last recorded state: real weighted ensemble from the run
    lw = traj.debug["log_weights"][-1]
    fv = traj.debug["f_values"][-1]
    u = np.exp(lw - lw.max())
    w = u / u.sum()
    pi_pre = float((u * fv).sum() / u.sum())
    rng = stream(9090, "resample-study")
    draws = []
    for _ in range(200):
        idx = systematic_resample_indices(w, float(rng.random()))
        draws.append(float(fv[idx].mean()))
    draws = np.asarray(draws)
    se = float(draws.std(ddof=1) / math.sqrt(len(draws)))
    assert abs(draws.mean() - pi_pre) <= max(3.0 * se, 1e-12)


# ===== martingale check =====


def test_martingale_exact_for_silent_sensor():
    model = silent_model()
    cfg = signal_cfg(T=0.2, N=2)
    assert martingale_check(model, 1000, cfg, dt=0.01) == (1.0, 0.0)


def test_martingale_near_one_for_tanh_sensor():
    model = ref_model()
    cfg = SdeConfig(epsilon=0.1, T=0.5, dt_macro=0.01, micro_substeps=1, N=2, seed=5)
    mean, se = martingale_check(model, 4000, cfg, dt=0.01)
    assert abs(mean - 1.0) <= 3.0 * se
    assert se < 0.05


def test_martingale_requires_min_runs():
    model = ref_model()
    cfg = signal_cfg(N=2)
    with pytest.raises(InvalidParams):
        martingale_check(model, 999, cfg, dt=0.01)


@pytest.mark.parametrize("mc_runs, dt", [(1000, 0.01), (4000, 0.02), (4001, 0.05)])
def test_martingale_evaluates_h_once_per_observation_time(mc_runs, dt):
    base = ref_model()
    calls = []

    def h(x, mu):
        calls.append(len(x))
        return base.h(x, mu)

    model = dataclasses.replace(base, h=h)
    cfg = signal_cfg(T=0.2, N=2)
    martingale_check(model, mc_runs, cfg, dt=dt)
    n_obs = round(cfg.T / dt)
    sizes = {1000: [1000], 4000: [2000, 2000], 4001: [2000, 2001]}[mc_runs]
    assert calls == [size for size in sizes for _ in range(n_obs)]


def test_martingale_deterministic():
    model = ref_model()
    cfg = SdeConfig(epsilon=0.1, T=0.2, dt_macro=0.01, micro_substeps=1, N=2, seed=31)
    a = martingale_check(model, 1500, cfg, dt=0.01)
    b = martingale_check(model, 1500, cfg, dt=0.01)
    assert a == b


# ===== kalman oracle =====


def sensor_model(gain=1.0, a=-1.0, s1=0.5, x0=1.0):
    return make_linear_sensor_model(
        LinearModelParams(a11=a, a12=0.0, a13=0.0, s1=s1), gain=gain, x0=x0, z0=0.0
    )


def make_sensor_obs(model, T=1.0, dt=0.01, seed=61, seed_v=62):
    cfg = SdeConfig(epsilon=0.1, T=T, dt_macro=dt, micro_substeps=1, N=8, seed=seed)
    path = simulate_slow_fast(model, cfg)
    return generate_observations(model, path, 0, seed_v=seed_v)


def test_kalman_zero_gain_reduces_to_prior():
    model = sensor_model(gain=0.0)
    obs = make_sensor_obs(model)
    kal = kalman_oracle(model, obs)
    m, pvar = 1.0, 0.0
    for k in range(len(obs.times) - 1):
        m = (1.0 - 0.01) * m
        pvar = (1.0 - 0.01) ** 2 * pvar + 0.25 * 0.01
        assert kal.mean[k + 1] == pytest.approx(m, abs=1e-12)
        assert kal.variance[k + 1] == pytest.approx(pvar, abs=1e-12)


def test_kalman_variance_hits_riccati_fixed_point():
    model = sensor_model(gain=1.0, a=-1.0, s1=0.5)
    obs = make_sensor_obs(model, T=20.0, dt=0.01)
    kal = kalman_oracle(model, obs)
    p_inf = (-1.0 + math.sqrt(1.0 + 0.25)) / 1.0
    assert kal.variance[-1] == pytest.approx(p_inf, abs=0.01)


def test_kalman_variance_decreases_with_gain():
    late = {}
    for g in (1.0, 3.0):
        model = sensor_model(gain=g)
        obs = make_sensor_obs(model, T=5.0)
        late[g] = float(kalman_oracle(model, obs).variance[-1])
    assert late[3.0] < late[1.0]


def test_kalman_rejects_unsupported_models():
    model = ref_model()  # tanh sensor, fast coupling
    obs = make_obs(model, signal_cfg())
    with pytest.raises(UnsupportedModel):
        kalman_oracle(model, obs)


@pytest.mark.parametrize("name", ["b1", "sigma1", "b2", "sigma2"])
def test_kalman_refuses_a_sensor_model_with_a_swapped_coefficient(name):
    # dataclasses.replace keeps linear_params; the recursion would read the old a11 and s1
    model = sensor_model()
    obs = make_sensor_obs(model)
    original = getattr(model, name)
    swapped = dataclasses.replace(model, **{name: lambda *args: original(*args)})
    with pytest.raises(UnsupportedModel, match="that make_linear_model built"):
        kalman_oracle(swapped, obs)
    # the sensor model's own swapped h is allowed; a model without linear_params is refused
    assert kalman_oracle(model, obs).mean[0] == 1.0
    with pytest.raises(UnsupportedModel):
        kalman_oracle(dataclasses.replace(model, linear_params=None), obs)


# ===== discrepancy =====


def synthetic_traj(times, values):
    return FilterTrajectory(
        times=times,
        pi_F=np.asarray(values, dtype=float),
        log_rho1=np.zeros(len(times)),
        ess=np.full(len(times), 10.0),
        resample_events=[],
    )


def test_discrepancy_zero_for_identical():
    t = np.linspace(0, 1, 11)
    a = synthetic_traj(t, np.sin(t))
    d = filter_discrepancy(a, a, p=2)
    assert d.average == 0.0 and d.terminal == 0.0
    assert np.all(d.per_time == 0.0)


def test_discrepancy_moment_orders():
    t = np.linspace(0, 1, 5)
    a = synthetic_traj(t, np.zeros(5))
    b = synthetic_traj(t, np.full(5, 0.3))
    d1 = filter_discrepancy(a, b, p=1)
    d2 = filter_discrepancy(a, b, p=2)
    assert d2.average == pytest.approx(d1.average**2)
    c = synthetic_traj(t, np.array([0.0, 0.1, 0.5, 0.1, 0.0]))
    e1 = filter_discrepancy(a, c, p=1)
    e2 = filter_discrepancy(a, c, p=2)
    assert e2.average > e1.average**2


def test_discrepancy_grid_mismatch():
    a = synthetic_traj(np.linspace(0, 1, 5), np.zeros(5))
    b = synthetic_traj(np.linspace(0, 2, 5), np.zeros(5))
    with pytest.raises(GridMismatch):
        filter_discrepancy(a, b, p=1)


# ===== memory =====


def test_multiscale_filter_memory_does_not_grow_with_run_length():
    # The fast block is taken a chunk at a time; whole, it is 6.4 MB at T=2
    # and 12.8 MB at T=4, which doubled the peak.
    model = ref_model()
    peaks = []
    for T in (2.0, 4.0):
        cfg = SdeConfig(epsilon=0.01, T=T, dt_macro=0.01, micro_substeps=8, N=20, seed=5)
        obs = generate_observations(model, simulate_slow_fast(model, cfg), 0, 6)
        fcfg = FilterConfig(Nf=500, resample_threshold=0.5, functional="tanh")
        tracemalloc.start()
        try:
            run_filter("multiscale", model, None, obs, fcfg, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0], peaks
