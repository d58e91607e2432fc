"""Observations, Girsanov weights, and the bootstrap particle filter.

The observation model is dY = h(X, law)dt + dV with V a standard Brownian
path independent of the signal.  The law argument of h (and of the test
functional F) is the unconditional signal law, recorded as a trace of
per-time summaries when observations are generated; filter particles never
feed back into it.  The filter weights realize the change of measure: each
particle accumulates log-likelihood increments <h, dY> - |h|^2 dt / 2 and
the normalized filter is the weighted mean of F (Kallianpur-Striebel).

rho_t(1) survives resampling through an accumulated log offset, so the
unnormalized-mass proxy stays meaningful over long horizons.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .errors import (
    GridMismatch,
    IndexOutOfRange,
    InvalidParams,
    UnsupportedModel,
    WeightCollapse,
)
from .measure import MeasureSummary, summarize_points, systematic_resample_indices
from .model import LinearModelParams, ModelSpec, make_linear_model
from .sde import (
    PathEnsemble,
    SdeConfig,
    _check_finite,
    _fast_step,
    _slow_step,
    _tile_state,
    simulate_slow_fast,
    validate_stability,
)
from .streams import derive_seed, normal_increments, stream

OBSERVATION_LABEL = "observation"
FILTER_SLOW_LABEL = "filter-slow"
FILTER_FAST_LABEL = "filter-fast"

# signal models the filter can propagate under: the multiscale pair or its average
FILTER_KINDS = ("multiscale", "averaged")


@dataclass(eq=False)
class ObservationPath:
    """Discrete observation increments plus the law traces they were built on.

    signal_law_trace feeds the measure argument of h and F; fast_law_trace
    (absent when the source run had no fast component) feeds the fast
    equation's self-interaction when filtering the multiscale signal.
    """

    times: np.ndarray
    increments: np.ndarray
    signal_law_trace: List[MeasureSummary]
    fast_law_trace: Optional[List[MeasureSummary]]
    seed_v: int

    def __post_init__(self):
        if len(self.times) != len(self.increments) + 1:
            raise InvalidParams("need exactly one increment per grid interval")
        if len(self.signal_law_trace) != len(self.times):
            raise InvalidParams("signal_law_trace must cover every grid time")
        if self.fast_law_trace is not None and len(self.fast_law_trace) != len(self.times):
            raise InvalidParams("fast_law_trace must cover every grid time")
        if not np.all(np.isfinite(self.increments)):
            raise InvalidParams("observation increments must be finite")


@dataclass(frozen=True)
class FilterConfig:
    Nf: int
    resample_threshold: float
    functional: str
    p: int = 1

    def __post_init__(self):
        if self.Nf < 10:
            raise InvalidParams(f"Nf must be >= 10, got {self.Nf}")
        if not (0.0 < self.resample_threshold <= 1.0):
            raise InvalidParams(
                f"resample_threshold must lie in (0, 1], got {self.resample_threshold}"
            )
        if self.p < 1:
            raise InvalidParams(f"p must be >= 1, got {self.p}")


@dataclass(eq=False)
class FilterTrajectory:
    """Per-time filter output.

    ess holds the effective sample size of the weights as updated at each
    step, BEFORE any resampling they triggered; resample_events lists the
    time indices whose recorded ess fell below the threshold.
    """

    times: np.ndarray
    pi_F: np.ndarray
    log_rho1: np.ndarray
    ess: np.ndarray
    resample_events: List[int]
    debug: Optional[dict] = None


@dataclass(eq=False)
class KalmanTrajectory:
    times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray


@dataclass(eq=False)
class FilterDiscrepancy:
    per_time: np.ndarray
    terminal: float
    average: float


# ===== test functionals =====


def _f_one(points: np.ndarray, mu: MeasureSummary) -> np.ndarray:
    return np.ones(points.shape[0])


def _f_identity(points: np.ndarray, mu: MeasureSummary) -> np.ndarray:
    # <c, x> with c = 1/sqrt(n) in every coordinate
    return points.sum(axis=1) / math.sqrt(points.shape[1])


def _f_tanh(points: np.ndarray, mu: MeasureSummary) -> np.ndarray:
    root = math.sqrt(points.shape[1])
    return np.tanh(points.sum(axis=1) / root) + math.tanh(float(mu.mean.sum()) / root)


_FUNCTIONALS = {"one": _f_one, "identity": _f_identity, "tanh": _f_tanh}


def get_functional(name: str) -> Callable[[np.ndarray, MeasureSummary], np.ndarray]:
    """Named test functional (points, mu-summary) -> per-point values.

    "tanh" is the default bounded choice with bounded derivatives; "identity"
    is unbounded and exists for the Kalman comparison.
    """

    try:
        return _FUNCTIONALS[name]
    except KeyError:
        raise InvalidParams(
            f"unknown functional {name!r}; choose from {sorted(_FUNCTIONALS)}"
        ) from None


# ===== observations =====


def _uniform_summary(points: np.ndarray) -> MeasureSummary:
    """Equal-weight summary of an (N, d) array: ``w @ points`` with every w = 1/N.

    The observation law traces are made this way, not by the unweighted
    ``summarize_points``, whose plain average can differ in the last bit.
    """
    return summarize_points(points, np.full(points.shape[0], 1.0 / points.shape[0]))


def _observation_noise(seed_v: int, n_obs: int, l_obs: int, dt: float) -> tuple:
    """normal_increments arguments of an observation record's noise dV."""
    return (seed_v, OBSERVATION_LABEL, n_obs, 1, l_obs, math.sqrt(dt))


def generate_observations(
    model: ModelSpec,
    signal: PathEnsemble,
    reference_particle: int,
    dt: float,
    seed_v: int,
) -> ObservationPath:
    """Observe one designated particle of a simulated signal ensemble.

    dY_k = dV_k + h(X_ref at t_k, empirical slow law at t_k) * dt on the
    signal's macro grid or an exact coarsening of it (dt an integer multiple
    of the simulation step).
    """

    n_particles = signal.slow.shape[1]
    if not (0 <= reference_particle < n_particles):
        raise IndexOutOfRange(
            f"reference particle {reference_particle} outside [0, {n_particles})"
        )
    sim_dt = float(signal.times[1] - signal.times[0])
    ratio = dt / sim_dt
    stride = int(round(ratio))
    if stride < 1 or abs(ratio - stride) > 1e-6:
        raise GridMismatch(
            f"observation step {dt} is not an integer multiple of the "
            f"simulation step {sim_dt}"
        )
    if (len(signal.times) - 1) % stride != 0:
        raise GridMismatch(
            f"stride {stride} does not divide the {len(signal.times) - 1} simulation steps"
        )

    times = signal.times[::stride]
    n_obs = len(times) - 1
    slow_trace = [_uniform_summary(points) for points in signal.slow[::stride]]
    fast_trace = None
    if signal.fast is not None:
        fast_trace = [_uniform_summary(points) for points in signal.fast[::stride]]

    h0 = np.asarray(model.h(signal.slow[0, reference_particle], slow_trace[0]))
    l_obs = h0.shape[-1]
    dv = normal_increments(*_observation_noise(seed_v, n_obs, l_obs, dt))[:, 0, :]
    increments = np.empty((n_obs, l_obs))
    for k in range(n_obs):
        x_ref = signal.slow[k * stride, reference_particle]
        h_k = np.asarray(model.h(x_ref, slow_trace[k]))
        increments[k] = dv[k] + h_k * dt
    return ObservationPath(
        times=times,
        increments=increments,
        signal_law_trace=slow_trace,
        fast_law_trace=fast_trace,
        seed_v=seed_v,
    )


def log_likelihood_increment(h_val: np.ndarray, dY: np.ndarray, dt: float):
    """Girsanov exponent increment <h, dY> - |h|^2 dt / 2.

    Broadcasts over leading axes of h_val; returns a float for a single
    sensor vector.
    """

    h_val = np.asarray(h_val, dtype=float)
    out = (h_val * dY).sum(axis=-1) - 0.5 * (h_val * h_val).sum(axis=-1) * dt
    return float(out) if out.ndim == 0 else out


# ===== particle filter =====


def _record_pi(logw: np.ndarray, f_vals: np.ndarray) -> tuple:
    """Normalized weighted mean and ESS from log-weights.

    This exact sequence of operations is the Kallianpur-Striebel identity
    tested bit-for-bit: u = exp(logw - max), pi = sum(u*F)/sum(u).
    """

    mx = logw.max()
    u = np.exp(logw - mx)
    s = u.sum()
    pi = float((u * f_vals).sum() / s)
    ess = float(s * s / (u @ u))
    return pi, ess


def _filter_slow_noise(model: ModelSpec, cfg: FilterConfig, sde_cfg: SdeConfig) -> tuple:
    """normal_increments arguments of the filter particles' slow block."""
    return (
        sde_cfg.seed, FILTER_SLOW_LABEL, sde_cfg.n_steps, cfg.Nf, model.n,
        math.sqrt(sde_cfg.dt_macro),
    )


def _filter_slow_increments(model: ModelSpec, cfg: FilterConfig, sde_cfg: SdeConfig):
    return normal_increments(*_filter_slow_noise(model, cfg, sde_cfg))


def _filter_fast_noise(model: ModelSpec, cfg: FilterConfig, sde_cfg: SdeConfig) -> tuple:
    """normal_increments arguments of the multiscale filter's fast block."""
    ksub = sde_cfg.micro_substeps
    return (
        sde_cfg.seed, FILTER_FAST_LABEL, sde_cfg.n_steps * ksub, cfg.Nf, model.m,
        math.sqrt(sde_cfg.dt_macro / ksub),
    )


def run_filter(
    signal_kind: str,
    model: ModelSpec,
    drift,
    obs: ObservationPath,
    cfg: FilterConfig,
    sde_cfg: SdeConfig,
    record_weights: bool = False,
    *,
    _dw_slow: Optional[np.ndarray] = None,
) -> FilterTrajectory:
    """Bootstrap particle filter for the multiscale or averaged signal.

    Particles propagate under the signal dynamics with all law arguments
    read from the observation path's unconditional traces.  Weights update
    with the likelihood increment at the interval's left endpoint, trigger
    systematic resampling when the effective sample size drops below
    threshold * Nf, and the running log of the mean unnormalized weight is
    carried across resets.

    ``_dw_slow`` is private: a sweep job draws the slow particle block once
    with :func:`_filter_slow_increments` and hands it to both filter arms.
    """

    if signal_kind not in FILTER_KINDS:
        raise InvalidParams(f"signal_kind must be multiscale or averaged, got {signal_kind!r}")
    if signal_kind == "averaged" and drift is None:
        raise InvalidParams("averaged filtering requires an averaged-drift oracle")

    n_steps = sde_cfg.n_steps
    dt = sde_cfg.dt_macro
    times = np.arange(n_steps + 1) * dt
    if len(obs.times) != n_steps + 1 or not np.allclose(obs.times, times, atol=1e-9):
        raise GridMismatch(
            "observation grid does not match the filter grid "
            f"({len(obs.times)} points vs {n_steps + 1})"
        )
    multiscale = signal_kind == "multiscale"
    if multiscale and obs.fast_law_trace is None:
        raise GridMismatch(
            "multiscale filtering needs the fast-law trace recorded with the observations"
        )
    if multiscale:
        validate_stability(model, sde_cfg)

    f_func = get_functional(cfg.functional)
    nf = cfg.Nf
    x = _tile_state(model.x0, nf)
    dw_slow = _filter_slow_increments(model, cfg, sde_cfg) if _dw_slow is None else _dw_slow
    if multiscale:
        z = _tile_state(model.z0, nf)
        ksub = sde_cfg.micro_substeps
        dts = dt / ksub
        h = dts / sde_cfg.epsilon
        dw_fast = normal_increments(*_filter_fast_noise(model, cfg, sde_cfg))
        inv_sqrt_eps = 1.0 / math.sqrt(sde_cfg.epsilon)
    resample_rng = stream(sde_cfg.seed, "filter-resample")

    pi_arr = np.empty(n_steps + 1)
    rho_arr = np.empty(n_steps + 1)
    ess_arr = np.empty(n_steps + 1)
    events: List[int] = []
    logw = np.zeros(nf)
    log_offset = 0.0
    lw_hist = [] if record_weights else None
    fv_hist = [] if record_weights else None

    f0 = np.asarray(f_func(x, obs.signal_law_trace[0]), dtype=float)
    pi_arr[0], ess_arr[0] = _record_pi(logw, f0)
    rho_arr[0] = 0.0
    if record_weights:
        lw_hist.append(logw.copy())
        fv_hist.append(f0)

    for k in range(n_steps):
        mu_k = obs.signal_law_trace[k]
        h_k = np.asarray(model.h(x, mu_k), dtype=float)
        logw = logw + log_likelihood_increment(h_k, obs.increments[k], dt)
        mx = logw.max()
        if not np.isfinite(mx):
            raise WeightCollapse(
                f"no particle carries finite weight after step {k} (t={times[k]:.6g})"
            )
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
            events.append(k + 1)

        if multiscale:
            nu_k = obs.fast_law_trace[k]
            x_next = _slow_step(model, x, mu_k, model.b1(x, mu_k, z), dw_slow[k], dt)
            for dw in dw_fast[k * ksub : (k + 1) * ksub]:
                z = _fast_step(model, x, mu_k, z, nu_k, dw, h, inv_sqrt_eps)
            x = x_next
        else:
            x = _slow_step(model, x, mu_k, drift(x, mu_k), dw_slow[k], dt)
        _check_finite(x, "filter particles", k + 1, times[k + 1])

        fv = np.asarray(f_func(x, obs.signal_law_trace[k + 1]), dtype=float)
        # logw is unchanged since u and s were taken from it: this is _record_pi's pi
        pi_arr[k + 1] = float((u * fv).sum() / s)
        ess_arr[k + 1] = ess_k
        rho_arr[k + 1] = log_rho_next
        if record_weights:
            lw_hist.append(logw.copy())
            fv_hist.append(fv)

    debug = None
    if record_weights:
        debug = {"log_weights": np.stack(lw_hist), "f_values": np.stack(fv_hist)}
    return FilterTrajectory(
        times=times,
        pi_F=pi_arr,
        log_rho1=rho_arr,
        ess=ess_arr,
        resample_events=events,
        debug=debug,
    )


# ===== exponential-martingale diagnostic =====


def martingale_check(
    model: ModelSpec,
    mc_runs: int,
    sde_cfg: SdeConfig,
    dt: float,
    return_se: bool = False,
    chunk: int = 2000,
):
    """Monte Carlo mean of exp(-int h dV - int |h|^2 ds / 2); must be ~1.

    The exponential has conditional mean exactly 1 given any signal path, so
    the sample mean converges to 1 regardless of mean-field coupling.  Runs
    are simulated as particle ensembles in chunks of fixed size so the
    result is deterministic for a given (mc_runs, sde_cfg, dt).
    """

    if mc_runs < 1000:
        raise InvalidParams(f"need mc_runs >= 1000, got {mc_runs}")
    if chunk < 2:
        raise InvalidParams(f"need chunk >= 2 runs per ensemble, got {chunk}")
    ratio = dt / sde_cfg.dt_macro
    stride = int(round(ratio))
    if stride < 1 or abs(ratio - stride) > 1e-6:
        raise GridMismatch(
            f"exponent step {dt} is not an integer multiple of dt_macro={sde_cfg.dt_macro}"
        )
    if sde_cfg.n_steps % stride != 0:
        raise GridMismatch(f"stride {stride} does not divide {sde_cfg.n_steps} steps")
    n_obs = sde_cfg.n_steps // stride

    sizes = [chunk] * (mc_runs // chunk)
    rem = mc_runs % chunk
    if rem == 1:
        sizes[-1] += 1
    elif rem:
        sizes.append(rem)

    total = 0.0
    total_sq = 0.0
    count = 0
    for c, size in enumerate(sizes):
        cfg_c = dataclasses.replace(
            sde_cfg, N=size, seed=derive_seed(sde_cfg.seed, "mart-chunk", c)
        )
        path = simulate_slow_fast(model, cfg_c)
        h_probe = np.asarray(model.h(path.slow[0], _uniform_summary(path.slow[0])))
        l_obs = h_probe.shape[-1]
        dv = normal_increments(cfg_c.seed, "mart-v", n_obs, size, l_obs, math.sqrt(dt))
        acc = np.zeros(size)
        for j in range(n_obs):
            points = path.slow[j * stride]
            h_j = np.asarray(model.h(points, _uniform_summary(points)), dtype=float)
            acc -= (h_j * dv[j]).sum(axis=1) + 0.5 * (h_j * h_j).sum(axis=1) * dt
        vals = np.exp(acc)
        total += float(vals.sum())
        total_sq += float(vals @ vals)
        count += size
    mean = total / count
    var = max(total_sq - count * mean * mean, 0.0) / (count - 1)
    se = math.sqrt(var / count)
    return (mean, se) if return_se else mean


# ===== Kalman oracle for the degenerate linear-Gaussian sub-case =====


def make_linear_sensor_model(
    params: LinearModelParams, gain: float, x0: float, z0: float
) -> ModelSpec:
    """Scalar linear model observed through h(x) = gain * x.

    The linear sensor replaces the default bounded one; boundedness of h is
    a theory hypothesis, not a requirement of the recursions.
    """

    base = make_linear_model(params, n=1, m=1, l=1, x0=[x0], z0=[z0])
    return dataclasses.replace(
        base,
        h=lambda x, mu: gain * x,
        h_max=None,
        h_linear_gain=gain,
    )


def kalman_oracle(model: ModelSpec, obs: ObservationPath) -> KalmanTrajectory:
    """Exact conditional moments for the discretized linear-Gaussian sub-case.

    Applies to the scalar linear family with no mean-field or fast coupling
    and a linear sensor.  The recursion treats the Euler chain exactly:
    transition x' = (1 + a dt) x + N(0, s1^2 dt), measurement
    dY = gain * x dt + N(0, dt) at the interval's left endpoint, Dirac prior
    at x0.  Measurement update precedes prediction, matching the filter's
    left-endpoint likelihood convention.
    """

    p = model.linear_params
    if p is None or model.n != 1:
        raise UnsupportedModel("Kalman oracle covers only the scalar linear family")
    if p.a12 != 0.0 or p.a13 != 0.0:
        raise UnsupportedModel(
            "Kalman oracle needs a12 = a13 = 0 (no mean-field or fast coupling in the slow)"
        )
    if model.h_linear_gain is None:
        raise UnsupportedModel("Kalman oracle needs the linear sensor h(x) = gain * x")

    steps = np.diff(obs.times)
    dt = float(steps[0])
    if not np.allclose(steps, dt, atol=1e-9):
        raise GridMismatch("observation grid must be uniform")
    a, s1, g = p.a11, p.s1, model.h_linear_gain

    n_obs = len(obs.increments)
    mean = np.empty(n_obs + 1)
    variance = np.empty(n_obs + 1)
    m, pv = float(model.x0[0]), 0.0
    mean[0], variance[0] = m, pv
    for k in range(n_obs):
        innov = float(obs.increments[k][0]) - g * m * dt
        s_k = g * g * pv * dt * dt + dt
        gain_k = pv * g * dt / s_k
        m = m + gain_k * innov
        pv = (1.0 - gain_k * g * dt) * pv
        m = (1.0 + a * dt) * m
        pv = (1.0 + a * dt) ** 2 * pv + s1 * s1 * dt
        mean[k + 1], variance[k + 1] = m, pv
    return KalmanTrajectory(times=obs.times, mean=mean, variance=variance)


# ===== trajectory comparison =====


def filter_discrepancy(a: FilterTrajectory, b: FilterTrajectory, p: int) -> FilterDiscrepancy:
    """Pointwise |pi_a - pi_b|^p with terminal and time-average summaries."""

    if p < 1:
        raise InvalidParams(f"p must be >= 1, got {p}")
    if len(a.times) != len(b.times) or not np.allclose(a.times, b.times, atol=1e-12):
        raise GridMismatch("trajectories live on different time grids")
    per_time = np.abs(a.pi_F - b.pi_F) ** p
    return FilterDiscrepancy(
        per_time=per_time, terminal=float(per_time[-1]), average=float(per_time.mean())
    )
