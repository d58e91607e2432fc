"""Euler schemes for the slow/fast interacting-particle system.

Layout of a run: the slow coordinate advances on a macro grid of width
``dt_macro`` while the fast coordinate takes ``micro_substeps`` inner steps
per macro step, with drift scaled by 1/epsilon and noise by 1/sqrt(epsilon).
Both empirical laws are frozen at the start of each macro step; the slow
update uses the macro-start fast state.

Noise is drawn from counter-based streams keyed by (seed, label, particle,
component), so enlarging the ensemble or re-running with more threads never
perturbs the increments of existing particles.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, GridMismatch, Instability, InvalidParams, MissingDelta
from .measure import MeasureSummary, ParticleCloud, summarize_points
from .model import ModelSpec
from .streams import normal_increments

STABILITY_CAP = 0.25

SLOW_LABEL = "signal-slow"
FAST_LABEL = "signal-fast"
FROZEN_LABEL = "frozen"


def _require_finite(cfg, names) -> None:
    """Refuse NaN or infinity in the named float fields (None is allowed)."""
    for name in names:
        value = getattr(cfg, name)
        if value is not None and not math.isfinite(value):
            raise InvalidParams(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class SdeConfig:
    """Discretization parameters for one particle run."""

    epsilon: float
    T: float
    dt_macro: float
    micro_substeps: int = 1
    N: int = 2
    seed: int = 0
    delta_eps: Optional[float] = None

    def __post_init__(self):
        _require_finite(self, ("epsilon", "T", "dt_macro", "delta_eps"))
        if not (0.0 < self.epsilon <= 1.0):
            raise InvalidParams(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if self.T <= 0.0:
            raise InvalidParams(f"T must be positive, got {self.T}")
        if not (0.0 < self.dt_macro <= self.T):
            raise InvalidParams(
                f"dt_macro must lie in (0, T], got {self.dt_macro} with T={self.T}"
            )
        if self.micro_substeps < 1:
            raise InvalidParams(f"micro_substeps must be >= 1, got {self.micro_substeps}")
        if self.N < 2:
            raise InvalidParams(
                f"N must be >= 2 so empirical laws are nondegenerate, got {self.N}"
            )
        ratio = self.T / self.dt_macro
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise InvalidParams(
                f"dt_macro={self.dt_macro} does not tile [0, T={self.T}] exactly"
            )
        if self.delta_eps is not None and self.delta_eps <= 0.0:
            raise InvalidParams(f"delta_eps must be positive, got {self.delta_eps}")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt_macro))


@dataclass(frozen=True)
class FrozenRunConfig:
    """Run length and ensemble size for the frozen fast equation.

    The frozen equation runs at unit time scale: epsilon plays no role once
    the slow input and its law are pinned.
    """

    M: int
    dt: float
    burn_in: float
    avg_window: float
    seed: int = 0

    def __post_init__(self):
        _require_finite(self, ("dt", "burn_in", "avg_window"))
        if self.M < 2:
            raise InvalidParams(f"M must be >= 2, got {self.M}")
        if self.dt <= 0.0:
            raise InvalidParams(f"dt must be positive, got {self.dt}")
        if self.burn_in < 0.0:
            raise InvalidParams(f"burn_in must be >= 0, got {self.burn_in}")
        if self.avg_window <= 0.0:
            raise InvalidParams(f"avg_window must be positive, got {self.avg_window}")

    @property
    def n_steps(self) -> int:
        return int(math.ceil((self.burn_in + self.avg_window) / self.dt - 1e-9))


@dataclass(eq=False)
class PathEnsemble:
    """Time grid plus the particle states of one simulation.

    ``slow``, ``fast`` and ``aux`` are read-only ``(steps+1, N, d)`` float
    arrays, one row per grid time.  ``fast`` is None for averaged runs and
    ``aux`` is set only by :func:`simulate_auxiliary`.  Row k of an array is
    the ensemble at ``times[k]``; its law reaches the coefficients only as a
    :class:`MeasureSummary` of that row.  ``noise_tag`` records the stream identifiers
    needed to regenerate the driving increments bit-exactly.
    """

    times: np.ndarray
    slow: np.ndarray
    fast: Optional[np.ndarray] = None
    aux: Optional[np.ndarray] = None
    noise_tag: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("slow", "fast", "aux"):
            arr = getattr(self, name)
            if arr is None:
                continue
            if len(arr) != len(self.times):
                raise InvalidParams(f"{name} length must match times")
            view = np.asarray(arr).view()
            view.flags.writeable = False
            setattr(self, name, view)

    @property
    def slow_clouds(self) -> list:
        """One :class:`ParticleCloud` copy of ``slow`` per time.

        Kept only because the benchmark's ``oracle-estimated`` check reads
        ``slow_clouds[-1].points``; read ``slow`` instead.
        """
        return [ParticleCloud(p) for p in self.slow]


def estimate_dissipativity(
    model: ModelSpec, samples: int = 64, box: float = 1.0, seed: int = 0
) -> float:
    """Estimate the contraction rate of the fast drift in its own variable.

    Returns max over sampled pairs of -<dz, b2(x,mu,z1,nu)-b2(x,mu,z2,nu)>/|dz|^2
    with everything but z shared.  Exact (= gamma) for the linear family; a
    nonpositive value means no contraction was detected and the micro-step
    stability cap is inapplicable.
    """

    from .streams import stream

    rng = stream(seed, "dissipativity-probe")
    worst = -math.inf
    for _ in range(samples):
        x = rng.uniform(-box, box, size=model.n)
        z1 = rng.uniform(-box, box, size=model.m)
        z2 = rng.uniform(-box, box, size=model.m)
        if np.allclose(z1, z2):
            continue
        pts = rng.uniform(-box, box, size=(8, model.n))
        mu = summarize_points(pts)
        nu = summarize_points(rng.uniform(-box, box, size=(8, model.m)))
        dz = z1 - z2
        db = np.asarray(model.b2(x, mu, z1, nu)) - np.asarray(model.b2(x, mu, z2, nu))
        worst = max(worst, float(-np.dot(dz, db) / np.dot(dz, dz)))
    if not math.isfinite(worst):
        raise InvalidParams("dissipativity probe produced no usable sample pairs")
    return worst


# Probed rates per model instance (ModelSpec compares by identity). The probe
# is deterministic, so two threads racing on a new model only repeat it.
_probed_rates: "weakref.WeakKeyDictionary[ModelSpec, float]" = weakref.WeakKeyDictionary()


def contraction_rate(model: ModelSpec) -> float:
    """Contraction rate of the fast drift: gamma for the linear family, else
    :func:`estimate_dissipativity`, probed once per model instance."""
    if model.linear_params is not None:
        return float(model.linear_params.gamma)
    rate = _probed_rates.get(model)
    if rate is None:
        rate = _probed_rates[model] = estimate_dissipativity(model)
    return rate


def suggest_micro_substeps(dt_macro: float, epsilon: float, gamma_est: float) -> int:
    """The stability rule: the fewest micro-substeps with
    (dt_macro/micro_substeps)/epsilon * gamma_est <= STABILITY_CAP.

    It is 1 when no contraction is detected (gamma_est <= 0): the cap is a
    relaxation-rate condition and has no meaning without one.
    """
    return max(1, int(math.ceil(dt_macro * gamma_est / (STABILITY_CAP * epsilon))))


def validate_stability(model: ModelSpec, cfg: SdeConfig) -> None:
    """Refuse a config with fewer micro-substeps than the stability rule needs."""
    needed = suggest_micro_substeps(cfg.dt_macro, cfg.epsilon, contraction_rate(model))
    if cfg.micro_substeps < needed:
        raise InvalidParams(
            f"fast step too coarse: micro_substeps={cfg.micro_substeps}, but the cap "
            f"(dt_macro/micro_substeps)/epsilon*gamma <= {STABILITY_CAP} needs "
            f"micro_substeps >= {needed}"
        )


def _apply_sigma(sig, dw: np.ndarray, rows: int) -> np.ndarray:
    """Apply a diffusion matrix to increments, per particle.

    sig may be (rows, q) shared across particles or (N, rows, q) per
    particle; dw has shape (N, q) and rows is the width of the state.
    A shared matrix with one column scales dw by that column and adds 0.0:
    the bytes of ``dw @ sig.T``, which computes 0.0 + a*b over one column,
    -0.0 included, without the cost of a matmul call.
    """

    sig = np.asarray(sig, dtype=float)
    if sig.ndim not in (2, 3):
        raise InvalidParams(f"diffusion coefficient has unsupported ndim {sig.ndim}")
    if sig.shape[-1] != dw.shape[-1]:
        raise DimensionMismatch(
            f"diffusion coefficient has {sig.shape[-1]} columns but the noise "
            f"increments have {dw.shape[-1]} components"
        )
    if sig.shape[-2] != rows:
        raise DimensionMismatch(
            f"diffusion coefficient has {sig.shape[-2]} rows but the state width is {rows}"
        )
    if sig.ndim == 2:
        if sig.shape[1] == 1:
            return dw * sig[:, 0] + 0.0
        return dw @ sig.T
    return np.einsum("nij,nj->ni", sig, dw)


def _slow_step(model: ModelSpec, x, mu, drift_rows, dw, dt: float) -> np.ndarray:
    """One Euler step of the slow state: x + drift*dt + sigma1(x, mu)·dw.

    ``drift_rows`` is the drift already evaluated at the step's start: b1
    for the slow-fast system, the averaged drift for the averaged one.
    """
    return x + np.asarray(drift_rows) * dt + _apply_sigma(model.sigma1(x, mu), dw, x.shape[-1])


def _fast_step(model: ModelSpec, x, mu, z, nu, dw, h: float, noise_scale: float) -> np.ndarray:
    """One Euler step of the fast state: z + b2*h + (sigma2·dw)*noise_scale."""
    drift = np.asarray(model.b2(x, mu, z, nu)) * h
    noise = _apply_sigma(model.sigma2(x, mu, z, nu), dw, z.shape[-1])
    if noise_scale != 1.0:
        # a * 1.0 == a exactly, so the unit-scale frozen run skips the product
        noise = noise * noise_scale
    return z + drift + noise


def _check_finite(arr: np.ndarray, what: str, step: int, time: float) -> None:
    if not np.isfinite(arr).all():
        raise Instability(
            f"{what} became non-finite at step {step} (t={time:.6g}); "
            "reduce dt_macro or increase micro_substeps",
            step=step,
            time=time,
        )


def _tile_state(v: np.ndarray, count: int) -> np.ndarray:
    """One copy of the initial state per particle; refusing a non-finite one
    here lets the runs check only the states they compute."""
    v = np.asarray(v, dtype=float).reshape(1, -1)
    if not np.isfinite(v).all():
        raise InvalidParams("cloud coordinates must be finite")
    return np.tile(v, (count, 1))


def _noise_tag(cfg: SdeConfig, labels: Sequence[str]) -> dict:
    return {
        "seed": cfg.seed,
        "epsilon": cfg.epsilon,
        "dt_macro": cfg.dt_macro,
        "micro_substeps": cfg.micro_substeps,
        "N": cfg.N,
        "labels": tuple(labels),
    }


def _slow_noise(model: ModelSpec, cfg: SdeConfig) -> tuple:
    """normal_increments arguments of a signal run's slow block."""
    return (cfg.seed, SLOW_LABEL, cfg.n_steps, cfg.N, model.n, math.sqrt(cfg.dt_macro))


def _fast_noise(model: ModelSpec, cfg: SdeConfig) -> tuple:
    """normal_increments arguments of a signal run's fast block, one row per
    micro-substep."""
    ksub = cfg.micro_substeps
    return (
        cfg.seed, FAST_LABEL, cfg.n_steps * ksub, cfg.N, model.m,
        math.sqrt(cfg.dt_macro / ksub),
    )


def _finite_mean(summary: MeasureSummary) -> bool:
    return all(map(math.isfinite, summary.mean.tolist()))


def simulate_slow_fast(
    model: ModelSpec,
    cfg: SdeConfig,
    *,
    _dw_slow: Optional[np.ndarray] = None,
) -> PathEnsemble:
    """Run the coupled slow/fast particle system on the macro grid.

    ``_dw_slow`` is private: :func:`coupled_pair` passes the slow block it
    already drew, which is exactly the one drawn here otherwise.
    """

    validate_stability(model, cfg)
    n_steps = cfg.n_steps
    dt = cfg.dt_macro
    ksub = cfg.micro_substeps
    dts = dt / ksub
    h = dts / cfg.epsilon
    times = np.arange(n_steps + 1) * dt

    x = _tile_state(model.x0, cfg.N)
    z = _tile_state(model.z0, cfg.N)
    dw_slow = normal_increments(*_slow_noise(model, cfg)) if _dw_slow is None else _dw_slow
    dw_fast = normal_increments(*_fast_noise(model, cfg))
    inv_sqrt_eps = 1.0 / math.sqrt(cfg.epsilon)

    slow = np.empty((n_steps + 1,) + x.shape)
    fast = np.empty((n_steps + 1,) + z.shape)
    slow[0], fast[0] = x, z
    for k in range(n_steps):
        # The step's summaries check the state it starts from, as in
        # simulate_frozen; the last state has no next step and is checked plainly.
        mu = summarize_points(x)
        if not _finite_mean(mu):
            _check_finite(x, "slow state", k, times[k])
        nu = summarize_points(z)
        if not _finite_mean(nu):
            _check_finite(z, "fast state", k, times[k])
        x_next = _slow_step(model, x, mu, model.b1(x, mu, z), dw_slow[k], dt)
        for dw in dw_fast[k * ksub : (k + 1) * ksub]:
            z = _fast_step(model, x, mu, z, nu, dw, h, inv_sqrt_eps)
        x = x_next
        slow[k + 1], fast[k + 1] = x, z
    _check_finite(x, "slow state", n_steps, times[n_steps])
    _check_finite(z, "fast state", n_steps, times[n_steps])
    return PathEnsemble(
        times=times,
        slow=slow,
        fast=fast,
        noise_tag=_noise_tag(cfg, (SLOW_LABEL, FAST_LABEL)),
    )


def simulate_frozen(
    model: ModelSpec,
    x: np.ndarray,
    mu: MeasureSummary,
    cfg: FrozenRunConfig,
    z0: Optional[np.ndarray] = None,
) -> PathEnsemble:
    """Run the fast equation with slow input and law pinned at (x, mu).

    The ensemble's own empirical law feeds the self-interaction term and is
    recomputed every step (unit time scale, no substepping).
    """

    z0 = model.z0 if z0 is None else z0
    for what, v, width in (
        ("slow input x", x, model.n),
        ("slow law mean", mu.mean, model.n),
        ("initial fast state", z0, model.m),
    ):
        if np.size(v) != width:
            raise DimensionMismatch(
                f"{what} has {np.size(v)} components but the model width is {width}"
            )
    n_steps = cfg.n_steps
    dt = cfg.dt
    times = np.arange(n_steps + 1) * dt
    x_frozen = _tile_state(x, cfg.M)
    z = _tile_state(z0, cfg.M)
    dw = normal_increments(cfg.seed, FROZEN_LABEL, n_steps, cfg.M, model.m, math.sqrt(dt))

    fast = np.empty((n_steps + 1,) + z.shape)
    fast[0] = z
    nu = summarize_points(z)
    for k in range(n_steps):
        z = _fast_step(model, x_frozen, mu, z, nu, dw[k], dt, 1.0)
        if k + 1 < n_steps:
            # The next step's summary checks the new state: a finite mean means
            # every point is finite. A non-finite mean may be a finite state
            # whose sum overflowed, so only then are the points checked.
            nu = summarize_points(z)
            if not _finite_mean(nu):
                _check_finite(z, "frozen fast state", k + 1, times[k + 1])
        else:
            _check_finite(z, "frozen fast state", k + 1, times[k + 1])
        fast[k + 1] = z
    tag = {
        "seed": cfg.seed,
        "dt": cfg.dt,
        "M": cfg.M,
        "labels": (FROZEN_LABEL,),
    }
    slow = np.broadcast_to(x_frozen, (n_steps + 1,) + x_frozen.shape)
    return PathEnsemble(times=times, slow=slow, fast=fast, noise_tag=tag)


def simulate_averaged(
    model: ModelSpec,
    drift: Callable[[np.ndarray, MeasureSummary], np.ndarray],
    cfg: SdeConfig,
    *,
    _dw_slow: Optional[np.ndarray] = None,
) -> PathEnsemble:
    """Run the averaged slow system driven by the supplied effective drift.

    Uses the same slow-noise streams as :func:`simulate_slow_fast` under the
    same seed, so the two runs are coupled pathwise. ``_dw_slow`` is private,
    as in :func:`simulate_slow_fast`.
    """

    n_steps = cfg.n_steps
    dt = cfg.dt_macro
    times = np.arange(n_steps + 1) * dt
    x = _tile_state(model.x0, cfg.N)
    dw_slow = normal_increments(*_slow_noise(model, cfg)) if _dw_slow is None else _dw_slow

    slow = np.empty((n_steps + 1,) + x.shape)
    slow[0] = x
    for k in range(n_steps):
        mu = summarize_points(x)
        if not _finite_mean(mu):
            _check_finite(x, "averaged slow state", k, times[k])
        x = _slow_step(model, x, mu, drift(x, mu), dw_slow[k], dt)
        slow[k + 1] = x
    _check_finite(x, "averaged slow state", n_steps, times[n_steps])
    return PathEnsemble(times=times, slow=slow, noise_tag=_noise_tag(cfg, (SLOW_LABEL,)))


def coupled_pair(
    model: ModelSpec,
    drift: Callable[[np.ndarray, MeasureSummary], np.ndarray],
    cfg: SdeConfig,
):
    """Slow/fast run and averaged run under identical slow increments.

    The slow block is drawn once and handed to both runs.
    """

    dw_slow = normal_increments(*_slow_noise(model, cfg))
    return (
        simulate_slow_fast(model, cfg, _dw_slow=dw_slow),
        simulate_averaged(model, drift, cfg, _dw_slow=dw_slow),
    )


def simulate_auxiliary(model: ModelSpec, slow_path: PathEnsemble, cfg: SdeConfig) -> PathEnsemble:
    """Rebuild the fast path with slow input frozen per delta_eps block.

    Restart points k*delta_eps are rounded to the macro grid; at each restart
    the auxiliary state is reset to the stored fast cloud and the slow input
    (and its law) are pinned until the next restart.  The driving increments
    are regenerated from the noise tag, so away from the frozen inputs this
    is the same discrete dynamics as the original run.
    """

    if cfg.delta_eps is None:
        raise MissingDelta("delta_eps is required for the auxiliary construction")
    tag = slow_path.noise_tag
    for key in ("seed", "epsilon", "dt_macro", "micro_substeps", "N"):
        if key not in tag or getattr(cfg, key) != tag[key]:
            raise GridMismatch(
                f"config field {key}={getattr(cfg, key)!r} does not match the "
                f"ensemble noise tag {tag.get(key)!r}"
            )
    if slow_path.fast is None:
        raise GridMismatch("ensemble has no fast path to restart from")
    n_steps = cfg.n_steps
    if n_steps != len(slow_path.times) - 1:
        raise GridMismatch(
            f"config has {n_steps} macro steps but the ensemble path has "
            f"{len(slow_path.times) - 1}"
        )

    dt = cfg.dt_macro
    ksub = cfg.micro_substeps
    dts = dt / ksub
    h = dts / cfg.epsilon
    times = slow_path.times
    seg = max(1, int(round(cfg.delta_eps / dt)))
    dw_fast = normal_increments(*_fast_noise(model, cfg))
    inv_sqrt_eps = 1.0 / math.sqrt(cfg.epsilon)

    what = "auxiliary fast state"
    aux = np.empty((n_steps + 1,) + slow_path.fast.shape[1:])
    aux[0] = slow_path.fast[0]
    for k in range(n_steps):
        if k % seg == 0:
            if k:
                # a restart replaces the computed state unsummarized
                _check_finite(zh, what, k, times[k])
            zh = slow_path.fast[k]
            x_frozen = slow_path.slow[k]
            mu_frozen = summarize_points(x_frozen)
        nu = summarize_points(zh)
        if not _finite_mean(nu):
            _check_finite(zh, what, k, times[k])
        for dw in dw_fast[k * ksub : (k + 1) * ksub]:
            zh = _fast_step(model, x_frozen, mu_frozen, zh, nu, dw, h, inv_sqrt_eps)
        aux[k + 1] = zh
    _check_finite(zh, what, n_steps, times[n_steps])
    return PathEnsemble(
        times=times,
        slow=slow_path.slow,
        fast=slow_path.fast,
        aux=aux,
        noise_tag=dict(tag, delta_eps=cfg.delta_eps),
    )
