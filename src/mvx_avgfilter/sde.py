"""Euler schemes for the slow/fast interacting-particle system.

Layout of a run: the slow coordinate advances on a macro grid of width
``dt_macro`` while the fast coordinate takes ``micro_substeps`` inner steps
per macro step, of length h = (dt_macro/micro_substeps)/epsilon on the fast
clock, with noise scaled by 1/sqrt(epsilon).  Both empirical laws are frozen
at the start of each macro step; the slow update uses the macro-start fast
state.  This macro step (:func:`_macro_step`, with its substep loop
:func:`_fast_substeps`) and the noise blocks it draws (:func:`_slow_noise`,
:func:`_fast_noise`) are written once, for the simulators, the filter and
the sweeps' draw plans.  The frozen run steps the fast state through the
same :func:`_fast_substeps`, one substep of length dt a step at unit noise
scale.

Noise is drawn from counter-based streams keyed by (seed, label, particle,
component), so enlarging the ensemble or re-running with more threads never
perturbs the increments of existing particles.  A run holds its slow block
whole, but takes its fast block (micro_substeps times longer) one macro step
at a time through the one block reader, ``streams._increment_groups``, which
draws it in bounded chunks by the chunk rule of the ``streams`` module
docstring, so the fast noise it holds does not grow with the run length; the
frozen run takes its block through the same reader, one row a step, unless
it is handed the block whole (the estimated drift oracle holds one for all
its cells).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import DimensionMismatch, GridMismatch, Instability, InvalidParams
from .measure import MeasureSummary, ParticleCloud, summarize_points
from .model import ModelSpec, _float, _require_finite, _require_integer
from .streams import _increment_groups, normal_increments, stream

STABILITY_CAP = 0.25

SLOW_LABEL = "signal-slow"
FAST_LABEL = "signal-fast"
FROZEN_LABEL = "frozen"

# the dissipativity probe's sample pairs, box half-width and stream seed
PROBE_SAMPLES, PROBE_BOX, PROBE_SEED = 64, 1.0, 0


@dataclass(frozen=True)
class SdeConfig:
    """Discretization parameters for one particle run."""

    epsilon: float
    T: float
    dt_macro: float
    micro_substeps: int = 1
    N: int = 2
    seed: int = 0

    def __post_init__(self):
        _require_finite(self, ("epsilon", "T", "dt_macro"))
        _require_integer(self, ("micro_substeps", "N", "seed"))
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
        if not math.isfinite(ratio):
            raise InvalidParams(f"T/dt_macro must be a finite step count, got {ratio}")
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise InvalidParams(
                f"dt_macro={self.dt_macro} does not tile [0, T={self.T}] exactly"
            )

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
        _require_integer(self, ("M", "seed"))
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
    :class:`MeasureSummary` of that row.  ``config`` is the :class:`SdeConfig`
    or :class:`FrozenRunConfig` of the run that made the path (an auxiliary
    path keeps its slow-fast run's); with the run's stream labels it fixes the
    driving increments bit for bit, and :func:`simulate_auxiliary` reads the
    grid from it.
    """

    times: np.ndarray
    slow: np.ndarray
    fast: Optional[np.ndarray] = None
    aux: Optional[np.ndarray] = None
    config: Union[SdeConfig, FrozenRunConfig, None] = None

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


def estimate_dissipativity(model: ModelSpec) -> float:
    """Estimate the contraction rate of the fast drift in its own variable.

    Returns max over PROBE_SAMPLES pairs sampled from [-PROBE_BOX, PROBE_BOX]
    of -<dz, b2(x,mu,z1,nu)-b2(x,mu,z2,nu)>/|dz|^2 with everything but z
    shared.  Exact (= gamma) for the linear family; a nonpositive value means
    no contraction was detected and the micro-step stability cap is
    inapplicable.  The maximum is rounded to 12 significant digits: for an
    affine b2 each ratio is gamma up to a few ulps, and one ulp above gamma
    at the stability cap would ask one substep more than gamma does.
    """

    rng = stream(PROBE_SEED, "dissipativity-probe")
    box = PROBE_BOX
    worst = -math.inf
    for _ in range(PROBE_SAMPLES):
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
    return float(f"{worst:.12g}")


# Probed rates per model instance (ModelSpec compares by identity). The probe
# is deterministic, so the cache changes no rate, only how often it is probed.
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
    if gamma_est <= 0.0:
        return 1
    scale = STABILITY_CAP * epsilon  # 0.0 once a tiny epsilon underflows
    needed = dt_macro * gamma_est / scale if scale > 0.0 else math.inf
    if not math.isfinite(needed):
        raise InvalidParams(
            f"no micro-substep count meets the stability cap at dt_macro={dt_macro}, "
            f"epsilon={epsilon}"
        )
    return max(1, int(math.ceil(needed)))


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


def _check_finite(arr: np.ndarray, what: str, step: int, time: float) -> None:
    if not np.isfinite(arr).all():
        raise Instability(
            f"{what} became non-finite at step {step} (t={time:.6g}); "
            "reduce dt_macro or increase micro_substeps",
            step=step,
            time=time,
        )


def _checked_summary(points: np.ndarray, what: str, step: int, time: float) -> MeasureSummary:
    """The summary of a state, which checks the state: a finite mean means
    every point is finite. A non-finite mean may be a finite state whose sum
    overflowed, so only then are the points checked."""
    summary = summarize_points(points)
    if not all(map(math.isfinite, summary.mean.tolist())):
        _check_finite(points, what, step, time)
    return summary


def _fast_substeps(model: ModelSpec, x, mu, z, nu, dws, h: float, noise_scale: float):
    """The fast state after one macro step's micro-substeps, one per row of
    ``dws``, with the slow input and both laws held at the step's start: each
    an Euler step z + b2*h + (sigma2·dw)*noise_scale."""
    for i in range(len(dws)):  # indexing a row costs half what numpy's row iterator does
        drift = np.asarray(model.b2(x, mu, z, nu)) * h
        noise = _apply_sigma(model.sigma2(x, mu, z, nu), dws[i], z.shape[-1])
        if noise_scale != 1.0:
            # a * 1.0 == a exactly, so the unit-scale frozen run skips the product
            noise = noise * noise_scale
        z = z + drift + noise
    return z


def _macro_step(model: ModelSpec, x, mu, z, nu, dw_slow, dt: float, dws, h: float,
                noise_scale: float) -> tuple:
    """One macro step of the slow-fast pair: the slow Euler step from the
    step's start (b1 at the macro-start fast state), then the fast substeps.
    Returns the next (x, z)."""
    x_next = _slow_step(model, x, mu, model.b1(x, mu, z), dw_slow, dt)
    return x_next, _fast_substeps(model, x, mu, z, nu, dws, h, noise_scale)


def _tile_state(v: np.ndarray, count: int) -> np.ndarray:
    """One copy of the initial state per particle; refusing a non-finite one
    here lets the runs check only the states they compute."""
    v = np.asarray(v, dtype=float).reshape(1, -1)
    if not np.isfinite(v).all():
        raise InvalidParams("cloud coordinates must be finite")
    return np.tile(v, (count, 1))


def _slow_noise(model: ModelSpec, cfg: SdeConfig, label: str, count: int) -> tuple:
    """normal_increments arguments of a slow block of ``count`` particles
    under ``label``, one row per macro step."""
    return (cfg.seed, label, cfg.n_steps, count, model.n, math.sqrt(cfg.dt_macro))


def _fast_noise(model: ModelSpec, cfg: SdeConfig, label: str, count: int) -> tuple:
    """normal_increments arguments of a fast block of ``count`` particles
    under ``label``, one row per micro-substep."""
    ksub = cfg.micro_substeps
    return (
        cfg.seed, label, cfg.n_steps * ksub, count, model.m,
        math.sqrt(cfg.dt_macro / ksub),
    )


def _frozen_noise(model: ModelSpec, cfg: FrozenRunConfig) -> tuple:
    """normal_increments arguments of a frozen run's block, one row per step."""
    return (cfg.seed, FROZEN_LABEL, cfg.n_steps, cfg.M, model.m, math.sqrt(cfg.dt))


def _fast_increments(model: ModelSpec, cfg: SdeConfig, label: str, count: int) -> tuple:
    """(dws, h, noise_scale): ``dws`` iterates over the :func:`_fast_noise`
    block one macro step at a time, each a (micro_substeps, count, m) view of
    that step's substep rows, valid until the next step's is taken;
    h = (dt_macro/micro_substeps)/epsilon and noise_scale = 1/sqrt(epsilon).
    """
    ksub = cfg.micro_substeps
    dws = _increment_groups(*_fast_noise(model, cfg, label, count), ksub)
    h = cfg.dt_macro / ksub / cfg.epsilon
    return dws, h, 1.0 / math.sqrt(cfg.epsilon)


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
    times = np.arange(n_steps + 1) * dt

    x = _tile_state(model.x0, cfg.N)
    z = _tile_state(model.z0, cfg.N)
    if _dw_slow is None:
        _dw_slow = normal_increments(*_slow_noise(model, cfg, SLOW_LABEL, cfg.N))
    dws, h, noise_scale = _fast_increments(model, cfg, FAST_LABEL, cfg.N)

    slow = np.empty((n_steps + 1,) + x.shape)
    fast = np.empty((n_steps + 1,) + z.shape)
    slow[0], fast[0] = x, z
    for k, dw_fast in enumerate(dws):
        # The step's summaries check the state it starts from; the last state
        # has no next step and is checked plainly.
        mu = _checked_summary(x, "slow state", k, times[k])
        nu = _checked_summary(z, "fast state", k, times[k])
        x, z = _macro_step(model, x, mu, z, nu, _dw_slow[k], dt, dw_fast, h, noise_scale)
        slow[k + 1], fast[k + 1] = x, z
    _check_finite(x, "slow state", n_steps, times[n_steps])
    _check_finite(z, "fast state", n_steps, times[n_steps])
    return PathEnsemble(times=times, slow=slow, fast=fast, config=cfg)


def simulate_frozen(
    model: ModelSpec,
    x: np.ndarray,
    mu: MeasureSummary,
    cfg: FrozenRunConfig,
    z0: Optional[np.ndarray] = None,
    *,
    _dw_frozen: Optional[np.ndarray] = None,
) -> PathEnsemble:
    """Run the fast equation with slow input and law pinned at (x, mu).

    The ensemble's own empirical law feeds the self-interaction term and is
    recomputed every step (unit time scale, no substepping).  ``_dw_frozen``
    is private: the estimated drift oracle passes the :func:`_frozen_noise`
    block it holds, which is exactly the one read here otherwise.
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
    if _dw_frozen is None:
        dws = _increment_groups(*_frozen_noise(model, cfg), 1)
    else:
        dws = _dw_frozen.reshape(n_steps, 1, cfg.M, model.m)

    what = "frozen fast state"
    fast = np.empty((n_steps + 1,) + z.shape)
    fast[0] = z
    for k, dw in enumerate(dws):
        nu = _checked_summary(z, what, k, times[k])
        z = _fast_substeps(model, x_frozen, mu, z, nu, dw, dt, 1.0)
        fast[k + 1] = z
    _check_finite(z, what, n_steps, times[n_steps])
    slow = np.broadcast_to(x_frozen, (n_steps + 1,) + x_frozen.shape)
    return PathEnsemble(times=times, slow=slow, fast=fast, config=cfg)


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
    if _dw_slow is None:
        _dw_slow = normal_increments(*_slow_noise(model, cfg, SLOW_LABEL, cfg.N))

    slow = np.empty((n_steps + 1,) + x.shape)
    slow[0] = x
    for k in range(n_steps):
        mu = _checked_summary(x, "averaged slow state", k, times[k])
        x = _slow_step(model, x, mu, drift(x, mu), _dw_slow[k], dt)
        slow[k + 1] = x
    _check_finite(x, "averaged slow state", n_steps, times[n_steps])
    return PathEnsemble(times=times, slow=slow, config=cfg)


def coupled_pair(
    model: ModelSpec,
    drift: Callable[[np.ndarray, MeasureSummary], np.ndarray],
    cfg: SdeConfig,
):
    """Slow/fast run and averaged run under identical slow increments.

    The slow block is drawn once and handed to both runs.
    """

    dw_slow = normal_increments(*_slow_noise(model, cfg, SLOW_LABEL, cfg.N))
    return (
        simulate_slow_fast(model, cfg, _dw_slow=dw_slow),
        simulate_averaged(model, drift, cfg, _dw_slow=dw_slow),
    )


def simulate_auxiliary(model: ModelSpec, slow_path: PathEnsemble, delta_eps: float) -> PathEnsemble:
    """Rebuild the fast path with slow input frozen per delta_eps block.

    ``slow_path`` is a :func:`simulate_slow_fast` run, and its config gives
    the grid, substeps, epsilon, seed and N.  Restart points k*delta_eps are
    rounded to the macro grid; at each restart the auxiliary state is reset
    to the stored fast cloud and the slow input (and its law) are pinned
    until the next restart.  The driving increments are regenerated from the
    path's config, so away from the frozen inputs this is the same discrete
    dynamics as the original run.
    """

    delta = _float(delta_eps)
    if not (math.isfinite(delta) and delta > 0.0):
        raise InvalidParams(f"delta_eps must be finite and positive, got {delta}")
    cfg = slow_path.config
    if not isinstance(cfg, SdeConfig) or slow_path.fast is None:
        raise GridMismatch("ensemble has no slow-fast run to restart from")

    n_steps = cfg.n_steps
    times = slow_path.times
    seg = max(1, int(round(delta / cfg.dt_macro)))
    dws, h, noise_scale = _fast_increments(model, cfg, FAST_LABEL, cfg.N)

    what = "auxiliary fast state"
    aux = np.empty((n_steps + 1,) + slow_path.fast.shape[1:])
    aux[0] = slow_path.fast[0]
    for k, dw_fast in enumerate(dws):
        if k % seg == 0:
            if k:
                # a restart replaces the computed state unsummarized
                _check_finite(zh, what, k, times[k])
            zh = slow_path.fast[k]
            x_frozen = slow_path.slow[k]
            mu_frozen = summarize_points(x_frozen)
        nu = _checked_summary(zh, what, k, times[k])
        zh = _fast_substeps(model, x_frozen, mu_frozen, zh, nu, dw_fast, h, noise_scale)
        aux[k + 1] = zh
    _check_finite(zh, what, n_steps, times[n_steps])
    return PathEnsemble(
        times=times,
        slow=slow_path.slow,
        fast=slow_path.fast,
        aux=aux,
        config=cfg,
    )
