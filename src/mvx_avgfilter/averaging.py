"""Averaged drift: ergodic estimation, closed forms, cached oracles.

The averaged drift at (x, mu) is the integral of b1(x, mu, .) against the
invariant law of the frozen fast equation.  It, the invariant moments and
the decay target are each one window average of a frozen run past burn-in;
standard errors account for the serial correlation of the ensemble averages
through the integrated autocorrelation time (Sokal windowing), since batch
means at these window lengths under-cover badly.

A drift is any callable (points, mu-summary) -> drift rows, taking (N, n)
points or a single (n,) point.  make_drift_oracle builds the two the
package provides: the linear closed form and the cell-cached estimate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    FitFailure,
    InsufficientWindow,
    InvalidParams,
    UnsupportedModel,
    ValidationError,
)
from . import SCHEMA_VERSION
from .measure import MeasureSummary
from .model import LinearModelParams, ModelSpec, linear_family
from .sde import FrozenRunConfig, _frozen_noise, simulate_frozen
from .serialize import atomic_write_chunks
from .streams import derive_seed, normal_increments

__all__ = [
    "AveragedDriftOracle",
    "BbarEstimate",
    "ErgodicDecayProfile",
    "FrozenRunConfig",
    "InvariantMoments",
    "ORACLE_VERSION",
    "analytic_bbar_linear",
    "default_burn_in",
    "ergodic_decay_profile",
    "estimate_bbar",
    "integrated_autocorr_time",
    "invariant_moments",
    "make_drift_oracle",
]


# Sokal's window constant: the sum stops at the first lag w >= SOKAL_C * tau
SOKAL_C = 6.0


def integrated_autocorr_time(series: np.ndarray) -> float:
    """Sokal-windowed integrated autocorrelation time of a 1-D series.

    Returns tau_int in units of sample spacing (0.5 for white noise), capped
    at len(series)/4; estimates from windows much shorter than ~20 tau are
    unavoidably rough.
    """

    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 4:
        return 0.5
    x = x - x.mean()
    var = float(x @ x) / n
    if var <= 0.0:
        return 0.5
    f = np.fft.rfft(x, n=2 * n)
    acov = np.fft.irfft(f * np.conj(f))[:n] / n
    rho = acov / acov[0]
    tau = 0.5
    for w in range(1, n):
        tau = 0.5 + float(rho[1 : w + 1].sum())
        if w >= SOKAL_C * tau:
            break
    return float(min(max(tau, 0.5), n / 4.0))


def _mean_se_tau(series: np.ndarray):
    """Mean, correlation-corrected SE, and tau_int of a 1-D series.

    tau_int is the larger of the Sokal-windowed estimate and a lag-1
    autoregressive fit: the windowed spectral sum truncates badly when the
    window holds only a few correlation times, while the AR estimate keeps
    its accuracy there.  The sample variance is also corrected for the
    in-window mean subtraction, which eats roughly a 1 - 2*tau/n factor of
    the true marginal variance on short windows.
    """

    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 2:
        return float(x.mean()) if n else 0.0, 0.0, 0.5
    tau = integrated_autocorr_time(x)
    d = x - x.mean()
    denom = float(d[:-1] @ d[:-1])
    if denom > 0.0:
        phi = float(d[1:] @ d[:-1]) / denom
        if 0.0 < phi < 1.0:
            tau = max(tau, (1.0 + phi) / (2.0 * (1.0 - phi)))
    tau = float(min(max(tau, 0.5), n / 4.0))
    var = float(np.var(x)) / max(0.2, 1.0 - 2.0 * tau / n)
    se = math.sqrt(var * 2.0 * tau / n)
    return float(x.mean()), se, tau


@dataclass(frozen=True)
class BbarEstimate:
    """Window average with per-component standard errors (the averaged drift's)."""

    value: np.ndarray
    stderr: np.ndarray
    tau_int: np.ndarray
    n_samples: int


@dataclass(frozen=True)
class InvariantMoments:
    mean: np.ndarray
    second_moment: float
    stderr_mean: np.ndarray
    stderr_second: float


@dataclass(frozen=True)
class ErgodicDecayProfile:
    """Ensemble-mean deviation from the stationary mean over a time grid."""

    t_grid: np.ndarray
    deviations: np.ndarray
    fitted_rate: float
    fit_r2: float
    noise_floor: float
    used_mask: np.ndarray
    target: np.ndarray


def default_burn_in(params: LinearModelParams) -> float:
    """Five relaxation times of the squared deviation, beta1 - beta2 = 2*(gamma - c3)."""

    return 5.0 / (2.0 * (params.gamma - params.c3))


def analytic_bbar_linear(params: LinearModelParams, x, mu_mean) -> np.ndarray:
    """Closed-form averaged drift for the linear family.

    The frozen stationary mean is m = (c1*x + c2*mean(mu))/(gamma - c3);
    averaging b1 replaces z by m.  Broadcasts over leading axes of x.
    """

    p = params
    x = np.asarray(x, dtype=float)
    mu_mean = np.asarray(mu_mean, dtype=float)
    m = (p.c1 * x + p.c2 * mu_mean) / (p.gamma - p.c3)
    return p.a11 * x + p.a12 * mu_mean + p.a13 * m


# Window steps per call of the window function: a call per step costs Python
# overhead on every step, one call for the whole window holds temporaries as
# large as the stored window.
_WINDOW_BLOCK = 64


def _window_average(
    model: ModelSpec, x, mu: MeasureSummary, cfg: FrozenRunConfig, f, _dw_frozen=None
) -> BbarEstimate:
    """Window average of f(x_rows, z_rows) over one frozen run at (x, mu): the
    particle mean at each step from round(burn_in/dt) on, then each column's
    mean, SE and tau_int over those n_samples steps.  The window rule:
    avg_window holds at least 10 steps of dt.  ``_dw_frozen`` is handed to
    :func:`simulate_frozen`."""

    if cfg.avg_window < 10.0 * cfg.dt:
        raise InsufficientWindow(
            f"avg_window={cfg.avg_window} shorter than 10*dt={10.0 * cfg.dt}"
        )
    path = simulate_frozen(model, x, mu, cfg, _dw_frozen=_dw_frozen)
    start = int(round(cfg.burn_in / cfg.dt))
    cuts = range(_WINDOW_BLOCK, len(path.times) - start, _WINDOW_BLOCK)
    series = np.concatenate(
        [
            np.mean(np.asarray(f(xb, zb)), axis=1)
            for xb, zb in zip(np.split(path.slow[start:], cuts), np.split(path.fast[start:], cuts))
        ]
    )
    value, stderr, taus = map(np.array, zip(*(_mean_se_tau(col) for col in series.T)))
    return BbarEstimate(value=value, stderr=stderr, tau_int=taus, n_samples=len(series))


def estimate_bbar(
    model: ModelSpec,
    x: np.ndarray,
    mu: MeasureSummary,
    cfg: FrozenRunConfig,
    *,
    _dw_frozen: Optional[np.ndarray] = None,
) -> BbarEstimate:
    """Ergodic-average estimate of the averaged drift at (x, mu): the window
    average of b1.  ``_dw_frozen`` is private, as in :func:`simulate_frozen`."""

    return _window_average(
        model, x, mu, cfg, lambda xb, zb: model.b1(xb, mu, zb), _dw_frozen
    )


def invariant_moments(
    model: ModelSpec, x: np.ndarray, mu: MeasureSummary, cfg: FrozenRunConfig
) -> InvariantMoments:
    """Mean and second moment of the frozen invariant law: the window average
    of (z, |z|^2), in one frozen run."""

    est = _window_average(
        model, x, mu, cfg, lambda xb, zb: np.concatenate([zb, (zb * zb).sum(-1, keepdims=True)], -1)
    )
    return InvariantMoments(mean=est.value[:-1], second_moment=float(est.value[-1]),
                            stderr_mean=est.stderr[:-1], stderr_second=float(est.stderr[-1]))


def ergodic_decay_profile(
    model: ModelSpec,
    x: np.ndarray,
    mu: MeasureSummary,
    cfg: FrozenRunConfig,
    t_grid: Optional[np.ndarray] = None,
    z_init: Optional[np.ndarray] = None,
    target: Optional[np.ndarray] = None,
) -> ErgodicDecayProfile:
    """Relaxation of the ensemble mean toward the frozen stationary mean.

    Fits log-deviation against time over the points that clear the noise
    floor (3x the stationary ensemble-mean fluctuation scale).  cfg.M plays
    the role of the replication count.
    """

    if cfg.M < 100:
        raise InvalidParams(f"need at least 100 replications for a usable fit, got M={cfg.M}")
    if t_grid is None:
        t_grid = np.linspace(0.0, 3.0, 31)
    t_grid = np.asarray(t_grid, dtype=float)
    if not (t_grid.size and np.isfinite(t_grid).all() and (t_grid >= 0.0).all()):
        raise InvalidParams(f"t_grid must be nonempty, finite and >= 0, got {t_grid.tolist()}")
    total = float(t_grid.max())
    if total <= 0.0:
        raise InvalidParams("t_grid must reach past 0")
    run_cfg = dataclasses.replace(cfg, burn_in=0.0, avg_window=total)
    path = simulate_frozen(model, x, mu, run_cfg, z0=z_init)

    if target is None:
        if model.linear_params is not None:
            p = model.linear_params
            xv = np.asarray(x, dtype=float).reshape(-1)
            target = (p.c1 * xv + p.c2 * mu.mean) / (p.gamma - p.c3)
        else:
            # independent stationary run; its window mean stands in for the target
            tail_cfg = dataclasses.replace(
                cfg,
                burn_in=2.0 * total,
                avg_window=total,
                seed=derive_seed(cfg.seed, "decay-target"),
            )
            target = _window_average(model, x, mu, tail_cfg, lambda xb, zb: zb).value
    target = np.asarray(target, dtype=float).reshape(-1)

    idx = np.round(t_grid / run_cfg.dt).astype(int)
    if idx.max() >= len(path.times):
        raise InvalidParams("t_grid extends past the simulated horizon")
    deviations = np.array(
        [float(np.linalg.norm(path.fast[i].mean(axis=0) - target)) for i in idx]
    )
    final = path.fast[-1]
    ens_var = float(np.mean(np.var(final, axis=0)))
    noise_floor = 3.0 * math.sqrt(ens_var / cfg.M)

    used = deviations > noise_floor
    if used.sum() < 3:
        raise FitFailure(
            f"only {int(used.sum())} deviations clear the noise floor {noise_floor:.3g}; "
            "start farther from stationarity or increase M"
        )
    ts = t_grid[used]
    ys = np.log(deviations[used])
    slope, intercept = np.polyfit(ts, ys, 1)
    resid = ys - (slope * ts + intercept)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0.0 else 0.0
    return ErgodicDecayProfile(
        t_grid=t_grid,
        deviations=deviations,
        fitted_rate=float(-slope),
        fit_r2=r2,
        noise_floor=noise_floor,
        used_mask=used,
        target=target,
    )


# ===== drift oracles =====


_MODES = ("estimated", "analytic-linear")

# What a cached cell value is.  Version 1 (never recorded in a cache) ran
# each cell on its own noise, under a seed derived from the cell key;
# version 2 runs every cell on the oracle's one frozen block.
ORACLE_VERSION = 2


class _CellCentre(MeasureSummary):
    """A cell centre's law summary that records whether its second moment was read."""

    __slots__ = ("second_read",)

    def __init__(self, mean: np.ndarray, second_moment: float):
        super().__init__(mean, second_moment)
        self.second_read = False

    @property
    def second_moment(self) -> float:
        self.second_read = True
        return self._second


class _Estimate:
    """A cell estimate one thread runs while others wait for its value or error."""

    __slots__ = ("_done", "value", "error")

    def __init__(self):
        self._done = threading.Event()
        self.value = self.error = None

    def finish(self, value=None, error=None) -> None:
        self.value, self.error = value, error
        self._done.set()

    def result(self) -> np.ndarray:
        self._done.wait()
        if self.error is not None:
            raise self.error
        return self.value


class AveragedDriftOracle:
    """The estimated averaged drift: (points, mu-summary) -> drift rows.

    Evaluations are memoized on quantized (x, mean(mu), second-moment)
    cells.  A cell's value is exactly ``estimate_bbar(model, centre_x,
    centre_mu, frozen_cfg)`` at the dequantized cell centre: every cell runs
    on the one frozen noise block that ``simulate_frozen`` draws at
    ``frozen_cfg``.  The oracle draws that block at its first miss and holds
    it, the size of one frozen path.  So cached values do not depend on
    evaluation order, two oracles with the same configuration agree
    bit-for-bit, and the difference between two cells is exact, free of
    noise (common random numbers).  The price: the shared noise puts one
    shared offset into every cell's error, so the errors are correlated, and
    no one cell's error is smaller than under independent noise.

    Cells that differ only in the second-moment entry share one frozen run
    when the estimate never reads the centre's second moment (the linear
    family never does): the run then never sees the one input in which the
    cells differ, so each of them would get its value, bit for bit.  A cell
    whose estimate reads it runs its own.  Cells added by ``load_cache``
    share nothing: the oracle did not see what their runs read.

    The cache only ever applies to the model it was built with; the
    persisted form records the oracle version (:data:`ORACLE_VERSION`),
    dimensions and the frozen-run configuration, not the coefficient
    functions.
    """

    def __init__(self, model: ModelSpec, frozen_cfg: FrozenRunConfig, quant: float = 0.05):
        self.model = model
        self.frozen_cfg = frozen_cfg
        self.quant = float(quant)
        if not (math.isfinite(self.quant) and self.quant > 0.0):
            raise InvalidParams(f"quant must be finite and positive, got {quant!r}")
        self.stats = {"hits": 0, "misses": 0}
        self._cache = {}
        # (x key, mean key) -> the value of a cell whose estimate never read
        # the second moment, for every cell that differs from it only there
        self._shared = {}
        self._running = {}  # cell key -> the _Estimate one thread is running for it
        self._lock = threading.Lock()
        self._noise = None  # the frozen block every cell runs on, drawn at the first miss

    # -- cell handling --

    def _estimate_cell(self, key: tuple) -> np.ndarray:
        """estimate_bbar at the cell's centre under the oracle's frozen config,
        on the oracle's frozen block.  If it never read the centre's second
        moment, its value is filed for the cells that differ only there."""
        n, q = self.model.n, self.quant
        x_rep = np.array(key[:n], dtype=float) * q
        centre = _CellCentre(np.array(key[n:-1], dtype=float) * q, float(key[-1] * q))
        with self._lock:
            if self._noise is None:
                self._noise = normal_increments(*_frozen_noise(self.model, self.frozen_cfg))
                self._noise.flags.writeable = False
            noise = self._noise
        value = estimate_bbar(self.model, x_rep, centre, self.frozen_cfg, _dw_frozen=noise).value
        if not centre.second_read:
            with self._lock:
                self._shared[key[:-1]] = value
        return value

    def __call__(self, x, mu: MeasureSummary) -> np.ndarray:
        pts = np.asarray(x, dtype=float)
        if pts.ndim == 1:
            return self._lookup(pts.reshape(1, -1), mu)[0]
        return self._lookup(pts, mu)

    def _lookup(self, rows: np.ndarray, mu: MeasureSummary) -> np.ndarray:
        """Cached cell values for every row, one cache lookup per distinct cell.

        Each new cell counts one miss, whether a frozen run or a shared
        estimate fills it; every other row counts a hit, so hits + misses
        equals the number of rows.
        """
        q = self.quant
        mu_key = tuple(np.rint(mu.mean / q).astype(int).tolist())
        mu_key += (int(np.rint(mu.second_moment / q)),)
        row_keys, inverse = np.unique(
            np.rint(rows / q).astype(int), axis=0, return_inverse=True
        )
        counts = np.bincount(inverse.reshape(-1), minlength=len(row_keys)).tolist()
        values = np.empty((len(row_keys), rows.shape[1]))
        for j, row_key in enumerate(row_keys.tolist()):
            values[j] = self._cell(tuple(row_key) + mu_key, counts[j])
        return values[inverse.reshape(-1)]

    def _cell(self, key: tuple, rows: int) -> np.ndarray:
        """The value of cell ``key``, looked up for ``rows`` rows.

        A cell being estimated by another thread is waited for and counts
        hits only; if that estimate raises, the error reaches every waiter.
        """
        with self._lock:
            value = self._cache.get(key)
            running = self._running.get(key)
            if value is None and running is None:
                value = self._shared.get(key[:-1])
                if value is None:
                    self._running[key] = _Estimate()
                else:
                    self._cache[key] = value
                    self.stats["misses"] += 1
                    rows -= 1
            if value is not None:
                self.stats["hits"] += rows
                return value
        if running is not None:
            value = running.result()
            with self._lock:
                self.stats["hits"] += rows
            return value
        try:
            value = self._estimate_cell(key)
        except BaseException as exc:
            with self._lock:
                self._running.pop(key).finish(error=exc)
            raise
        with self._lock:
            self._cache[key] = value
            self.stats["misses"] += 1
            self.stats["hits"] += rows - 1
            self._running.pop(key).finish(value)
        return value

    # -- persistence --

    def _digest(self) -> str:
        payload = {
            "oracle_version": ORACLE_VERSION,
            "quant": self.quant,
            "frozen_cfg": dataclasses.asdict(self.frozen_cfg),
            "dims": [self.model.n, self.model.m, self.model.l],
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()

    def save_cache(self, path) -> None:
        with self._lock:
            entries = [
                {"key": list(k), "value": [float(v) for v in vals]}
                for k, vals in sorted(self._cache.items())
            ]
        doc = {
            "schema": f"{SCHEMA_VERSION} drift-cache",
            "oracle_version": ORACLE_VERSION,
            "digest": self._digest(),
            "quant": self.quant,
            "frozen_cfg": dataclasses.asdict(self.frozen_cfg),
            "entries": entries,
        }
        atomic_write_chunks(os.fspath(path), (json.dumps(doc, indent=1),))

    def load_cache(self, path) -> None:
        """Add the cells saved at ``path``, or none if any entry is malformed.

        A cache of another oracle version holds other values, so it is
        refused; one that records no version is version 1's, which did not.
        """
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValidationError("drift cache is not a JSON object")
        version = doc.get("oracle_version", 1)
        if version != ORACLE_VERSION:
            raise ValidationError(
                f"drift cache holds oracle version {version!r} cells; this oracle "
                f"is version {ORACLE_VERSION}"
            )
        if doc.get("digest") != self._digest():
            raise ValidationError(
                "drift cache was built for a different frozen-run configuration, "
                "quantization, or model dimensions"
            )
        if not isinstance(doc.get("entries"), list):
            raise ValidationError("drift cache has no list of entries")
        n, cells = self.model.n, {}
        for i, entry in enumerate(doc["entries"]):
            fields = entry if isinstance(entry, dict) else {}
            key, value = fields.get("key"), fields.get("value")
            if not (isinstance(key, list) and len(key) == 2 * n + 1
                    and all(type(k) is int for k in key)
                    and isinstance(value, list) and len(value) == n
                    and all(type(v) is float and math.isfinite(v) for v in value)):
                raise ValidationError(
                    f"drift cache entry {i} needs a key of {2 * n + 1} integers and a "
                    f"value of {n} finite floats, got {entry!r}"
                )
            cells[tuple(key)] = np.asarray(value, dtype=float)
        with self._lock:
            self._cache.update(cells)


def make_drift_oracle(
    model: ModelSpec,
    mode: str,
    frozen_cfg: Optional[FrozenRunConfig] = None,
    quant: float = 0.05,
) -> Callable:
    """The averaged drift of ``model``, a callable (points, mu-summary) -> rows.

    Any callable of that signature is a drift for every consumer
    (``simulate_averaged``, ``coupled_pair``, the averaged filter arm and the
    sweeps).  "analytic-linear" is :func:`analytic_bbar_linear` (linear family
    only, as :func:`~mvx_avgfilter.model.linear_family` reads it); "estimated"
    is a new, empty :class:`AveragedDriftOracle`, whose cells persist through
    its ``save_cache`` and ``load_cache``.
    """

    if mode not in _MODES:
        raise InvalidParams(f"mode must be one of {_MODES}, got {mode!r}")
    if mode == "analytic-linear":
        params = linear_family(model)
        if params is None:
            raise UnsupportedModel(
                "closed-form averaged drift requires the linear family, with the b1, "
                "sigma1, b2 and sigma2 that make_linear_model built"
            )
        return lambda x, mu: analytic_bbar_linear(params, x, mu.mean)
    if frozen_cfg is None:
        raise InvalidParams("estimated mode requires a frozen-run configuration")
    return AveragedDriftOracle(model, frozen_cfg, quant=quant)
