"""Empirical measures.

Particle paths are plain ``(N, d)`` arrays, one per grid time.  The law of a
component enters coefficients and functionals only as a MeasureSummary (mean
and second moment), made from those arrays by ``summarize_points``
(the one rule runs and observation law traces share) or, for a point mass, by
``dirac_summary``.  Resampling works on indices: ``systematic_resample_indices``
picks the offspring and the caller gathers its own arrays with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeights, InvalidParams


@dataclass(frozen=True, eq=False)
class ParticleCloud:
    """Read-only, validated copy of an (N, d) point set with N >= 1.

    Nothing in the package builds one: paths stay arrays.  It is kept, with
    :attr:`PathEnsemble.slow_clouds <mvx_avgfilter.sde.PathEnsemble.slow_clouds>`,
    because the benchmark in ``perfbench/`` still names it: the tracer wraps
    ``__post_init__`` and the ``oracle-estimated`` check reads
    ``slow_clouds[-1].points``.  Both can go once the benchmark reads the
    arrays instead.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise InvalidParams("cloud needs at least one particle (points must be N x d)")
        if not np.isfinite(pts).all():
            raise InvalidParams("cloud coordinates must be finite")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)


class MeasureSummary:
    """Moment summary of an empirical law; what coefficient functions consume.

    second_moment is the mean full squared norm, sum_i |x_i|^2 / N. A summary
    made by ``summarize_points`` computes it on first read from the points it
    was made from, so do not write to those points while the summary is in
    use. Treat a summary as read-only.
    """

    __slots__ = ("mean", "_second", "_points")

    def __init__(self, mean: np.ndarray, second_moment: float):
        self.mean = mean
        self._second = second_moment
        self._points = None

    @property
    def second_moment(self) -> float:
        points = self._points
        if points is not None:
            self._second = float(np.einsum("ij,ij->", points, points) / points.shape[0])
            self._points = None
        return self._second

    def __repr__(self) -> str:
        return f"MeasureSummary(mean={self.mean!r}, second_moment={self.second_moment!r})"


def summarize_points(points: np.ndarray) -> MeasureSummary:
    """The summary of an (N, d) array with N >= 1, by the package's one rule.

    The mean is the plain average.  The second moment is computed on first
    read, from ``points`` itself: do not write to ``points`` while the summary
    is in use.
    """
    if getattr(points, "ndim", None) != 2 or points.shape[0] < 1:
        raise InvalidParams(
            f"points must be a non-empty N x d array, got shape {np.shape(points)}"
        )
    # ndarray.mean's own arithmetic, without its Python wrapper
    summary = MeasureSummary(np.add.reduce(points, axis=0) / points.shape[0], None)
    summary._points = points
    return summary


def dirac_summary(v) -> MeasureSummary:
    """Summary of a point mass at v."""
    mean = np.asarray(v, dtype=np.float64).reshape(-1)
    return MeasureSummary(mean=mean, second_moment=float(mean @ mean))


def systematic_resample_indices(weights: np.ndarray, u: float) -> np.ndarray:
    """Offspring indices for systematic resampling with a single uniform u.

    Stratified positions (i + u)/N against the cumulative weights; expected
    multiplicity of particle i is N * w_i.  Weights need not be normalized,
    but must be nonnegative with a finite, positive sum.
    """
    w = np.asarray(weights, dtype=np.float64)
    total = float(w.sum())
    if not math.isfinite(total):
        raise InvalidParams(f"weights must have a finite sum, got {total!r}")
    if w.size and w.min() < 0.0:
        raise InvalidParams("weights must be nonnegative")
    if total <= 0.0:
        raise DegenerateWeights("all weights are zero")
    cum = np.cumsum(w / total)
    cum[-1] = 1.0  # guard against rounding shortfall at the top
    positions = (np.arange(w.shape[0]) + u) / w.shape[0]
    return np.searchsorted(cum, positions, side="right").clip(max=w.shape[0] - 1)
