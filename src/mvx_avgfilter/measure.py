"""Empirical measures.

Particle paths are plain ``(N, d)`` arrays, one per grid time.  The law of a
component enters coefficients and functionals only as a MeasureSummary (mean,
second moment, particle count), made from those arrays in one pass by
``summarize_points`` or, for a point mass, by ``dirac_summary``.  Resampling
works on indices: ``systematic_resample_indices`` picks the offspring and the
caller gathers its own arrays with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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

    second_moment is the full squared norm, sum_i w_i |x_i|^2. A summary made
    by ``summarize_points`` without weights computes it on first read from the
    points it was made from, so do not write to those points while the summary
    is in use. Treat a summary as read-only.
    """

    __slots__ = ("mean", "n_points", "_second", "_points")

    def __init__(self, mean: np.ndarray, second_moment: float, n_points: int):
        self.mean = mean
        self.n_points = n_points
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
        return (
            f"MeasureSummary(mean={self.mean!r}, second_moment={self.second_moment!r}, "
            f"n_points={self.n_points!r})"
        )


def summarize_points(points: np.ndarray, weights: Optional[np.ndarray] = None) -> MeasureSummary:
    """Summary straight from an (N, d) array with N >= 1.

    With ``weights`` the moments are ``weights @ points`` and
    ``weights @ |points_i|^2``.  Without them the mean is the plain average
    and the second moment is computed on first read, from ``points`` itself:
    do not write to ``points`` while the summary is in use.
    """
    if getattr(points, "ndim", None) != 2 or points.shape[0] < 1:
        raise InvalidParams(
            f"points must be a non-empty N x d array, got shape {np.shape(points)}"
        )
    if weights is None:
        # ndarray.mean's own arithmetic, without its Python wrapper
        n = points.shape[0]
        summary = MeasureSummary(np.add.reduce(points, axis=0) / n, None, n)
        summary._points = points
        return summary
    mean = weights @ points
    second = float(weights @ np.einsum("ij,ij->i", points, points))
    return MeasureSummary(mean=mean, second_moment=second, n_points=points.shape[0])


def dirac_summary(v) -> MeasureSummary:
    """Summary of a point mass at v."""
    mean = np.asarray(v, dtype=np.float64).reshape(-1)
    return MeasureSummary(mean=mean, second_moment=float(mean @ mean), n_points=1)


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
