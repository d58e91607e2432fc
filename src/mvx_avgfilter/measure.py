"""Empirical measures.

Laws of the slow and fast components are carried around as weighted particle
clouds. Coefficients and functionals only ever see a MeasureSummary (mean,
second moment, particle count), which keeps evaluation O(1) after a one-pass
reduction. Only ``summarize`` attaches a handle back to the cloud for custom
integration; ``summarize_points``, which the integrators use, does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateWeights,
    InvalidParams,
    MvxError,
    NonFiniteResult,
)

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ParticleCloud:
    """Immutable weighted point set standing in for a probability measure."""

    points: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise InvalidParams("cloud needs at least one particle (points must be N x d)")
        if not np.isfinite(pts).all():
            raise InvalidParams("cloud coordinates must be finite")
        n = pts.shape[0]
        if self.weights is None:
            w = np.full(n, 1.0 / n)
        else:
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != (n,):
                raise InvalidParams(f"weights shape {w.shape} does not match {n} particles")
            if not np.isfinite(w).all() or (w < 0).any():
                raise InvalidParams("weights must be finite and nonnegative")
            if abs(float(w.sum()) - 1.0) > _WEIGHT_TOL:
                raise InvalidParams(f"weights must sum to 1 (got {float(w.sum()):.17g})")
        pts = pts.copy()
        pts.flags.writeable = False
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


class MeasureSummary:
    """Moment summary of a cloud; what coefficient functions consume.

    second_moment is the full squared norm, sum_i w_i |x_i|^2. A summary made
    by ``summarize_points`` without weights computes it on first read from the
    points it was made from, so do not write to those points while the summary
    is in use. Treat a summary as read-only.
    """

    __slots__ = ("mean", "n_points", "source", "_second", "_points")

    def __init__(
        self,
        mean: np.ndarray,
        second_moment: float,
        n_points: int,
        source: Optional[ParticleCloud] = None,
    ):
        self.mean = mean
        self.n_points = n_points
        self.source = source
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

    def integrate(self, phi: Callable[[np.ndarray], float]) -> float:
        if self.source is None:
            raise MvxError("summary has no backing cloud to integrate against")
        return integrate(self.source, phi)


def summarize(cloud: ParticleCloud) -> MeasureSummary:
    """Exact weighted moments of a cloud."""
    mean = cloud.weights @ cloud.points
    second = float(cloud.weights @ np.einsum("ij,ij->i", cloud.points, cloud.points))
    return MeasureSummary(mean=mean, second_moment=second, n_points=cloud.n, source=cloud)


def summarize_points(points: np.ndarray, weights: Optional[np.ndarray] = None) -> MeasureSummary:
    """Summary straight from an (N, d) array with N >= 1, skipping cloud
    construction.

    Used in integrator inner loops; no integration handle is attached.
    Without weights the second moment is computed on first read, from
    ``points`` itself: do not write to ``points`` while the summary is in use.
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


def integrate(cloud: ParticleCloud, phi: Callable[[np.ndarray], float]) -> float:
    """sum_i w_i phi(x_i); phi receives one length-d vector at a time."""
    vals = np.fromiter((float(phi(row)) for row in cloud.points), dtype=np.float64, count=cloud.n)
    if not np.isfinite(vals).all():
        raise NonFiniteResult("phi produced a non-finite value on the cloud support")
    return float(cloud.weights @ vals)


def systematic_resample_indices(weights: np.ndarray, u: float) -> np.ndarray:
    """Offspring indices for systematic resampling with a single uniform u.

    Stratified positions (i + u)/N against the cumulative weights; expected
    multiplicity of particle i is N * w_i.
    """
    w = np.asarray(weights, dtype=np.float64)
    total = float(w.sum())
    if total <= 0.0:
        raise DegenerateWeights("all weights are zero")
    cum = np.cumsum(w / total)
    cum[-1] = 1.0  # guard against rounding shortfall at the top
    positions = (np.arange(w.shape[0]) + u) / w.shape[0]
    return np.searchsorted(cum, positions, side="right").clip(max=w.shape[0] - 1)


def systematic_resample(cloud: ParticleCloud, rng: np.random.Generator) -> ParticleCloud:
    """Uniform-weight cloud of the same size, drawn by systematic resampling."""
    idx = systematic_resample_indices(cloud.weights, float(rng.random()))
    return ParticleCloud(cloud.points[idx])
