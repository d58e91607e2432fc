"""Tests for moment summaries, point-set validation, and resampling indices.

Expected values come from closed forms and, for resampling, from sampling bounds.
"""

from __future__ import annotations

import numpy as np
import pytest

from mvx_avgfilter.errors import DegenerateWeights, InvalidParams
from mvx_avgfilter.measure import (
    MeasureSummary,
    ParticleCloud,
    summarize_points,
    systematic_resample_indices,
)


def col(values):
    return np.asarray(values, dtype=float).reshape(-1, 1)


def uniform(n):
    return np.full(n, 1.0 / n)


# ===== weighted moments =====


def test_summarize_symmetric_pair():
    s = summarize_points(col([-1.0, 1.0]), uniform(2))
    assert s.mean == pytest.approx(0.0, abs=0.0)
    assert s.second_moment == pytest.approx(1.0, abs=0.0)
    assert s.n_points == 2


def test_summarize_single_point():
    s = summarize_points(col([3.0]), uniform(1))
    assert float(s.mean[0]) == 3.0
    assert s.second_moment == 9.0


def test_summarize_weighted():
    s = summarize_points(col([0.0, 2.0]), np.array([0.75, 0.25]))
    assert float(s.mean[0]) == pytest.approx(0.5)
    assert s.second_moment == pytest.approx(1.0)


def test_second_moment_dominates_mean_sq():
    rng = np.random.default_rng(7)
    for _ in range(20):
        pts = rng.normal(size=(17, 3))
        w = rng.random(17)
        w /= w.sum()
        s = summarize_points(pts, w)
        assert s.second_moment >= float(s.mean @ s.mean) - 1e-12


def test_cloud_validation():
    with pytest.raises(InvalidParams):
        ParticleCloud(np.array([[np.nan], [1.0]]))
    with pytest.raises(InvalidParams):
        ParticleCloud(np.empty((0, 1)))
    pts = np.array([[0.0], [1.0]])
    cloud = ParticleCloud(pts)
    assert np.array_equal(cloud.points, pts) and not np.shares_memory(cloud.points, pts)
    assert not cloud.points.flags.writeable


# ===== summarize_points =====


@pytest.mark.parametrize("shape", [(200, 1), (1000, 1), (2000, 1), (4097, 2)])
def test_lazy_second_moment_is_the_eager_einsum(shape):
    pts = np.random.default_rng(shape[0]).normal(size=shape)
    eager = float(np.einsum("ij,ij->", pts, pts) / shape[0])
    s = summarize_points(pts)
    first = s.second_moment
    assert type(first) is float
    assert np.float64(first).tobytes() == np.float64(eager).tobytes()
    assert np.float64(s.second_moment).tobytes() == np.float64(first).tobytes()
    assert s.mean.tobytes() == (np.add.reduce(pts, axis=0) / shape[0]).tobytes()
    assert s.n_points == shape[0]


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("shape", [(5,), (2, 3, 1), (0, 2), (0, 1)])
def test_summarize_points_refuses_non_2d_or_empty_points(shape, weighted):
    pts = np.ones(shape)
    weights = np.full(shape[0], 1.0 / max(shape[0], 1)) if weighted else None
    with pytest.raises(InvalidParams, match="non-empty N x d"):
        summarize_points(pts, weights)


# ===== systematic_resample_indices =====


def resample(points, w, seed):
    """Resampled points, with the u a fresh generator at ``seed`` draws first."""
    return points[systematic_resample_indices(w, float(np.random.default_rng(seed).random()))]


def test_resample_single_heavy_particle():
    out = resample(col([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]), 0)
    assert out.shape == (3, 1)
    assert np.all(out == 1.0)


def test_resample_degenerate_weights():
    with pytest.raises(DegenerateWeights):
        systematic_resample_indices(np.zeros(4), 0.5)


@pytest.mark.parametrize(
    "w", [[0.5, np.nan, 0.5], [0.5, np.inf, 0.5], [0.5, -np.inf, 0.5], [1e308, 1e308]]
)
def test_resample_refuses_non_finite_weights(w):
    with np.errstate(over="ignore"), pytest.raises(InvalidParams, match="finite sum"):
        systematic_resample_indices(np.array(w), 0.3)


@pytest.mark.parametrize("w", [[-0.1, 1.1], [0.5, -0.5, 0.0], [-1.0, 0.0]])
def test_resample_refuses_negative_weights(w):
    with pytest.raises(InvalidParams, match="nonnegative"):
        systematic_resample_indices(np.array(w), 0.3)


def test_resample_split_mass_counts():
    n = 10_000
    pts = col(np.concatenate([np.zeros(n // 2), np.full(n // 2, 10.0)]))
    out = resample(pts, uniform(n), 11)
    zeros = int(np.sum(out[:, 0] == 0.0))
    # binomial-type bound: 3 sigma around n/2; systematic is far tighter
    sigma = np.sqrt(n * 0.25)
    assert abs(zeros - n // 2) <= 3 * sigma


def test_resample_mean_preserved_over_seeds():
    pts = col([-2.0, 0.0, 1.0, 5.0])
    w = np.array([0.1, 0.2, 0.3, 0.4])
    target = float((w @ pts)[0])
    rng = np.random.default_rng(123)
    means = np.asarray([
        float((uniform(4) @ pts[systematic_resample_indices(w, float(rng.random()))])[0])
        for _ in range(1000)
    ])
    se = means.std(ddof=1) / np.sqrt(len(means))
    assert abs(means.mean() - target) <= 3 * se + 1e-12


def test_resample_expected_multiplicity():
    # expected offspring count of particle i is n * w_i; average over seeds
    w = np.array([0.05, 0.15, 0.2, 0.6])
    pts = col([0.0, 1.0, 2.0, 3.0])
    counts = np.zeros(4)
    reps = 500
    for s in range(reps):
        out = resample(pts, w, 1000 + s)
        for i, v in enumerate([0.0, 1.0, 2.0, 3.0]):
            counts[i] += np.sum(out[:, 0] == v)
    assert np.allclose(counts / reps, 4 * w, atol=0.15)


def test_summary_fields():
    mean = np.array([1.0])
    s = MeasureSummary(mean=mean, second_moment=2.0, n_points=5)
    assert s.n_points == 5
    assert s.mean is mean and s.second_moment == 2.0
    assert "second_moment=2.0" in repr(s)
