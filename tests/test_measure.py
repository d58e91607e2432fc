"""Tests for particle clouds, moment summaries, integration, and resampling.

Expected values come from closed forms and, for resampling, from sampling bounds.
"""

from __future__ import annotations

import numpy as np
import pytest

from mvx_avgfilter.errors import (
    DegenerateWeights,
    InvalidParams,
    NonFiniteResult,
)
from mvx_avgfilter.measure import (
    MeasureSummary,
    ParticleCloud,
    integrate,
    summarize,
    summarize_points,
    systematic_resample,
)


def cloud1d(values, weights=None):
    return ParticleCloud(np.asarray(values, dtype=float).reshape(-1, 1), weights)


# ===== summarize =====


def test_summarize_symmetric_pair():
    s = summarize(cloud1d([-1.0, 1.0]))
    assert s.mean == pytest.approx(0.0, abs=0.0)
    assert s.second_moment == pytest.approx(1.0, abs=0.0)
    assert s.n_points == 2


def test_summarize_single_point():
    s = summarize(cloud1d([3.0]))
    assert float(s.mean[0]) == 3.0
    assert s.second_moment == 9.0


def test_summarize_weighted():
    s = summarize(cloud1d([0.0, 2.0], weights=[0.75, 0.25]))
    assert float(s.mean[0]) == pytest.approx(0.5)
    assert s.second_moment == pytest.approx(1.0)


def test_second_moment_dominates_mean_sq():
    rng = np.random.default_rng(7)
    for _ in range(20):
        pts = rng.normal(size=(17, 3))
        w = rng.random(17)
        w /= w.sum()
        s = summarize(ParticleCloud(pts, w))
        assert s.second_moment >= float(s.mean @ s.mean) - 1e-12


def test_cloud_validation():
    with pytest.raises(InvalidParams):
        ParticleCloud(np.array([[0.0], [1.0]]), [0.5, 0.6])  # weights off by 0.1
    with pytest.raises(InvalidParams):
        ParticleCloud(np.array([[0.0], [1.0]]), [-0.1, 1.1])
    with pytest.raises(InvalidParams):
        ParticleCloud(np.array([[np.nan], [1.0]]))
    with pytest.raises(InvalidParams):
        ParticleCloud(np.empty((0, 1)))


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


# ===== integrate =====


def test_integrate_normalization():
    c = cloud1d([4.0, -2.0, 0.5])
    assert integrate(c, lambda x: 1.0) == pytest.approx(1.0)


def test_integrate_odd_function():
    c = cloud1d([-1.0, 1.0])
    assert integrate(c, lambda x: float(x[0])) == pytest.approx(0.0)


def test_integrate_matches_summarize():
    c = cloud1d([0.0, 2.0], weights=[0.75, 0.25])
    assert integrate(c, lambda x: float(x[0]) ** 2) == pytest.approx(1.0)


def test_integrate_nonfinite():
    c = cloud1d([0.0, 1.0])
    with pytest.raises(NonFiniteResult):
        integrate(c, lambda x: float("inf") if x[0] > 0 else 0.0)


def test_summary_integration_handle():
    c = cloud1d([1.0, 3.0])
    s = summarize(c)
    assert s.integrate(lambda x: float(x[0])) == pytest.approx(2.0)


# ===== systematic_resample =====


def test_resample_single_heavy_particle():
    c = cloud1d([0.0, 1.0, 2.0], weights=[0.0, 1.0, 0.0])
    out = systematic_resample(c, np.random.default_rng(0))
    assert out.n == 3
    assert np.all(out.points == 1.0)
    assert np.allclose(out.weights, 1.0 / 3.0)


def test_resample_degenerate_weights():
    from mvx_avgfilter.measure import systematic_resample_indices

    with pytest.raises(DegenerateWeights):
        systematic_resample_indices(np.zeros(4), 0.5)


def test_resample_split_mass_counts():
    n = 10_000
    pts = np.concatenate([np.zeros(n // 2), np.full(n // 2, 10.0)])
    c = cloud1d(pts)
    out = systematic_resample(c, np.random.default_rng(11))
    zeros = int(np.sum(out.points[:, 0] == 0.0))
    # binomial-type bound: 3 sigma around n/2; systematic is far tighter
    sigma = np.sqrt(n * 0.25)
    assert abs(zeros - n // 2) <= 3 * sigma


def test_resample_mean_preserved_over_seeds():
    c = cloud1d([-2.0, 0.0, 1.0, 5.0], weights=[0.1, 0.2, 0.3, 0.4])
    target = float(summarize(c).mean[0])
    rng = np.random.default_rng(123)
    means = np.asarray(
        [float(summarize(systematic_resample(c, rng)).mean[0]) for _ in range(1000)]
    )
    se = means.std(ddof=1) / np.sqrt(len(means))
    assert abs(means.mean() - target) <= 3 * se + 1e-12


def test_resample_expected_multiplicity():
    # expected offspring count of particle i is n * w_i; average over seeds
    w = np.array([0.05, 0.15, 0.2, 0.6])
    c = cloud1d([0.0, 1.0, 2.0, 3.0], weights=w)
    counts = np.zeros(4)
    reps = 500
    for s in range(reps):
        out = systematic_resample(c, np.random.default_rng(1000 + s))
        for i, v in enumerate([0.0, 1.0, 2.0, 3.0]):
            counts[i] += np.sum(out.points[:, 0] == v)
    assert np.allclose(counts / reps, 4 * w, atol=0.15)


def test_summary_fields():
    mean = np.array([1.0])
    s = MeasureSummary(mean=mean, second_moment=2.0, n_points=5)
    assert s.n_points == 5
    assert s.mean is mean and s.second_moment == 2.0 and s.source is None
    assert "second_moment=2.0" in repr(s)
    c = cloud1d([1.0, 3.0])
    t = MeasureSummary(mean, 2.0, 2, c)
    assert t.source is c and t.second_moment == 2.0
