"""Tests for coefficient systems and the structural-assumption prober.

Oracle values derived by hand before implementation:
  - linear b1 at (x=1, z=2, a11=-1, a13=1): -1*1 + 1*2 = 1.0
  - dissipativity constants for the linear family: expanding
    2<dz, -g*dz + c3*dm> <= -(2g-c3)|dz|^2 + c3|dm|^2 gives beta1 = 2*gamma-c3,
    beta2 = c3 (Young's inequality on the cross term), so 3.5 / 0.5 at
    gamma=2, c3=0.5.
  - tanh sensor: each coordinate bounded by 2, so |h| <= 2*sqrt(l) <= 2*l.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvx_avgfilter.errors import DimensionMismatch, InvalidParams
from mvx_avgfilter.measure import MeasureSummary
from mvx_avgfilter.model import (
    LinearModelParams,
    eval_coefficients,
    make_linear_model,
    probe_assumptions,
)


def point_summary(mean):
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    return MeasureSummary(mean=mean, second_moment=float(mean @ mean), n_points=1)


REF = LinearModelParams(a11=-1.0, a12=0.0, a13=1.0, s1=0.5, gamma=2.0, c1=1.0, c2=0.0, c3=0.5, s2=1.0, hscale=1.0)


# ===== construction =====


def test_make_linear_model_valid():
    m = make_linear_model(REF, n=1, m=1, l=1, x0=[1.0], z0=[0.0])
    assert m.n == m.m == m.l == 1
    assert m.linear_params == REF


def test_make_linear_model_rejects_gamma_zero():
    with pytest.raises(InvalidParams):
        make_linear_model(
            LinearModelParams(gamma=0.0), n=1, m=1, l=1, x0=[0.0], z0=[0.0]
        )


def test_make_linear_model_rejects_gamma_below_c3():
    with pytest.raises(InvalidParams):
        make_linear_model(
            LinearModelParams(gamma=1.0, c3=1.5), n=1, m=1, l=1, x0=[0.0], z0=[0.0]
        )


def test_a13_zero_b1_ignores_z():
    params = LinearModelParams(a13=0.0)
    m = make_linear_model(params, n=1, m=1, l=1, x0=[0.0], z0=[0.0])
    mu = point_summary([0.3])
    x = np.array([0.7])
    za, zb = np.array([5.0]), np.array([-40.0])
    assert np.array_equal(m.b1(x, mu, za), m.b1(x, mu, zb))


# ===== eval_coefficients =====


def test_eval_linear_example():
    params = LinearModelParams(a11=-1.0, a12=0.0, a13=1.0)
    m = make_linear_model(params, n=1, m=1, l=1, x0=[0.0], z0=[0.0])
    vals = eval_coefficients(m, np.array([1.0]), point_summary([0.0]), np.array([2.0]), point_summary([0.0]))
    assert vals.b1 == pytest.approx(np.array([1.0]))


def test_eval_zero_inputs():
    m = make_linear_model(REF, n=1, m=1, l=1, x0=[0.0], z0=[0.0])
    zero = point_summary([0.0])
    vals = eval_coefficients(m, np.zeros(1), zero, np.zeros(1), zero)
    assert vals.b1 == pytest.approx(np.zeros(1))
    assert vals.b2 == pytest.approx(np.zeros(1))
    assert vals.h == pytest.approx(np.zeros(1))


def test_eval_formulas_random_inputs():
    p = LinearModelParams(a11=0.3, a12=-0.7, a13=1.2, s1=0.4, gamma=3.0, c1=0.5, c2=0.25, c3=0.8, s2=0.9, hscale=2.0)
    m = make_linear_model(p, n=2, m=2, l=2, x0=[0.0, 0.0], z0=[0.0, 0.0])
    rng = np.random.default_rng(5)
    x = rng.normal(size=2)
    z = rng.normal(size=2)
    mu = point_summary(rng.normal(size=2))
    nu = point_summary(rng.normal(size=2))
    vals = eval_coefficients(m, x, mu, z, nu)
    assert vals.b1 == pytest.approx(p.a11 * x + p.a12 * mu.mean + p.a13 * z)
    assert vals.b2 == pytest.approx(-p.gamma * z + p.c1 * x + p.c2 * mu.mean + p.c3 * nu.mean)
    assert vals.sigma1 == pytest.approx(p.s1 * np.eye(2))
    assert vals.sigma2 == pytest.approx(p.s2 * np.eye(2))
    assert vals.h == pytest.approx(np.tanh(p.hscale * x) + np.tanh(p.hscale * mu.mean))


def test_eval_dimension_mismatch():
    m = make_linear_model(REF, n=1, m=1, l=1, x0=[0.0], z0=[0.0])
    with pytest.raises(DimensionMismatch):
        eval_coefficients(m, np.zeros(2), point_summary([0.0]), np.zeros(1), point_summary([0.0]))
    with pytest.raises(DimensionMismatch):
        eval_coefficients(m, np.zeros(1), point_summary([0.0, 0.0]), np.zeros(1), point_summary([0.0]))


def test_eval_deterministic_bitwise():
    m = make_linear_model(REF, n=1, m=1, l=1, x0=[0.0], z0=[0.0])
    x, z = np.array([0.37]), np.array([-1.91])
    mu, nu = point_summary([0.11]), point_summary([0.23])
    a = eval_coefficients(m, x, mu, z, nu)
    b = eval_coefficients(m, x, mu, z, nu)
    for name in ("b1", "sigma1", "b2", "sigma2", "h"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


# ===== h bound =====


def test_h_bound_declared_and_respected():
    m = make_linear_model(REF, n=1, m=1, l=1, x0=[0.0], z0=[0.0])
    assert m.h_max == pytest.approx(2.0)  # 2*sqrt(l), l=1
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        x = rng.uniform(-50, 50, size=1)
        mu = point_summary(rng.uniform(-50, 50, size=1))
        worst = max(worst, float(np.linalg.norm(m.h(x, mu))))
    assert worst <= m.h_max + 1e-12
    assert m.h_max <= 2 * m.l


# ===== probe_assumptions =====


def test_probe_reference_betas():
    m = make_linear_model(REF, n=1, m=1, l=1, x0=[1.0], z0=[0.0])
    rep = probe_assumptions(m, sample_count=2000, domain_box=(-2.0, 2.0), p=1)
    assert rep.beta1 == pytest.approx(3.5, abs=0.15)
    assert rep.beta2 == pytest.approx(0.5, abs=0.15)
    assert rep.sample_count == 2000
    assert rep.p == 1


def test_probe_margin_arithmetic():
    m = make_linear_model(REF, n=1, m=1, l=1, x0=[1.0], z0=[0.0])
    rep = probe_assumptions(m, sample_count=500, domain_box=(-2.0, 2.0), p=1)
    assert rep.margin == pytest.approx(rep.beta1 / rep.p - rep.beta2 - 2.0 * rep.lipschitz_b2s2)
    # squared-convention Lipschitz constant is large for this model, so the
    # probed margin is expected negative; the report must still carry it
    assert rep.margin < 0


def test_probe_h_bound():
    m = make_linear_model(REF, n=1, m=1, l=1, x0=[1.0], z0=[0.0])
    rep = probe_assumptions(m, sample_count=500, domain_box=(-3.0, 3.0), p=1)
    assert rep.h_bound <= 2 * m.l + 1e-12
    assert rep.h_bound <= m.h_max + 1e-12


def test_probe_monotone_in_sample_count():
    m = make_linear_model(REF, n=1, m=1, l=1, x0=[1.0], z0=[0.0])
    small = probe_assumptions(m, sample_count=400, domain_box=(-2.0, 2.0), p=1, seed=9)
    large = probe_assumptions(m, sample_count=1600, domain_box=(-2.0, 2.0), p=1, seed=9)
    assert large.lipschitz_b1s1 >= small.lipschitz_b1s1
    assert large.lipschitz_b2s2 >= small.lipschitz_b2s2
    assert large.h_bound >= small.h_bound


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"p": 0}, "p >= 1"),
        ({"p": -1}, "p >= 1"),
        ({"domain_box": (1.0,)}, "domain_box must be a finite"),
        ({"domain_box": (-np.inf, 2.0)}, "domain_box must be a finite"),
        ({"domain_box": (2.0, 2.0)}, "lo < hi"),
        ({"sample_count": 1}, "sample_count >= 2"),
    ],
)
def test_probe_refuses_unusable_settings(kwargs, match):
    m = make_linear_model(REF, n=1, m=1, l=1, x0=[1.0], z0=[0.0])
    with pytest.raises(InvalidParams, match=match):
        probe_assumptions(m, **{"sample_count": 50, **kwargs})


def test_probe_decoupled_fast_reports_small_beta2():
    params = LinearModelParams(a11=-1.0, a13=1.0, gamma=2.0, c1=1.0, c3=0.0)
    m = make_linear_model(params, n=1, m=1, l=1, x0=[1.0], z0=[0.0])
    rep = probe_assumptions(m, sample_count=1000, domain_box=(-2.0, 2.0), p=1)
    assert rep.beta1 == pytest.approx(2 * params.gamma, abs=0.2)
    assert rep.beta2 <= 0.05


# ===== (H2) identity for the linear family =====


@settings(max_examples=100, deadline=None)
@given(
    dz=st.floats(-10, 10),
    dm=st.floats(-10, 10),
    z2=st.floats(-5, 5),
    nu2=st.floats(-5, 5),
    c3=st.floats(0.0, 1.9),
)
def test_h2_inequality_linear(dz, dm, z2, nu2, c3):
    params = LinearModelParams(gamma=2.0, c1=0.7, c2=-0.2, c3=c3)
    m = make_linear_model(params, n=1, m=1, l=1, x0=[0.0], z0=[0.0])
    x = np.array([0.4])
    mu = point_summary([-0.6])
    z1, za = np.array([z2 + dz]), np.array([z2])
    nu1, nua = point_summary([nu2 + dm]), point_summary([nu2])
    # b2 shares (x, mu) across the pair
    lhs = 2.0 * dz * float(m.b2(x, mu, z1, nu1)[0] - m.b2(x, mu, za, nua)[0])
    beta1 = 2 * params.gamma - params.c3
    beta2 = params.c3
    rhs = -beta1 * dz * dz + beta2 * dm * dm
    assert lhs - rhs <= 1e-9
