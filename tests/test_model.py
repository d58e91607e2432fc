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

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvx_avgfilter.errors import InvalidParams
from mvx_avgfilter.experiments import SweepConfig
from mvx_avgfilter.filtering import FilterConfig
from mvx_avgfilter.measure import MeasureSummary
from mvx_avgfilter.model import LinearModelParams, ModelSpec, make_linear_model, probe_assumptions
from mvx_avgfilter.sde import FrozenRunConfig, SdeConfig, simulate_auxiliary, simulate_slow_fast
from mvx_avgfilter.streams import stream


def point_summary(mean):
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    return MeasureSummary(mean=mean, second_moment=float(mean @ mean))


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


@pytest.mark.parametrize(
    "widths,x0,z0,message",
    [
        ((0, 0, 0), [], [], r"n = m = l >= 1 required \(got 0\)"),
        ((1, 1, 1), [1.0, 2.0], [0.0], r"x0 must hold n=1 values \(got 2\)"),
        ((2, 2, 2), [1.0, 2.0], [0.0], r"z0 must hold m=2 values \(got 1\)"),
    ],
)
def test_make_linear_model_refuses_a_zero_width_or_a_point_of_the_wrong_size(
    widths, x0, z0, message
):
    n, m, l = widths
    with pytest.raises(InvalidParams, match=message):
        make_linear_model(REF, n=n, m=m, l=l, x0=x0, z0=z0)


@pytest.mark.parametrize("field,value", [("gamma", float("nan")), ("s1", float("inf")),
                                         ("c3", -float("inf"))])
def test_linear_params_refuse_non_finite_coefficients(field, value):
    with pytest.raises(InvalidParams, match=f"{field} must be finite"):
        LinearModelParams(**{field: value})


@pytest.mark.parametrize("x0,z0,field", [([1.0, float("nan")], [0.0, 0.0], "x0"),
                                         ([1.0, 2.0], [float("inf"), 0.0], "z0")])
def test_make_linear_model_refuses_a_non_finite_start(x0, z0, field):
    with pytest.raises(InvalidParams, match=f"{field} must be finite"):
        make_linear_model(REF, n=2, m=2, l=2, x0=x0, z0=z0)


def _auxiliary_run(delta_eps):
    model = make_linear_model(REF, n=1, m=1, l=1, x0=[1.0], z0=[1.0])
    path = simulate_slow_fast(model, SdeConfig(epsilon=0.1, T=0.02, dt_macro=0.01, N=2))
    return simulate_auxiliary(model, path, delta_eps)


@pytest.mark.parametrize(
    "build,kwargs,field",
    [
        (SdeConfig, dict(epsilon=0.1, T=10**400, dt_macro=0.01, N=10), "T"),
        (_auxiliary_run, dict(delta_eps=10**400), "delta_eps"),
        (FrozenRunConfig, dict(M=10, dt=0.01, burn_in=10**400, avg_window=1.0), "burn_in"),
        (LinearModelParams, dict(gamma=10**400), "gamma"),
        (LinearModelParams, dict(c3=-(10**400)), "c3"),
    ],
    ids=["T", "delta_eps", "burn_in", "gamma", "c3"],
)
def test_an_integer_beyond_the_float_range_is_refused_as_not_finite(build, kwargs, field):
    with pytest.raises(InvalidParams, match=f"{field} must be finite"):
        build(**kwargs)


@pytest.mark.parametrize("bool_type", [bool, np.bool_])
@pytest.mark.parametrize(
    "build,kwargs,field",
    [
        (SdeConfig, dict(epsilon=True, T=1.0, dt_macro=0.5, N=4), "epsilon"),
        (FrozenRunConfig, dict(M=4, dt=True, burn_in=0.0, avg_window=1.0), "dt"),
        (
            SweepConfig,
            dict(eps_grid=(True,), mc_reps=4, base_sde=SdeConfig(epsilon=0.1, T=1.0, dt_macro=0.5)),
            "eps_grid",
        ),
        (FilterConfig, dict(Nf=20, resample_threshold=True, functional="one"), "resample_threshold"),
        (LinearModelParams, dict(gamma=True), "gamma"),
    ],
    ids=["SdeConfig.epsilon", "FrozenRunConfig.dt", "SweepConfig.eps_grid",
         "FilterConfig.resample_threshold", "LinearModelParams.gamma"],
)
def test_a_bool_in_a_float_field_is_refused(build, kwargs, field, bool_type):
    def as_bool_type(v):
        if isinstance(v, tuple):
            return tuple(map(as_bool_type, v))
        return bool_type(v) if isinstance(v, bool) else v

    kwargs = {k: as_bool_type(v) for k, v in kwargs.items()}
    with pytest.raises(InvalidParams, match=f"{field} must be a number"):
        build(**kwargs)


def test_a13_zero_b1_ignores_z():
    params = LinearModelParams(a13=0.0)
    m = make_linear_model(params, n=1, m=1, l=1, x0=[0.0], z0=[0.0])
    mu = point_summary([0.3])
    x = np.array([0.7])
    za, zb = np.array([5.0]), np.array([-40.0])
    assert np.array_equal(m.b1(x, mu, za), m.b1(x, mu, zb))


# ===== single-point evaluation of the five maps =====


def test_eval_linear_example():
    params = LinearModelParams(a11=-1.0, a12=0.0, a13=1.0)
    m = make_linear_model(params, n=1, m=1, l=1, x0=[0.0], z0=[0.0])
    assert m.b1(np.array([1.0]), point_summary([0.0]), np.array([2.0])) == pytest.approx(
        np.array([1.0])
    )


def test_eval_zero_inputs():
    m = make_linear_model(REF, n=1, m=1, l=1, x0=[0.0], z0=[0.0])
    zero = point_summary([0.0])
    x = z = np.zeros(1)
    assert m.b1(x, zero, z) == pytest.approx(np.zeros(1))
    assert m.b2(x, zero, z, zero) == pytest.approx(np.zeros(1))
    assert m.h(x, zero) == pytest.approx(np.zeros(1))


def test_eval_formulas_random_inputs():
    p = LinearModelParams(a11=0.3, a12=-0.7, a13=1.2, s1=0.4, gamma=3.0, c1=0.5, c2=0.25, c3=0.8, s2=0.9, hscale=2.0)
    m = make_linear_model(p, n=2, m=2, l=2, x0=[0.0, 0.0], z0=[0.0, 0.0])
    rng = np.random.default_rng(5)
    x = rng.normal(size=2)
    z = rng.normal(size=2)
    mu = point_summary(rng.normal(size=2))
    nu = point_summary(rng.normal(size=2))
    assert m.b1(x, mu, z) == pytest.approx(p.a11 * x + p.a12 * mu.mean + p.a13 * z)
    assert m.b2(x, mu, z, nu) == pytest.approx(
        -p.gamma * z + p.c1 * x + p.c2 * mu.mean + p.c3 * nu.mean
    )
    assert m.sigma1(x, mu) == pytest.approx(p.s1 * np.eye(2))
    assert m.sigma2(x, mu, z, nu) == pytest.approx(p.s2 * np.eye(2))
    assert m.h(x, mu) == pytest.approx(np.tanh(p.hscale * x) + np.tanh(p.hscale * mu.mean))


def test_eval_deterministic_bitwise():
    m = make_linear_model(REF, n=1, m=1, l=1, x0=[0.0], z0=[0.0])
    x, z = np.array([0.37]), np.array([-1.91])
    mu, nu = point_summary([0.11]), point_summary([0.23])
    calls = (
        lambda: m.b1(x, mu, z),
        lambda: m.sigma1(x, mu),
        lambda: m.b2(x, mu, z, nu),
        lambda: m.sigma2(x, mu, z, nu),
        lambda: m.h(x, mu),
    )
    for call in calls:
        assert np.array_equal(call(), call())


# ===== h bound =====


def test_h_bound_declared_and_respected():
    m = make_linear_model(REF, n=1, m=1, l=1, x0=[0.0], z0=[0.0])
    h_max = 2.0 * math.sqrt(m.l)  # |tanh| <= 1 in both terms of each of the l components
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        x = rng.uniform(-50, 50, size=1)
        mu = point_summary(rng.uniform(-50, 50, size=1))
        worst = max(worst, float(np.linalg.norm(m.h(x, mu))))
    assert worst <= h_max + 1e-12


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
    assert rep.h_bound <= 2.0 * math.sqrt(m.l) + 1e-12


def test_probe_monotone_in_sample_count():
    m = make_linear_model(REF, n=1, m=1, l=1, x0=[1.0], z0=[0.0])
    small = probe_assumptions(m, sample_count=400, domain_box=(-2.0, 2.0), p=1, seed=9)
    large = probe_assumptions(m, sample_count=1600, domain_box=(-2.0, 2.0), p=1, seed=9)
    assert large.lipschitz_b1s1 >= small.lipschitz_b1s1
    assert large.lipschitz_b2s2 >= small.lipschitz_b2s2
    assert large.h_bound >= small.h_bound


def test_probe_draws_each_sample_as_four_draws_in_turn():
    # the reference layout: per sample, an x pair, a mu-mean pair, a z pair and a
    # nu-mean pair, each one uniform call on the probe's stream
    n, m, count = 1, 2, 7
    seen = []

    def b2(x, mu, z, nu):
        seen.append(np.concatenate([x, mu.mean, z, nu.mean]))
        return -z

    model = ModelSpec(
        n=n, m=m, l=1, x0=np.zeros(n), z0=np.zeros(m),
        b1=lambda x, mu, z: -x, sigma1=lambda x, mu: np.eye(n),
        b2=b2, sigma2=lambda x, mu, z, nu: np.eye(m), h=lambda x, mu: np.tanh(x),
    )
    probe_assumptions(model, sample_count=count, domain_box=(-2.0, 1.5), p=1, seed=4)
    gen = stream(4, "assumption-probe")
    draws = [[gen.uniform(-2.0, 1.5, size=(2, d)) for d in (n, n, m, m)] for _ in range(count)]
    # b2 sees side 0 of every sample, then side 1, before the contraction loop
    want = [np.concatenate([pair[side] for pair in sample]) for side in (0, 1) for sample in draws]
    assert np.array_equal(np.stack(seen[: 2 * count]), np.stack(want))


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
