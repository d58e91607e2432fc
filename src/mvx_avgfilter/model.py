"""Coefficient systems.

A ModelSpec bundles the drift/diffusion/sensor maps of the two-scale system

    dX = b1(X, law(X), Z) dt + sigma1(X, law(X)) dB
    dZ = (1/eps) b2(X, law(X), Z, law(Z)) dt + (1/sqrt(eps)) sigma2(...) dW
    dY = h(X, law(X)) dt + dV

together with dimensions and initial points. Laws enter only through
MeasureSummary objects. All coefficient callables must broadcast over a
leading batch axis: x has shape (..., n), z has shape (..., m), and the
returned arrays keep the leading axes. Diffusions may return either a
shared (d, d) matrix or a batched (..., d, d) stack.

Coefficients are deterministic in their arguments and read a law's second
moment only through ``MeasureSummary.second_moment``, never through its
``_second`` slot. The estimated drift oracle relies on this: a frozen run
that never read that property gives the same value at every second moment,
so the oracle shares it between cells that differ only there.

The built-in linear family (affine drifts, constant diagonal diffusions,
bounded tanh sensor) has closed-form averaged dynamics and known
dissipativity constants, which makes it the reference model for every
oracle comparison in the test suite.

probe_assumptions estimates Lipschitz and dissipativity constants by
sampling state pairs; all constants follow the squared convention
(squared coefficient differences bounded by L times summed squared
distances).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import InvalidParams
from .measure import MeasureSummary, dirac_summary
from .streams import stream


def _float(value) -> float:
    """float(value), with an integer beyond the float range read as +-inf, like 1e999."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _require_finite(cfg, names) -> None:
    """Refuse a bool, NaN or infinity in the named number or vector fields (None is allowed)."""
    for name in names:
        value = getattr(cfg, name)
        for v in () if value is None else np.ravel(np.asarray(value, dtype=object)):
            if isinstance(v, (bool, np.bool_)):
                raise InvalidParams(f"{name} must be a number, got {value!r}")
            if not math.isfinite(_float(v)):
                raise InvalidParams(f"{name} must be finite, got {value}")


def _require_integer(cfg, names) -> None:
    """Refuse a bool or a non-integral value in the named count or seed fields,
    or in any entry of a tuple or list field; numpy integers pass."""
    for name in names:
        value = getattr(cfg, name)
        for v in value if isinstance(value, (tuple, list)) else (value,):
            try:
                if isinstance(v, (bool, np.bool_)):
                    raise TypeError
                operator.index(v)
            except TypeError:
                raise InvalidParams(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class LinearModelParams:
    """Coefficients of the linear reference family, applied per-coordinate.

    b1 = a11*x + a12*mean(mu) + a13*z
    b2 = -gamma*z + c1*x + c2*mean(mu) + c3*mean(nu)
    sigma1 = s1*I, sigma2 = s2*I
    h = tanh(hscale*x) + tanh(hscale*mean(mu))
    """

    a11: float = -1.0
    a12: float = 0.0
    a13: float = 1.0
    s1: float = 0.5
    gamma: float = 2.0
    c1: float = 1.0
    c2: float = 0.0
    c3: float = 0.5
    s2: float = 1.0
    hscale: float = 1.0

    def __post_init__(self):
        _require_finite(self, [f.name for f in fields(self)])


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Immutable problem definition, compared by identity (``sde`` caches a probed
    contraction rate per instance)."""

    n: int
    m: int
    l: int
    x0: np.ndarray
    z0: np.ndarray
    b1: Callable[[np.ndarray, MeasureSummary, np.ndarray], np.ndarray]
    sigma1: Callable[[np.ndarray, MeasureSummary], np.ndarray]
    b2: Callable[[np.ndarray, MeasureSummary, np.ndarray, MeasureSummary], np.ndarray]
    sigma2: Callable[[np.ndarray, MeasureSummary, np.ndarray, MeasureSummary], np.ndarray]
    h: Callable[[np.ndarray, MeasureSummary], np.ndarray]
    linear_params: Optional[LinearModelParams] = None
    # set only when h(x, mu) = h_linear_gain * x; unlocks the Kalman oracle
    h_linear_gain: Optional[float] = None


@dataclass(frozen=True)
class AssumptionProbeReport:
    """Empirical structural constants over a sampled domain box.

    Maxima/minima over the probed sample only: Lipschitz estimates are lower
    bounds on the true constants and the margin is an upper bound on the
    true margin.
    """

    lipschitz_b1s1: float
    lipschitz_b2s2: float
    beta1: float
    beta2: float
    margin: float
    h_bound: float
    sample_count: int
    domain_box: Tuple[float, float]
    p: int


def make_linear_model(
    params: LinearModelParams,
    n: int,
    m: int,
    l: int,
    x0,
    z0,
) -> ModelSpec:
    """ModelSpec evaluating the linear family's formulas exactly."""
    if params.gamma <= 0.0:
        raise InvalidParams(f"gamma > 0 required (got {params.gamma})")
    if params.gamma <= params.c3:
        raise InvalidParams(
            f"gamma - c3 > 0 required for a stationary frozen mean (gamma={params.gamma}, c3={params.c3})"
        )
    if not (n == m == l):
        raise InvalidParams(
            f"linear family applies coefficients per-coordinate and needs n == m == l (got {n}, {m}, {l})"
        )
    if n < 1:
        raise InvalidParams(f"n = m = l >= 1 required (got {n})")
    x0 = np.asarray(x0, dtype=np.float64)
    z0 = np.asarray(z0, dtype=np.float64)
    if x0.size != n:
        raise InvalidParams(f"x0 must hold n={n} values (got {x0.size})")
    if z0.size != m:
        raise InvalidParams(f"z0 must hold m={m} values (got {z0.size})")
    x0, z0 = x0.reshape(n), z0.reshape(m)
    p = params
    eye_n = p.s1 * np.eye(n)
    eye_m = p.s2 * np.eye(m)
    eye_n.flags.writeable = False
    eye_m.flags.writeable = False

    def b1(x, mu, z):
        return p.a11 * x + p.a12 * mu.mean + p.a13 * z

    def sigma1(x, mu):
        return eye_n

    def b2(x, mu, z, nu):
        return -p.gamma * z + p.c1 * x + p.c2 * mu.mean + p.c3 * nu.mean

    def sigma2(x, mu, z, nu):
        return eye_m

    def h(x, mu):
        return np.tanh(p.hscale * x) + np.tanh(p.hscale * mu.mean)

    spec = ModelSpec(
        n=n,
        m=m,
        l=l,
        x0=x0,
        z0=z0,
        b1=b1,
        sigma1=sigma1,
        b2=b2,
        sigma2=sigma2,
        h=h,
        linear_params=params,
    )
    _require_finite(spec, ("x0", "z0"))
    # dataclasses.replace keeps linear_params when it swaps a map, so each map
    # carries the params it evaluates, for linear_family to check
    for fn in (b1, sigma1, b2, sigma2):
        fn.linear_params = p
    return spec


def linear_family(model: ModelSpec) -> Optional[LinearModelParams]:
    """``model.linear_params`` when b1, sigma1, b2 and sigma2 are the maps
    :func:`make_linear_model` built for those params, else None: the params
    a closed form of the linear family may read.

    h is not checked, since no closed form reads it (the linear sensor model
    swaps it).  A ``functools.wraps`` wrapper of a map, which copies the
    map's attributes, stands for the map it wraps.
    """
    p = model.linear_params
    maps = (model.b1, model.sigma1, model.b2, model.sigma2)
    if p is None or any(getattr(fn, "linear_params", None) is not p for fn in maps):
        return None
    return p


def _sigma_rows(sig: np.ndarray, count: int, d: int) -> np.ndarray:
    """Normalize a diffusion evaluation to shape (count, d, d)."""
    sig = np.asarray(sig, dtype=np.float64)
    if sig.ndim == 2:
        return np.broadcast_to(sig, (count, d, d))
    return sig


def validate_probe(sample_count: int, domain_box, p: int) -> None:
    """Refuse probe settings the prober cannot use; shared with parse_config."""
    if sample_count < 2:
        raise InvalidParams(f"sample_count >= 2 required, got {sample_count!r}")
    if len(domain_box) != 2 or not all(map(math.isfinite, domain_box)):
        raise InvalidParams(f"domain_box must be a finite (lo, hi) pair, got {domain_box!r}")
    if not domain_box[0] < domain_box[1]:
        raise InvalidParams(f"domain_box must satisfy lo < hi, got {domain_box!r}")
    if p < 1:
        raise InvalidParams(f"p >= 1 required, got {p!r}")


def probe_assumptions(
    model: ModelSpec,
    sample_count: int,
    domain_box: Tuple[float, float] = (-2.0, 2.0),
    p: int = 1,
    seed: int = 0,
) -> AssumptionProbeReport:
    """Estimate Lipschitz constants, dissipativity constants, and sup|h|.

    Pairs of states are drawn uniformly from the box; each sample consumes a
    fixed block of draws from one labeled stream, so the first k samples are
    identical for every sample_count >= k (estimates grow monotonically with
    more samples under a fixed seed).

    The dissipativity pair (beta1, beta2) maximizes the margin beta1/p - beta2
    subject to the sampled one-sided inequality, using mean-difference
    magnitude as the distribution-distance surrogate (a lower bound on the
    true distance, so the margin is optimistic for mean-coupled models).
    """
    validate_probe(sample_count, domain_box, p)
    lo, hi = float(domain_box[0]), float(domain_box[1])
    n, m = model.n, model.m
    gen = stream(seed, "assumption-probe")

    # one row of draws per sample, laid out as x pair, mu-mean pair, z pair, nu-mean pair
    draws = gen.uniform(lo, hi, size=(sample_count, 4 * n + 4 * m))
    xs, mus, zs, nus = (
        block.reshape(sample_count, 2, -1)
        for block in np.split(draws, [2 * n, 4 * n, 4 * n + 2 * m], axis=1)
    )

    def batch_eval(which: int):
        """Coefficient values at the sample states on side `which` of each pair."""
        x = xs[:, which, :]
        z = zs[:, which, :]
        b1v = np.empty((sample_count, n))
        s1v = np.empty((sample_count, n, n))
        b2v = np.empty((sample_count, m))
        s2v = np.empty((sample_count, m, m))
        hv = np.empty((sample_count, model.l))
        for i in range(sample_count):
            mu = dirac_summary(mus[i, which])
            nu = dirac_summary(nus[i, which])
            b1v[i] = model.b1(x[i], mu, z[i])
            s1v[i] = _sigma_rows(model.sigma1(x[i], mu), 1, n)[0]
            b2v[i] = model.b2(x[i], mu, z[i], nu)
            s2v[i] = _sigma_rows(model.sigma2(x[i], mu, z[i], nu), 1, m)[0]
            hv[i] = model.h(x[i], mu)
        return b1v, s1v, b2v, s2v, hv

    b1a, s1a, b2a, s2a, ha = batch_eval(0)
    b1b, s1b, b2b, s2b, hb = batch_eval(1)

    dx2 = np.sum((xs[:, 0] - xs[:, 1]) ** 2, axis=1)
    dmu2 = np.sum((mus[:, 0] - mus[:, 1]) ** 2, axis=1)
    dz2 = np.sum((zs[:, 0] - zs[:, 1]) ** 2, axis=1)
    dnu2 = np.sum((nus[:, 0] - nus[:, 1]) ** 2, axis=1)

    num1 = np.sum((b1a - b1b) ** 2, axis=1) + np.sum((s1a - s1b) ** 2, axis=(1, 2))
    den1 = dx2 + dmu2 + dz2
    num2 = np.sum((b2a - b2b) ** 2, axis=1) + np.sum((s2a - s2b) ** 2, axis=(1, 2))
    den2 = dx2 + dmu2 + dz2 + dnu2
    keep1 = den1 > 1e-15
    keep2 = den2 > 1e-15
    lip1 = float(np.max(num1[keep1] / den1[keep1])) if keep1.any() else 0.0
    lip2 = float(np.max(num2[keep2] / den2[keep2])) if keep2.any() else 0.0

    h_bound = float(max(np.linalg.norm(ha, axis=1).max(), np.linalg.norm(hb, axis=1).max()))

    # one-sided contraction samples share (x, mu) across the pair
    dz = zs[:, 0] - zs[:, 1]
    lhs = np.empty(sample_count)
    for i in range(sample_count):
        mu = dirac_summary(mus[i, 0])
        nu2 = dirac_summary(nus[i, 1])
        x = xs[i, 0]
        db2 = b2a[i] - np.asarray(model.b2(x, mu, zs[i, 1], nu2))
        ds2 = s2a[i] - _sigma_rows(model.sigma2(x, mu, zs[i, 1], nu2), 1, m)[0]
        lhs[i] = 2.0 * float(dz[i] @ db2) + (2 * p - 1) * float(np.sum(ds2 * ds2))

    usable = dz2 > 1e-12
    beta1, beta2 = _fit_dissipativity(lhs[usable], dz2[usable], dnu2[usable], p)
    margin = beta1 / p - beta2 - 2.0 * lip2

    return AssumptionProbeReport(
        lipschitz_b1s1=lip1,
        lipschitz_b2s2=lip2,
        beta1=beta1,
        beta2=beta2,
        margin=margin,
        h_bound=h_bound,
        sample_count=sample_count,
        domain_box=(lo, hi),
        p=p,
    )


def _fit_dissipativity(lhs: np.ndarray, dz2: np.ndarray, dnu2: np.ndarray, p: int):
    """Largest-margin (beta1, beta2) feasible on the sampled inequality.

    For each candidate beta2, beta1(beta2) = min_i (beta2*dnu2_i - lhs_i)/dz2_i
    is the tightest feasible beta1; the pair maximizing beta1/p - beta2 wins.
    A coarse geometric grid is followed by a fine local pass.
    """
    if lhs.size == 0:
        return 0.0, 0.0

    def best_beta1(b2c: float) -> float:
        return float(np.min((b2c * dnu2 - lhs) / dz2))

    scale = float(np.max(np.abs(lhs) / dz2))
    candidates = np.concatenate([[0.0], np.geomspace(1e-4, max(10.0 * scale, 1.0), 300)])
    margins = np.array([best_beta1(c) / p - c for c in candidates])
    k = int(np.argmax(margins))
    lo = candidates[max(k - 1, 0)]
    hi = candidates[min(k + 1, len(candidates) - 1)]
    fine = np.linspace(lo, hi, 200)
    fmargins = np.array([best_beta1(c) / p - c for c in fine])
    j = int(np.argmax(fmargins))
    beta2 = float(fine[j])
    return best_beta1(beta2), beta2
