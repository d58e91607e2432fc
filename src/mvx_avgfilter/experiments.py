"""Error-vs-epsilon sweeps and rate fitting.

Two orchestrators share the same job layout: `averaging_error_sweep`
couples a slow-fast run to its averaged limit through common slow noise
and measures the pathwise sup discrepancy, `filter_error_sweep` feeds one
observation record to both filter variants and measures how far their
conditional estimates drift apart.  Every (epsilon, rep) cell is an
independent job with its own derived seed, so reports are bit-identical
across reruns.  The jobs run one after another on the calling thread, in
`_job_keys` order: threads would not overlap them, because the jobs' numpy
calls and noise re-keying hold the GIL.  With `threads` > 1 and a second
usable CPU, one helper process draws the next job's noise blocks while a
job runs (see :mod:`.ahead`); the blocks are the ones the job would draw,
so the report is the same to the byte.

The grid sup understates the continuous-time sup by O(dt^{1/2}); that bias
is recorded in the report config, not corrected.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import (
    DegenerateFit,
    GridMismatch,
    Instability,
    InvalidEpsilon,
    InvalidParams,
    WeightCollapse,
)
from .filtering import (
    FILTER_KINDS,
    FilterConfig,
    _filter_fast_noise,
    _filter_slow_increments,
    _filter_slow_noise,
    _observation_noise,
    filter_discrepancy,
    generate_observations,
    run_filter,
)
from .model import ModelSpec
from .sde import (
    PathEnsemble,
    SdeConfig,
    _fast_noise,
    _slow_noise,
    contraction_rate,
    coupled_pair,
    simulate_slow_fast,
    suggest_micro_substeps,
)
from .streams import derive_seed


def delta_schedule(epsilon: float) -> float:
    """Segment length delta(eps) = eps * (-log eps)^(1/3).

    Chosen so that delta -> 0 while eps / delta = (-log eps)^(-1/3) -> 0:
    segments shrink on the slow clock yet each one still holds many fast
    relaxation times.
    """
    eps = float(epsilon)
    if not 0.0 < eps < 1.0:
        raise InvalidEpsilon(f"epsilon must lie in (0, 1), got {eps!r}")
    return eps * (-math.log(eps)) ** (1.0 / 3.0)


def validate_sweep_grid(eps_grid, mc_reps: int, p_orders) -> None:
    """Refuse a sweep grid the sweeps cannot run; shared with parse_config."""
    if not eps_grid:
        raise InvalidParams("eps_grid must be nonempty")
    for e in eps_grid:
        if not 0.0 < e <= 1.0:
            raise InvalidParams(f"eps_grid entries must lie in (0, 1], got {e!r}")
    if any(a <= b for a, b in zip(eps_grid, eps_grid[1:])):
        raise InvalidParams("eps_grid must be strictly decreasing")
    if mc_reps < 4:
        raise InvalidParams(f"mc_reps >= 4 required, got {mc_reps}")
    if not p_orders or any(p < 1 for p in p_orders):
        raise InvalidParams("p_orders must be positive integers")


@dataclass(frozen=True)
class SweepConfig:
    """Shared layout for both sweep kinds.

    base_sde supplies T, dt_macro, particle count and the master seed; its
    epsilon and micro_substeps fields are overridden per grid point.  Each
    (epsilon, rep) job reseeds from (seed, kind, epsilon, rep), so results
    do not depend on execution order.  `threads` (>= 1) never changes a
    number: the jobs run in order on the calling thread, and above 1, where
    a second CPU is usable, one helper process draws the next job's noise
    while a job runs.
    """

    eps_grid: Tuple[float, ...]
    mc_reps: int
    base_sde: SdeConfig
    p_orders: Tuple[int, ...] = (1, 2)
    filter_cfg: Optional[FilterConfig] = None
    threads: int = 1

    def __post_init__(self):
        object.__setattr__(self, "eps_grid", tuple(float(e) for e in self.eps_grid))
        object.__setattr__(self, "p_orders", tuple(int(p) for p in self.p_orders))
        validate_sweep_grid(self.eps_grid, self.mc_reps, self.p_orders)
        if self.threads < 1:
            raise InvalidParams("threads >= 1 required")


@dataclass(frozen=True)
class SweepRow:
    eps: float
    delta_eps: float
    p: int
    mean_error: float
    std_error: float
    reps: int


@dataclass
class SweepReport:
    """Aggregated sweep output.

    rows, envelope, fits and config_digest are reproducible bit for bit
    under a fixed config; runtime_s is wall clock and is excluded from
    that guarantee (and from the CSV export).
    """

    kind: str
    rows: List[SweepRow]
    envelope: List[dict]
    fits: Dict[int, Tuple[float, float, float]]
    runtime_s: float
    config_digest: str


def sup_path_error(a: PathEnsemble, b: PathEnsemble) -> np.ndarray:
    """Per-particle sup over the grid of |X_a - X_b| for two coupled runs."""
    if len(a.times) != len(b.times) or not np.allclose(a.times, b.times, atol=1e-12):
        raise GridMismatch("paths live on different time grids")
    if a.slow.shape != b.slow.shape:
        raise GridMismatch("slow paths have mismatched shapes")
    d = a.slow - b.slow
    return np.sqrt((d * d).sum(axis=2)).max(axis=0)


def _substeps_for(sweep: SweepConfig, model: ModelSpec) -> List[int]:
    """Per grid point, the configured count raised to what the stability rule needs."""
    base = sweep.base_sde
    gamma = contraction_rate(model)
    return [
        max(base.micro_substeps, suggest_micro_substeps(base.dt_macro, eps, gamma))
        for eps in sweep.eps_grid
    ]


def _job_configs(sweep: SweepConfig, model: ModelSpec, tag: str) -> Callable:
    """Map from a job key to its SdeConfig: the grid point's epsilon and
    substeps, and a seed derived from (seed, tag, epsilon, rep)."""
    substeps = _substeps_for(sweep, model)
    seed0 = sweep.base_sde.seed

    def job_cfg(key) -> SdeConfig:
        ie, rep = key
        eps = sweep.eps_grid[ie]
        return dataclasses.replace(
            sweep.base_sde,
            epsilon=eps,
            micro_substeps=substeps[ie],
            seed=derive_seed(seed0, "sweep", tag, float(eps).hex(), rep),
        )

    return job_cfg


def _safe_delta(eps: float) -> float:
    return delta_schedule(eps) if eps < 1.0 else float("nan")


def _job_keys(sweep: SweepConfig) -> List[Tuple[int, int]]:
    return [
        (ie, rep)
        for ie in range(len(sweep.eps_grid))
        for rep in range(sweep.mc_reps)
    ]


def _run_jobs(sweep: SweepConfig, job: Callable) -> Dict[Tuple[int, int], Dict[int, float]]:
    """Run every job on the calling thread, in `_job_keys` order."""
    return {k: job(k) for k in _job_keys(sweep)}


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has
    one (it honours taskset and cpusets), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def _run_jobs_ahead(
    sweep: SweepConfig, job: Callable, plan: Callable
) -> Dict[Tuple[int, int], Dict[int, float]]:
    """`_run_jobs`, with each next job's noise drawn ahead when threads > 1.

    ``plan(key)`` lists the normal_increments arguments of job ``key``'s
    draws, in the order the job makes them. With ``sweep.threads > 1``, a
    second CPU this process may use and the ``fork`` start method, one
    helper process (:mod:`.ahead`) draws the first job's blocks and then,
    while each job runs, the next job's. The jobs still run through
    `_run_jobs`, in order on the calling thread, and every block is the one
    they would draw themselves. The helper is stopped before this returns or
    raises.

    ``threads`` is the number of CPUs the caller gives the sweep; the CPU
    count alone cannot tell, since other work may hold the other CPUs (two
    one-thread sweeps side by side on two CPUs, say).
    """
    if min(sweep.threads, usable_cpus()) == 1:
        return _run_jobs(sweep, job)
    from . import ahead  # imported here, so a one-thread run never loads it

    helper = ahead.start()
    if helper is None:
        return _run_jobs(sweep, job)
    keys = _job_keys(sweep)
    following = dict(zip(keys, keys[1:]))

    def run(key):
        after = following.get(key)
        helper.next_job(plan(after) if after is not None else ())
        return job(key)

    with helper:
        helper.queue(plan(keys[0]))
        return _run_jobs(sweep, run)


def _fit_loglog(eps_values, means) -> Tuple[float, float, float]:
    x = np.log(np.asarray(eps_values, dtype=float))
    y = np.log(np.asarray(means, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)


def _assemble_report(
    kind: str,
    sweep: SweepConfig,
    results: Dict[Tuple[int, int], Dict[int, float]],
    digest: str,
    t_start: float,
) -> SweepReport:
    rows: List[SweepRow] = []
    envelope: List[dict] = []
    for ie, eps in enumerate(sweep.eps_grid):
        delta = _safe_delta(eps)
        envelope.append(
            {
                "eps": eps,
                "delta_eps": delta,
                "slow_term": delta * delta + delta,
                "fast_term": (delta * delta + delta ** 3) * math.exp(delta / eps) / eps,
                "eps_over_delta": eps / delta,
            }
        )
        for p in sweep.p_orders:
            vals = np.array([results[(ie, rep)][p] for rep in range(sweep.mc_reps)])
            mean = float(vals.mean())
            se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
            rows.append(
                SweepRow(
                    eps=eps, delta_eps=delta, p=p,
                    mean_error=mean, std_error=se, reps=sweep.mc_reps,
                )
            )
    fits: Dict[int, Tuple[float, float, float]] = {}
    for p in sweep.p_orders:
        sub = [(r.eps, r.mean_error) for r in rows if r.p == p]
        if len(sub) >= 3 and all(m > 0.0 for _, m in sub):
            fits[p] = _fit_loglog([e for e, _ in sub], [m for _, m in sub])
    return SweepReport(
        kind=kind,
        rows=rows,
        envelope=envelope,
        fits=fits,
        runtime_s=time.perf_counter() - t_start,
        config_digest=digest,
    )


def _config_digest(kind: str, sweep: SweepConfig, functional=None, arms=None) -> str:
    # threads deliberately excluded: it must never change the numbers
    payload = {
        "kind": kind,
        "eps_grid": list(sweep.eps_grid),
        "mc_reps": sweep.mc_reps,
        "p_orders": list(sweep.p_orders),
        "base_sde": dataclasses.asdict(sweep.base_sde),
        "filter": dataclasses.asdict(sweep.filter_cfg) if sweep.filter_cfg else None,
        "functional": functional,
        "arms": list(arms) if arms is not None else None,
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def averaging_error_sweep(model: ModelSpec, drift, sweep: SweepConfig) -> SweepReport:
    """Mean and SE of the coupled sup-path error, raised to 2p, per epsilon.

    Each rep runs `coupled_pair` (shared slow noise, shared initial cloud),
    takes the per-particle sup over the grid, and averages |sup|^(2p) over
    the ensemble.  SEs come from the spread across reps.
    """
    t0 = time.perf_counter()
    job_cfg = _job_configs(sweep, model, "avg")

    def plan(key):
        cfg = job_cfg(key)
        return [_slow_noise(model, cfg), _fast_noise(model, cfg)]

    def job(key):
        ie, rep = key
        eps = sweep.eps_grid[ie]
        try:
            slow_fast, averaged = coupled_pair(model, drift, job_cfg(key))
        except Instability as err:
            raise Instability(
                f"eps={eps:g} rep={rep}: {err}", step=err.step, time=err.time
            ) from err
        worst = sup_path_error(slow_fast, averaged)
        return {p: float(np.mean(worst ** (2 * p))) for p in sweep.p_orders}

    results = _run_jobs_ahead(sweep, job, plan)
    digest = _config_digest("averaging", sweep)
    return _assemble_report("averaging", sweep, results, digest, t0)


def filter_error_sweep(
    model: ModelSpec,
    drift,
    functional: str,
    sweep: SweepConfig,
    arms: Tuple[str, str] = FILTER_KINDS,
) -> SweepReport:
    """Mean and SE of |pi_a(F) - pi_b(F)|^p, time averaged, per epsilon.

    One observation record per rep, generated from a multiscale signal run;
    both filter arms consume that same record, and both reuse the rep's
    seed so their own particle noise is common as well.  By default the
    arms are the multiscale filter and the averaged one.
    """
    if sweep.filter_cfg is None:
        raise InvalidParams("filter_error_sweep needs sweep.filter_cfg")
    if len(arms) != 2 or any(a not in FILTER_KINDS for a in arms):
        raise InvalidParams(f"arms must be a pair drawn from {FILTER_KINDS}, got {arms!r}")
    if "averaged" in arms and drift is None:
        raise InvalidParams("averaged filter arm needs a drift oracle")
    t0 = time.perf_counter()
    fcfg = dataclasses.replace(sweep.filter_cfg, functional=functional)
    job_cfg = _job_configs(sweep, model, "filt")
    seed0 = sweep.base_sde.seed

    def obs_seed(key):
        ie, rep = key
        return derive_seed(seed0, "sweep", "obs", float(sweep.eps_grid[ie]).hex(), rep)

    def plan(key):
        cfg = job_cfg(key)
        return [
            _slow_noise(model, cfg),
            _fast_noise(model, cfg),
            _observation_noise(obs_seed(key), cfg.n_steps, model.l, cfg.dt_macro),
            _filter_slow_noise(model, fcfg, cfg),
        ] + [_filter_fast_noise(model, fcfg, cfg)] * arms.count("multiscale")

    def job(key):
        ie, rep = key
        eps = sweep.eps_grid[ie]
        cfg = job_cfg(key)
        try:
            signal = simulate_slow_fast(model, cfg)
            obs = generate_observations(
                model,
                signal,
                reference_particle=0,
                dt=cfg.dt_macro,
                seed_v=obs_seed(key),
            )
            dw_slow = _filter_slow_increments(model, fcfg, cfg)
            runs = [
                run_filter(
                    arm,
                    model,
                    drift if arm == "averaged" else None,
                    obs,
                    fcfg,
                    cfg,
                    _dw_slow=dw_slow,
                )
                for arm in arms
            ]
        except Instability as err:
            raise Instability(
                f"eps={eps:g} rep={rep}: {err}", step=err.step, time=err.time
            ) from err
        except WeightCollapse as err:
            raise WeightCollapse(f"eps={eps:g} rep={rep}: {err}") from err
        return {
            p: float(filter_discrepancy(runs[0], runs[1], p).average)
            for p in sweep.p_orders
        }

    results = _run_jobs_ahead(sweep, job, plan)
    digest = _config_digest("filter", sweep, functional=functional, arms=arms)
    return _assemble_report("filter", sweep, results, digest, t0)


def rate_fit(report: SweepReport, p: Optional[int] = None) -> Tuple[float, float, float]:
    """Least-squares slope of log(mean error) against log(eps).

    Returns (slope, intercept, r_squared).  Requires at least three grid
    points with strictly positive means; raises DegenerateFit otherwise.
    Defaults to the smallest moment order present in the report.
    """
    orders = sorted({r.p for r in report.rows})
    if not orders:
        raise DegenerateFit("report has no rows")
    use = orders[0] if p is None else int(p)
    sub = [r for r in report.rows if r.p == use]
    if len(sub) < 3:
        raise DegenerateFit(f"rate fit needs >= 3 grid points, got {len(sub)}")
    bad = [r.eps for r in sub if not r.mean_error > 0.0]
    if bad:
        raise DegenerateFit(f"non-positive mean error at eps={bad}")
    return _fit_loglog([r.eps for r in sub], [r.mean_error for r in sub])
