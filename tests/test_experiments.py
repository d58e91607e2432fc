"""Sweep orchestration tests.

Oracles: the closed-form schedule values, exact-zero coupling when the slow
drift ignores the fast state, synthetic power-law reports for the rate
fitter, and step-halving on a fully deterministic variant.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import mmap
import multiprocessing
import os
import signal
import threading
import time
import weakref

import numpy as np
import pytest

from mvx_avgfilter import ahead, experiments, filtering, sde, streams
from mvx_avgfilter.averaging import make_drift_oracle
from mvx_avgfilter.errors import (
    DegenerateFit,
    Instability,
    InvalidEpsilon,
    InvalidParams,
    WeightCollapse,
)
from mvx_avgfilter.experiments import (
    SweepConfig,
    SweepReport,
    SweepRow,
    _job_keys,
    _run_jobs,
    _substeps_for,
    averaging_error_sweep,
    delta_schedule,
    filter_error_sweep,
    rate_fit,
    sup_path_error,
)
from mvx_avgfilter.filtering import FilterConfig
from mvx_avgfilter.model import LinearModelParams, ModelSpec, make_linear_model
from mvx_avgfilter.sde import SdeConfig, coupled_pair

REF = LinearModelParams()


def ref_model(params=REF, x0=1.0, z0=1.0):
    return make_linear_model(params, n=1, m=1, l=1, x0=[x0], z0=[z0])


def base_sde(T=0.5, dt=0.01, N=100, seed=900):
    return SdeConfig(epsilon=0.1, T=T, dt_macro=dt, micro_substeps=1, N=N, seed=seed)


# ===== schedule =====


def test_delta_schedule_values():
    assert delta_schedule(math.exp(-1.0)) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert delta_schedule(0.1) == pytest.approx(0.1 * math.log(10.0) ** (1.0 / 3.0), rel=1e-12)
    assert delta_schedule(0.1) == pytest.approx(0.132050, abs=5e-6)
    assert delta_schedule(0.01) == pytest.approx(0.016637, abs=5e-7)


def test_delta_schedule_domain():
    for bad in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(InvalidEpsilon):
            delta_schedule(bad)


# ===== config =====


def test_sweep_config_validation():
    ok = base_sde()
    SweepConfig(eps_grid=(0.1, 0.05), mc_reps=4, base_sde=ok)
    with pytest.raises(InvalidParams):
        SweepConfig(eps_grid=(0.05, 0.1), mc_reps=4, base_sde=ok)  # not decreasing
    with pytest.raises(InvalidParams):
        SweepConfig(eps_grid=(0.1, 0.1), mc_reps=4, base_sde=ok)
    with pytest.raises(InvalidParams):
        SweepConfig(eps_grid=(1.2, 0.1), mc_reps=4, base_sde=ok)
    with pytest.raises(InvalidParams):
        SweepConfig(eps_grid=(0.1, 0.05), mc_reps=3, base_sde=ok)
    with pytest.raises(InvalidParams):
        SweepConfig(eps_grid=(0.1, 0.05), mc_reps=4, base_sde=ok, p_orders=(0,))
    with pytest.raises(InvalidParams, match="p_orders"):
        SweepConfig(eps_grid=(0.1, 0.05), mc_reps=4, base_sde=ok, p_orders=())


def test_sweep_config_refuses_repeated_p_orders():
    # a repeated order would compute and write every row of that order twice
    ok = base_sde()
    with pytest.raises(InvalidParams, match=r"p_orders must not repeat an order, got \[1, 2, 1\]"):
        SweepConfig(eps_grid=(0.1, 0.05), mc_reps=4, base_sde=ok, p_orders=(1, 2, 1))


def test_sweep_runs_the_substeps_it_picks_at_a_tie():
    # dt*gamma/(0.25*eps) = 70.0 exactly: the sweep picks 70 and the simulator must accept 70
    model = ref_model(LinearModelParams(gamma=3.5))
    sweep = SweepConfig(eps_grid=(0.002,), mc_reps=4, base_sde=base_sde(T=0.02, N=8))
    assert _substeps_for(sweep, model) == [70]
    report = averaging_error_sweep(model, make_drift_oracle(model, mode="analytic-linear"), sweep)
    assert all(math.isfinite(r.mean_error) for r in report.rows)


# ===== sup_path_error =====


def test_sup_path_error_zero_for_decoupled_slow():
    params = LinearModelParams(a11=-1.0, a12=0.2, a13=0.0, s1=0.5)
    model = ref_model(params)
    oracle = make_drift_oracle(model, mode="analytic-linear")
    cfg = base_sde(N=50)
    sf, av = coupled_pair(model, oracle, cfg)
    worst = sup_path_error(sf, av)
    assert worst.shape == (50,)
    assert np.all(worst == 0.0)


# ===== averaging sweep =====


def test_averaging_sweep_exact_zero_when_z_free():
    params = LinearModelParams(a11=-1.0, a12=0.2, a13=0.0, s1=0.5)
    model = ref_model(params)
    oracle = make_drift_oracle(model, mode="analytic-linear")
    sweep = SweepConfig(eps_grid=(0.1, 0.05), mc_reps=4, base_sde=base_sde(T=0.2, N=30))
    report = averaging_error_sweep(model, oracle, sweep)
    assert all(r.mean_error == 0.0 for r in report.rows)
    assert all(r.std_error == 0.0 for r in report.rows)


def test_averaging_sweep_error_decreases():
    model = ref_model()
    oracle = make_drift_oracle(model, mode="analytic-linear")
    sweep = SweepConfig(
        eps_grid=(0.1, 0.02), mc_reps=4, base_sde=base_sde(T=0.5, N=200), p_orders=(1,)
    )
    report = averaging_error_sweep(model, oracle, sweep)
    by_eps = {r.eps: r for r in report.rows if r.p == 1}
    assert by_eps[0.02].mean_error < by_eps[0.1].mean_error


def test_averaging_sweep_report_shape():
    model = ref_model()
    oracle = make_drift_oracle(model, mode="analytic-linear")
    sweep = SweepConfig(
        eps_grid=(0.1, 0.05, 0.02), mc_reps=4, base_sde=base_sde(T=0.2, N=40)
    )
    report = averaging_error_sweep(model, oracle, sweep)
    assert isinstance(report, SweepReport)
    assert len(report.rows) == 3 * 2  # eps x p_orders
    for row in report.rows:
        assert row.reps == 4
        assert row.std_error >= 0.0
        assert row.delta_eps == pytest.approx(delta_schedule(row.eps))
    # dominant envelope term decreases along the grid
    t3 = [e["eps_over_delta"] for e in report.envelope]
    assert all(a > b for a, b in zip(t3, t3[1:]))
    assert report.config_digest
    assert 1 in report.fits


def test_averaging_sweep_deterministic_step_halving():
    # sigma1 = s2 = 0 makes every run deterministic; the sweep statistic
    # then converges first-order in dt
    params = LinearModelParams(a11=-1.0, a12=0.0, a13=1.0, s1=0.0, s2=0.0)
    model = ref_model(params)
    oracle = make_drift_oracle(model, mode="analytic-linear")
    errs = {}
    for dt in (0.02, 0.01, 0.005):
        sweep = SweepConfig(
            eps_grid=(0.05,),
            mc_reps=4,
            base_sde=SdeConfig(
                epsilon=0.05, T=1.0, dt_macro=dt, micro_substeps=1, N=4, seed=1
            ),
            p_orders=(1,),
        )
        report = averaging_error_sweep(model, oracle, sweep)
        errs[dt] = report.rows[0].mean_error
        assert report.rows[0].std_error == 0.0
    # first-order step bias: successive differences shrink by roughly half
    assert abs(errs[0.02] - errs[0.01]) <= 3.0 * abs(errs[0.01] - errs[0.005]) + 1e-12


def test_averaging_sweep_instability_names_the_rep():
    base = ref_model()
    model = ModelSpec(
        n=1, m=1, l=1, x0=np.zeros(1), z0=np.ones(1),
        b1=base.b1, sigma1=base.sigma1,
        b2=lambda x, mu, z, nu: 1e40 * z,
        sigma2=base.sigma2, h=base.h,
    )
    oracle = make_drift_oracle(ref_model(), mode="analytic-linear")
    sweep = SweepConfig(
        eps_grid=(0.1,), mc_reps=4, base_sde=base_sde(T=0.2, N=10), p_orders=(1,)
    )
    with np.errstate(over="ignore"), pytest.raises(Instability) as err:
        averaging_error_sweep(model, oracle, sweep)
    assert "eps=0.1" in str(err.value)
    assert "rep" in str(err.value)


def test_averaging_sweep_reproducible_and_thread_independent():
    model = ref_model()
    oracle = make_drift_oracle(model, mode="analytic-linear")
    sweeps = (
        lambda threads: averaging_error_sweep(
            model, oracle,
            SweepConfig(eps_grid=(0.1, 0.05), mc_reps=4, base_sde=base_sde(T=0.3, N=50),
                        threads=threads),
        ),
        lambda threads: filter_error_sweep(
            model, oracle, dataclasses.replace(filter_sweep_cfg(), threads=threads)
        ),
    )
    for run in sweeps:
        a, b, c = run(1), run(1), run(3)
        for x, y in ((a, b), (a, c)):
            assert rows_of(x) == rows_of(y)
            assert x.config_digest == y.config_digest
            assert x.fits == y.fits


def rows_of(report):
    return [dataclasses.astuple(r) for r in report.rows]


def test_run_jobs_in_key_order_on_calling_thread():
    sweep = SweepConfig(
        eps_grid=(0.1, 0.05), mc_reps=4, base_sde=base_sde(T=0.3, N=50), threads=3
    )
    seen = []

    def job(key):
        seen.append((key, threading.get_ident()))
        return {1: float(len(seen))}

    results = _run_jobs(sweep, job)
    keys = _job_keys(sweep)
    assert seen == [(k, threading.get_ident()) for k in keys]
    assert list(results) == keys


def test_standard_error_scales_with_reps():
    model = ref_model()
    oracle = make_drift_oracle(model, mode="analytic-linear")
    ses = {}
    for reps in (8, 16):
        sweep = SweepConfig(
            eps_grid=(0.1,), mc_reps=reps, base_sde=base_sde(T=0.5, N=100), p_orders=(1,)
        )
        report = averaging_error_sweep(model, oracle, sweep)
        ses[reps] = report.rows[0].std_error
    ratio = ses[8] / ses[16]
    assert 0.5 * math.sqrt(2.0) <= ratio <= 1.5 * math.sqrt(2.0)


# ===== filter sweep =====


def filter_sweep_cfg(eps_grid=(0.1, 0.02), reps=4, Nf=80, T=0.3, N=60, seed=700):
    return SweepConfig(
        eps_grid=eps_grid,
        mc_reps=reps,
        base_sde=base_sde(T=T, N=N, seed=seed),
        p_orders=(1,),
        filter_cfg=FilterConfig(Nf=Nf, resample_threshold=0.5, functional="tanh", p=1),
    )


@pytest.mark.parametrize("error, push", [(Instability, np.inf), (WeightCollapse, 1e5)])
def test_failing_filter_sweep_job_names_its_eps_and_rep(error, push):
    # The averaged arm's drift throws its particles to infinity (a non-finite
    # state) or past |x| = 100, where h is NaN and no weight stays finite.
    base = ref_model()
    model = dataclasses.replace(
        base, h=lambda x, mu: np.where(np.abs(x) > 100.0, np.nan, base.h(x, mu))
    )
    drift = lambda x, mu: np.full_like(x, push)  # noqa: E731
    with pytest.raises(error) as err:
        filter_error_sweep(model, drift, filter_sweep_cfg())
    assert str(err.value).startswith("eps=0.1 rep=0: ")
    assert isinstance(err.value.__cause__, error)


def test_filter_sweep_identical_arms_are_exactly_equal():
    model = ref_model()
    oracle = make_drift_oracle(model, mode="analytic-linear")
    report = filter_error_sweep(
        model, oracle, filter_sweep_cfg(), arms=("multiscale", "multiscale")
    )
    assert all(r.mean_error == 0.0 for r in report.rows)


def test_filter_sweep_reads_its_functional_from_the_filter_config():
    # F = 1 gives pi = sum(u)/sum(u) = 1.0 to the bit in both arms, so every
    # discrepancy is exactly 0; the default tanh functional gives none that is
    model = ref_model()
    oracle = make_drift_oracle(model, mode="analytic-linear")
    sweep = filter_sweep_cfg()
    one = dataclasses.replace(sweep.filter_cfg, functional="one")
    report = filter_error_sweep(model, oracle, dataclasses.replace(sweep, filter_cfg=one))
    assert [(r.mean_error, r.std_error) for r in report.rows] == [(0.0, 0.0)] * 2
    assert all(r.mean_error > 0.0 for r in filter_error_sweep(model, oracle, sweep).rows)


def test_filter_sweep_silent_sensor_tracks_averaging():
    model = ref_model(LinearModelParams(hscale=0.0))
    oracle = make_drift_oracle(model, mode="analytic-linear")
    report = filter_error_sweep(model, oracle, filter_sweep_cfg(seed=701))
    by_eps = {r.eps: r for r in report.rows}
    pooled = math.hypot(by_eps[0.1].std_error, by_eps[0.02].std_error)
    assert by_eps[0.02].mean_error <= by_eps[0.1].mean_error + pooled


def test_filter_sweep_discrepancy_direction():
    model = ref_model()
    oracle = make_drift_oracle(model, mode="analytic-linear")
    report = filter_error_sweep(model, oracle, filter_sweep_cfg(seed=702))
    by_eps = {r.eps: r for r in report.rows}
    pooled = math.hypot(by_eps[0.1].std_error, by_eps[0.02].std_error)
    assert by_eps[0.02].mean_error <= by_eps[0.1].mean_error + pooled


def test_filter_sweep_requires_filter_cfg():
    model = ref_model()
    oracle = make_drift_oracle(model, mode="analytic-linear")
    sweep = SweepConfig(eps_grid=(0.1,), mc_reps=4, base_sde=base_sde())
    with pytest.raises(InvalidParams):
        filter_error_sweep(model, oracle, sweep)


def test_filter_sweep_reproducible():
    model = ref_model()
    oracle = make_drift_oracle(model, mode="analytic-linear")
    a = filter_error_sweep(model, oracle, filter_sweep_cfg(eps_grid=(0.1,)))
    b = filter_error_sweep(model, oracle, filter_sweep_cfg(eps_grid=(0.1,)))
    assert [dataclasses.astuple(r) for r in a.rows] == [
        dataclasses.astuple(r) for r in b.rows
    ]


# ===== threads > 1: a helper process draws the next job's noise =====


@pytest.fixture
def helpers(monkeypatch):
    """Every helper the sweeps start, with its pid, and the blocks it sent.

    The sweeps see two usable CPUs, so a helper starts on any host."""
    monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
    record = {"helpers": [], "pids": [], "received": 0, "inline": 0, "inline_labels": []}
    start, call = ahead.start, ahead.DrawAhead.__call__

    def recording_start(plans):
        helper = start(plans)
        if helper is not None:
            record["helpers"].append(helper)
            record["pids"].append(helper.pid)
        return helper

    def counting_call(self, args):
        block = call(self, args)
        record["received" if block is not None else "inline"] += 1
        if block is None:
            record["inline_labels"].append(args[1])
        return block

    monkeypatch.setattr(ahead, "start", recording_start)
    monkeypatch.setattr(ahead.DrawAhead, "__call__", counting_call)
    return record


def wait_until_dead(pid, timeout=10.0):
    """How helper ``pid`` ended, once it has; leaves reaping it to close()."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        ended = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT | os.WNOHANG)
        if ended is not None:
            return ended
        time.sleep(0.01)
    raise AssertionError(f"helper {pid} still runs after {timeout} s")


def assert_no_child_left(record):
    assert multiprocessing.active_children() == []
    assert streams._drawn_ahead is None
    for pid in record["pids"]:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.mark.parametrize("kind", ["averaging", "filter"])
def test_threads_two_draws_ahead_in_one_helper(helpers, kind):
    model = ref_model()
    oracle = make_drift_oracle(model, mode="analytic-linear")
    sweep = filter_sweep_cfg()
    if kind == "averaging":
        run = lambda s: averaging_error_sweep(model, oracle, s)  # noqa: E731
        per_job = 2  # signal slow and fast
    else:
        run = lambda s: filter_error_sweep(model, oracle, s)  # noqa: E731
        per_job = 5  # signal slow and fast, observation, filter slow, one filter fast
    want = run(sweep)
    got = run(dataclasses.replace(sweep, threads=2))
    assert rows_of(got) == rows_of(want)
    assert len(helpers["helpers"]) == 1
    # every draw of every job was planned and came from the helper: a plan
    # that drifts from the draw sites shows here as an inline draw
    assert helpers["received"] == per_job * len(_job_keys(sweep))
    assert helpers["inline"] == 0
    assert_no_child_left(helpers)


def test_threads_one_starts_no_helper(helpers):
    model = ref_model()
    oracle = make_drift_oracle(model, mode="analytic-linear")
    filter_error_sweep(model, oracle, filter_sweep_cfg(eps_grid=(0.1,)))
    assert helpers["helpers"] == [] and helpers["received"] + helpers["inline"] == 0


def test_helper_stops_when_a_job_raises(helpers):
    base = ref_model()
    model = ModelSpec(
        n=1, m=1, l=1, x0=np.zeros(1), z0=np.ones(1),
        b1=base.b1, sigma1=base.sigma1,
        b2=lambda x, mu, z, nu: 1e40 * z,
        sigma2=base.sigma2, h=base.h,
    )
    oracle = make_drift_oracle(base, mode="analytic-linear")
    sweep = SweepConfig(
        eps_grid=(0.1,), mc_reps=4, base_sde=base_sde(T=0.2, N=10), p_orders=(1,), threads=2
    )
    with np.errstate(over="ignore"), pytest.raises(Instability) as err:
        averaging_error_sweep(model, oracle, sweep)
    assert "eps=0.1 rep=0" in str(err.value)
    assert len(helpers["helpers"]) == 1
    assert_no_child_left(helpers)


def test_killed_helper_leaves_the_output_unchanged(helpers, monkeypatch):
    model = ref_model()
    oracle = make_drift_oracle(model, mode="analytic-linear")
    sweep = filter_sweep_cfg()
    want = filter_error_sweep(model, oracle, sweep)
    next_job = ahead.DrawAhead.next_job
    jobs = []

    def killing_next_job(self):
        jobs.append(None)
        if len(jobs) == 3:  # mid-run, with blocks planned and drawn
            os.kill(self.pid, signal.SIGKILL)
            dead = wait_until_dead(self.pid)
            assert dead.si_code == os.CLD_KILLED and dead.si_status == signal.SIGKILL
        next_job(self)

    monkeypatch.setattr(ahead.DrawAhead, "next_job", killing_next_job)
    got = filter_error_sweep(model, oracle, dataclasses.replace(sweep, threads=2))
    assert rows_of(got) == rows_of(want)
    assert len(jobs) == len(_job_keys(sweep))
    assert_no_child_left(helpers)


@pytest.mark.parametrize("missing", ["fork", "second CPU"])
def test_threads_two_without_fork_runs_inline(helpers, monkeypatch, missing):
    if missing == "fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 1)
    model = ref_model()
    oracle = make_drift_oracle(model, mode="analytic-linear")
    sweep = filter_sweep_cfg()
    want = filter_error_sweep(model, oracle, sweep)
    got = filter_error_sweep(model, oracle, dataclasses.replace(sweep, threads=2))
    assert rows_of(got) == rows_of(want)
    assert helpers["helpers"] == [] and helpers["received"] + helpers["inline"] == 0
    assert_no_child_left(helpers)


def test_helper_serves_only_planned_draws_to_its_own_thread():
    planned = (5, "signal-slow", 20, 30, 1, math.sqrt(0.01))
    with ahead.start([[planned, planned]]) as helper:
        helper.next_job()
        other = []
        worker = threading.Thread(target=lambda: other.append(helper(planned)))
        worker.start()
        worker.join(10.0)
        assert not worker.is_alive()
        assert other == [None]  # another thread draws inline
        assert helper((5, "signal-slow", 20, 30, 1, 0.2)) is None  # not planned
        first, second = helper(planned), helper(planned)
        assert helper(planned) is None  # each planned block is sent once
        want = streams.normal_increments(*planned)
        assert first.tobytes() == want.tobytes() == second.tobytes()
        assert first.shape == want.shape and first.flags.c_contiguous
    assert streams._drawn_ahead is None
    assert helper((5, "signal-slow", 20, 30, 1, 0.1)) is None  # closed: inline


def test_helper_block_a_job_never_asks_for_is_left_behind(helpers):
    base = ref_model()
    # l = 1 plans a one-component observation block; h's two components make
    # the job draw a two-component one instead, so the planned block is unused
    model = dataclasses.replace(
        base, h=lambda x, mu: np.concatenate([base.h(x, mu)] * 2, axis=-1)
    )
    oracle = make_drift_oracle(base, mode="analytic-linear")
    sweep = filter_sweep_cfg()
    want = filter_error_sweep(model, oracle, sweep)
    got = filter_error_sweep(model, oracle, dataclasses.replace(sweep, threads=2))
    assert rows_of(got) == rows_of(want)
    jobs = len(_job_keys(sweep))
    assert helpers["received"] == 4 * jobs  # signal slow and fast, filter slow and fast
    assert helpers["inline_labels"] == [filtering.OBSERVATION_LABEL] * jobs
    assert_no_child_left(helpers)


def _open_fds_and_maps():
    with open("/proc/self/maps", encoding="utf-8") as fh:
        maps = fh.read().splitlines()
    return sorted(os.listdir("/proc/self/fd")), maps


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_helper_leaves_no_pipe_or_mapping_open(helpers):
    model = ref_model()
    oracle = make_drift_oracle(model, mode="analytic-linear")
    sweep = dataclasses.replace(filter_sweep_cfg(), threads=2)
    filter_error_sweep(model, oracle, sweep)  # loads and allocates what a run needs
    gc.collect()
    before = _open_fds_and_maps()
    filter_error_sweep(model, oracle, sweep)
    gc.collect()
    after = _open_fds_and_maps()
    assert after[0] == before[0]
    assert after[1] == before[1]
    assert len(helpers["helpers"]) == 2
    assert_no_child_left(helpers)


def test_helper_done_before_the_last_job_still_serves_it(helpers, monkeypatch):
    model = ref_model()
    oracle = make_drift_oracle(model, mode="analytic-linear")
    sweep = filter_sweep_cfg()
    want = filter_error_sweep(model, oracle, sweep)
    next_job = ahead.DrawAhead.next_job
    jobs = []

    def next_job_after_the_helper_ends(self):
        jobs.append(None)
        if len(jobs) == len(_job_keys(sweep)):
            # every block is drawn, so the helper exits before the last job starts
            assert wait_until_dead(self.pid).si_code == os.CLD_EXITED
        next_job(self)

    monkeypatch.setattr(ahead.DrawAhead, "next_job", next_job_after_the_helper_ends)
    got = filter_error_sweep(model, oracle, dataclasses.replace(sweep, threads=2))
    assert rows_of(got) == rows_of(want)
    assert len(jobs) == len(_job_keys(sweep))
    assert helpers["received"] == 5 * len(_job_keys(sweep))
    assert helpers["inline"] == 0
    assert_no_child_left(helpers)


# ===== a fast block drawn ahead is freed behind the run =====


@pytest.fixture
def releases(monkeypatch):
    """Every release call the helpers get, as (stream label, block, nbytes),
    with the label of the block the helper sent; a release each macro step."""
    monkeypatch.setattr(streams, "_RELEASE_BYTES", 1)
    labels = []  # (weak reference to a block sent, its label)
    call, release = ahead.DrawAhead.__call__, ahead.DrawAhead.release
    record = []

    def labelling_call(self, args):
        block = call(self, args)
        if block is not None:
            labels.append((weakref.ref(block), args[1]))
        return block

    def recording_release(self, block, nbytes):
        label = next((lab for ref, lab in labels if ref() is block), None)
        record.append((label, block, nbytes))
        release(self, block, nbytes)

    monkeypatch.setattr(ahead.DrawAhead, "__call__", labelling_call)
    monkeypatch.setattr(ahead.DrawAhead, "release", recording_release)
    return record


needs_madv_remove = pytest.mark.skipif(
    ahead._MADV_REMOVE is None, reason="the platform has no MADV_REMOVE"
)


@needs_madv_remove
@pytest.mark.parametrize("T, ksub, N, chunks", [(0.5, 2, 300, 1), (3.0, 4, 50, 2)])
def test_fast_rows_drawn_ahead_are_freed_behind_the_run(releases, T, ksub, N, chunks):
    model = ref_model()
    cfg = SdeConfig(epsilon=0.1, T=T, dt_macro=0.01, micro_substeps=ksub, N=N, seed=31)
    args = sde._fast_noise(model, cfg, sde.FAST_LABEL, N)
    assert len(streams._chunk_bounds(args[2], ksub)) == chunks + 1
    inline = [c.copy() for c in sde._fast_increments(model, cfg, sde.FAST_LABEL, N)[0]]
    page = mmap.PAGESIZE
    with ahead.start([[args]]) as helper:
        helper.next_job()
        dws = sde._fast_increments(model, cfg, sde.FAST_LABEL, N)[0]
        for k, dw in enumerate(dws):
            assert dw.tobytes() == inline[k].tobytes()
            if not k:
                continue
            label, block, nbytes = releases[-1]
            assert label == sde.FAST_LABEL and nbytes == k * dw.nbytes
            raw = block.reshape(-1).view(np.uint8)
            freed = nbytes - nbytes % page
            # the whole pages behind the run read as zeros; every row ahead is intact
            assert not raw[:freed].any()
            assert raw[nbytes:].tobytes() == np.concatenate(inline[k:]).tobytes()
        assert k + 1 == len(inline) == cfg.n_steps
    assert len(releases) == cfg.n_steps - 1


@needs_madv_remove
def test_release_frees_only_a_block_sent_to_the_current_job():
    planned = (5, "signal-fast", 512, 4, 1, 0.1)  # four whole pages
    want = streams.normal_increments(*planned)
    with ahead.start([[planned], [planned]]) as helper:
        helper.next_job()
        mapped = mmap.mmap(-1, want.nbytes)
        elsewhere = np.frombuffer(mapped).reshape(want.shape)
        elsewhere[:] = want
        helper.release(elsewhere, want.nbytes)
        sent = helper(planned)
        helper.release(sent.copy(), want.nbytes)
        assert elsewhere.tobytes() == sent.tobytes() == want.tobytes()
        helper.release(sent, want.nbytes - 1)  # three whole pages
        assert not sent[:384].any() and sent[384:].tobytes() == want[384:].tobytes()
        helper.next_job()
        helper.release(sent, want.nbytes)  # sent to the last job
        assert sent[384:].tobytes() == want[384:].tobytes()


def test_only_fast_blocks_are_released(helpers, releases):
    model = ref_model()
    oracle = make_drift_oracle(model, mode="analytic-linear")
    sweep = dataclasses.replace(filter_sweep_cfg(), threads=2)
    averaging_error_sweep(model, oracle, sweep)
    assert {label for label, _, _ in releases} == {sde.FAST_LABEL}
    releases.clear()
    filter_error_sweep(model, oracle, sweep, arms=("multiscale", "multiscale"))
    labels = [label for label, _, _ in releases]
    # the signal run and each of the two multiscale arms step through their
    # own fast block; no slow or observation block is ever handed back
    steps = sweep.base_sde.n_steps - 1
    jobs = len(_job_keys(sweep))
    assert labels.count(sde.FAST_LABEL) == steps * jobs
    assert labels.count(filtering.FILTER_FAST_LABEL) == 2 * steps * jobs
    assert len(labels) == 3 * steps * jobs
    assert_no_child_left(helpers)


def test_a_failing_release_keeps_the_pages_and_the_rows(helpers, releases, monkeypatch):
    monkeypatch.setattr(ahead, "_MADV_REMOVE", -1)  # madvise refuses it: EINVAL
    model = ref_model()
    oracle = make_drift_oracle(model, mode="analytic-linear")
    sweep = filter_sweep_cfg()
    want = filter_error_sweep(model, oracle, sweep)
    got = filter_error_sweep(model, oracle, dataclasses.replace(sweep, threads=2))
    assert rows_of(got) == rows_of(want)
    assert releases
    # each release came after the rows it names were read, and freed nothing
    assert all(block.reshape(-1)[:1].all() for _, block, _ in releases)
    assert_no_child_left(helpers)


# ===== rate fit =====


def synthetic_report(eps_values, means, p=1):
    rows = [
        SweepRow(eps=e, delta_eps=delta_schedule(e), p=p, mean_error=m, std_error=0.0, reps=4)
        for e, m in zip(eps_values, means)
    ]
    return SweepReport(kind="averaging", rows=rows, envelope=[], fits={}, config_digest="x")


def test_rate_fit_linear_power():
    eps = (0.5, 0.1, 0.02, 0.004)
    slope, intercept, r2 = rate_fit(synthetic_report(eps, eps))
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_rate_fit_sqrt_power():
    eps = (0.5, 0.1, 0.02)
    slope, _, _ = rate_fit(synthetic_report(eps, [math.sqrt(e) for e in eps]))
    assert slope == pytest.approx(0.5, abs=1e-12)


def test_rate_fit_rejects_nonpositive_means():
    with pytest.raises(DegenerateFit):
        rate_fit(synthetic_report((0.5, 0.1, 0.02), [0.1, 0.0, 0.01]))


def test_rate_fit_needs_three_points():
    with pytest.raises(DegenerateFit):
        rate_fit(synthetic_report((0.5, 0.1), [0.5, 0.1]))


def test_rate_fit_on_real_sweep():
    model = ref_model()
    oracle = make_drift_oracle(model, mode="analytic-linear")
    sweep = SweepConfig(
        eps_grid=(0.1, 0.05, 0.02), mc_reps=6, base_sde=base_sde(T=0.5, N=150),
        p_orders=(1,),
    )
    report = averaging_error_sweep(model, oracle, sweep)
    slope, _, r2 = rate_fit(report)
    assert slope > 0.0
    assert r2 >= 0.8
