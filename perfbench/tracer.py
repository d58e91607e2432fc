"""Outside-in tracing of the mvx_avgfilter package.

The benchmark never edits the package. Instead it replaces the package's
public functions with wrappers after import. A name bound with
``from .streams import normal_increments`` is a separate reference in every
importing module, so each wrapper is installed in every package module that
holds the original object (``sde.normal_increments``,
``filtering.normal_increments``, ...), not only in the defining module.

Spans are kept in memory as (id, name, start, end, parent, thread) rows, one
set of arrays per thread, and are analysed and written out when the
execution ends. A span's parent is the innermost open span of its thread,
except for sweep jobs, whose parent is the sweep span of the thread that
submitted them. Self time is a span's duration minus the time its children
cover.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import inspect
import itertools
import os
import threading
import time

import numpy as np

ROOT_NAME = "bench.execute"
LAYERS = (
    "streams",
    "measure",
    "model",
    "sde",
    "averaging",
    "filtering",
    "experiments",
    "config",
    "serialize",
    "cli",
)
COEFFICIENTS = ("b1", "sigma1", "b2", "sigma2", "h")

# Functions whose call arguments fix the number of Euler particle updates.
STEP_FUNCTIONS = (
    ("sde", "simulate_slow_fast"),
    ("sde", "simulate_frozen"),
    ("sde", "simulate_averaged"),
    ("sde", "simulate_auxiliary"),
    ("filtering", "run_filter"),
)


class _ThreadLog:
    def __init__(self, tid: int):
        self.tid = tid
        self.stack = []
        self.counts = {}
        self.ids = array.array("q")
        self.names = array.array("i")
        self.parents = array.array("q")
        self.starts = array.array("d")
        self.ends = array.array("d")


class Tracer:
    """Span and counter store. With ``spans=False`` only counters are kept."""

    def __init__(self, spans: bool = True):
        self.spans = spans
        self.names = []
        self._name_ids = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._logs = []
        self._lock = threading.Lock()
        self.oracles = []
        self.filter_runs = []
        self._blocks = set()

    # -- recording --

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.get_ident())
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def add(self, key: str, amount=1) -> None:
        counts = self._log().counts
        counts[key] = counts.get(key, 0) + amount

    def maximum(self, key: str, value) -> None:
        counts = self._log().counts
        counts[key] = max(counts.get(key, value), value)

    def counts(self) -> dict:
        total = {}
        for log in self._logs:
            for key, value in log.counts.items():
                if key.endswith(".max"):
                    total[key] = max(total.get(key, value), value)
                else:
                    total[key] = total.get(key, 0) + value
        return total

    def current(self) -> int:
        stack = self._log().stack
        return stack[-1] if stack else -1

    def call(self, nid: int, fn, args, kwargs, parent=None):
        log = self._log()
        stack = log.stack
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else -1
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            log.ids.append(sid)
            log.names.append(nid)
            log.parents.append(parent)
            log.starts.append(t0)
            log.ends.append(t1)

    def wrap(self, name: str, fn, after=None, counter=None):
        """Wrapper that records a span (when spans are on), bumps ``counter``
        and hands the bound arguments and the result to ``after``."""
        nid = self.name_id(name)
        record = self.spans
        sig = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if record:
                result = self.call(nid, fn, args, kwargs)
            else:
                result = fn(*args, **kwargs)
            if counter is not None:
                self.add(counter)
            if after is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after(bound.arguments, result)
            return result

        return wrapper

    def wrap_counted(self, key: str, fn, amount=None):
        """Counter-only wrapper, for calls too frequent to time one by one."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.add(key, 1 if amount is None else amount(args, kwargs))
            return result

        return wrapper

    def note_block(self, key: tuple) -> bool:
        """True when this exact noise block was already drawn in the execution."""
        with self._lock:
            seen = key in self._blocks
            self._blocks.add(key)
        return seen

    # -- analysis --

    def span_table(self) -> dict:
        cols = {k: [] for k in ("ids", "names", "parents", "starts", "ends", "threads")}
        for log in self._logs:
            n = len(log.ends)
            cols["ids"].append(np.frombuffer(log.ids, dtype=np.int64)[:n].copy())
            cols["names"].append(np.frombuffer(log.names, dtype=np.int32)[:n].copy())
            cols["parents"].append(np.frombuffer(log.parents, dtype=np.int64)[:n].copy())
            cols["starts"].append(np.frombuffer(log.starts, dtype=np.float64)[:n].copy())
            cols["ends"].append(np.frombuffer(log.ends, dtype=np.float64)[:n].copy())
            cols["threads"].append(np.full(n, log.tid, dtype=np.uint64))
        table = {
            k: (np.concatenate(v) if v else np.zeros(0)) for k, v in cols.items()
        }
        order = np.argsort(table["ids"], kind="stable")
        return {k: v[order] for k, v in table.items()}


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def analyse(table: dict, names: list) -> dict:
    """Duration and self time of every span, and whether it is the outermost
    span of its layer on its ancestor chain.

    Span ids are handed out when a span opens, so a parent's id is always
    smaller than its children's and one pass in id order sees parents first.
    """
    ids = table["ids"]
    n = ids.size
    pos = np.full(int(ids.max()) + 1 if n else 0, -1, dtype=np.int64)
    pos[ids] = np.arange(n)
    parents_raw = table["parents"]
    parent_pos = np.where(parents_raw >= 0, pos[np.maximum(parents_raw, 0)], -1)
    dur = table["ends"] - table["starts"]
    threads = table["threads"]
    has_parent = parent_pos >= 0
    same = has_parent.copy()
    same[has_parent] = threads[has_parent] == threads[parent_pos[has_parent]]
    covered = np.bincount(parent_pos[same], weights=dur[same], minlength=n)[:n]
    cross = {}
    for i in np.flatnonzero(has_parent & ~same):
        p = int(parent_pos[i])
        lo = max(table["starts"][i], table["starts"][p])
        hi = min(table["ends"][i], table["ends"][p])
        if hi > lo:
            cross.setdefault(p, []).append((lo, hi))
    for p, intervals in cross.items():
        covered[p] += _union_length(intervals)
    self_time = dur - covered

    layer_of = [name.split(".", 1)[0] for name in names]
    layer_bit = {layer: 1 << k for k, layer in enumerate(sorted(set(layer_of)))}
    name_bits = [layer_bit[layer] for layer in layer_of]
    anc = [0] * n
    outermost = np.zeros(n, dtype=bool)
    name_idx = table["names"].tolist()
    parents = parent_pos.tolist()
    for i in range(n):
        bit = name_bits[name_idx[i]]
        up = anc[parents[i]] if parents[i] >= 0 else 0
        outermost[i] = not (up & bit)
        anc[i] = up | bit
    return {
        "dur": dur,
        "self": self_time,
        "outermost": outermost,
        "layer_of": layer_of,
    }


# -- installation --


def _replace_everywhere(pkg, original, wrapper) -> None:
    """Rebind every package-level reference to ``original``."""
    for module in (getattr(pkg, name) for name in LAYERS):
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _step_count(fn_name: str, arguments: dict) -> int:
    """Euler particle updates of one call: (macro + micro steps) x particles."""
    if fn_name == "run_filter":
        sde = arguments["sde_cfg"]
        ksub = sde.micro_substeps if arguments["signal_kind"] == "multiscale" else 0
        return sde.n_steps * (1 + ksub) * arguments["cfg"].Nf
    cfg = arguments["cfg"]
    if fn_name == "simulate_frozen":
        return cfg.n_steps * cfg.M
    per_step = {
        "simulate_slow_fast": 1 + cfg.micro_substeps,
        "simulate_averaged": 1,
        "simulate_auxiliary": cfg.micro_substeps,
    }[fn_name]
    return cfg.n_steps * per_step * cfg.N


def install_step_counters(pkg, tracer: Tracer) -> list:
    """Wrap the simulators and the filter to count Euler particle updates."""
    missing = []
    for mod_name, fn_name in STEP_FUNCTIONS:
        original = getattr(getattr(pkg, mod_name), fn_name, None)
        if original is None:
            missing.append(f"{mod_name}.{fn_name}")
            continue

        def after(arguments, result, fn_name=fn_name):
            steps = _step_count(fn_name, arguments)
            layer = "filtering" if fn_name == "run_filter" else "sde"
            tracer.add("particle_steps", steps)
            tracer.add(f"{layer}.particle_steps", steps)
            tracer.add(f"{layer}.runs")
            if fn_name == "run_filter":
                _filter_record(arguments, result, tracer)

        _replace_everywhere(pkg, original, tracer.wrap(f"{mod_name}.{fn_name}", original, after))
    return missing


def _filter_record(arguments, result, tracer):
    nf = arguments["cfg"].Nf
    tracer.add("filtering.resample_events", len(result.resample_events))
    with tracer._lock:
        tracer.filter_runs.append(float(np.min(result.ess)) / nf)


def _draws_after(arguments, result, tracer):
    steps, count, dims = arguments["steps"], arguments["count"], arguments["dims"]
    size = steps * count * dims
    key = (
        int(arguments["master_seed"]),
        arguments["label"],
        steps,
        count,
        dims,
        float(arguments["scale"]),
    )
    tracer.add("streams.draws", size)
    if tracer.note_block(key):
        tracer.add("streams.dup_draws", size)
    tracer.maximum("streams.block_mb.max", size * 8 / 1e6)


def install_tracing(pkg, tracer: Tracer) -> list:
    """Install every span wrapper; returns the names that could not be found."""
    missing = install_step_counters(pkg, tracer)

    def span(mod_name, fn_name, name=None, after=None, counter=None):
        module = getattr(pkg, mod_name)
        original = getattr(module, fn_name, None)
        if original is None:
            missing.append(f"{mod_name}.{fn_name}")
            return
        hook = None if after is None else (lambda a, r: after(a, r, tracer))
        wrapper = tracer.wrap(name or f"{mod_name}.{fn_name}", original, hook, counter)
        _replace_everywhere(pkg, original, wrapper)

    span("streams", "normal_increments", after=_draws_after)
    span("measure", "summarize", counter="measure.summaries")
    span("measure", "summarize_points", counter="measure.summaries")
    span("measure", "systematic_resample_indices")
    span("sde", "coupled_pair")
    span("averaging", "estimate_bbar")
    span("filtering", "generate_observations")
    span("filtering", "filter_discrepancy")
    span("experiments", "averaging_error_sweep", "experiments.sweep")
    span("experiments", "filter_error_sweep", "experiments.sweep")
    span("experiments", "sup_path_error")
    span("config", "parse_config")
    for fn_name in (
        "write_csv",
        "write_json",
        "ensemble_rows",
        "ensemble_json",
        "sweep_rows",
        "sweep_json",
        "filter_rows",
        "filter_json",
    ):
        span("serialize", fn_name, after=_rows_after if fn_name == "write_csv" else None)
    span("cli", "run_command")

    streams = pkg.streams
    _replace_everywhere(
        pkg, streams.stream, tracer.wrap_counted("streams.generators", streams.stream)
    )
    serialize = pkg.serialize
    _replace_everywhere(
        pkg,
        serialize.atomic_write_bytes,
        tracer.wrap_counted("serialize.bytes", serialize.atomic_write_bytes, _data_bytes),
    )

    _install_jobs(pkg, tracer, missing)
    _install_classes(pkg, tracer)
    _install_model(pkg, tracer)
    return missing


def _data_bytes(args, kwargs) -> int:
    # The manifest carries wall-clock times, so its length is not repeatable.
    path, data = args
    return 0 if os.path.basename(path) == "manifest.json" else len(data)


def _rows_after(arguments, result, tracer):
    rows = arguments["rows"]
    if hasattr(rows, "__len__"):
        tracer.add("serialize.rows", len(rows))


def _install_jobs(pkg, tracer: Tracer, missing: list) -> None:
    """Give each sweep job a span whose parent is the submitting sweep span."""
    experiments = pkg.experiments
    original = getattr(experiments, "_run_jobs", None)
    if original is None:
        missing.append("experiments._run_jobs")
        return
    nid = tracer.name_id("experiments.job")

    def run_jobs(sweep, job):
        parent = tracer.current()

        def traced_job(key):
            return tracer.call(nid, job, (key,), {}, parent=parent)

        return original(sweep, traced_job)

    experiments._run_jobs = run_jobs


def _install_classes(pkg, tracer: Tracer) -> None:
    cloud = pkg.measure.ParticleCloud
    post_init = cloud.__post_init__
    cloud.__post_init__ = tracer.wrap(
        "measure.ParticleCloud", post_init, counter="measure.clouds"
    )

    oracle_cls = pkg.averaging.AveragedDriftOracle
    init = oracle_cls.__init__

    @functools.wraps(init)
    def oracle_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        with tracer._lock:
            tracer.oracles.append(self)

    oracle_cls.__init__ = oracle_init
    oracle_cls.__call__ = tracer.wrap(
        "averaging.oracle", oracle_cls.__call__, counter="averaging.oracle.calls"
    )


def _install_model(pkg, tracer: Tracer) -> None:
    """Wrap the coefficient maps of every ModelSpec the linear factory builds."""
    factory = pkg.model.make_linear_model

    @functools.wraps(factory)
    def make_linear_model(*args, **kwargs):
        spec = factory(*args, **kwargs)
        return dataclasses.replace(
            spec,
            **{
                c: tracer.wrap(f"model.{c}", getattr(spec, c), counter="model.evals")
                for c in COEFFICIENTS
            },
        )

    _replace_everywhere(pkg, factory, make_linear_model)
