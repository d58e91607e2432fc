"""One benchmark execution in a fresh process.

run.py starts this script once per execution (and once per set-up probe), so
peak memory and set-up time belong to that execution alone:

    python3 perfbench/worker.py --workload avg-sweep --seed 104 --trace 0 \\
        --out DIR --result FILE [--setup-only] [--size tiny] [--threads N] \\
        [--spans FILE]

The result file is a JSON object: the monotonic clock reading when set-up
ended (run.py subtracts its own reading at spawn), the execution's wall time
and peak RSS, the Euler particle-update count, the output check, the payload
digests and, with --trace 1, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

# Per-layer metrics a traced execution reports, with their units.
PER_LAYER = (
    ("streams.normal_increments.s", "s"),
    ("streams.normal_increments.calls", "count"),
    ("streams.generators", "count"),
    ("streams.draws", "count"),
    ("streams.dup_draw_frac", "ratio"),
    ("streams.block_mb_max", "MB"),
    ("measure.s", "s"),
    ("measure.clouds", "count"),
    ("measure.summaries", "count"),
    ("model.s", "s"),
    ("model.evals", "count"),
    ("sde.s", "s"),
    ("sde.self_s", "s"),
    ("sde.runs", "count"),
    ("sde.particle_steps", "count"),
    ("averaging.oracle.s", "s"),
    ("averaging.oracle.calls", "count"),
    ("averaging.oracle.misses", "count"),
    ("averaging.oracle.hit_frac", "ratio"),
    ("averaging.estimate_bbar.s", "s"),
    ("averaging.miss_s", "s"),
    ("averaging.self_s", "s"),
    ("filtering.run_filter.s", "s"),
    ("filtering.run_filter.self_s", "s"),
    ("filtering.run_filter.calls", "count"),
    ("filtering.generate_observations.s", "s"),
    ("filtering.resample_events", "count"),
    ("filtering.ess_min_frac", "ratio"),
    ("filtering.particle_steps", "count"),
    ("filtering.self_s", "s"),
    ("experiments.jobs", "count"),
    ("experiments.job_s.p50", "s"),
    ("experiments.job_s.max", "s"),
    ("experiments.self_s", "s"),
    ("experiments.parallel_eff", "ratio"),
    ("config.parse_config.s", "s"),
    ("serialize.s", "s"),
    ("serialize.bytes", "count"),
    ("serialize.rows", "count"),
    ("serialize.self_s", "s"),
    ("cli.run_command.s", "s"),
    ("cli.self_s", "s"),
    ("particle_steps", "count"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
    ("trace.coverage_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

# The traced run fails its self-check when the layer self times cover less
# than this share of the traced thread time (ROADMAP item 4 asks for ~5%).
COVERAGE_MIN = 0.95


def import_package():
    """Import mvx_avgfilter from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "mvx_avgfilter", "__init__.py")):
        raise SystemExit(f"no package source at {SRC}")
    sys.path.insert(0, SRC)
    pkg = importlib.import_module("mvx_avgfilter")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported {pkg.__file__}, not the checkout's package")
    for name in tr.LAYERS:
        importlib.import_module(f"mvx_avgfilter.{name}")
    return pkg


def layer_metrics(tracer: tr.Tracer, counts: dict, threads: int) -> tuple:
    """Per-layer metrics of the traced execution (the bench.execute span),
    the self-check's complaints, and the span table."""
    table = tracer.span_table()
    names = tracer.names
    a = tr.analyse(table, names)
    dur, self_t, outer = a["dur"], a["self"], a["outermost"]
    name_idx = table["names"]
    nid = {name: k for k, name in enumerate(names)}
    (root,) = np.flatnonzero(name_idx == nid[tr.ROOT_NAME])
    start, end = table["starts"][root], table["ends"][root]
    in_exec = (table["starts"] >= start) & (table["ends"] <= end)
    layer = np.array([a["layer_of"][k] for k in range(len(names))])[name_idx]

    def named(name, scope=in_exec):
        return scope & (name_idx == nid.get(name, -1))

    def total(name, scope=in_exec):
        return float(dur[named(name, scope)].sum())

    def layer_inclusive(lay):
        return float(dur[in_exec & (layer == lay) & outer].sum())

    def layer_self(lay):
        return float(self_t[in_exec & (layer == lay)].sum())

    oracle_hits = sum(o.stats["hits"] for o in tracer.oracles)
    oracle_misses = sum(o.stats["misses"] for o in tracer.oracles)
    jobs = dur[named("experiments.job")]
    sweep_s = float(dur[named("experiments.sweep")].sum())
    draws = counts.get("streams.draws", 0)
    estimate_s = total("averaging.estimate_bbar")
    thread_s = float(self_t[in_exec].sum())
    layer_self_sum = float(self_t[in_exec & (layer != "bench")].sum())
    m = {
        "streams.normal_increments.s": total("streams.normal_increments"),
        "streams.normal_increments.calls": int(named("streams.normal_increments").sum()),
        "streams.generators": counts.get("streams.generators", 0),
        "streams.draws": draws,
        "streams.dup_draw_frac": counts.get("streams.dup_draws", 0) / draws if draws else 0.0,
        "streams.block_mb_max": counts.get("streams.block_mb.max", 0.0),
        "measure.s": layer_inclusive("measure"),
        "measure.clouds": counts.get("measure.clouds", 0),
        "measure.summaries": counts.get("measure.summaries", 0),
        "model.s": layer_inclusive("model"),
        "model.evals": counts.get("model.evals", 0),
        "sde.s": layer_inclusive("sde"),
        "sde.runs": counts.get("sde.runs", 0),
        "sde.particle_steps": counts.get("sde.particle_steps", 0),
        "averaging.oracle.s": total("averaging.oracle"),
        "averaging.oracle.calls": counts.get("averaging.oracle.calls", 0),
        "averaging.oracle.misses": oracle_misses,
        "averaging.oracle.hit_frac": (
            oracle_hits / (oracle_hits + oracle_misses) if oracle_hits + oracle_misses else 0.0
        ),
        "averaging.estimate_bbar.s": estimate_s,
        "averaging.miss_s": estimate_s / oracle_misses if oracle_misses else 0.0,
        "filtering.run_filter.s": total("filtering.run_filter"),
        "filtering.run_filter.self_s": float(self_t[named("filtering.run_filter")].sum()),
        "filtering.run_filter.calls": int(named("filtering.run_filter").sum()),
        "filtering.generate_observations.s": total("filtering.generate_observations"),
        "filtering.resample_events": counts.get("filtering.resample_events", 0),
        "filtering.ess_min_frac": min(tracer.filter_runs) if tracer.filter_runs else 0.0,
        "filtering.particle_steps": counts.get("filtering.particle_steps", 0),
        "experiments.jobs": int(jobs.size),
        "experiments.job_s.p50": float(statistics.median(jobs)) if jobs.size else 0.0,
        "experiments.job_s.max": float(jobs.max()) if jobs.size else 0.0,
        "experiments.parallel_eff": (
            float(jobs.sum()) / (threads * sweep_s) if sweep_s > 0 else 0.0
        ),
        "config.parse_config.s": total("config.parse_config", scope=~in_exec),
        "serialize.s": layer_inclusive("serialize"),
        "serialize.bytes": counts.get("serialize.bytes", 0),
        "serialize.rows": counts.get("serialize.rows", 0),
        "cli.run_command.s": total("cli.run_command"),
        "particle_steps": counts.get("particle_steps", 0),
        "trace.wall_s": float(dur[root]),
        "trace.spans": int(in_exec.sum()) - 1,
        "trace.coverage_frac": layer_self_sum / thread_s if thread_s > 0 else 0.0,
    }
    # streams, measure and model spans are leaves: their ".s" is their self time
    for lay in ("sde", "averaging", "filtering", "experiments", "serialize", "cli"):
        m[f"{lay}.self_s"] = layer_self(lay)
    problems = []
    if m["trace.coverage_frac"] < COVERAGE_MIN:
        problems.append(
            f"layer self times cover {m['trace.coverage_frac']:.3f} of the traced "
            f"thread time, below {COVERAGE_MIN}"
        )
    if float(self_t.min(initial=0.0)) < -1e-6:
        problems.append("a span has negative self time: spans overlap")
    return m, problems, table


def stream_fingerprint(pkg) -> str:
    """sha256 of a tiny fixed noise block; it changes exactly with the stream layout."""
    block = pkg.streams.normal_increments(0, "layout-fingerprint", 4, 3, 2, 1.0)
    return hashlib.sha256(block.tobytes()).hexdigest()


def run_once(pkg, tracer, execute, check, threads, args) -> dict:
    before = tracer.counts()
    root = tracer.name_id(tr.ROOT_NAME)
    error = None
    t0 = time.perf_counter()
    try:
        if args.trace:
            value = tracer.call(root, execute, (), {})
        else:
            value = execute()
    except Exception:  # a failed execution is counted, not fatal
        value = None
        error = traceback.format_exc(limit=5)
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    counts = {k: v - before.get(k, 0) if not k.endswith(".max") else v
              for k, v in tracer.counts().items()}
    out = {
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "particle_steps": counts.get("particle_steps", 0),
        "threads": threads,
    }
    if error is None:
        try:
            out.update(check(value))
        except Exception:  # CheckFailed, or a payload too broken to read
            error = traceback.format_exc(limit=5)
    if args.trace:
        layers, problems, table = layer_metrics(tracer, counts, threads)
        out["layers"] = layers
        if problems and error is None:
            error = "; ".join(problems)
        if args.spans:
            np.savez(args.spans, span_names=np.array(tracer.names), **table)
    out.update(
        ok=error is None,
        error=error,
        versions={
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        stream_fingerprint=stream_fingerprint(pkg),
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    threads = args.threads or wl.THREADS[args.workload]

    os.makedirs(args.out, exist_ok=True)
    pkg = import_package()
    tracer = tr.Tracer(spans=bool(args.trace))
    missing = (tr.install_tracing if args.trace else tr.install_step_counters)(pkg, tracer)
    execute, check = wl.prepare(pkg, args.workload, args.seed, args.size, threads, args.out)
    ready = time.monotonic()
    result = {"ready_mono": ready, "missing_wrappers": missing}
    if not args.setup_only:
        result.update(run_once(pkg, tracer, execute, check, threads, args))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
