"""Benchmark of mvx_avgfilter: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload avg-sweep [--seed 104] [--seconds 30] [--trace 0]
    python3 perfbench/run.py --workload all          # every workload, one table

Run from the root of a checkout; the package is imported from its src/.
Each execution, and each extra set-up probe, runs in a fresh worker process
(worker.py), so set-up time and peak memory belong to one execution.

--trace 0 repeats executions while one more is expected to end within
--seconds (the first always runs); a single-threaded workload runs two
executions side by side, one per CPU. It adds set-up probes until there are
five set-up samples and reports the end-to-end metrics as medians. --trace 1 runs one
untraced and one traced execution and reports the per-layer metrics, with
the tracing overhead taken from the pair.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it are for people: each
metric with its unit, fail_frac, drift_rmse (oracle-estimated), the payload
digests and the run record. Exit code 2 means the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
import workloads as wl  # noqa: E402
from worker import PER_LAYER  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("particle_steps_per_s", "1/s"),
)
SETUP_SAMPLES = 5
MAX_EXECUTIONS = 50
# Side-by-side lanes for single-threaded workloads (see measure).
LANES = 2
POLL_S = 0.02
# Every run, set-up probes included, must end within 180 s.
RUN_BUDGET_S = 170.0


class Child:
    """One running worker: its process, work directory and spawn time."""

    def __init__(self, workload, seed, out_root, trace=0, setup_only=False, size="full",
                 threads=None, spans=None):
        self.work = tempfile.mkdtemp(dir=out_root)
        self.result_path = os.path.join(self.work, "result.json")
        cmd = [
            sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--trace", str(trace), "--size", size, "--out", os.path.join(self.work, "out"),
            "--result", self.result_path,
        ]
        if setup_only:
            cmd.append("--setup-only")
        if threads is not None:
            cmd += ["--threads", str(threads)]
        if spans is not None:
            cmd += ["--spans", spans]
        self.stderr = open(os.path.join(self.work, "stderr.txt"), "w+", encoding="utf-8")
        self.timed_out = False
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                     stderr=self.stderr)

    def stop(self) -> None:
        """Kill the worker if it still runs, wait for it and remove its files."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.stderr.close()
        shutil.rmtree(self.work, ignore_errors=True)

    def result(self) -> dict:
        """The ended worker's result (with setup_s); removes its files."""
        try:
            if self.proc.returncode != 0:
                self.stderr.seek(0)
                return {"ok": False,
                        "error": f"worker exit {self.proc.returncode}: {self.stderr.read()[-2000:]}"}
            with open(self.result_path, encoding="utf-8") as fh:
                result = json.load(fh)
        finally:
            self.stop()
        result["setup_s"] = result["ready_mono"] - self.spawned
        return result


def wait_any(children, deadline) -> list:
    """Wait until at least one child ends; return the ended ones.

    Children still running at the deadline are killed and count as ended."""
    while True:
        ended = [c for c in children if c.proc.poll() is not None]
        if ended:
            return ended
        if time.monotonic() >= deadline:
            for c in children:
                c.timed_out = True
                c.proc.kill()
                c.proc.wait()
            return children
        time.sleep(POLL_S)


def collect(child) -> dict:
    """The ended child's result, or the failure that ended it."""
    if child.timed_out:
        child.stop()
        return {"ok": False, "error": f"worker stopped at the {RUN_BUDGET_S:.0f} s run limit"}
    return child.result()


def run_child(workload, seed, out_root, deadline, **kwargs) -> dict:
    """Start one worker, wait for it, and return its result (with setup_s)."""
    child = Child(workload, seed, out_root, **kwargs)
    try:
        wait_any([child], deadline)
        return collect(child)
    finally:
        child.stop()


def run_record(workload, seed, threads) -> dict:
    record = {
        "workload": workload,
        "seed": seed,
        "threads": threads,
        "nproc": os.cpu_count(),
        "git_revision": "unknown",
        "git_dirty": None,
    }
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True)
        if rev.returncode == 0:
            record["git_revision"] = rev.stdout.strip()
            record["git_dirty"] = bool(status.stdout.strip())
    return record


def lanes_for(threads) -> int:
    return LANES if threads == 1 and (os.cpu_count() or 1) >= LANES else 1


def measure(workload, seed, seconds, out_root, size, threads, deadline) -> tuple:
    """End-to-end metrics: medians over executions and set-up samples.

    A single-threaded workload runs in LANES side-by-side lanes (one per CPU,
    when there are that many), so a run samples each CPU's share of the host;
    a workload that uses the CPUs itself runs in one lane. A lane starts
    another execution while one more is expected to end within ``seconds``;
    each lane's first execution always runs.
    """
    lanes = lanes_for(threads)
    start = time.monotonic()
    execs, cycles, running = [], [], []
    try:
        while True:
            elapsed = time.monotonic() - start
            while len(running) < lanes and len(execs) + len(running) < MAX_EXECUTIONS:
                first_round = len(execs) + len(running) < lanes
                if not first_round and elapsed + statistics.mean(cycles) > seconds:
                    break
                running.append(Child(workload, seed, out_root, size=size, threads=threads))
            if not running:
                break
            for child in wait_any(running, deadline):
                running.remove(child)
                cycles.append(time.monotonic() - child.spawned)
                execs.append(collect(child))
    finally:
        for child in running:
            child.stop()
    setups = [e["setup_s"] for e in execs if "setup_s" in e]
    while len(setups) < SETUP_SAMPLES and time.monotonic() + 10.0 < deadline:
        probe = run_child(workload, seed, out_root, deadline, setup_only=True, size=size,
                          threads=threads)
        if "setup_s" not in probe:
            break
        setups.append(probe["setup_s"])
    timed = [e for e in execs if "wall_s" in e]
    if not timed or not setups:
        return None, execs
    metrics = {
        "wall_s": statistics.median(e["wall_s"] for e in timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(e["peak_rss_mb"] for e in timed),
        "particle_steps_per_s": statistics.median(
            e["particle_steps"] / e["wall_s"] for e in timed
        ),
    }
    return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}, execs


def trace(workload, seed, out_root, size, threads, deadline) -> tuple:
    """Per-layer metrics from one traced execution, overhead from an untraced one."""
    plain = run_child(workload, seed, out_root, deadline, size=size, threads=threads)
    traces = os.path.join(HERE, "_traces")
    os.makedirs(traces, exist_ok=True)
    spans = os.path.join(traces, f"{workload}-{seed}-{size}.npz")
    traced = run_child(workload, seed, out_root, deadline, trace=1, size=size,
                       threads=threads, spans=spans)
    execs = [plain, traced]
    if "layers" not in traced or "wall_s" not in plain:
        return None, execs
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    return {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER}, execs


def run_workload(workload, seed, seconds, traced, out_root, size, threads) -> dict:
    threads = threads or wl.THREADS[workload]
    deadline = time.monotonic() + RUN_BUDGET_S
    if traced:
        metrics, execs = trace(workload, seed, out_root, size, threads, deadline)
    else:
        metrics, execs = measure(workload, seed, seconds, out_root, size, threads, deadline)
    failed = sum(1 for e in execs if not e.get("ok"))
    record = run_record(workload, seed, threads)
    first = next((e for e in execs if "versions" in e), {})
    record.update(
        size=size,
        lanes=1 if traced else lanes_for(threads),
        versions=first.get("versions"),
        stream_fingerprint=first.get("stream_fingerprint"),
        executions=len(execs),
        fail_frac=failed / len(execs),
        digests=[e.get("digests") for e in execs],
        drift_rmse=[e["drift_rmse"] for e in execs if "drift_rmse" in e],
        oracle_misses=[e["oracle_misses"] for e in execs if "oracle_misses" in e],
        wall_s=[e.get("wall_s") for e in execs],
        errors=[e["error"] for e in execs if e.get("error")],
        missing_wrappers=first.get("missing_wrappers", []),
    )
    return {"metrics": metrics, "attempted": len(execs), "failed": failed, "record": record}


def print_report(workload, res) -> None:
    rec = res["record"]
    print(f"== {workload} seed={rec['seed']} threads={rec['threads']} "
          f"executions={rec['executions']}")
    for name, m in (res["metrics"] or {}).items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':36s} {rec['fail_frac']:.6g} ratio")
    if rec["drift_rmse"]:
        print(f"  {'drift_rmse':36s} {statistics.median(rec['drift_rmse']):.6g} drift-units")
    for err in rec["errors"]:
        print(f"  error: {err}", file=sys.stderr)
    print("record: " + json.dumps(rec, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's acceptance seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the self-test")
    parser.add_argument("--threads", type=int, default=None,
                        help="override the workload's thread count (self-test)")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: the running workers are killed and reaped, and the
    # work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "mvx_avgfilter", "__init__.py")):
        print(f"error: no mvx_avgfilter source under {ROOT}/src", file=sys.stderr)
        return 2

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    out_root = tempfile.mkdtemp(prefix="run-", dir=work_root)
    results = {}
    try:
        for name in names:
            seed = wl.DEFAULT_SEEDS[name] if args.seed is None else args.seed
            results[name] = run_workload(name, seed, args.seconds, args.trace, out_root,
                                         args.size, args.threads)
            print_report(name, results[name])
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    if any(r["metrics"] is None for r in results.values()):
        print("error: no execution produced measurements", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
