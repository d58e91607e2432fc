"""Self-test of the benchmark at tiny sizes: python3 perfbench/selftest.py

Runs every workload at its "tiny" size and checks that

* every metric BENCHMARK.json names is printed with its unit, untraced
  (end_to_end) and traced (per_layer), and every execution passes its check;
* two untraced runs give equal payload digests, and two traced runs give
  equal counts (every per-layer metric whose unit is "count");
* filter-sweep at one thread gives the digests it gives at two, the
  determinism contract of README "Determinism".

Prints one line per check and exits 0 when all pass. Takes about 90 seconds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import workloads as wl  # noqa: E402


def run(workload: str, trace: int, threads=None) -> tuple:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--size", "tiny", "--seconds", "0", "--trace", str(trace)]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(line[len("record: "):]) for line in lines
                  if line.startswith("record: "))
    return json.loads(lines[-1]), record


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    counted = [name for name, unit in declared[1].items() if unit == "count"]
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    check(sorted(w["name"] for w in bench["workloads"]) == sorted(wl.WORKLOADS),
          "BENCHMARK.json lists the four workloads")
    digests = {}
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            results = [run(workload, trace) for _ in range(2)]
            for result, _ in results:
                emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                check(emitted == declared[trace],
                      f"{workload} trace={trace}: metric names and units match")
                check(result["correct"] and result["failed"] == 0,
                      f"{workload} trace={trace}: outputs pass their checks")
            (first, rec_a), (second, rec_b) = results
            if trace == 0:
                digests[workload] = rec_a["digests"][0]
                check(rec_a["digests"][0] == rec_b["digests"][0],
                      f"{workload}: two runs give equal digests")
            else:
                differ = [k for k in counted
                          if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
                check(not differ, f"{workload}: traced counts repeat exactly {differ or ''}")
    _, rec_one = run("filter-sweep", 0, threads=1)
    check(rec_one["digests"][0] == digests["filter-sweep"],
          "filter-sweep: threads=1 digests equal threads=2 digests")
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
