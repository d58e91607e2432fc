"""The benchmark's four workloads: inputs, one execution, output checks.

Every workload runs the linear reference model (default LinearModelParams,
n = m = l = 1, x0 = z0 = 1) through the package's public API. ``prepare``
does the set-up a user pays before the first call (config parse, model and
oracle construction) and returns the execution and its check. Package
functions are looked up through their modules at call time, so wrappers the
tracer installs after import are the ones that run.

Why these four (the doc in this directory has the longer version):

* avg-sweep: the plain single-thread sweep; noise generation dominates.
* filter-sweep: the only workload on the filter and the sweep thread pool.
* oracle-estimated: the only workload where estimated-oracle misses dominate.
* simulate-write: the only workload that stores full paths and writes them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

WORKLOADS = ("avg-sweep", "filter-sweep", "oracle-estimated", "simulate-write")

# Acceptance-test seeds (test_04, test_09, test_01, test_10 numbering). Seed 113
# is held out for confirming claims made on other seeds.
DEFAULT_SEEDS = {
    "avg-sweep": 104,
    "filter-sweep": 109,
    "oracle-estimated": 101,
    "simulate-write": 110,
}

THREADS = {"avg-sweep": 1, "filter-sweep": 2, "oracle-estimated": 1, "simulate-write": 1}

# "tiny" sizes exist for the self-test only.
SIZES = {
    "avg-sweep": {
        "full": {"N": 1000, "T": 1.0, "reps": 8},
        "tiny": {"N": 60, "T": 0.3, "reps": 4},
    },
    "filter-sweep": {
        "full": {"N": 400, "Nf": 2000, "T": 1.0, "reps": 20},
        "tiny": {"N": 40, "Nf": 100, "T": 0.2, "reps": 4},
    },
    "oracle-estimated": {
        "full": {"M": 200, "N": 200, "T": 0.4},
        "tiny": {"M": 200, "N": 20, "T": 0.03},
    },
    "simulate-write": {
        "full": {"N": 1000, "T": 2.0},
        "tiny": {"N": 50, "T": 0.1},
    },
}

LINEAR_MODEL = {
    "kind": "linear",
    "params": {},
    "n": 1,
    "m": 1,
    "l": 1,
    "x0": [1.0],
    "z0": [1.0],
}

# The averaged run of oracle-estimated always uses this path-noise seed; the
# benchmark seed drives the frozen-run (oracle) noise instead. The number of
# cells the law visits, and so the work, depends on the path: over path seeds
# 100-129 it ranged from 86 to 218 misses. With path seed 0 it stayed at 120-121
# over benchmark seeds 100-111; path seeds 3 and 7 each had a second mode
# (164 against 190, 141 against 170).
ORACLE_PATH_SEED = 0

# drift_rmse limit for oracle-estimated: the per-cell standard error at M=200
# and a 5-unit window is about 0.02, so an RMS error above 0.05 means the
# estimator, not its noise, got worse.
DRIFT_RMSE_TOL = 0.05


class CheckFailed(Exception):
    """An execution returned, but its output is wrong."""


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _read_sweep_csv(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        schema = fh.readline()
        header = fh.readline().strip().split(",")
    _require(schema.startswith("# mvx-avgfilter"), f"{path}: missing schema line")
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    return {name: data[:, j] for j, name in enumerate(header)}


def _data_digests(out_dir: str, stem: str) -> dict:
    return {f: sha256_file(os.path.join(out_dir, f)) for f in (stem + ".csv", stem + ".json")}


def prepare(pkg, name: str, seed: int, size: str, threads: int, out_dir: str):
    """Set the workload up; returns (execute, check).

    ``check`` takes the execution's return value, raises CheckFailed when the
    output is wrong and otherwise returns the payload digests (and, for the
    oracle workload, drift_rmse)."""
    dims = SIZES[name][size]
    if name == "oracle-estimated":
        return _prepare_oracle(pkg, seed, dims, out_dir)
    if name == "avg-sweep":
        doc = {
            "command": "sweep-averaging",
            "sde": {"epsilon": 0.1, "T": dims["T"], "dt_macro": 0.01,
                    "micro_substeps": 1, "N": dims["N"], "seed": seed},
            "sweep": {"eps_grid": [0.1, 0.05, 0.02, 0.01], "mc_reps": dims["reps"],
                      "p_orders": [1]},
        }
        check = _check_avg_sweep
    elif name == "filter-sweep":
        doc = {
            "command": "sweep-filter",
            "sde": {"epsilon": 0.1, "T": dims["T"], "dt_macro": 0.01,
                    "micro_substeps": 1, "N": dims["N"], "seed": seed},
            "sweep": {"eps_grid": [0.1, 0.02], "mc_reps": dims["reps"], "p_orders": [1],
                      "functional": "tanh"},
            "filter": {"Nf": dims["Nf"], "resample_threshold": 0.5, "functional": "tanh",
                       "p": 1},
        }
        check = _check_filter_sweep
    elif name == "simulate-write":
        doc = {
            "command": "simulate",
            "sde": {"epsilon": 0.01, "T": dims["T"], "dt_macro": 0.01,
                    "micro_substeps": 8, "N": dims["N"], "seed": seed},
        }
        check = _check_simulate
    else:
        raise ValueError(f"unknown workload {name!r}")
    doc.update(model=LINEAR_MODEL, output_dir=out_dir, format="both")
    cfg = pkg.config.parse_config(json.dumps(doc))

    def execute():
        return pkg.cli.run_command(cfg, threads=threads)

    return execute, lambda manifest: check(cfg)


def _check_avg_sweep(cfg) -> dict:
    out = cfg.output_dir
    cols = _read_sweep_csv(os.path.join(out, "sweep-averaging.csv"))
    means = cols["mean_error"]
    _require(means.size == len(cfg.sweep.eps_grid), f"expected one row per eps: {means}")
    _require(bool(np.all(np.isfinite(means)) and np.all(means > 0)),
             f"means not finite and positive: {means}")
    _require(bool(np.all(np.diff(means) < 0)), f"means not strictly decreasing: {means}")
    _require(means[-1] <= 0.5 * means[0], f"last mean above half the first: {means}")
    return {"digests": _data_digests(out, "sweep-averaging")}


def _check_filter_sweep(cfg) -> dict:
    out = cfg.output_dir
    cols = _read_sweep_csv(os.path.join(out, "sweep-filter.csv"))
    rows = len(cfg.sweep.eps_grid) * len(cfg.sweep.p_orders)
    _require(cols["mean_error"].size == rows, f"expected {rows} rows: {cols['mean_error']}")
    for key in ("mean_error", "std_error"):
        _require(bool(np.all(np.isfinite(cols[key]))), f"non-finite {key}: {cols[key]}")
    _require(bool(np.all(cols["reps"] == cfg.sweep.mc_reps)), f"reps column {cols['reps']}")
    return {"digests": _data_digests(out, "sweep-filter")}


def _check_simulate(cfg) -> dict:
    out = cfg.output_dir
    csv_path = os.path.join(out, "simulate.csv")
    data = np.loadtxt(csv_path, delimiter=",", skiprows=2, ndmin=2)
    steps, n = cfg.sde.n_steps, cfg.sde.N
    want = ((steps + 1) * n, 4)
    _require(data.shape == want, f"CSV holds {data.shape} values, want {want}")
    with open(os.path.join(out, "simulate.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    slow = np.asarray(doc["slow"], dtype=float).reshape(-1)
    fast = np.asarray(doc["fast"], dtype=float).reshape(-1)
    times = np.repeat(np.asarray(doc["times"], dtype=float), n)
    same = (
        np.array_equal(times, data[:, 0])
        and np.array_equal(np.tile(np.arange(n), steps + 1), data[:, 1])
        and np.array_equal(slow, data[:, 2])
        and np.array_equal(fast, data[:, 3])
    )
    _require(same, "JSON points differ from the CSV rows")
    return {"digests": _data_digests(out, "simulate")}


def _prepare_oracle(pkg, seed: int, dims: dict, out_dir: str):
    averaging, sde = pkg.averaging, pkg.sde
    params = pkg.model.LinearModelParams()
    model = pkg.model.make_linear_model(params, n=1, m=1, l=1, x0=[1.0], z0=[1.0])
    frozen = sde.FrozenRunConfig(
        M=dims["M"], dt=0.01, burn_in=averaging.default_burn_in(params),
        avg_window=5.0, seed=seed,
    )
    oracle = averaging.make_drift_oracle(model, mode="estimated", frozen_cfg=frozen, quant=0.05)
    run_cfg = sde.SdeConfig(
        epsilon=0.1, T=dims["T"], dt_macro=0.01, micro_substeps=1, N=dims["N"],
        seed=ORACLE_PATH_SEED,
    )

    def execute():
        return sde.simulate_averaged(model, oracle, run_cfg)

    def check(path) -> dict:
        final = path.slow_clouds[-1].points
        _require(bool(np.all(np.isfinite(final))), "averaged run ended with non-finite particles")
        lookups = run_cfg.n_steps * run_cfg.N
        hits, misses = oracle.stats["hits"], oracle.stats["misses"]
        _require(
            hits + misses == lookups,
            f"hits {hits} + misses {misses} != {lookups} row lookups",
        )
        cache = os.path.join(out_dir, "drift-cache.json")
        oracle.save_cache(cache)
        with open(cache, encoding="utf-8") as fh:
            entries = json.load(fh)["entries"]
        _require(len(entries) == misses, f"{len(entries)} cached cells for {misses} misses")
        keys = np.array([e["key"] for e in entries], dtype=float) * oracle.quant
        values = np.array([e["value"] for e in entries], dtype=float)
        exact = averaging.analytic_bbar_linear(params, keys[:, :1], keys[:, 1:2])
        rmse = math.sqrt(float(np.mean((values - exact) ** 2)))
        _require(rmse <= DRIFT_RMSE_TOL, f"drift_rmse {rmse:.4g} above {DRIFT_RMSE_TOL}")
        return {
            "digests": {"drift-cache.json": sha256_file(cache)},
            "drift_rmse": rmse,
            "oracle_misses": misses,
        }

    return execute, check
