"""Command-line driver.

One config file in, one output directory out.  run_command is the one runner
for every command.  It runs the command's section under the config's
top-level seed when one is set, else under the section's own seed, and times
each stage.  Each command only computes its (columns, rows, payload); one
writer stores ``<command>.csv`` and/or ``<command>.json``, as format says,
and a manifest.json with the config digest, tool version, wall-clock and
per-stage timings, the seeds actually used and the files written.  Exit code
0 on success; on failure a single JSON object goes to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .averaging import analytic_bbar_linear, estimate_bbar, make_drift_oracle
from .config import COMMANDS, RunConfig, config_digest, parse_config
from .errors import MvxError, ParseError, ValidationError
from .experiments import SweepConfig, averaging_error_sweep, filter_error_sweep, usable_cpus
from .filtering import generate_observations, run_filter
from .measure import dirac_summary
from .model import probe_assumptions
from .sde import simulate_frozen, simulate_slow_fast
from .serialize import (
    SWEEP_COLUMNS,
    ensemble_columns,
    ensemble_json,
    ensemble_rows,
    filter_json,
    filter_rows,
    frozen_json,
    frozen_rows,
    sweep_json,
    sweep_rows,
    write_csv,
    write_json,
)
from .streams import derive_seed


@dataclass
class RunManifest:
    command: str
    config_digest: str
    version: str
    wall_clock_s: float
    stages: Dict[str, float]
    seeds: Dict[str, int]
    outputs: List[str]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def run_command(cfg: RunConfig, threads: int = 1) -> RunManifest:
    """Execute one parsed config and write its outputs."""
    t_start = time.perf_counter()
    command = cfg.command
    if command not in COMMANDS:  # parse_config refuses these; a hand-built config may not
        raise ValidationError(f"unknown command '{command}'")
    stages: Dict[str, float] = {}

    @contextmanager
    def stage(name: str):
        t0 = time.perf_counter()
        yield
        stages[name] = time.perf_counter() - t0

    with stage("setup"):
        model = cfg.model.build()

    # the config's top-level seed, when set, replaces the seed of the section run
    if command in ("frozen", "bbar"):
        key, section_seed = "frozen", cfg.frozen.run.seed
    elif command == "probe":
        key, section_seed = "probe", 0  # the probe section has no seed of its own
    else:
        key, section_seed = ("sweep" if command.startswith("sweep-") else "sde"), cfg.sde.seed
    seed = section_seed if cfg.seed is None else cfg.seed
    seeds: Dict[str, int] = {key: seed}
    if key == "frozen":
        run = dataclasses.replace(cfg.frozen.run, seed=seed)
        x = np.asarray(cfg.frozen.x)
        mu = dirac_summary(np.asarray(cfg.frozen.mu_mean))
    elif key != "probe":
        sde = dataclasses.replace(cfg.sde, seed=seed)

    # each command computes its (columns, rows, payload); one writer stores them
    if command == "simulate":
        with stage("simulate"):
            ens = simulate_slow_fast(model, sde)
        table = ensemble_columns(model.n, model.m, True), ensemble_rows(ens), ensemble_json(ens)

    elif command == "frozen":
        with stage("simulate"):
            ens = simulate_frozen(model, x, mu, run)
        columns = ["t", "particle"] + [f"z{j}" for j in range(model.m)]
        table = columns, frozen_rows(ens), frozen_json(ens)

    elif command == "bbar":
        with stage("estimate"):
            est = estimate_bbar(model, x, mu, run)
        analytic = analytic_bbar_linear(cfg.model.params, x, np.asarray(cfg.frozen.mu_mean))
        rows = [
            [j, float(est.value[j]), float(est.stderr[j]), float(est.tau_int[j]), est.n_samples]
            for j in range(model.n)
        ]
        payload = {
            "value": est.value.tolist(),
            "stderr": est.stderr.tolist(),
            "tau_int": est.tau_int.tolist(),
            "n_samples": est.n_samples,
            "analytic": np.asarray(analytic).tolist(),
        }
        table = ["component", "value", "stderr", "tau_int", "n_samples"], rows, payload

    elif command == "filter":
        seeds["observation"] = derive_seed(seed, "cli-observation")
        with stage("signal"):
            signal = simulate_slow_fast(model, sde)
            obs = generate_observations(
                model, signal, cfg.filter.reference_particle, seeds["observation"]
            )
        averaged = cfg.filter.kind == "averaged"
        drift = make_drift_oracle(model, mode="analytic-linear") if averaged else None
        with stage("filter"):
            traj = run_filter(cfg.filter.kind, model, drift, obs, cfg.filter.run, sde)
        table = ["t", "pi_F", "log_rho1", "ess", "resampled"], filter_rows(traj), filter_json(traj)

    elif command == "probe":
        probe = cfg.probe
        with stage("probe"):
            rep = probe_assumptions(model, probe.sample_count, probe.domain_box, probe.p, seed)
        payload = dataclasses.asdict(rep)
        rows = [["domain_lo", float(rep.domain_box[0])], ["domain_hi", float(rep.domain_box[1])]]
        rows += [[name, value] for name, value in payload.items() if name != "domain_box"]
        table = ["key", "value"], rows, payload

    else:  # the two sweeps
        drift = make_drift_oracle(model, mode="analytic-linear")
        filter_cfg = cfg.filter.run if command == "sweep-filter" else None
        with stage("sweep"):
            sweep = SweepConfig(
                eps_grid=cfg.sweep.eps_grid, mc_reps=cfg.sweep.mc_reps, base_sde=sde,
                p_orders=cfg.sweep.p_orders, filter_cfg=filter_cfg, threads=threads,
            )
            if command == "sweep-averaging":
                report = averaging_error_sweep(model, drift, sweep)
            else:
                report = filter_error_sweep(model, drift, sweep)
        table = list(SWEEP_COLUMNS), sweep_rows(report), sweep_json(report)

    columns, rows, payload = table
    outputs = [f"{command}.{ext}" for ext in ("csv", "json") if cfg.format in (ext, "both")]
    with stage("write"):
        for name in outputs:
            path = os.path.join(cfg.output_dir, name)
            if name.endswith(".csv"):
                write_csv(path, command, columns, rows)
            else:
                write_json(path, payload)

    manifest = RunManifest(
        command=command,
        config_digest=config_digest(cfg),
        version=__version__,
        wall_clock_s=time.perf_counter() - t_start,
        stages=stages,
        seeds=seeds,
        outputs=outputs,
    )
    write_json(os.path.join(cfg.output_dir, "manifest.json"), manifest.to_dict())
    return manifest


def _resolve_threads(flag: Optional[str]) -> int:
    raw = flag if flag is not None else os.environ.get("MVX_THREADS", "1")
    if raw == "auto":
        return usable_cpus()
    try:
        threads = int(raw)
    except ValueError as err:
        raise ValidationError(f"threads must be an integer or 'auto', got '{raw}'") from err
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    return threads


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvx-avgfilter",
        description="Simulation, averaging, and filtering runs driven by a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to the run config (JSON)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--format", choices=("csv", "json", "both"), default=None)
    parser.add_argument(
        "--threads", default=None,
        help="integer >= 1 or 'auto' (the CPUs this process may use); env MVX_THREADS. "
        "Above 1, where a second CPU is usable, sweeps fork one helper process that draws "
        "the next job's noise while a job runs, into buffers shared with the sweep (mapped "
        "lazily at the start, one per planned block); jobs still run in order, the results "
        "are identical, and a sweep whose helper cannot start or fails draws its own noise",
    )
    return parser


def _read_config_text(path: str) -> str:
    """The config file's text, with universal newlines as text mode reads it;
    bytes that are not UTF-8 raise ParseError naming the first one's offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(
            f"config file is not UTF-8: byte 0x{data[err.start]:02x} at offset {err.start}"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        threads = _resolve_threads(args.threads)
        cfg = parse_config(_read_config_text(args.config))
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, output_dir=args.out)
        if args.format is not None:
            cfg = dataclasses.replace(cfg, format=args.format)
        manifest = run_command(cfg, threads=threads)
    except (MvxError, OSError) as err:
        payload = {"error": type(err).__name__, "message": str(err)}
        print(json.dumps(payload), file=sys.stderr)
        return 1
    print(json.dumps(manifest.to_dict(), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
