"""Command-line driver.

One config file in, one output directory out.  Every run writes its data
files plus a manifest.json recording the config digest, tool version,
wall-clock and per-stage timings, and the seeds actually used.  Exit code
0 on success; on failure a single JSON object goes to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .averaging import analytic_bbar_linear, estimate_bbar, make_drift_oracle
from .config import RunConfig, config_digest, parse_config
from .errors import MvxError, ValidationError
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


def _effective_seed(cfg: RunConfig, section_seed: int) -> int:
    return cfg.seed if cfg.seed is not None else section_seed


def run_command(cfg: RunConfig, threads: int = 1) -> RunManifest:
    """Execute one parsed config and write its outputs."""
    t_start = time.perf_counter()
    stages: Dict[str, float] = {}
    seeds: Dict[str, int] = {}
    outputs: List[str] = []
    out_dir = cfg.output_dir
    fmt = cfg.format

    def emit(stem: str, columns, rows, payload):
        t0 = time.perf_counter()
        if fmt in ("csv", "both"):
            write_csv(os.path.join(out_dir, stem + ".csv"), cfg.command, columns, rows)
            outputs.append(stem + ".csv")
        if fmt in ("json", "both"):
            write_json(os.path.join(out_dir, stem + ".json"), payload)
            outputs.append(stem + ".json")
        stages["write"] = stages.get("write", 0.0) + time.perf_counter() - t0

    t0 = time.perf_counter()
    model = cfg.model.build()
    stages["setup"] = time.perf_counter() - t0

    if cfg.command == "simulate":
        seed = _effective_seed(cfg, cfg.sde.seed)
        sde = dataclasses.replace(cfg.sde, seed=seed)
        seeds["sde"] = seed
        t0 = time.perf_counter()
        ens = simulate_slow_fast(model, sde)
        stages["simulate"] = time.perf_counter() - t0
        emit(
            "simulate",
            ensemble_columns(model.n, model.m, True),
            ensemble_rows(ens),
            ensemble_json(ens),
        )

    elif cfg.command == "frozen":
        seed = _effective_seed(cfg, cfg.frozen.run.seed)
        run = dataclasses.replace(cfg.frozen.run, seed=seed)
        seeds["frozen"] = seed
        x = np.asarray(cfg.frozen.x)
        mu = dirac_summary(np.asarray(cfg.frozen.mu_mean))
        t0 = time.perf_counter()
        ens = simulate_frozen(model, x, mu, run)
        stages["simulate"] = time.perf_counter() - t0
        emit(
            "frozen",
            ["t", "particle"] + [f"z{j}" for j in range(model.m)],
            frozen_rows(ens),
            frozen_json(ens),
        )

    elif cfg.command == "bbar":
        seed = _effective_seed(cfg, cfg.frozen.run.seed)
        run = dataclasses.replace(cfg.frozen.run, seed=seed)
        seeds["frozen"] = seed
        x = np.asarray(cfg.frozen.x)
        mu = dirac_summary(np.asarray(cfg.frozen.mu_mean))
        t0 = time.perf_counter()
        est = estimate_bbar(model, x, mu, run)
        stages["estimate"] = time.perf_counter() - t0
        analytic = analytic_bbar_linear(
            cfg.model.params, x, np.asarray(cfg.frozen.mu_mean)
        )
        emit(
            "bbar",
            ["component", "value", "stderr", "tau_int", "n_samples"],
            [
                [j, float(est.value[j]), float(est.stderr[j]), float(est.tau_int[j]),
                 est.n_samples]
                for j in range(model.n)
            ],
            {
                "value": est.value.tolist(),
                "stderr": est.stderr.tolist(),
                "tau_int": est.tau_int.tolist(),
                "n_samples": est.n_samples,
                "analytic": np.asarray(analytic).tolist(),
            },
        )

    elif cfg.command == "filter":
        seed = _effective_seed(cfg, cfg.sde.seed)
        sde = dataclasses.replace(cfg.sde, seed=seed)
        obs_seed = derive_seed(seed, "cli-observation")
        seeds["sde"] = seed
        seeds["observation"] = obs_seed
        t0 = time.perf_counter()
        signal = simulate_slow_fast(model, sde)
        obs = generate_observations(
            model, signal, cfg.filter.reference_particle, sde.dt_macro, obs_seed
        )
        stages["signal"] = time.perf_counter() - t0
        drift = (
            make_drift_oracle(model, mode="analytic-linear")
            if cfg.filter.kind == "averaged"
            else None
        )
        t0 = time.perf_counter()
        traj = run_filter(
            cfg.filter.kind, model, drift, obs, cfg.filter.filter_config(), sde
        )
        stages["filter"] = time.perf_counter() - t0
        emit(
            "filter",
            ["t", "pi_F", "log_rho1", "ess", "resampled"],
            filter_rows(traj),
            filter_json(traj),
        )

    elif cfg.command == "probe":
        seed = cfg.seed if cfg.seed is not None else 0
        seeds["probe"] = seed
        t0 = time.perf_counter()
        rep = probe_assumptions(
            model,
            sample_count=cfg.probe.sample_count,
            domain_box=cfg.probe.domain_box,
            p=cfg.probe.p,
            seed=seed,
        )
        stages["probe"] = time.perf_counter() - t0
        payload = dataclasses.asdict(rep)
        rows = [["domain_lo", float(rep.domain_box[0])],
                ["domain_hi", float(rep.domain_box[1])]]
        for key, val in payload.items():
            if key == "domain_box":
                continue
            rows.append([key, float(val) if isinstance(val, float) else val])
        emit("probe", ["key", "value"], rows, payload)

    elif cfg.command in ("sweep-averaging", "sweep-filter"):
        seed = _effective_seed(cfg, cfg.sde.seed)
        base = dataclasses.replace(cfg.sde, seed=seed)
        seeds["sweep"] = seed
        drift = make_drift_oracle(model, mode="analytic-linear")
        t0 = time.perf_counter()
        if cfg.command == "sweep-averaging":
            sweep = SweepConfig(
                eps_grid=cfg.sweep.eps_grid,
                mc_reps=cfg.sweep.mc_reps,
                base_sde=base,
                p_orders=cfg.sweep.p_orders,
                threads=threads,
            )
            report = averaging_error_sweep(model, drift, sweep)
        else:
            sweep = SweepConfig(
                eps_grid=cfg.sweep.eps_grid,
                mc_reps=cfg.sweep.mc_reps,
                base_sde=base,
                p_orders=cfg.sweep.p_orders,
                filter_cfg=cfg.filter.filter_config(),
                threads=threads,
            )
            report = filter_error_sweep(model, drift, cfg.sweep.functional, sweep)
        stages["sweep"] = time.perf_counter() - t0
        emit(cfg.command, list(SWEEP_COLUMNS), sweep_rows(report), sweep_json(report))

    else:  # unreachable: parse_config rejects unknown commands
        raise ValidationError(f"unknown command '{cfg.command}'")

    manifest = RunManifest(
        command=cfg.command,
        config_digest=config_digest(cfg),
        version=__version__,
        wall_clock_s=time.perf_counter() - t_start,
        stages=stages,
        seeds=seeds,
        outputs=outputs,
    )
    write_json(os.path.join(out_dir, "manifest.json"), manifest.to_dict())
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


def main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        threads = _resolve_threads(args.threads)
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
        cfg = parse_config(text)
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
