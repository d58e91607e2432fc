"""Run configuration: a JSON document mapped onto typed sections.

parse_config is strict both ways: unknown or mistyped keys raise ParseError
with the offending key (and the line for malformed JSON), while well-formed
documents that break a numeric invariant raise ValidationError naming that
invariant.  serialize_config inverts parse_config exactly, so
parse_config(serialize_config(cfg)) == cfg and the digest of a config is
stable across reruns and machines.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import InvalidParams, ParseError, ValidationError
from .experiments import validate_sweep_grid
from .filtering import FILTER_KINDS, FilterConfig, get_functional
from .model import LinearModelParams, ModelSpec, make_linear_model, validate_probe
from .sde import FrozenRunConfig, SdeConfig, validate_stability

COMMANDS = (
    "simulate",
    "frozen",
    "bbar",
    "filter",
    "sweep-averaging",
    "sweep-filter",
    "probe",
)
FORMATS = ("csv", "json", "both")

# sections each command cannot run without
_REQUIRED_SECTIONS = {
    "simulate": ("sde",),
    "frozen": ("frozen",),
    "bbar": ("frozen",),
    "filter": ("sde", "filter"),
    "sweep-averaging": ("sde", "sweep"),
    "sweep-filter": ("sde", "sweep", "filter"),
    "probe": (),
}


@dataclass(frozen=True)
class ModelConfig:
    """Linear reference family; the only model expressible in a config file."""

    params: LinearModelParams
    n: int = 1
    m: int = 1
    l: int = 1
    x0: Tuple[float, ...] = (1.0,)
    z0: Tuple[float, ...] = (1.0,)

    def build(self) -> ModelSpec:
        return make_linear_model(
            self.params, n=self.n, m=self.m, l=self.l, x0=list(self.x0), z0=list(self.z0)
        )


@dataclass(frozen=True)
class FrozenSection:
    run: FrozenRunConfig
    x: Tuple[float, ...] = (1.0,)
    mu_mean: Tuple[float, ...] = (1.0,)


@dataclass(frozen=True)
class FilterSection:
    Nf: int
    resample_threshold: float = 0.5
    functional: str = "tanh"
    p: int = 1
    kind: str = "multiscale"
    reference_particle: int = 0

    def filter_config(self) -> FilterConfig:
        return FilterConfig(
            Nf=self.Nf,
            resample_threshold=self.resample_threshold,
            functional=self.functional,
            p=self.p,
        )


@dataclass(frozen=True)
class SweepSection:
    eps_grid: Tuple[float, ...]
    mc_reps: int
    p_orders: Tuple[int, ...] = (1, 2)
    functional: str = "tanh"


@dataclass(frozen=True)
class ProbeSection:
    sample_count: int = 2000
    domain_box: Tuple[float, float] = (-2.0, 2.0)
    p: int = 1


@dataclass(frozen=True)
class RunConfig:
    command: str
    model: ModelConfig
    output_dir: str = "out"
    seed: Optional[int] = None  # overrides the per-section seeds when set
    format: str = "csv"
    sde: Optional[SdeConfig] = None
    frozen: Optional[FrozenSection] = None
    filter: Optional[FilterSection] = None
    sweep: Optional[SweepSection] = None
    probe: ProbeSection = ProbeSection()


def _require(cond: bool, msg: str):
    if not cond:
        raise ValidationError(msg)


def _section(doc: dict, name: str, allowed: dict):
    """Pull a sub-object, rejecting unknown keys and wrong basic types."""
    raw = doc.get(name)
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ParseError(f"key '{name}' must be an object")
    for key in raw:
        if key not in allowed:
            raise ParseError(f"unknown key '{name}.{key}'")
    out = {}
    for key, kinds in allowed.items():
        if key not in raw:
            continue
        val = raw[key]
        if kinds is not None and not isinstance(val, kinds):
            raise ParseError(f"key '{name}.{key}' has the wrong type")
        out[key] = val
    return out


_MODEL_KEYS = {"kind": (str,), "params": (dict,), "n": (int,), "m": (int,), "l": (int,),
               "x0": (list,), "z0": (list,)}
_SDE_KEYS = {"epsilon": (int, float), "T": (int, float), "dt_macro": (int, float),
             "micro_substeps": (int,), "N": (int,), "seed": (int,),
             "delta_eps": (int, float, type(None))}
_FROZEN_KEYS = {"M": (int,), "dt": (int, float), "burn_in": (int, float),
                "avg_window": (int, float), "seed": (int,), "x": (list,), "mu_mean": (list,)}
_FILTER_KEYS = {"Nf": (int,), "resample_threshold": (int, float), "functional": (str,),
                "p": (int,), "kind": (str,), "reference_particle": (int,)}
_SWEEP_KEYS = {"eps_grid": (list,), "mc_reps": (int,), "p_orders": (list,),
               "functional": (str,)}
_PROBE_KEYS = {"sample_count": (int,), "domain_box": (list,), "p": (int,)}
_TOP_KEYS = ("command", "output_dir", "seed", "format", "model", "sde", "frozen",
             "filter", "sweep", "probe")


def _float_tuple(values, context: str) -> Tuple[float, ...]:
    out = []
    for v in values:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ParseError(f"key '{context}' must hold numbers")
        out.append(float(v))
    return tuple(out)


def _build_model(doc: dict) -> ModelConfig:
    raw = _section(doc, "model", _MODEL_KEYS)
    if raw is None:
        raw = {}
    kind = raw.get("kind", "linear")
    _require(kind == "linear", f"model.kind must be 'linear', got '{kind}'")
    praw = raw.get("params", {})
    fields = {f.name for f in dataclasses.fields(LinearModelParams)}
    for key in praw:
        if key not in fields:
            raise ParseError(f"unknown key 'model.params.{key}'")
        if not isinstance(praw[key], (int, float)) or isinstance(praw[key], bool):
            raise ParseError(f"key 'model.params.{key}' must be a number")
    params = LinearModelParams(**{k: float(v) for k, v in praw.items()})
    n = raw.get("n", 1)
    cfg = ModelConfig(
        params=params,
        n=n,
        m=raw.get("m", n),
        l=raw.get("l", n),
        x0=_float_tuple(raw.get("x0", [1.0] * n), "model.x0"),
        z0=_float_tuple(raw.get("z0", [1.0] * raw.get("m", n)), "model.z0"),
    )
    try:
        cfg.build()
    except InvalidParams as err:
        raise ValidationError(str(err)) from err
    return cfg


def parse_config(text: str) -> RunConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(
            f"invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    for key in doc:
        if key not in _TOP_KEYS:
            raise ParseError(f"unknown key '{key}'")
    if "command" not in doc:
        raise ParseError("missing required key 'command'")
    command = doc["command"]
    if not isinstance(command, str):
        raise ParseError("key 'command' must be a string")
    _require(command in COMMANDS, f"unknown command '{command}'; valid: {', '.join(COMMANDS)}")

    output_dir = doc.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ParseError("key 'output_dir' must be a string")
    seed = doc.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise ParseError("key 'seed' must be an integer")
    fmt = doc.get("format", "csv")
    if not isinstance(fmt, str):
        raise ParseError("key 'format' must be a string")
    _require(fmt in FORMATS, f"format must be one of {', '.join(FORMATS)}, got '{fmt}'")

    model = _build_model(doc)

    sde = None
    raw = _section(doc, "sde", _SDE_KEYS)
    if raw is not None:
        try:
            sde = SdeConfig(
                epsilon=float(raw.get("epsilon", 0.1)),
                T=float(raw.get("T", 1.0)),
                dt_macro=float(raw.get("dt_macro", 0.01)),
                micro_substeps=raw.get("micro_substeps", 1),
                N=raw.get("N", 100),
                seed=raw.get("seed", 0),
                delta_eps=(
                    None if raw.get("delta_eps") is None else float(raw["delta_eps"])
                ),
            )
        except InvalidParams as err:
            raise ValidationError(str(err)) from err

    frozen = None
    raw = _section(doc, "frozen", _FROZEN_KEYS)
    if raw is not None:
        try:
            run = FrozenRunConfig(
                M=raw.get("M", 1000),
                dt=float(raw.get("dt", 0.01)),
                burn_in=float(raw.get("burn_in", 1.0)),
                avg_window=float(raw.get("avg_window", 1.0)),
                seed=raw.get("seed", 0),
            )
        except InvalidParams as err:
            raise ValidationError(str(err)) from err
        frozen = FrozenSection(
            run=run,
            x=_float_tuple(raw.get("x", [1.0] * model.n), "frozen.x"),
            mu_mean=_float_tuple(raw.get("mu_mean", [1.0] * model.n), "frozen.mu_mean"),
        )
        _require(len(frozen.x) == model.n, f"frozen.x must have length n={model.n}")
        _require(
            len(frozen.mu_mean) == model.n, f"frozen.mu_mean must have length n={model.n}"
        )

    filt = None
    raw = _section(doc, "filter", _FILTER_KEYS)
    if raw is not None:
        filt = FilterSection(
            Nf=raw.get("Nf", 1000),
            resample_threshold=float(raw.get("resample_threshold", 0.5)),
            functional=raw.get("functional", "tanh"),
            p=raw.get("p", 1),
            kind=raw.get("kind", "multiscale"),
            reference_particle=raw.get("reference_particle", 0),
        )
        _require(
            filt.kind in FILTER_KINDS,
            f"filter.kind must be one of {', '.join(FILTER_KINDS)}, got '{filt.kind}'",
        )
        try:
            filt.filter_config()
            get_functional(filt.functional)
        except InvalidParams as err:
            raise ValidationError(str(err)) from err

    sweep = None
    raw = _section(doc, "sweep", _SWEEP_KEYS)
    if raw is not None:
        if "eps_grid" not in raw:
            raise ParseError("missing required key 'sweep.eps_grid'")
        if "mc_reps" not in raw:
            raise ParseError("missing required key 'sweep.mc_reps'")
        p_orders = raw.get("p_orders", [1, 2])
        for p in p_orders:
            if not isinstance(p, int):
                raise ParseError("key 'sweep.p_orders' must hold integers")
        sweep = SweepSection(
            eps_grid=_float_tuple(raw["eps_grid"], "sweep.eps_grid"),
            mc_reps=raw["mc_reps"],
            p_orders=tuple(p_orders),
            functional=raw.get("functional", "tanh"),
        )
        try:
            validate_sweep_grid(sweep.eps_grid, sweep.mc_reps, sweep.p_orders)
            get_functional(sweep.functional)
        except InvalidParams as err:
            raise ValidationError(str(err)) from err

    raw = _section(doc, "probe", _PROBE_KEYS)
    if raw is None:
        probe = ProbeSection()
    else:
        box = raw.get("domain_box", [-2.0, 2.0])
        if len(box) != 2:
            raise ParseError("key 'probe.domain_box' must be a [lo, hi] pair")
        probe = ProbeSection(
            sample_count=raw.get("sample_count", 2000),
            domain_box=_float_tuple(box, "probe.domain_box"),
            p=raw.get("p", 1),
        )
        try:
            validate_probe(probe.sample_count, probe.domain_box, probe.p)
        except InvalidParams as err:
            raise ValidationError(f"probe.{err}") from err

    for name in _REQUIRED_SECTIONS[command]:
        section = {"sde": sde, "frozen": frozen, "filter": filt, "sweep": sweep}[name]
        _require(section is not None, f"command '{command}' requires a {name} section")

    # the macro/micro step ratio must respect the fast contraction rate;
    # checked here so a bad config fails before any compute starts
    # sweep commands pick substeps per grid point themselves
    if sde is not None and sweep is None:
        try:
            validate_stability(model.build(), sde)
        except InvalidParams as err:
            raise ValidationError(str(err)) from err

    return RunConfig(
        command=command,
        model=model,
        output_dir=output_dir,
        seed=seed,
        format=fmt,
        sde=sde,
        frozen=frozen,
        filter=filt,
        sweep=sweep,
        probe=probe,
    )


def _config_document(cfg: RunConfig) -> dict:
    doc = {
        "command": cfg.command,
        "output_dir": cfg.output_dir,
        "seed": cfg.seed,
        "format": cfg.format,
        "model": {
            "kind": "linear",
            "params": dataclasses.asdict(cfg.model.params),
            "n": cfg.model.n,
            "m": cfg.model.m,
            "l": cfg.model.l,
            "x0": list(cfg.model.x0),
            "z0": list(cfg.model.z0),
        },
        "probe": {
            "sample_count": cfg.probe.sample_count,
            "domain_box": list(cfg.probe.domain_box),
            "p": cfg.probe.p,
        },
    }
    if cfg.sde is not None:
        doc["sde"] = dataclasses.asdict(cfg.sde)
    if cfg.frozen is not None:
        doc["frozen"] = {
            **dataclasses.asdict(cfg.frozen.run),
            "x": list(cfg.frozen.x),
            "mu_mean": list(cfg.frozen.mu_mean),
        }
    if cfg.filter is not None:
        doc["filter"] = dataclasses.asdict(cfg.filter)
    if cfg.sweep is not None:
        doc["sweep"] = {
            "eps_grid": list(cfg.sweep.eps_grid),
            "mc_reps": cfg.sweep.mc_reps,
            "p_orders": list(cfg.sweep.p_orders),
            "functional": cfg.sweep.functional,
        }
    return doc


def serialize_config(cfg: RunConfig) -> str:
    return json.dumps(_config_document(cfg), sort_keys=True, indent=2) + "\n"


def config_digest(cfg: RunConfig) -> str:
    """Digest of the run's identity: everything except where/how it is written."""
    doc = _config_document(cfg)
    doc.pop("output_dir")
    doc.pop("format")
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
