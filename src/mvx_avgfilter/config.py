"""Run configuration: a JSON document mapped onto typed sections.

Each section key is declared once, in the ``_SECTIONS`` table (its JSON kind
and default; README §Command line lists it), which both parse_config and
serialize_config walk.  parse_config is strict both ways: unknown or mistyped
keys raise ParseError with the offending key (and the line for malformed
JSON), while well-formed documents that break a numeric invariant raise
ValidationError naming that invariant.  serialize_config inverts parse_config
exactly, so parse_config(serialize_config(cfg)) == cfg and the digest of a
config is stable across reruns and machines.
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
from .model import (
    LinearModelParams, ModelSpec, _float, _require_finite, make_linear_model, validate_probe,
)
from .sde import FrozenRunConfig, SdeConfig, validate_stability

# each command, with the sections it cannot run without
_REQUIRED_SECTIONS = {
    "simulate": ("sde",),
    "frozen": ("frozen",),
    "bbar": ("frozen",),
    "filter": ("sde", "filter"),
    "sweep-averaging": ("sde", "sweep"),
    "sweep-filter": ("sde", "sweep", "filter"),
    "probe": (),
}
COMMANDS = tuple(_REQUIRED_SECTIONS)
FORMATS = ("csv", "json", "both")


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
    """``run`` is the filter's own settings; ``kind`` and ``reference_particle``
    pick the arm the ``filter`` command runs and the particle it observes."""

    run: FilterConfig
    kind: str = "multiscale"
    reference_particle: int = 0


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


# ----- JSON kinds: a reader takes a JSON value and its dotted key -----


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _scalar(accepts, convert=lambda value: value):
    def read(value, key: str):
        if not accepts(value):
            raise ParseError(f"key '{key}' has the wrong type")
        return convert(value)
    return read


def _vector(accepts, convert, noun: str, length: Optional[int] = None):
    def read(value, key: str) -> tuple:
        if not isinstance(value, list):
            raise ParseError(f"key '{key}' has the wrong type")
        if length is not None and len(value) != length:
            raise ParseError(f"key '{key}' must be a [lo, hi] pair")
        if not all(map(accepts, value)):
            raise ParseError(f"key '{key}' must hold {noun}")
        return tuple(map(convert, value))
    return read


_number = _scalar(_is_number, _float)
_integer = _scalar(_is_integer)
_string = _scalar(lambda v: isinstance(v, str))
_numbers = _vector(_is_number, _float, "numbers")
_integers = _vector(_is_integer, int, "integers")
_pair = _vector(_is_number, _float, "numbers", length=2)


def _params(value, key: str) -> LinearModelParams:
    if not isinstance(value, dict):
        raise ParseError(f"key '{key}' has the wrong type")
    names = {f.name for f in dataclasses.fields(LinearModelParams)}
    for name, number in value.items():
        if name not in names:
            raise ParseError(f"unknown key '{key}.{name}'")
        if not _is_number(number):
            raise ParseError(f"key '{key}.{name}' must be a number")
    return LinearModelParams(**{name: _float(number) for name, number in value.items()})


# ----- sections: each value handed to the section's dataclass, then checked -----


def _model(values: dict) -> ModelConfig:
    kind = values.pop("kind")
    if kind != "linear":
        raise InvalidParams(f"model.kind must be 'linear', got '{kind}'")
    cfg = ModelConfig(**values)
    cfg.build()
    return cfg


def _frozen(values: dict) -> FrozenSection:
    section = FrozenSection(x=values.pop("x"), mu_mean=values.pop("mu_mean"),
                            run=FrozenRunConfig(**values))
    _require_finite(section, ("x", "mu_mean"))
    return section


def _filter(values: dict) -> FilterSection:
    kind = values.pop("kind")
    if kind not in FILTER_KINDS:
        raise InvalidParams(f"filter.kind must be one of {', '.join(FILTER_KINDS)}, got '{kind}'")
    section = FilterSection(kind=kind, reference_particle=values.pop("reference_particle"),
                            run=FilterConfig(**values))
    get_functional(section.run.functional)
    return section


def _sweep(values: dict) -> SweepSection:
    section = SweepSection(**values)
    validate_sweep_grid(section.eps_grid, section.mc_reps, section.p_orders)
    get_functional(section.functional)
    return section


def _probe(values: dict) -> ProbeSection:
    section = ProbeSection(**values)
    try:
        validate_probe(section.sample_count, section.domain_box, section.p)
    except InvalidParams as err:
        raise InvalidParams(f"probe.{err}") from err
    return section


# section -> (builder, {key: (kind, default)}), in reading order.  A default of
# ... marks a required key; a callable default takes the model's widths (those
# read so far, or model.n for frozen).
_SECTIONS = {
    "model": (_model, {
        "kind": (_string, "linear"),
        "params": (_params, LinearModelParams()),
        "n": (_integer, 1),
        "m": (_integer, lambda widths: widths["n"]),
        "l": (_integer, lambda widths: widths["n"]),
        "x0": (_numbers, lambda widths: (1.0,) * widths["n"]),
        "z0": (_numbers, lambda widths: (1.0,) * widths["m"]),
    }),
    "sde": (lambda values: SdeConfig(**values), {
        "epsilon": (_number, 0.1),
        "T": (_number, 1.0),
        "dt_macro": (_number, 0.01),
        "micro_substeps": (_integer, 1),
        "N": (_integer, 100),
        "seed": (_integer, 0),
    }),
    "frozen": (_frozen, {
        "M": (_integer, 1000),
        "dt": (_number, 0.01),
        "burn_in": (_number, 1.0),
        "avg_window": (_number, 1.0),
        "seed": (_integer, 0),
        "x": (_numbers, lambda widths: (1.0,) * widths["n"]),
        "mu_mean": (_numbers, lambda widths: (1.0,) * widths["n"]),
    }),
    "filter": (_filter, {
        "Nf": (_integer, 1000),
        "resample_threshold": (_number, 0.5),
        "functional": (_string, "tanh"),
        "p": (_integer, 1),
        "kind": (_string, "multiscale"),
        "reference_particle": (_integer, 0),
    }),
    "sweep": (_sweep, {
        "eps_grid": (_numbers, ...),
        "mc_reps": (_integer, ...),
        "p_orders": (_integers, (1, 2)),
        "functional": (_string, "tanh"),
    }),
    "probe": (_probe, {
        "sample_count": (_integer, 2000),
        "domain_box": (_pair, (-2.0, 2.0)),
        "p": (_integer, 1),
    }),
}
_TOP_KEYS = ("command", "output_dir", "seed", "format", *_SECTIONS)


def _read_section(name: str, raw, widths: dict):
    """Check one section's object against its table, fill defaults, build it."""
    build, fields = _SECTIONS[name]
    if not isinstance(raw, dict):
        raise ParseError(f"key '{name}' must be an object")
    for key in raw:
        if key not in fields:
            raise ParseError(f"unknown key '{name}.{key}'")
    values = {}
    for key, (kind, default) in fields.items():
        if key in raw:
            values[key] = kind(raw[key], f"{name}.{key}")
        elif default is ...:
            raise ParseError(f"missing required key '{name}.{key}'")
        else:
            values[key] = default({**widths, **values}) if callable(default) else default
    return build(values)


def parse_config(text: str) -> RunConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(
            f"invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    # the one place a violated invariant becomes the config's ValidationError
    try:
        return _parse_document(doc)
    except InvalidParams as err:
        raise ValidationError(str(err)) from err


def _parse_document(doc: dict) -> RunConfig:
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
    if seed is not None and not _is_integer(seed):
        raise ParseError("key 'seed' must be an integer")
    fmt = doc.get("format", "csv")
    if not isinstance(fmt, str):
        raise ParseError("key 'format' must be a string")
    _require(fmt in FORMATS, f"format must be one of {', '.join(FORMATS)}, got '{fmt}'")

    sections = {}
    for name in _SECTIONS:
        raw = doc.get(name)
        if raw is None and name in ("model", "probe"):  # every run has these two
            raw = {}
        widths = {"n": sections["model"].n} if sections else {}
        sections[name] = None if raw is None else _read_section(name, raw, widths)
    model, sde, frozen = sections["model"], sections["sde"], sections["frozen"]
    filt, sweep = sections["filter"], sections["sweep"]

    for key in ("x", "mu_mean") if frozen is not None else ():
        _require(
            len(getattr(frozen, key)) == model.n, f"frozen.{key} must have length n={model.n}"
        )
    for name in _REQUIRED_SECTIONS[command]:
        _require(sections[name] is not None, f"command '{command}' requires a {name} section")
    if command == "filter":
        _require(
            0 <= filt.reference_particle < sde.N,
            f"filter.reference_particle must lie in [0, sde.N={sde.N}), "
            f"got {filt.reference_particle}",
        )
    elif command == "sweep-filter":
        # the sweep runs both filter arms on observations of particle 0
        for key, fixed in (("kind", "multiscale"), ("reference_particle", 0)):
            value = getattr(filt, key)
            _require(
                value == fixed,
                f"filter.{key} is fixed by sweep-filter: leave it at {fixed!r}, got {value!r}",
            )
        # and its sweep section decides the functional and the error orders
        _require(
            filt.run.functional == sweep.functional,
            f"filter.functional is set by sweep.functional={sweep.functional!r} for "
            f"sweep-filter, got {filt.run.functional!r}",
        )
        _require(
            filt.run.p in sweep.p_orders,
            f"filter.p must be one of sweep.p_orders={list(sweep.p_orders)} for "
            f"sweep-filter, got {filt.run.p!r}",
        )

    # the macro/micro step ratio must respect the fast contraction rate;
    # checked here so a bad config fails before any compute starts
    # sweep commands pick substeps per grid point themselves
    if sde is not None and sweep is None:
        validate_stability(model.build(), sde)

    return RunConfig(command=command, output_dir=output_dir, seed=seed, format=fmt, **sections)


def _config_document(cfg: RunConfig) -> dict:
    doc = {"command": cfg.command, "output_dir": cfg.output_dir, "seed": cfg.seed,
           "format": cfg.format}
    for name, (_, fields) in _SECTIONS.items():
        section = getattr(cfg, name)
        if section is None:
            continue
        values = dataclasses.asdict(section)
        values.update(values.pop("run", {}))  # a frozen or filter run's keys sit one level down
        # model.kind is held by no dataclass: only its default, 'linear', parses
        doc[name] = {key: values.get(key, default) for key, (_, default) in fields.items()}
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
