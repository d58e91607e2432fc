"""The config field table: one declaration per section key.

Every section key is declared once, in ``config._SECTIONS``; these tests
walk that table. Documents drawn from it round-trip through
serialize_config, every key refuses a value of the wrong JSON kind (a bool
is never a number), the README table lists the same keys, kinds and
defaults, and the serialized bytes and digests of the README config and the
benchmark's configs are pinned to the values the hand-written parser gave.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mvx_avgfilter import config
from mvx_avgfilter.config import COMMANDS, config_digest, parse_config, serialize_config
from mvx_avgfilter.errors import InvalidParams, ParseError, ValidationError
from mvx_avgfilter.experiments import SweepConfig
from mvx_avgfilter.filtering import FilterConfig
from mvx_avgfilter.model import LinearModelParams
from mvx_avgfilter.sde import FrozenRunConfig, SdeConfig

README = Path(__file__).resolve().parent.parent / "README.md"

# the JSON kind README names for each reader of the table
KIND_NAMES = {
    config._number: "number",
    config._integer: "integer",
    config._string: "string",
    config._numbers: "list of numbers",
    config._integers: "list of integers",
    config._pair: "[lo, hi] pair of numbers",
    config._params: "object of numbers",
}

ROWS = [
    (section, key, kind, default)
    for section, (_, fields) in config._SECTIONS.items()
    for key, (kind, default) in fields.items()
]

# a section body that parses, so that one bad key is the only fault
VALID = {
    "model": {},
    "sde": {"epsilon": 0.1, "T": 0.2, "dt_macro": 0.01, "N": 20},
    "frozen": {},
    "filter": {"Nf": 60},
    "sweep": {"eps_grid": [0.1, 0.05], "mc_reps": 4},
    "probe": {},
}


# ===== documents drawn from the table round-trip =====

NUMBERS = st.one_of(
    st.sampled_from([0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 1.0, 2, 2.5, 1 / 3, 0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
INTEGERS = st.one_of(st.sampled_from([0, 1, 2, 4, 10, 20, 100]), st.integers(-3, 5000))
# any value of each table kind
DRAWS = {
    config._number: NUMBERS,
    config._integer: INTEGERS,
    config._string: st.sampled_from(["tanh", "identity", "linear", "multiscale", "averaged"]),
    config._numbers: st.one_of(
        st.sampled_from([[1.0], [0.5], [0.1, 0.05], [0.5, 0.2, 0.1], [2.0, -1.0]]),
        st.lists(NUMBERS, max_size=3),
    ),
    config._integers: st.lists(st.integers(0, 4), max_size=3),
    config._pair: st.lists(NUMBERS, min_size=2, max_size=2),
    config._params: st.dictionaries(
        st.sampled_from(sorted(LinearModelParams.__dataclass_fields__)), NUMBERS, max_size=3
    ),
}
# the model's widths stay small: a parse builds (n, n) diffusion matrices
WIDTHS = st.one_of(st.just(1), st.integers(0, 3))


def json_default(default, widths):
    """A table default written as JSON (None for a required key)."""
    if default is ...:
        return None
    if callable(default):
        default = default(widths)
    if isinstance(default, LinearModelParams):
        return {}
    return list(default) if isinstance(default, tuple) else default


@st.composite
def documents(draw):
    """A document of any command with any subset of each section's keys; a key
    present holds its default, spelled out, three times in four, else any value
    of its kind."""
    command = draw(st.sampled_from(COMMANDS))
    doc = {"command": command}
    widths = {"n": 1, "m": 1}  # the model's, for the defaults that follow them
    for key, values in (
        ("output_dir", st.text(max_size=5)),
        ("seed", st.one_of(st.none(), INTEGERS)),
        ("format", st.sampled_from(config.FORMATS)),
    ):
        if draw(st.booleans()):
            doc[key] = draw(values)
    for section, (_, fields) in config._SECTIONS.items():
        if section not in config._REQUIRED_SECTIONS[command] and draw(st.booleans()):
            continue
        body = doc[section] = {}
        for key, (kind, default) in fields.items():
            if default is not ... and draw(st.booleans()):
                continue
            written = json_default(default, widths)
            if written is not None and draw(st.integers(0, 3)):
                body[key] = written
            elif section == "model" and key in ("n", "m", "l"):
                body[key] = draw(WIDTHS)
            else:
                body[key] = draw(DRAWS[kind])
            if section == "model" and key == "n":
                widths["n"] = widths["m"] = body[key]
            elif section == "model" and key == "m":
                widths["m"] = body[key]
    return doc


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(documents())
def test_documents_drawn_from_the_table_round_trip(doc):
    try:
        cfg = parse_config(json.dumps(doc))
    except (ParseError, ValidationError):
        assume(False)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text
    assert config_digest(again) == config_digest(cfg)


# ===== every key refuses the wrong JSON kind =====


def wrong_values(kind):
    """Values of the wrong JSON kind for a key read by ``kind``: always a bool."""
    values = [True, 1] if kind is config._string else [True, "x"]
    if kind is config._integer:
        values.append(1.5)
    if kind in (config._numbers, config._integers):
        values.append([True])
    if kind is config._pair:
        values.append([True, 1.0])
    if kind is config._params:
        values.append({"gamma": True})
    return values


REFUSALS = [
    pytest.param(section, key, value, id=f"{section}.{key}={json.dumps(value)}")
    for section, key, kind, _ in ROWS
    for value in wrong_values(kind)
]


@pytest.mark.parametrize("section,key,value", REFUSALS)
def test_every_key_refuses_the_wrong_kind(section, key, value):
    # every section present is read, whatever the command
    doc = {"command": "probe", section: dict(VALID[section], **{key: value})}
    with pytest.raises(ParseError, match=re.escape(f"'{section}.{key}")):
        parse_config(json.dumps(doc))


def test_the_top_level_seed_refuses_a_bool():
    with pytest.raises(ParseError, match=r"key 'seed' must be an integer"):
        parse_config(json.dumps({"command": "probe", "seed": True}))


@pytest.mark.parametrize("value", [0.1, None])
def test_the_retired_sde_delta_eps_key_is_refused_as_unknown(value):
    # the auxiliary run's segment length is an argument of simulate_auxiliary
    doc = {"command": "simulate", "sde": {"delta_eps": value}}
    with pytest.raises(ParseError, match=r"unknown key 'sde\.delta_eps'"):
        parse_config(json.dumps(doc))


# ===== the model's widths and parameters =====


@pytest.mark.parametrize(
    "model,message",
    [
        ({"x0": [1.0, 2.0]}, r"x0 must hold n=1 values \(got 2\)"),
        ({"z0": []}, r"z0 must hold m=1 values \(got 0\)"),
        ({"n": 2, "x0": [1.0]}, r"x0 must hold n=2 values \(got 1\)"),
        ({"n": 0}, r"n = m = l >= 1 required \(got 0\)"),
        ({"n": -1}, r"n = m = l >= 1 required \(got -1\)"),
        ({"params": {"gamma": float("nan")}}, r"gamma must be finite, got nan"),
        ({"params": {"hscale": float("inf")}}, r"hscale must be finite, got inf"),
    ],
)
def test_a_malformed_model_is_a_validation_error(model, message):
    with pytest.raises(ValidationError, match=message):
        parse_config(json.dumps({"command": "probe", "model": model}))


@pytest.mark.parametrize(
    "sde,message",
    [({"T": 1e307}, r"T/dt_macro must be a finite step count"),
     ({"epsilon": 1e-310}, r"no micro-substep count meets the stability cap"),
     ({"epsilon": 5e-324}, r"no micro-substep count meets the stability cap")],
)
def test_a_step_count_too_large_for_a_float_is_a_validation_error(sde, message):
    # each raised a bare OverflowError or ZeroDivisionError before
    with pytest.raises(ValidationError, match=message):
        parse_config(json.dumps({"command": "simulate", "sde": sde}))


# ===== README lists the table =====


def readme_rows():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    section = section.split("\n## ", 1)[0]
    pattern = r"^\| `(\w+)\.(\w+)` \| ([^|]+?) \| (.+?) \|$"
    return [match.groups() for match in re.finditer(pattern, section, re.M)]


def test_readme_table_lists_every_key_with_its_kind_and_default():
    rows = readme_rows()
    assert [(s, k) for s, k, _, _ in rows] == [(s, k) for s, k, _, _ in ROWS]
    widths = {"n": 3, "m": 2}
    for (section, key, kind_name, cell), (_, _, kind, default) in zip(rows, ROWS):
        where = f"README row {section}.{key}"
        assert kind_name == KIND_NAMES[kind], where
        if default is ...:
            assert cell == "required", where
            continue
        text = cell.strip("`")
        if callable(default):
            ones = re.fullmatch(r"\[1\.0\] \* (\w)", text)
            expected = (1.0,) * widths[ones.group(1)] if ones else widths[text]
            assert default(widths) == expected, where
        else:
            assert kind(json.loads(text), key) == default, where


# ===== serialized bytes and digests stay where they were =====

LINEAR_MODEL = {"kind": "linear", "params": {}, "n": 1, "m": 1, "l": 1, "x0": [1.0], "z0": [1.0]}
# perfbench/workloads.py at full size and the default seeds; oracle-estimated
# runs no config, so its frozen run is written as the bbar config that asks for it
BENCHMARK_CONFIGS = {
    "avg-sweep": {
        "command": "sweep-averaging",
        "sde": {"epsilon": 0.1, "T": 1.0, "dt_macro": 0.01, "micro_substeps": 1, "N": 1000,
                "seed": 104},
        "sweep": {"eps_grid": [0.1, 0.05, 0.02, 0.01], "mc_reps": 8, "p_orders": [1]},
    },
    "filter-sweep": {
        "command": "sweep-filter",
        "sde": {"epsilon": 0.1, "T": 1.0, "dt_macro": 0.01, "micro_substeps": 1, "N": 400,
                "seed": 109},
        "sweep": {"eps_grid": [0.1, 0.02], "mc_reps": 20, "p_orders": [1], "functional": "tanh"},
        "filter": {"Nf": 2000, "resample_threshold": 0.5, "functional": "tanh", "p": 1},
    },
    "simulate-write": {
        "command": "simulate",
        "sde": {"epsilon": 0.01, "T": 2.0, "dt_macro": 0.01, "micro_substeps": 8, "N": 1000,
                "seed": 110},
    },
    "oracle-estimated": {
        "command": "bbar",
        "frozen": {"M": 200, "dt": 0.01, "burn_in": 1.6666666666666667, "avg_window": 5.0,
                   "seed": 101},
    },
}

# sha256 of serialize_config, then config_digest, as the hand-written parser gave them;
# the four with an sde section moved once, when the sde.delta_eps key was retired
PINS = {
    "readme": (
        "45c5f839080464fd313f6d1cae03314ecab0d7613df33d17d53ea6e53b88d19b",
        "21626ae0c68d208f2a3e54e501896d122a0996dbf3e9e6eaf51843ee95da6a99",
    ),
    "avg-sweep": (
        "339ebb0b3e1305f2c0c58bfa13168b9c9acd924b4ce874e37878adf2c16d6696",
        "d72134f719eb6967639c4ec11dc81b4f7a5e98e7d3324168a150c82dd93fb3fc",
    ),
    "filter-sweep": (
        "af5c39b398f7f86780eec0a85f441d9d32371b415ebe5f96faaa8fe484f49ab4",
        "aff9247057add8b883c0589383364ea2d79521eaef1b66ce2d4a0dc1b038d149",
    ),
    "simulate-write": (
        "0035f99666ea043f884d24808c9f363b50efdcf203c311d443f1d49630cfb008",
        "f62e8ce375d6298287db44d0f5630ce5eb3eb8f087f475de435156ade9f1af88",
    ),
    "oracle-estimated": (
        "b133017a692ae073f569390ca559b8b7bc087deb3c5bb1392c2c645ff5dd3f45",
        "4c193099cca891df5a5ce95e7938bae835a4191672a7c124704d88efddbe1d50",
    ),
}


def pinned_document(name):
    if name == "readme":
        section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
        return json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    return dict(BENCHMARK_CONFIGS[name], model=LINEAR_MODEL, output_dir="out", format="both")


@pytest.mark.parametrize("name", sorted(PINS))
def test_serialized_bytes_and_digest_are_pinned(name):
    cfg = parse_config(json.dumps(pinned_document(name)))
    text = serialize_config(cfg)
    assert (hashlib.sha256(text.encode("utf-8")).hexdigest(), config_digest(cfg)) == PINS[name]


# ===== count and seed fields of the run configs =====

RUN_SDE = dict(epsilon=0.1, T=0.2, dt_macro=0.01, micro_substeps=2, N=10, seed=3)
# each public run config: valid keyword arguments, and its integer fields
RUN_CONFIGS = [
    (SdeConfig, RUN_SDE, ("micro_substeps", "N", "seed")),
    (FrozenRunConfig, dict(M=20, dt=0.05, burn_in=0.1, avg_window=0.5, seed=3), ("M", "seed")),
    (FilterConfig, dict(Nf=20, resample_threshold=0.5, functional="tanh", p=1), ("Nf", "p")),
    (
        SweepConfig,
        dict(eps_grid=(0.1, 0.05), mc_reps=4, base_sde=SdeConfig(**RUN_SDE), p_orders=(1, 2)),
        ("mc_reps", "p_orders", "threads"),
    ),
]
INTEGER_FIELDS = [(cls, kwargs, name) for cls, kwargs, names in RUN_CONFIGS for name in names]


@pytest.mark.parametrize(
    "cls,kwargs,name", INTEGER_FIELDS, ids=[f"{c.__name__}.{n}" for c, _, n in INTEGER_FIELDS]
)
def test_run_configs_refuse_a_count_or_seed_that_is_not_an_integer(cls, kwargs, name):
    default = kwargs.get(name, getattr(cls, name, None))
    listed = isinstance(default, tuple)  # p_orders: every entry is checked
    value = default[0] if listed else default

    def built(v):
        return cls(**dict(kwargs, **{name: (v,) if listed else v}))

    # a bool, a fraction and a whole float were once truncated, accepted or
    # failed inside numpy; parse_config refuses all three in a file
    for bad in (True, value + 0.5, float(value)):
        with pytest.raises(InvalidParams, match=f"{name} must be an integer"):
            built(bad)
    assert getattr(built(np.int64(value)), name) == ((value,) if listed else value)
