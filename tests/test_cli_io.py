"""Config parsing, file output, and the command-line driver.

The format oracles are pinned by hand: 17-significant-digit floats that
round-trip exactly, the schema header line, row counts implied by the
grid, and byte-identical reruns.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mvx_avgfilter
from mvx_avgfilter.cli import _resolve_threads, main, run_command
from mvx_avgfilter.config import (
    COMMANDS,
    RunConfig,
    config_digest,
    parse_config,
    serialize_config,
)
from mvx_avgfilter.errors import ParseError, ValidationError
from mvx_avgfilter.serialize import format_float
from mvx_avgfilter.streams import _chunk_bounds

BASE = {
    "command": "simulate",
    "output_dir": "out",
    "format": "csv",
    "model": {
        "kind": "linear",
        "params": {},
        "n": 1,
        "m": 1,
        "l": 1,
        "x0": [1.0],
        "z0": [1.0],
    },
    "sde": {
        "epsilon": 0.1,
        "T": 0.2,
        "dt_macro": 0.01,
        "micro_substeps": 1,
        "N": 20,
        "seed": 11,
    },
}


def cfg_text(**overrides):
    doc = json.loads(json.dumps(BASE))
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(doc.get(key), dict):
            doc[key].update(val)
        else:
            doc[key] = val
    return json.dumps(doc)


# ===== floats =====


def test_format_float_17_digits():
    assert format_float(1.0 / 3.0) == "0.33333333333333331"
    assert format_float(1.0) == "1"
    assert format_float(-0.25) == "-0.25"


def test_format_float_round_trips():
    for x in (1 / 3, math.pi, 1e-17, -2.5e300, 0.1 + 0.2):
        assert float(format_float(x)) == x


# ===== parsing =====


def test_parse_minimal_and_round_trip():
    cfg = parse_config(cfg_text())
    assert isinstance(cfg, RunConfig)
    assert cfg.command == "simulate"
    assert cfg.sde.N == 20
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert config_digest(again) == config_digest(cfg)


def test_parse_error_reports_line():
    with pytest.raises(ParseError) as err:
        parse_config('{\n  "command": simulate\n}')
    assert "line 2" in str(err.value)


def test_parse_error_unknown_key():
    with pytest.raises(ParseError) as err:
        parse_config(cfg_text(bogus=1))
    assert "bogus" in str(err.value)


def test_parse_error_missing_command():
    doc = json.loads(cfg_text())
    del doc["command"]
    with pytest.raises(ParseError) as err:
        parse_config(json.dumps(doc))
    assert "command" in str(err.value)


def test_validation_error_names_gamma():
    with pytest.raises(ValidationError) as err:
        parse_config(cfg_text(model={"params": {"gamma": -1.0}}))
    assert "gamma" in str(err.value)


def test_validation_error_bad_command():
    with pytest.raises(ValidationError) as err:
        parse_config(cfg_text(command="explode"))
    assert "explode" in str(err.value)


def test_validation_error_bad_format():
    with pytest.raises(ValidationError):
        parse_config(cfg_text(format="xml"))


def test_validation_error_stability_suggests_substeps():
    with pytest.raises(ValidationError) as err:
        parse_config(cfg_text(sde={"epsilon": 0.01, "dt_macro": 0.01}))
    assert "micro_substeps" in str(err.value)


def test_parse_time_stability_rule_matches_the_run(tmp_path):
    # gamma=3.5, dt=0.01: 70 substeps at eps 0.002 and 7 at eps 0.02 sit on float ties
    model = {"params": {"gamma": 3.5}}
    sde = {"epsilon": 0.002, "micro_substeps": 70, "T": 0.02, "N": 4}
    run_command(parse_config(cfg_text(model=model, sde=sde, output_dir=str(tmp_path))))
    with pytest.raises(ValidationError) as err:
        parse_config(cfg_text(model=model, sde={"epsilon": 0.02, "micro_substeps": 7}))
    assert "micro_substeps=7," in str(err.value)
    assert "micro_substeps >= 8" in str(err.value)


def test_validation_error_empty_p_orders():
    sweep = {"eps_grid": [0.1, 0.05], "mc_reps": 4, "p_orders": []}
    with pytest.raises(ValidationError) as err:
        parse_config(cfg_text(command="sweep-averaging", sweep=sweep))
    assert "p_orders" in str(err.value)


def test_validation_error_repeated_p_orders():
    sweep = {"eps_grid": [0.1, 0.05], "mc_reps": 4, "p_orders": [1, 1]}
    with pytest.raises(ValidationError, match=r"p_orders must not repeat an order, got \[1, 1\]"):
        parse_config(cfg_text(command="sweep-averaging", sweep=sweep))


@pytest.mark.parametrize(
    "probe,message",
    [
        ({"p": 0}, "probe.p >= 1 required"),
        ({"sample_count": 1}, "probe.sample_count >= 2 required"),
        ({"domain_box": [1.0, -1.0]}, "probe.domain_box must satisfy lo < hi"),
    ],
)
def test_validation_error_probe_settings(probe, message):
    with pytest.raises(ValidationError, match=message):
        parse_config(cfg_text(command="probe", probe=probe))


def test_validation_error_missing_section():
    doc = json.loads(cfg_text(command="filter"))
    with pytest.raises(ValidationError) as err:
        parse_config(json.dumps(doc))
    assert "filter" in str(err.value)


@pytest.mark.parametrize("particle", [-1, 20])
def test_validation_error_reference_particle_outside_the_signal(particle):
    filt = {"Nf": 60, "reference_particle": particle}
    with pytest.raises(ValidationError, match=r"filter\.reference_particle .*\[0, sde\.N=20\)"):
        parse_config(cfg_text(command="filter", filter=filt))
    # the sweep observes particle 0, so it refuses any other
    sweep = {"eps_grid": [0.1, 0.05], "mc_reps": 4}
    with pytest.raises(ValidationError, match=r"filter\.reference_particle .*got " + str(particle)):
        parse_config(cfg_text(command="sweep-filter", filter=filt, sweep=sweep))


def test_sweep_filter_refuses_a_filter_kind_and_keeps_the_defaults():
    sweep = {"eps_grid": [0.1, 0.05], "mc_reps": 4}
    filt = {"Nf": 60, "kind": "averaged"}
    with pytest.raises(ValidationError, match=r"filter\.kind .*got 'averaged'"):
        parse_config(cfg_text(command="sweep-filter", filter=filt, sweep=sweep))
    # the defaults, spelled out or not, parse and round-trip
    for filt in ({"Nf": 60}, {"Nf": 60, "kind": "multiscale", "reference_particle": 0}):
        cfg = parse_config(cfg_text(command="sweep-filter", filter=filt, sweep=sweep))
        assert parse_config(serialize_config(cfg)) == cfg
    # the filter command still takes both keys
    filt = {"Nf": 60, "kind": "averaged", "reference_particle": 7}
    assert parse_config(cfg_text(command="filter", filter=filt)).filter.kind == "averaged"


@pytest.mark.parametrize(
    "filt,message",
    [
        ({"functional": "identity"}, r"filter\.functional .*sweep\.functional='tanh'.*got 'identity'"),
        ({"p": 3}, r"filter\.p .*sweep\.p_orders=\[1, 2\].*got 3"),
        ({"functional": "identity", "p": 2}, r"filter\.functional"),
    ],
)
def test_sweep_filter_refuses_a_functional_or_order_its_sweep_does_not_use(filt, message):
    sweep = {"eps_grid": [0.1, 0.05], "mc_reps": 4, "p_orders": [1, 2]}
    with pytest.raises(ValidationError, match=message):
        parse_config(cfg_text(command="sweep-filter", filter=dict(filt, Nf=60), sweep=sweep))
    # the filter command still takes them
    cfg = parse_config(cfg_text(command="filter", filter=dict(filt, Nf=60)))
    assert cfg.filter.run.functional == filt.get("functional", "tanh")


def test_sweep_filter_takes_a_functional_and_order_its_sweep_uses():
    sweep = {"eps_grid": [0.1, 0.05], "mc_reps": 4, "p_orders": [1, 2], "functional": "identity"}
    for filt in ({"functional": "identity"}, {"functional": "identity", "p": 2}):
        cfg = parse_config(cfg_text(command="sweep-filter", filter=dict(filt, Nf=60), sweep=sweep))
        assert parse_config(serialize_config(cfg)) == cfg
    # the configs every sweep-filter example uses: tanh, p 1 and p_orders [1]
    for sections in (SWEEP_CONFIGS["sweep-filter"], TINY_RUNS["sweep-filter"]):
        parse_config(cfg_text(command="sweep-filter", **sections))


def test_main_refuses_a_reference_particle_outside_the_signal(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    filt = {"Nf": 60, "reference_particle": 20}
    cfg_path.write_text(cfg_text(command="filter", filter=filt), encoding="utf-8")
    code = main(["--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert "filter.reference_particle" in err["message"]
    assert not (tmp_path / "o").exists()
    cfg_path.write_text(
        cfg_text(command="filter", filter=dict(filt, reference_particle=19)), encoding="utf-8"
    )
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0


def test_digest_sensitive_to_seed():
    a = parse_config(cfg_text())
    b = parse_config(cfg_text(sde={"seed": 12}))
    assert config_digest(a) != config_digest(b)


# ===== run_command =====


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_simulate_writes_csv_and_manifest(tmp_path):
    cfg = parse_config(cfg_text(output_dir=str(tmp_path / "a")))
    manifest = run_command(cfg)
    csv_path = tmp_path / "a" / "simulate.csv"
    lines = read(csv_path).decode("utf-8").splitlines()
    assert lines[0] == "# mvx-avgfilter v1 simulate"
    assert lines[1].split(",")[:2] == ["t", "particle"]
    assert len(lines) == 2 + 21 * 20  # header lines + (n_steps+1) * N
    man = json.loads(read(tmp_path / "a" / "manifest.json"))
    assert man["config_digest"] == manifest.config_digest
    assert man["version"]
    assert man["wall_clock_s"] >= 0.0
    assert man["stages"]
    assert man["seeds"]
    assert not list((tmp_path / "a").glob("*.tmp"))


def test_simulate_rerun_byte_identical(tmp_path):
    a = parse_config(cfg_text(output_dir=str(tmp_path / "a")))
    b = parse_config(cfg_text(output_dir=str(tmp_path / "b")))
    ma = run_command(a)
    mb = run_command(b)
    assert read(tmp_path / "a" / "simulate.csv") == read(tmp_path / "b" / "simulate.csv")
    assert ma.config_digest == mb.config_digest


def test_simulate_json_format(tmp_path):
    cfg = parse_config(cfg_text(output_dir=str(tmp_path), format="json"))
    run_command(cfg)
    doc = json.loads(read(tmp_path / "simulate.json"))
    assert len(doc["times"]) == 21
    assert len(doc["slow"]) == 21
    assert len(doc["slow"][0]) == 20
    assert doc["fast"] is not None


def test_seed_override_changes_data(tmp_path):
    a = parse_config(cfg_text(output_dir=str(tmp_path / "a")))
    b = parse_config(cfg_text(output_dir=str(tmp_path / "b"), seed=99))
    run_command(a)
    run_command(b)
    assert read(tmp_path / "a" / "simulate.csv") != read(tmp_path / "b" / "simulate.csv")


def test_frozen_command(tmp_path):
    text = cfg_text(
        command="frozen",
        output_dir=str(tmp_path),
        frozen={
            "M": 40, "dt": 0.02, "burn_in": 0.5, "avg_window": 0.5, "seed": 3,
            "x": [1.0], "mu_mean": [1.0],
        },
    )
    run_command(parse_config(text))
    lines = read(tmp_path / "frozen.csv").decode().splitlines()
    assert lines[0] == "# mvx-avgfilter v1 frozen"
    n_steps = math.ceil(1.0 / 0.02)
    assert len(lines) == 2 + (n_steps + 1) * 40


def test_bbar_command(tmp_path):
    text = cfg_text(
        command="bbar",
        output_dir=str(tmp_path),
        format="both",
        frozen={
            "M": 400, "dt": 0.02, "burn_in": 2.0, "avg_window": 3.0, "seed": 5,
            "x": [1.0], "mu_mean": [1.0],
        },
    )
    run_command(parse_config(text))
    doc = json.loads(read(tmp_path / "bbar.json"))
    assert doc["value"][0] == pytest.approx(-1.0 / 3.0, abs=0.08)
    assert doc["stderr"][0] > 0.0
    assert doc["analytic"][0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    lines = read(tmp_path / "bbar.csv").decode().splitlines()
    assert len(lines) == 3  # schema + header + one component


def test_filter_command(tmp_path):
    text = cfg_text(
        command="filter",
        output_dir=str(tmp_path),
        sde={"N": 30, "T": 0.3},
        filter={"Nf": 60, "resample_threshold": 0.5, "functional": "tanh", "p": 1,
                "kind": "multiscale"},
    )
    run_command(parse_config(text))
    lines = read(tmp_path / "filter.csv").decode().splitlines()
    assert lines[0] == "# mvx-avgfilter v1 filter"
    assert lines[1] == "t,pi_F,log_rho1,ess,resampled"
    assert len(lines) == 2 + 31
    last = lines[-1].split(",")
    assert all(math.isfinite(float(v)) for v in last[:4])


def test_probe_command(tmp_path):
    text = cfg_text(command="probe", output_dir=str(tmp_path), format="json")
    run_command(parse_config(text))
    doc = json.loads(read(tmp_path / "probe.json"))
    assert doc["beta1"] == pytest.approx(3.5, abs=0.2)
    assert doc["beta2"] == pytest.approx(0.5, abs=0.2)


def test_sweep_averaging_command(tmp_path):
    text = cfg_text(
        command="sweep-averaging",
        output_dir=str(tmp_path),
        format="both",
        sde={"N": 30, "T": 0.2},
        sweep={"eps_grid": [0.1, 0.05, 0.02, 0.01], "mc_reps": 4, "p_orders": [1, 2]},
    )
    run_command(parse_config(text))
    lines = read(tmp_path / "sweep-averaging.csv").decode().splitlines()
    assert lines[0] == "# mvx-avgfilter v1 sweep-averaging"
    assert lines[1] == "eps,delta_eps,p,mean_error,std_error,reps"
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 8  # 4 grid points per p order
    assert sum(1 for r in rows if r[2] == "1") == 4
    assert sum(1 for r in rows if r[2] == "2") == 4
    doc = json.loads(read(tmp_path / "sweep-averaging.json"))
    assert doc["config_digest"]
    assert "1" in doc["fits"] or 1 in doc["fits"]


def test_sweep_rerun_byte_identical(tmp_path):
    def go(sub):
        text = cfg_text(
            command="sweep-averaging",
            output_dir=str(tmp_path / sub),
            sde={"N": 25, "T": 0.2},
            sweep={"eps_grid": [0.1, 0.05], "mc_reps": 4, "p_orders": [1]},
        )
        run_command(parse_config(text))
        return read(tmp_path / sub / "sweep-averaging.csv")

    assert go("a") == go("b")


def test_sweep_filter_command(tmp_path):
    text = cfg_text(
        command="sweep-filter",
        output_dir=str(tmp_path),
        sde={"N": 25, "T": 0.2},
        filter={"Nf": 40, "resample_threshold": 0.5, "functional": "tanh", "p": 1},
        sweep={"eps_grid": [0.1, 0.05], "mc_reps": 4, "p_orders": [1],
               "functional": "tanh"},
    )
    run_command(parse_config(text))
    lines = read(tmp_path / "sweep-filter.csv").decode().splitlines()
    assert len(lines) == 2 + 2


# ===== CLI entry point =====


def test_main_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(cfg_text(), encoding="utf-8")
    code = main(["--config", str(cfg_path), "--out", str(tmp_path / "o"), "--format", "both"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["command"] == "simulate"
    assert (tmp_path / "o" / "simulate.csv").exists()
    assert (tmp_path / "o" / "simulate.json").exists()
    assert (tmp_path / "o" / "manifest.json").exists()


def test_main_seed_flag_overrides(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(cfg_text(), encoding="utf-8")
    main(["--config", str(cfg_path), "--out", str(tmp_path / "a")])
    main(["--config", str(cfg_path), "--out", str(tmp_path / "b"), "--seed", "77"])
    main(["--config", str(cfg_path), "--out", str(tmp_path / "c"), "--seed", "77"])
    a = read(tmp_path / "a" / "simulate.csv")
    b = read(tmp_path / "b" / "simulate.csv")
    c = read(tmp_path / "c" / "simulate.csv")
    assert a != b
    assert b == c


def test_main_error_is_machine_readable(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(cfg_text(model={"params": {"gamma": -2.0}}), encoding="utf-8")
    code = main(["--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code != 0
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert "gamma" in err["message"]


FROZEN = {"M": 10, "dt": 0.01, "burn_in": 0.1, "avg_window": 0.1}


@pytest.mark.parametrize(
    "overrides,field",
    [
        ({"sde": {"T": math.inf}}, "T"),
        ({"command": "frozen", "frozen": dict(FROZEN, dt=math.nan)}, "dt"),
        ({"command": "frozen", "frozen": dict(FROZEN, avg_window=math.inf)}, "avg_window"),
        ({"command": "probe", "model": {"params": {"gamma": math.nan}}}, "gamma"),
        ({"command": "probe", "model": {"x0": [math.nan]}}, "x0"),
        ({"command": "probe", "model": {"z0": [-math.inf]}}, "z0"),
        ({"command": "frozen", "frozen": dict(FROZEN, x=[math.nan])}, "x"),
        ({"command": "frozen", "frozen": dict(FROZEN, mu_mean=[math.inf])}, "mu_mean"),
        # an integer beyond the float range reads as inf, as 1e999 does
        ({"sde": {"T": 10**400}}, "T"),
    ],
    ids=["T-inf", "dt-nan", "avg_window-inf", "gamma-nan", "x0-nan",
         "z0-inf", "x-nan", "mu_mean-inf", "T-401-digits"],
)
def test_main_refuses_non_finite_config_values(tmp_path, capsys, overrides, field):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(cfg_text(**overrides), encoding="utf-8")  # json writes NaN/Infinity
    code = main(["--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValidationError"
    assert err["message"].startswith(f"{field} must be finite")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "model,message",
    [
        ({"x0": [1.0, 2.0]}, "x0 must hold n=1 values"),
        ({"n": 0, "m": 0, "l": 0, "x0": [], "z0": []}, "n = m = l >= 1 required"),
    ],
    ids=["x0-too-long", "zero-width"],
)
def test_main_answers_a_malformed_model_with_one_json_error(tmp_path, capsys, model, message):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(cfg_text(model=model), encoding="utf-8")
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValidationError"
    assert message in err["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "data,offset",
    [(b"\xff\xfe{}", 0), (cfg_text().encode("utf-8")[:-1] + b', "note": "\xe9"}', None)],
    ids=["utf16-bom", "latin1-byte"],
)
def test_main_answers_a_config_that_is_not_utf8_with_one_json_error(
    tmp_path, capsys, data, offset
):
    offset = data.index(b"\xe9") if offset is None else offset
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_bytes(data)
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ParseError"
    assert err["message"].endswith(f"at offset {offset}")
    assert not (tmp_path / "o").exists()


def test_main_reads_crlf_line_ends_as_text_mode_does(tmp_path, capsys):
    # a raw line end inside a JSON string: its message counts characters, so
    # it shows whether the CRLF reached the parser as one character or two
    text = '{\n"command": "probe",\n"note": "a\nb"\n}'
    messages = []
    for name, data in (("lf", text), ("crlf", text.replace("\n", "\r\n"))):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_bytes(data.encode("utf-8"))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / name)]) == 1
        messages.append(capsys.readouterr().err)
    assert "ParseError" in messages[0]
    assert messages[0] == messages[1]


def test_main_missing_config_file(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "nope.json")])
    assert code != 0
    err = json.loads(capsys.readouterr().err)
    assert "message" in err


SWEEP_CONFIGS = {
    "sweep-averaging": {"sweep": {"eps_grid": [0.1, 0.05], "mc_reps": 4, "p_orders": [1]}},
    "sweep-filter": {
        "filter": {"Nf": 40, "resample_threshold": 0.5, "functional": "tanh", "p": 1},
        "sweep": {"eps_grid": [0.1, 0.05], "mc_reps": 4, "p_orders": [1],
                  "functional": "tanh"},
    },
}


def test_threads_do_not_change_sweep_output(tmp_path, monkeypatch):
    for command, sections in SWEEP_CONFIGS.items():
        work = tmp_path / command
        work.mkdir()
        cfg_path = work / "run.json"
        cfg_path.write_text(
            cfg_text(command=command, format="both", sde={"N": 25, "T": 0.2}, **sections),
            encoding="utf-8",
        )
        monkeypatch.delenv("MVX_THREADS", raising=False)
        for sub, threads in (("a", "1"), ("b", "3")):
            args = ["--config", str(cfg_path), "--out", str(work / sub), "--threads", threads]
            assert main(args) == 0
        monkeypatch.setenv("MVX_THREADS", "2")
        assert main(["--config", str(cfg_path), "--out", str(work / "c")]) == 0
        for name in (command + ".csv", command + ".json"):
            a = read(work / "a" / name)
            assert a == read(work / "b" / name)
            assert a == read(work / "c" / name)


def test_threads_auto_counts_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert _resolve_threads("auto") == 3
    monkeypatch.setenv("MVX_THREADS", "auto")
    assert _resolve_threads(None) == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _resolve_threads("auto") == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _resolve_threads("auto") == 1


def test_import_leaves_multiprocessing_unloaded():
    code = (
        "import sys, mvx_avgfilter.cli; "
        "assert 'multiprocessing' not in sys.modules, 'multiprocessing loaded'; "
        "assert 'socket' not in sys.modules, 'socket loaded'; "
        "assert 'mvx_avgfilter.ahead' not in sys.modules, 'ahead loaded'"
    )
    src = os.path.dirname(os.path.dirname(mvx_avgfilter.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


# ===== no scipy at run time =====

TINY_FROZEN = {"M": 20, "dt": 0.05, "burn_in": 0.1, "avg_window": 0.5, "seed": 3,
               "x": [1.0], "mu_mean": [1.0]}
TINY_FILTER = {"Nf": 20, "resample_threshold": 0.5, "functional": "tanh", "p": 1}
TINY_SWEEP = {"eps_grid": [0.1, 0.05], "mc_reps": 4, "p_orders": [1], "functional": "tanh"}
# one config per command, the filter command once per filter kind
TINY_RUNS = {
    "simulate": {},
    "frozen": {"frozen": TINY_FROZEN},
    "bbar": {"frozen": TINY_FROZEN},
    "filter-multiscale": {"command": "filter", "filter": dict(TINY_FILTER, kind="multiscale")},
    "filter-averaged": {"command": "filter", "filter": dict(TINY_FILTER, kind="averaged")},
    "probe": {"probe": {"sample_count": 50}},
    "sweep-averaging": {"sde": {"N": 10, "T": 0.1}, "sweep": TINY_SWEEP},
    "sweep-filter": {"sde": {"N": 10, "T": 0.1}, "sweep": TINY_SWEEP, "filter": TINY_FILTER},
}

NO_SCIPY_SCRIPT = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import mvx_avgfilter.cli
assert "numpy.random" in sys.modules, "numpy.random is not loaded at import"
runs = json.loads(sys.argv[1])
codes = {name: mvx_avgfilter.cli.main(["--config", cfg, "--out", out])
         for name, (cfg, out) in runs.items()}
print(json.dumps(codes))
"""


def test_every_command_runs_without_scipy(tmp_path):
    runs, commands = {}, set()
    for name, overrides in TINY_RUNS.items():
        text = cfg_text(**dict({"command": name}, **overrides))
        commands.add(json.loads(text)["command"])
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(text, encoding="utf-8")
        runs[name] = (str(cfg_path), str(tmp_path / name))
    assert commands == set(COMMANDS)
    src = os.path.dirname(os.path.dirname(mvx_avgfilter.__file__))
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert codes == {name: 0 for name in TINY_RUNS}, proc.stderr


# ===== one runner: files, outputs, seeds and stages of every command =====

# per command: the manifest's seeds keys and stages keys (README §Command line
# lists the same); "sde"/"sweep" name the sde section's seed, "frozen" the
# frozen section's, and probe has no seed of its own
CONTRACT = {
    "simulate": (["sde"], ["setup", "simulate", "write"]),
    "frozen": (["frozen"], ["setup", "simulate", "write"]),
    "bbar": (["frozen"], ["setup", "estimate", "write"]),
    "filter": (["sde", "observation"], ["setup", "signal", "filter", "write"]),
    "sweep-averaging": (["sweep"], ["setup", "sweep", "write"]),
    "sweep-filter": (["sweep"], ["setup", "sweep", "write"]),
    "probe": (["probe"], ["setup", "probe", "write"]),
}
SEED_SECTION = {"sde": "sde", "sweep": "sde", "frozen": "frozen"}


def run_tiny(tmp_path, name, sub, seed=None, section=None, fmt="both"):
    """Run TINY_RUNS[name] into tmp_path/sub, with seed set at the top level or
    in section; returns (manifest, data file bytes)."""
    doc = json.loads(cfg_text(**dict({"command": name}, **TINY_RUNS[name])))
    doc.update(output_dir=str(tmp_path / sub), format=fmt)
    if seed is not None:
        (doc[section] if section else doc)["seed"] = seed
    manifest = run_command(parse_config(json.dumps(doc))).to_dict()
    assert json.loads(read(tmp_path / sub / "manifest.json")) == manifest
    files = sorted(os.listdir(tmp_path / sub))
    assert files == sorted(manifest["outputs"] + ["manifest.json"])
    return manifest, {f: read(tmp_path / sub / f) for f in manifest["outputs"]}


@pytest.mark.parametrize("name", sorted(TINY_RUNS))
def test_run_command_keeps_the_runner_contract(tmp_path, name):
    man, data = run_tiny(tmp_path, name, "top", seed=5)
    command = man["command"]
    seed_keys, stage_keys = CONTRACT[command]
    assert man["outputs"] == [command + ".csv", command + ".json"]
    assert list(man["seeds"]) == seed_keys
    assert list(man["stages"]) == stage_keys
    key = seed_keys[0]
    assert man["seeds"][key] == 5
    if key == "probe":  # no section seed: it runs at 0 unless the top level sets one
        man, _ = run_tiny(tmp_path, name, "none")
        assert man["seeds"] == {"probe": 0}
        return
    # a top-level seed is the same run as the section's seed set to it
    again, same = run_tiny(tmp_path, name, "section", seed=5, section=SEED_SECTION[key])
    assert same == data
    assert again["seeds"] == man["seeds"]
    assert again["outputs"] == man["outputs"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_format_picks_the_data_files(tmp_path, fmt):
    man, _ = run_tiny(tmp_path, "probe", fmt, fmt=fmt)
    assert man["outputs"] == ["probe." + fmt]


def readme_runner_rows():
    section = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = section.split("## Command line", 1)[1].split("\n## ", 1)[0]
    pattern = r"^\| `([\w-]+)` \| (.+?) \| (.+?) \| (.+?) \|$"
    return {
        command: tuple([cell.strip("`") for cell in text.split(", ")] for text in cells)
        for command, *cells in re.findall(pattern, section, re.M)
    }


def test_readme_lists_the_files_seeds_and_stages_of_every_command():
    expected = {
        command: ([command + ".csv", command + ".json"], seeds, stages)
        for command, (seeds, stages) in CONTRACT.items()
    }
    assert set(CONTRACT) == set(COMMANDS)
    assert readme_runner_rows() == expected


# ===== data files pinned by sha256 =====

# The runs of CI's console-script step, one per command and filter kind, plus a
# frozen run and a simulate run whose noise blocks split into two chunks (the
# chunk rule of the streams module docstring). Every data file, manifest.json
# aside (it carries wall-clock times), is pinned at seeds 5 and 113, so a change
# that should keep the outputs byte-identical is checked here.
PIN_SDE = {"epsilon": 0.1, "T": 0.1, "dt_macro": 0.01, "N": 10, "seed": 11}
PIN_FROZEN = {"M": 20, "dt": 0.05, "burn_in": 0.1, "avg_window": 0.5, "seed": 3}
PIN_FILTER = {"Nf": 20}
PIN_SWEEP = {"eps_grid": [0.1, 0.05], "mc_reps": 4, "p_orders": [1]}
PIN_RUNS = {
    "simulate": {"sde": PIN_SDE},
    "frozen": {"frozen": PIN_FROZEN},
    "bbar": {"frozen": PIN_FROZEN},
    "filter": {"sde": PIN_SDE, "filter": PIN_FILTER},
    "filter-averaged": {"command": "filter", "sde": PIN_SDE,
                        "filter": dict(PIN_FILTER, kind="averaged")},
    "probe": {"probe": {"sample_count": 50}},
    "sweep-averaging": {"sde": PIN_SDE, "sweep": PIN_SWEEP},
    "sweep-filter": {"sde": PIN_SDE, "sweep": PIN_SWEEP, "filter": PIN_FILTER},
    "frozen-long": {"command": "frozen",
                    "frozen": dict(PIN_FROZEN, dt=0.01, burn_in=4.0, avg_window=6.3)},
    "simulate-long": {"command": "simulate", "sde": dict(PIN_SDE, T=1.3, micro_substeps=8)},
}
PINS = {
    ("simulate", 5): {
        "simulate.csv": "9b158137aa100e41ce9f692609e6fe16128e7ffde5f198d2f8ebe7db7be105cd",
        "simulate.json": "4d82801dd02afc0fc06a2043a0fece12690da862004865cef282c4f9bb660591",
    },
    ("simulate", 113): {
        "simulate.csv": "9d438b03b12bec678e5f7850d64e339a8c63f44d312d9f0bd3f7b90a1f75700b",
        "simulate.json": "522ce118e91a4c13270170126114473a32c8a37101a4ed16a2abd8a1e8dee266",
    },
    ("frozen", 5): {
        "frozen.csv": "b0039459ffa7f0412cfab55262eafcfaa5bee2c2a55ab528fb721fb737175d58",
        "frozen.json": "f6b4908e2ee108b4cd5027d67bb2f54763218ead8a66980614cbb2f2af2acc62",
    },
    ("frozen", 113): {
        "frozen.csv": "9f6586330913cc2692983dc9a796f3b96fe1e233ee1a1c897ee6beb6e64a77a4",
        "frozen.json": "45d55274bdfe6c60a9e4499795461c25c6393f19740ddcea7b112f27e0838331",
    },
    ("bbar", 5): {
        "bbar.csv": "0682e9896b55214e93fc24474a6283dff004ea15ede387642859ef967ce3a607",
        "bbar.json": "7822768ad0f7d7a15682377fbf8808d3fa2edc588750bd8ee1b3924c23cf432a",
    },
    ("bbar", 113): {
        "bbar.csv": "658c024308fa7ffd9fd9032026ba0f041b0076c11db2afdfcebd0c821db94f73",
        "bbar.json": "e3922cb8977a4ab6f233dc750b038fea753cb4371ec9d0cfd0095c4b90cb793b",
    },
    ("filter", 5): {
        "filter.csv": "c5a918b798a9270ace15ff2ba4a484c4de471c0e2605b03c257a3861a0f8a821",
        "filter.json": "1ced3ca8d6a20a745a5ca17bdae32cd20746b46dc5d159d29bee169006419a37",
    },
    ("filter", 113): {
        "filter.csv": "739818b5be95fcea2527170cece431a3c59ac31ae613d8ecd23a53fb43eb87dc",
        "filter.json": "445d0d67ab02f57b855c4cb95f424a99ba7ca609dd13b94d062c4488f8b7a792",
    },
    ("filter-averaged", 5): {
        "filter.csv": "bd863ab767c2abf4570e623107251224dc16895691082f0389482327ead580a1",
        "filter.json": "b60533469635bbe28009c8e63edd94b998a2f1f6993d1dea8316accc7028d08d",
    },
    ("filter-averaged", 113): {
        "filter.csv": "2c30801bf69223b3e4fc323c31498dec5baa4e4d915d1a597eed02e344dd24db",
        "filter.json": "41ef302e18c70cdb991bc5a67332554c8dfcf304d006a99d3d3617604ddf4781",
    },
    ("probe", 5): {
        "probe.csv": "cb1093af49cacf38693d52af3c6db74044abca55e99b111b0579076c9f23f992",
        "probe.json": "572406df93992e789aa373293c10a92a2a8a33518eacf9844ec930946d60cfb4",
    },
    ("probe", 113): {
        "probe.csv": "6f456ddf88ab560e7ec003b9d970e260ee5e718f511be69682097f01624a3b46",
        "probe.json": "8dc59b4b893a6874ca1bfac601a8f063950e4af32cc1c16e0210819df0b1ce11",
    },
    ("sweep-averaging", 5): {
        "sweep-averaging.csv": "4717a4375bcfdbe5fa8e3050e9254807fa1bdefb6145e9dcf7eb23fee9a9e8aa",
        "sweep-averaging.json": "75b3b8a060e11b88d9a802588df3763d7c9cc16c1064b2a9ae5cd32f4e877e62",
    },
    ("sweep-averaging", 113): {
        "sweep-averaging.csv": "f4f031df39c9f1d7c465b6eff56ed9edc568b1af2602705d36a1b47f56ab300b",
        "sweep-averaging.json": "331ed2db1c46f7bc9a21b1c5c5192b3baf434d744f9127b8a8851e1c1f6f84f7",
    },
    ("sweep-filter", 5): {
        "sweep-filter.csv": "6398bac9ca1a079e582175191ce47378f1cdc960f8e9fe236d3a169525a2133f",
        "sweep-filter.json": "498292ceec6cabb6ca8d3fc771f957921be31a428dc1cc118d717b147bb109a7",
    },
    ("sweep-filter", 113): {
        "sweep-filter.csv": "c98e060de85da2db5f5151bb2d84fb1cc47ff1ea3f51b2caa9d497067599c7f8",
        "sweep-filter.json": "3bb8f0d365e2f572e5e6949f2734b16f19f91f2b27a0f86f76231830c41e65c1",
    },
    ("frozen-long", 5): {
        "frozen.csv": "774d70fd4446a315c325720ddc777c41ed30bbb45927cc94be42b96bbf96d40c",
        "frozen.json": "54ceccafda886b87d78814b77397546770f89a790f810c07ac8ff7109785337a",
    },
    ("frozen-long", 113): {
        "frozen.csv": "8f62507fd3f6189765910c20dc15bf6020f7c6a07f9e26811d4eee8917cba667",
        "frozen.json": "ebf9d891b1b315bf6e6e93d49797d9b963872dca92bde366d419eb6d651190ad",
    },
    ("simulate-long", 5): {
        "simulate.csv": "a71a23cab131767a8d3f13d6b9d932ad6ee07059326880d34b708ff0b65f5602",
        "simulate.json": "03d4e125aa36353b60458964bf3aa65d9f6b41e0dc03983be9183bbae4d1e735",
    },
    ("simulate-long", 113): {
        "simulate.csv": "8e11a81d2c84722ed462a56a1d8aa4a4b3fc59c8cd077befa859e897e91c1f36",
        "simulate.json": "2a2441588718987a3f4448e3abdc0e611539dd1df97a14cd2de8eed9cb21c56c",
    },
}


def pinned_config(name, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(dict({"command": name}, **PIN_RUNS[name])), encoding="utf-8")
    return path


@pytest.mark.parametrize("name,seed", sorted(PINS))
def test_data_files_match_their_sha256_pins(tmp_path, name, seed):
    out = tmp_path / "out"
    argv = ["--config", str(pinned_config(name, tmp_path)), "--out", str(out),
            "--seed", str(seed), "--format", "both"]
    assert main(argv) == 0
    files = sorted(set(os.listdir(out)) - {"manifest.json"})
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files}
    assert got == PINS[name, seed]


def test_the_long_pinned_runs_draw_their_fast_blocks_in_two_chunks(tmp_path):
    frozen = parse_config(pinned_config("frozen-long", tmp_path).read_text()).frozen.run
    assert frozen.n_steps > 1024
    assert len(_chunk_bounds(frozen.n_steps, 1)) == 3
    sde = parse_config(pinned_config("simulate-long", tmp_path).read_text()).sde
    ksub = sde.micro_substeps
    assert len(_chunk_bounds(sde.n_steps * ksub, ksub)) == 3
