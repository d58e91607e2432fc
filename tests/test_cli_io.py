"""Config parsing, file output, and the command-line driver.

The format oracles are pinned by hand: 17-significant-digit floats that
round-trip exactly, the schema header line, row counts implied by the
grid, and byte-identical reruns.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

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
        ({"sde": {"delta_eps": math.nan}}, "delta_eps"),
        ({"command": "frozen", "frozen": dict(FROZEN, dt=math.nan)}, "dt"),
        ({"command": "frozen", "frozen": dict(FROZEN, avg_window=math.inf)}, "avg_window"),
    ],
    ids=["T-inf", "delta_eps-nan", "dt-nan", "avg_window-inf"],
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
