"""Array-backed paths and the array writers.

Paths are read-only (steps+1, N, d) arrays and laws are summaries of their
rows; the writers format those arrays directly, streamed in blocks, and must
produce exactly the bytes of the per-value reference formatting
(``json.dumps`` of nested lists, ``format(v, ".17g")`` per CSV cell) in
memory that does not grow with the table.  The float-text kernel behind both
writers is compared with Python's own text on over a million values.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from mvx_avgfilter.averaging import _mean_se_tau, estimate_bbar, make_drift_oracle
from mvx_avgfilter.experiments import SweepConfig, averaging_error_sweep, sup_path_error
from mvx_avgfilter.filtering import FilterConfig, generate_observations, run_filter
from mvx_avgfilter.measure import dirac_summary, summarize_points
from mvx_avgfilter.model import LinearModelParams, ModelSpec, make_linear_model, probe_assumptions
from mvx_avgfilter.errors import InvalidParams
from mvx_avgfilter.sde import (
    FrozenRunConfig,
    PathEnsemble,
    SdeConfig,
    coupled_pair,
    simulate_auxiliary,
    simulate_averaged,
    simulate_frozen,
    simulate_slow_fast,
)
from mvx_avgfilter import SCHEMA_VERSION
from mvx_avgfilter.serialize import (
    CHUNK,
    _float_words,
    atomic_write_chunks,
    ensemble_json,
    ensemble_rows,
    filter_json,
    format_value,
    frozen_json,
    frozen_rows,
    sweep_json,
    write_csv,
    write_json,
)

REF = LinearModelParams(a12=0.3, c2=0.2)


def linear(d=1):
    return make_linear_model(REF, n=d, m=d, l=d, x0=[1.0] * d, z0=[-0.5] * d)


def sde_cfg(**kw):
    base = dict(epsilon=0.1, T=0.2, dt_macro=0.01, micro_substeps=3, N=7, seed=4)
    base.update(kw)
    return SdeConfig(**base)


def analytic_drift(model):
    return make_drift_oracle(model, mode="analytic-linear")


def as_lists(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_lists(v) for v in obj]
    return obj


def written(tmp_path, payload) -> str:
    path = tmp_path / "out.json"
    write_json(str(path), payload)
    return path.read_text(encoding="utf-8")


def reference_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def assert_same_text(got: str, want: str) -> None:
    """``got == want``, reporting the first difference instead of a full diff."""
    if got != want:
        end = min(len(got), len(want))
        i = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), end)
        lo = max(i - 40, 0)
        pytest.fail(f"texts differ at {i}: {got[lo : i + 40]!r} != {want[lo : i + 40]!r}")


# ===== paths =====


def all_paths():
    model = linear(2)
    cfg = sde_cfg()
    sf = simulate_slow_fast(model, cfg)
    frozen = simulate_frozen(
        model, np.array([0.7, -0.1]), dirac_summary([0.2, 0.4]),
        FrozenRunConfig(M=9, dt=0.01, burn_in=0.05, avg_window=0.1, seed=2),
    )
    return {
        "slow-fast": sf,
        "frozen": frozen,
        "averaged": simulate_averaged(model, analytic_drift(model), cfg),
        "auxiliary": simulate_auxiliary(model, sf, 0.05),
    }


@pytest.mark.parametrize("kind", ["slow-fast", "frozen", "averaged", "auxiliary"])
def test_path_arrays_are_read_only_and_match_clouds(kind):
    path = all_paths()[kind]
    for name in ("slow", "fast", "aux"):
        arr = getattr(path, name)
        if arr is None:
            continue
        assert arr.shape[0] == len(path.times) and arr.ndim == 3
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1.0
    clouds = path.slow_clouds
    assert len(clouds) == len(path.times)
    for k, cloud in enumerate(clouds):
        assert np.array_equal(cloud.points, path.slow[k])


def test_path_presence_per_simulator():
    paths = all_paths()
    assert paths["averaged"].fast is None
    assert paths["slow-fast"].aux is None
    assert paths["auxiliary"].aux is not None
    assert np.shares_memory(paths["auxiliary"].fast, paths["slow-fast"].fast)


def test_frozen_slow_input_is_a_broadcast_view():
    path = all_paths()["frozen"]
    assert path.slow.strides[0] == 0
    assert np.array_equal(path.slow[-1], np.tile([0.7, -0.1], (9, 1)))


def test_ensemble_wraps_caller_arrays_without_freezing_them():
    slow = np.zeros((3, 2, 1))
    path = PathEnsemble(times=np.arange(3.0), slow=slow)
    assert not path.slow.flags.writeable
    slow[0, 0, 0] = 1.0  # the caller's own array stays writable
    with pytest.raises(InvalidParams):
        PathEnsemble(times=np.arange(4.0), slow=slow)


@pytest.mark.parametrize("n_particles", [7, 37])
def test_law_trace_equals_cloud_summaries_bitwise(n_particles):
    model = linear(2)
    signal = simulate_slow_fast(model, sde_cfg(N=n_particles))
    obs = generate_observations(model, signal, 3, seed_v=5)
    for trace, states in ((obs.signal_law_trace, signal.slow), (obs.fast_law_trace, signal.fast)):
        for k, summary in enumerate(trace):
            want = summarize_points(states[k])
            assert summary.mean.tobytes() == want.mean.tobytes()
            assert summary.second_moment == want.second_moment


@pytest.mark.parametrize("d", [1, 2])
def test_law_traces_are_the_summaries_the_signal_run_used(d):
    base = linear(d)
    seen_mu, seen_nu = [], []

    def b1(x, mu, z):
        seen_mu.append(mu)
        return base.b1(x, mu, z)

    def b2(x, mu, z, nu):
        seen_nu.append(nu)  # once per micro-substep
        return base.b2(x, mu, z, nu)

    model = dataclasses.replace(base, b1=b1, b2=b2)
    cfg = sde_cfg(N=37)
    signal = simulate_slow_fast(model, cfg)
    obs = generate_observations(model, signal, 3, seed_v=5)
    seen_nu = seen_nu[:: cfg.micro_substeps]
    for trace, seen in ((obs.signal_law_trace, seen_mu), (obs.fast_law_trace, seen_nu)):
        # the run summarizes the state each step starts from: all but the last
        for summary, used in zip(trace[:-1], seen, strict=True):
            assert summary.mean.tobytes() == used.mean.tobytes()
            assert np.float64(summary.second_moment).tobytes() == np.float64(
                used.second_moment
            ).tobytes()


@pytest.mark.parametrize("shape", [(7, 1), (200, 1), (1001, 1), (37, 2), (400, 3)])
def test_unweighted_summary_mean_equals_ndarray_mean(shape):
    points = np.random.default_rng(sum(shape)).normal(3.0, 2.0, size=shape)
    summary = summarize_points(points)
    assert np.array_equal(summary.mean, points.mean(axis=0))
    assert summary.second_moment == float(np.einsum("ij,ij->", points, points) / shape[0])


# ===== JSON =====


def test_ensemble_json_matches_cloud_lists(tmp_path):
    path = simulate_slow_fast(linear(2), sde_cfg())
    payload = ensemble_json(path)
    legacy = {
        "times": [float(t) for t in path.times],
        "slow": [p.tolist() for p in path.slow],
        "fast": [p.tolist() for p in path.fast],
    }
    assert written(tmp_path, payload) == reference_json(legacy)


def test_averaged_ensemble_json_has_null_fast(tmp_path):
    model = linear(1)
    path = simulate_averaged(model, analytic_drift(model), sde_cfg())
    payload = ensemble_json(path)
    assert payload["fast"] is None
    assert written(tmp_path, payload) == reference_json(as_lists(payload))


def test_frozen_json_matches_cloud_lists(tmp_path):
    path = all_paths()["frozen"]
    legacy = {
        "times": [float(t) for t in path.times],
        "fast": [p.tolist() for p in path.fast],
    }
    assert written(tmp_path, frozen_json(path)) == reference_json(legacy)


def test_filter_json(tmp_path):
    model = linear(1)
    cfg = sde_cfg(N=20)
    obs = generate_observations(model, simulate_slow_fast(model, cfg), 0, seed_v=3)
    traj = run_filter(
        "multiscale", model, None, obs,
        FilterConfig(Nf=30, resample_threshold=0.5, functional="tanh"), cfg,
    )
    payload = filter_json(traj)
    assert written(tmp_path, payload) == reference_json(payload)


def test_sweep_json_with_nan_delta(tmp_path):
    model = linear(1)
    sweep = SweepConfig(
        eps_grid=(1.0, 0.5, 0.2), mc_reps=4, base_sde=sde_cfg(T=0.05, N=4), p_orders=(1,)
    )
    payload = sweep_json(averaging_error_sweep(model, analytic_drift(model), sweep))
    assert np.isnan(payload["rows"][0]["delta_eps"])
    text = written(tmp_path, payload)
    assert text == reference_json(payload)
    assert "NaN" in text


def test_probe_json(tmp_path):
    rep = probe_assumptions(linear(2), sample_count=20, domain_box=(-1.0, 1.0), p=2, seed=0)
    payload = dataclasses.asdict(rep)
    assert written(tmp_path, payload) == reference_json(payload)


EDGE_VALUES = [-0.0, 5e-324, 1e-300, 1e16, 1.0 / 3.0, 2.0, -7.0, 0.1, 1e22, 123456789.0,
               1e-4, 9.999999999999999e-05, 2.0**52, 2.0**53, 9999999999999998.0, 1e15]


@pytest.mark.parametrize("shape", [(16,), (2, 8), (8, 2), (1, 16), (16, 1), (2, 8, 1), (1, 2, 8),
                                   (2, 1, 8, 1)])
def test_edge_value_arrays_in_nested_payload(tmp_path, shape):
    a = np.array(EDGE_VALUES).reshape(shape)
    payload = {"b": a, "a": [a, {"z": a[..., :1]}, "text", 3], "c": None, "d": 1.5}
    assert written(tmp_path, payload) == reference_json(as_lists(payload))


def test_top_level_and_non_float_arrays(tmp_path):
    a = np.array(EDGE_VALUES).reshape(8, 2)
    assert written(tmp_path, a) == reference_json(a.tolist())
    payload = {"i": np.arange(3), "b": np.array([True, False]), "e": np.zeros((2, 0)),
               "f32": np.float32([0.1, 2.5])}
    assert written(tmp_path, payload) == reference_json(as_lists(payload))


def test_non_finite_array_values_are_written_as_json_does(tmp_path):
    a = np.array([[np.nan, 1.0], [np.inf, -np.inf]])
    text = written(tmp_path, {"a": a})
    assert text == reference_json({"a": a.tolist()})
    assert "NaN" in text and "-Infinity" in text


def test_zero_dimensional_arrays_are_written_as_scalars(tmp_path):
    payload = {"a": np.array(1.5), "b": [np.array(np.nan), np.array(-np.inf)],
               "c": np.array(-0.0), "d": np.array(3)}
    text = written(tmp_path, payload)
    assert text == reference_json(as_lists(payload))
    assert json.loads(text)["a"] == 1.5


BLOCK_SHAPES = [(2 * CHUNK + 5,), (CHUNK // 50 * 3 + 1, 50), (40, 100, 3), (CHUNK + 1, 1, 1)]


@pytest.mark.parametrize("shape", BLOCK_SHAPES)
def test_arrays_spanning_several_blocks(tmp_path, shape):
    rng = np.random.default_rng(len(shape))
    a = rng.standard_normal(shape)
    flat = a.reshape(-1)
    flat[::97] = np.nan
    flat[5::89] = np.inf
    flat[7::101] = -np.inf
    flat[11::83] = -0.0
    flat[13::79] = 1e22
    payload = {"z": a, "list": [{"a": a}, a[:3]], "t": a.T, "b": np.broadcast_to(a[:1], a.shape)}
    assert_same_text(written(tmp_path, payload), reference_json(as_lists(payload)))


def test_empty_and_non_finite_block_edges(tmp_path):
    inf_block = np.full((CHUNK, 2), np.inf)
    payload = {"e": np.zeros((0, 3)), "f": np.empty(0), "inf": inf_block,
               "nan": np.full(CHUNK + 1, np.nan)}
    assert_same_text(written(tmp_path, payload), reference_json(as_lists(payload)))


def test_unknown_objects_are_still_refused(tmp_path):
    with pytest.raises(TypeError):
        write_json(str(tmp_path / "x.json"), {"a": object()})


# ===== CSV =====


def read_csv(path) -> str:
    return path.read_text(encoding="utf-8")


def test_csv_array_equals_format_value_rows(tmp_path):
    a = np.array(EDGE_VALUES + [np.nan, np.inf]).reshape(9, 2)
    write_csv(str(tmp_path / "a.csv"), "cmd", ["u", "v"], a)
    write_csv(str(tmp_path / "b.csv"), "cmd", ["u", "v"], a.tolist())
    assert read_csv(tmp_path / "a.csv") == read_csv(tmp_path / "b.csv")


def test_ensemble_rows_match_mixed_type_rows(tmp_path):
    path = simulate_slow_fast(linear(2), sde_cfg(N=1001, T=0.03))
    legacy = []
    for k, t in enumerate(path.times):
        for i in range(path.slow.shape[1]):
            legacy.append([float(t), i] + path.slow[k, i].tolist() + path.fast[k, i].tolist())
    cols = ["t", "particle", "x0", "x1", "z0", "z1"]
    rows = ensemble_rows(path)
    blocks = list(rows)
    assert all(len(b) <= CHUNK for b in blocks)
    assert len(rows) == len(legacy)
    assert np.concatenate(blocks).shape == (len(legacy), 6)
    write_csv(str(tmp_path / "a.csv"), "simulate", cols, rows)
    write_csv(str(tmp_path / "b.csv"), "simulate", cols, legacy)
    got = read_csv(tmp_path / "a.csv").splitlines()
    want = read_csv(tmp_path / "b.csv").splitlines()
    assert len(got) == len(want)
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not bad, (len(bad), got[bad[0]], want[bad[0]])
    assert got[-1].split(",")[1] == format_value(1000)


def test_frozen_rows_cover_every_time_and_particle():
    path = all_paths()["frozen"]
    rows = np.concatenate(list(frozen_rows(path)))
    steps, count = path.fast.shape[:2]
    assert rows.shape == (steps * count, 2 + path.fast.shape[2])
    assert np.array_equal(rows[:, 1], np.tile(np.arange(count), steps))
    assert np.array_equal(rows[:, 2:], path.fast.reshape(steps * count, -1))


# ===== consumers =====


def nonlinear_model(d):
    def b1(x, mu, z):
        return -x + np.sin(z) * mu.second_moment

    def b2(x, mu, z, nu):
        return -2.0 * z - z**3 + 0.5 * x + 0.1 * nu.mean

    eye = 0.7 * np.eye(d)
    return ModelSpec(
        n=d, m=d, l=d, x0=np.zeros(d), z0=np.full(d, 0.3),
        b1=b1, sigma1=lambda x, mu: eye, b2=b2,
        sigma2=lambda x, mu, z, nu: eye, h=lambda x, mu: np.tanh(x),
    )


@pytest.mark.parametrize("d,M", [(1, 37), (2, 37), (1, 300), (2, 300)])
def test_estimate_bbar_equals_per_step_loop(d, M):
    model = nonlinear_model(d)
    x = np.linspace(0.4, -0.3, d)
    mu = summarize_points(np.linspace(-1.0, 2.0, 6 * d).reshape(6, d))
    cfg = FrozenRunConfig(M=M, dt=0.02, burn_in=0.3, avg_window=3.0, seed=8)  # 151 window steps
    est = estimate_bbar(model, x, mu, cfg)

    path = simulate_frozen(model, x, mu, cfg)
    x_tiled = np.tile(x, (M, 1))
    start = int(round(cfg.burn_in / cfg.dt))
    series = np.stack(
        [np.mean(np.asarray(model.b1(x_tiled, mu, z)), axis=0) for z in path.fast[start:]]
    )
    want = [_mean_se_tau(series[:, j]) for j in range(d)]
    assert est.n_samples == series.shape[0]
    assert np.array_equal(est.value, [w[0] for w in want])
    assert np.array_equal(est.stderr, [w[1] for w in want])
    assert np.array_equal(est.tau_int, [w[2] for w in want])


def test_sup_path_error_equals_per_step_loop():
    model = linear(2)
    a, b = coupled_pair(model, analytic_drift(model), sde_cfg(N=13))
    worst = np.zeros(13)
    for xa, xb in zip(a.slow, b.slow):
        d = xa - xb
        np.maximum(worst, np.sqrt((d * d).sum(axis=1)), out=worst)
    assert np.array_equal(sup_path_error(a, b), worst)
    assert worst.max() > 0.0


def row_by_row(oracle, rows, mu):
    """The per-row cache walk the one-pass lookup replaces."""
    q = oracle.quant
    mu_key = tuple(int(v) for v in np.rint(mu.mean / q).astype(int))
    mu_key += (int(np.rint(mu.second_moment / q)),)
    out = np.empty_like(rows)
    for i, row in enumerate(rows):
        key = tuple(int(v) for v in np.rint(row / q).astype(int)) + mu_key
        if key in oracle._cache:
            oracle.stats["hits"] += 1
        else:
            oracle._cache[key] = oracle._estimate_cell(key)
            oracle.stats["misses"] += 1
        out[i] = oracle._cache[key]
    return out


def test_one_pass_oracle_matches_row_by_row(tmp_path):
    model = make_linear_model(LinearModelParams(), n=2, m=2, l=2, x0=[0.0, 0.0], z0=[0.0, 0.0])
    cfg = FrozenRunConfig(M=10, dt=0.05, burn_in=0.5, avg_window=1.0, seed=12)
    fast = make_drift_oracle(model, mode="estimated", frozen_cfg=cfg)
    slow = make_drift_oracle(model, mode="estimated", frozen_cfg=cfg)
    rng = np.random.default_rng(3)
    batches = [
        rng.integers(-3, 4, size=(40, 2)) * 0.05 + rng.uniform(-0.02, 0.02, size=(40, 2)),
        rng.normal(0.0, 0.3, size=(25, 2)),
    ]
    batches.append(np.concatenate([batches[0][:10], rng.normal(0.5, 0.1, size=(5, 2))]))
    mu = summarize_points(batches[0])
    for rows in batches:
        assert np.array_equal(fast(rows, mu), row_by_row(slow, rows, mu))
        assert fast.stats == slow.stats
    assert fast.stats["hits"] + fast.stats["misses"] == sum(len(b) for b in batches)
    assert fast.stats["hits"] >= 10  # batch 3 repeats ten rows of batch 1
    assert sorted(fast._cache) == sorted(slow._cache)
    assert all(type(v) is int for key in fast._cache for v in key)
    fast.save_cache(tmp_path / "a.json")
    slow.save_cache(tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_one_pass_oracle_single_row_and_empty_batch():
    model = linear(1)
    cfg = FrozenRunConfig(M=10, dt=0.05, burn_in=0.5, avg_window=1.0, seed=12)
    oracle = make_drift_oracle(model, mode="estimated", frozen_cfg=cfg)
    mu = dirac_summary([0.0])
    single = oracle(np.array([0.5]), mu)
    assert single.shape == (1,)
    assert np.array_equal(oracle(np.array([[0.5]]), mu)[0], single)
    assert oracle(np.zeros((0, 1)), mu).shape == (0, 1)
    assert oracle.stats == {"hits": 1, "misses": 1}


# ===== float text =====


def half_way_ties(rng) -> np.ndarray:
    """Exact 17-digit half-way ties: m * 5**j has 18 digits and ends in 5, so
    m / 2**j (exact, m < 2**53) lies half way between two 17-digit decimals."""
    ties = []
    for j in range(3, 26):
        lo, hi = -(-(10**17) // 5**j), min(10**18 // 5**j, 2**53)
        m = rng.integers(lo, hi, 400) | 1
        ties.append(np.ldexp(m[m < hi].astype(float), -j))
    return np.concatenate(ties)


def neighbours(bases: np.ndarray, count: int) -> np.ndarray:
    out = [bases]
    up, down = bases, bases
    for _ in range(count):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


@pytest.fixture(scope="module")
def kernel_values() -> np.ndarray:
    """Over 10**6 floats, shuffled: every case the kernel settles and every
    case it leaves to Python, with both edges of its fast range."""
    rng = np.random.default_rng(21)
    powers = neighbours(np.array([float(f"1e{k}") for k in range(-6, 18)]), 40)
    twos = neighbours(np.ldexp(1.0, np.arange(-30, 61)), 40)
    subnormal = rng.integers(1, 2**52, 2000, dtype=np.uint64).view(float)
    ties = half_way_ties(rng)
    rounded = [np.round(rng.standard_normal(20000) * 10.0 ** rng.integers(0, 6), d)
               for d in range(1, 7)]
    parts = [
        rng.integers(0, 2**64, 200000, dtype=np.uint64, endpoint=False).view(float),
        np.exp(rng.uniform(math.log(1e-6), math.log(1e18), 400000)),
        powers, twos, subnormal, ties,
        rng.integers(0, 2**53, 50000, endpoint=True).astype(float),
        np.arange(10000, dtype=float),
        np.arange(100000) * 0.01,
        *rounded,
        rng.standard_normal(150000),
        np.array([0.0, np.inf, np.nan, 5e-324, 2.0**-1022, 2.0**53 + 2, *EDGE_VALUES]),
    ]
    values = np.concatenate(parts)
    values.view(np.uint64)[rng.random(len(values)) < 0.5] ^= np.uint64(1 << 63)  # sign bit
    values = np.concatenate([values, -np.array(EDGE_VALUES)])
    values = values[rng.permutation(len(values))]
    assert len(values) > 10**6
    return values


def python_text(values: np.ndarray, shortest: bool) -> np.ndarray:
    """Python's text of each value: ``%.17g``, or the ``repr`` json.dumps
    writes (NaN, Infinity); one C-level formatting call for all of them."""
    if shortest:
        texts = json.dumps(values.tolist())[1:-1].split(", ")
    else:
        texts = ("%.17g," * len(values) % tuple(values.tolist())).split(",")[:-1]
    return np.array([t.encode("ascii") for t in texts], dtype="S24")


@pytest.mark.parametrize("shortest", [False, True])
def test_float_words_are_python_text(kernel_values, shortest):
    step = 1 << 17
    for start in range(0, len(kernel_values), step):
        values = kernel_values[start : start + step]
        out = np.empty((len(values), 3), np.uint64)
        _float_words(values, shortest, out)
        got = out.view("S24").reshape(-1)
        want = python_text(values, shortest)
        bad = np.flatnonzero(got != want)
        assert not bad.size, [(repr(values[i]), got[i], want[i]) for i in bad[:5]]
    assert python_text(np.array([1e-4, np.nan, -np.inf]), True).tolist() == [
        b"0.0001", b"NaN", b"-Infinity"]


NUMBER = re.compile(r"NaN|-?Infinity|[-0-9.eE+]+")


@pytest.mark.parametrize("rows", [CHUNK - 1, CHUNK, CHUNK + 1])
def test_writers_are_python_text_on_kernel_values(tmp_path, kernel_values, rows):
    # a third of the values in each table, so every value is written once
    part = np.array_split(kernel_values, 3)[rows - CHUNK + 1]
    table = part[: len(part) // rows * rows].reshape(rows, -1)
    cols = [f"c{j}" for j in range(table.shape[1])]
    write_csv(str(tmp_path / "k.csv"), "cmd", cols, table)
    assert_same_text(read_csv(tmp_path / "k.csv"), reference_csv("cmd", cols, table))
    # json.dumps with indent runs its pure-Python encoder, too slow for this
    # many values: the numbers are compared with its C encoder's, and the
    # layout on the first rows with indent itself
    text = written(tmp_path, {"k": table})
    assert NUMBER.findall(text) == json.dumps(table.ravel().tolist())[1:-1].split(", ")
    payload = {"k": table[:3], "t": table[:3, :5, None]}
    assert_same_text(written(tmp_path, payload), reference_json(as_lists(payload)))


# ===== streaming =====


def few_distinct_table(rows: int) -> np.ndarray:
    """Columns: a few distinct values (signed zeros, NaN, infinities), a
    time-like column, edge values among normals, and a particle-like index."""
    pool = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, 2.0])
    rng = np.random.default_rng(rows)
    mixed = rng.standard_normal(rows)
    edges = [5e-324, 1e16, 1e22, 3.0, -0.0, np.nan, np.inf, -123456789.0]
    mixed[: len(edges)] = edges[:rows]
    mixed[len(edges) :: 37] = 4.0
    return np.column_stack([
        pool[np.arange(rows) % len(pool)],
        np.repeat(np.arange(rows // 1000 + 1) * 0.01, 1000)[:rows],
        mixed,
        np.arange(rows, dtype=float) % 1000,
    ])


def reference_csv(command, columns, table) -> str:
    lines = [f"# {SCHEMA_VERSION} {command}", ",".join(columns)]
    lines += [",".join(format(v, ".17g") for v in row) for row in table.tolist()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rows", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_csv_blocks_equal_per_value_text(tmp_path, rows):
    table = few_distinct_table(rows)
    cols = ["a", "t", "x", "particle"]
    write_csv(str(tmp_path / "a.csv"), "simulate", cols, table)
    assert_same_text(read_csv(tmp_path / "a.csv"), reference_csv("simulate", cols, table))
    for j in range(4):
        column = table[:, j : j + 1]
        write_csv(str(tmp_path / "b.csv"), "cmd", ["v"], column)
        assert_same_text(read_csv(tmp_path / "b.csv"), reference_csv("cmd", ["v"], column))


def test_chunks_are_written_in_order_as_utf8(tmp_path):
    target = tmp_path / "c.txt"
    atomic_write_chunks(str(target), iter(["a,", b"b\n", "\u00b5", b""]))
    assert target.read_bytes() == "a,b\n\u00b5".encode("utf-8")


def test_failing_stream_leaves_target_untouched(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old contents\n", encoding="utf-8")

    def chunks():
        yield "new,"
        yield b"partial\n"
        raise RuntimeError("stream broke")

    with pytest.raises(RuntimeError, match="stream broke"):
        atomic_write_chunks(str(target), chunks())

    def rows():
        yield [1.0, 2]
        raise ValueError("row broke")

    with pytest.raises(ValueError, match="row broke"):
        write_csv(str(target), "cmd", ["a", "b"], rows())
    assert target.read_text(encoding="utf-8") == "old contents\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def writer_peak(write, *args) -> int:
    tracemalloc.start()
    try:
        write(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["csv", "json"])
def test_writer_memory_does_not_grow_with_rows(tmp_path, kind):
    rows = 100_000
    peaks = []
    for count in (rows, 2 * rows):
        table = few_distinct_table(count)
        path = str(tmp_path / f"{count}.{kind}")
        if kind == "csv":
            peaks.append(writer_peak(write_csv, path, "simulate", ["a", "t", "x", "p"], table))
        else:
            payload = {"t": table[:, 1], "x": table[:, 2].reshape(count // 1000, 1000, 1)}
            peaks.append(writer_peak(write_json, path, payload))
    assert peaks[1] < 1.25 * peaks[0], peaks


@pytest.mark.parametrize(
    "rows,cols",
    [(ensemble_rows, ["t", "particle", "x0", "x1", "z0", "z1"]),
     (frozen_rows, ["t", "particle", "z0", "z1"])],
)
def test_long_form_rows_are_written_in_bounded_memory(tmp_path, rows, cols):
    # the long-form table is built a block at a time, never whole
    rng = np.random.default_rng(3)
    peaks = []
    for steps in (40, 80):
        slow, fast = rng.standard_normal((2, steps + 1, 1000, 2))
        path = PathEnsemble(times=np.arange(steps + 1) * 0.01, slow=slow, fast=fast)
        target = tmp_path / f"{steps}.csv"

        def write():
            write_csv(str(target), "simulate", cols, rows(path))

        peaks.append(writer_peak(write))
        with open(target, encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == 2 + (steps + 1) * 1000
    assert peaks[1] < 1.25 * peaks[0], peaks
