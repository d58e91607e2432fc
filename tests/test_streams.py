"""Noise-stream tests.

Oracles: the scalar reference ``stream(seed, label, i, j)`` (one SeedSequence
and one Philox per stream) for the batched block, and numpy's own
``SeedSequence(entropy).generate_state(2, uint64)`` for the vectorised key
mixer.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from mvx_avgfilter import filtering, sde, streams
from mvx_avgfilter.averaging import make_drift_oracle
from mvx_avgfilter.errors import InvalidParams
from mvx_avgfilter.experiments import SweepConfig, filter_error_sweep
from mvx_avgfilter.filtering import FILTER_SLOW_LABEL, FilterConfig
from mvx_avgfilter.model import LinearModelParams, make_linear_model
from mvx_avgfilter.sde import SLOW_LABEL, SdeConfig
from mvx_avgfilter.streams import normal_increments, stream

U64_MAX = (1 << 64) - 1


def scalar_block(seed, label, steps, count, dims, scale):
    out = np.empty((steps, count, dims))
    for i in range(count):
        for j in range(dims):
            out[:, i, j] = stream(seed, label, i, j).normal(0.0, scale, size=steps)
    return out


# ===== batched block against the scalar reference =====


@pytest.mark.parametrize("seed", [0, 7, U64_MAX, -1, 1 << 40])
@pytest.mark.parametrize("dims", [1, 3])
@pytest.mark.parametrize(
    "count,steps", [(1, 1), (1, 9), (6, 1), (6, 9), (streams._ROW_BLOCK + 3, 5)]
)
def test_normal_increments_byte_equal_to_scalar_streams(seed, dims, count, steps):
    # the last count crosses the kernel's row-block edge at both widths
    got = normal_increments(seed, "signal-fast", steps, count, dims, 0.37)
    want = scalar_block(seed, "signal-fast", steps, count, dims, 0.37)
    assert got.shape == (steps, count, dims)
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scale", [-1.0, -0.0])
def test_normal_increments_refuses_negative_scale(scale):
    with pytest.raises(InvalidParams, match="scale"):
        normal_increments(3, "frozen", 4, 2, 1, scale)


def test_normal_increments_empty_block():
    assert normal_increments(3, "frozen", 5, 0, 2, 1.0).shape == (5, 0, 2)
    assert normal_increments(3, "frozen", 0, 4, 1, 1.0).shape == (0, 4, 1)


# ===== vectorised key mixer against numpy's SeedSequence =====


def seed_sequence_keys(prefix, rows):
    return np.stack(
        [
            np.random.SeedSequence(list(prefix) + [int(w) for w in row]).generate_state(
                2, np.uint64
            )
            for row in rows
        ]
    )


def random_words(rng, shape):
    return rng.integers(0, 1 << 63, size=shape, dtype=np.uint64) * np.uint64(2) + np.uint64(1)


# Each random word has a nonzero high half, so a row of `width` u64 words is
# 2 * width uint32 words: fewer than the pool's 4, exactly 4, and many.
@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 13, 40])
def test_key_mixer_matches_seed_sequence(width):
    rows = random_words(np.random.default_rng(width), (5, width))
    assert np.array_equal(streams._philox_keys([], rows), seed_sequence_keys([], rows))


def test_key_mixer_short_words_are_one_uint32_word():
    # High half zero: SeedSequence takes these as one uint32 word, not two,
    # so the rows below have three different uint32 lengths in one call.
    rows = random_words(np.random.default_rng(5), (6, 4))
    rows[1, 2] = 0xDEADBEEF
    rows[2, 0] = 0
    rows[3, [1, 3]] = [1, 0xFFFFFFFF]
    rows[4, :] = [7, 0, 1 << 32, 3]
    lengths = {int((rows[r] >> np.uint64(32) != 0).sum()) for r in range(len(rows))}
    assert len(lengths) >= 3
    for prefix in ([], [9], [U64_MAX, 5, 1 << 33]):
        assert np.array_equal(
            streams._philox_keys(prefix, rows), seed_sequence_keys(prefix, rows)
        )


def test_key_mixer_entropy_shorter_than_the_pool():
    for prefix, width in (([], 1), ([3], 0), ([3], 1), ([0xFFFF], 2)):
        rows = random_words(np.random.default_rng(width), (3, width))
        rows[0, :] = 11
        assert np.array_equal(
            streams._philox_keys(prefix, rows), seed_sequence_keys(prefix, rows)
        )


def test_key_mixer_matches_stream_keys():
    label_words = streams._label_words("signal-slow")
    rows = np.array([streams._label_words(4) + streams._label_words(2)], dtype=np.uint64)
    key = streams._philox_keys([21, *label_words], rows)[0]
    ref = stream(21, "signal-slow", 4, 2).bit_generator.state["state"]["key"]
    assert np.array_equal(key, ref)


# ===== shared blocks are drawn once =====


def counting(monkeypatch, module, calls):
    original = module.normal_increments

    def wrapper(master_seed, label, *args):
        calls.append(label)
        return original(master_seed, label, *args)

    monkeypatch.setattr(module, "normal_increments", wrapper)


def ref_model():
    return make_linear_model(LinearModelParams(), n=1, m=1, l=1, x0=[1.0], z0=[1.0])


def test_coupled_pair_draws_the_slow_block_once(monkeypatch):
    model = ref_model()
    cfg = SdeConfig(epsilon=0.1, T=0.2, dt_macro=0.02, micro_substeps=2, N=12, seed=5)
    drift = make_drift_oracle(model, mode="analytic-linear")
    fast_ref = sde.simulate_slow_fast(model, cfg)
    avg_ref = sde.simulate_averaged(model, drift, cfg)
    calls = []
    counting(monkeypatch, sde, calls)
    slow_fast, averaged = sde.coupled_pair(model, drift, cfg)
    assert calls.count(SLOW_LABEL) == 1
    for a, b in ((slow_fast.slow, fast_ref.slow), (slow_fast.fast, fast_ref.fast),
                 (averaged.slow, avg_ref.slow)):
        assert a.tobytes() == b.tobytes()


def test_filter_sweep_draws_the_filter_slow_block_once_per_job(monkeypatch):
    model = ref_model()
    sweep = SweepConfig(
        eps_grid=(0.1,),
        mc_reps=4,
        base_sde=SdeConfig(epsilon=0.1, T=0.1, dt_macro=0.01, N=20, seed=3),
        p_orders=(1,),
        filter_cfg=FilterConfig(Nf=30, resample_threshold=0.5, functional="tanh", p=1),
    )
    drift = make_drift_oracle(model, mode="analytic-linear")
    calls = []
    counting(monkeypatch, filtering, calls)
    report = filter_error_sweep(model, drift, "tanh", sweep)
    assert calls.count(FILTER_SLOW_LABEL) == sweep.mc_reps
    assert all(math.isfinite(r.mean_error) for r in report.rows)
