"""Reproducible random-number streams.

A single master seed expands into independent named substreams through
labeled hashing: each label (strings and integers, e.g. ("signal", "slow",
particle, component)) is hashed to entropy words that extend the master
seed's SeedSequence. The counter-based Philox generator sits underneath,
so streams are statistically independent, cheap to create, and stable:
adding particles, changing thread counts, or reordering work never
perturbs an existing stream.

``stream``, ``seed_sequence`` and ``derive_seed`` are the scalar reference.
``normal_increments`` draws the same numbers for a whole block without
building a SeedSequence or a Philox per stream: it derives every stream's
Philox key in one vectorised pass of numpy's SeedSequence entropy mix
(documented as stable), mixing each entropy word into all four pool words
at once, and re-keys a single generator per stream through a state dict of
plain Python ints. Each stream is drawn into one contiguous row of a
bounded block of rows, and the block's transpose is written into the
result. The stream layout is unchanged; each (particle, component) stream
is the one ``stream(seed, label, particle, component)`` returns.

A block is a pure function of its arguments, so it may come from elsewhere:
during a sweep with more than one thread, a helper process draws the next
job's blocks ahead (``ahead``), straight into buffers it shares with this
process, and ``normal_increments`` returns views of them; every other call
draws here.

A long block need not be held whole. Every run that steps through a block
reads it through one reader, ``_increment_groups``, a group of rows at a
time: the simulators and the filter their fast blocks, a group being one
macro step's substep rows, and the frozen run its block, one row a group
(an estimated drift oracle draws the block whole once and hands it to each
of its cells' frozen runs instead). Behind the reader a block is drawn in
chunks of whole groups. **The chunk rule:** a block of ``steps`` rows
splits into ``max(1, min(groups, steps // 512))`` chunks, as equal as the
groups allow, so a chunk holds fewer than about 1024 draws per stream, or a
single group when one group is larger than that. Its size depends on the
number of streams but not on the run length. Between chunks each stream's
Philox state is kept and resumed, so the chunks are byte for byte the slices
of the whole block: the stream layout does not change. A block of one chunk
is a plain ``normal_increments`` call, and a longer one that the helper has
drawn ahead is read from the helper's whole block.

A run reads each row once, in order. **A caller must not read rows it has
stepped past:** where the helper drew the block, their whole pages are freed
behind the run, and they may read as zeros.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from typing import Callable, Optional

import numpy as np
# numpy 2 loads numpy.random lazily; load it here, not inside the first noise draw
import numpy.random  # noqa: F401

from .errors import InvalidParams

# 64-bit mask; SeedSequence entropy words are arbitrary-size ints but we
# keep everything inside u64 so digests serialize predictably.
_U64 = (1 << 64) - 1
_U32 = (1 << 32) - 1

# Streams per row block of normal_increments. Bounded, so the block buffer
# stays small next to the result however many streams one call draws.
_ROW_BLOCK = 256

# A block splits into steps // _CHUNK_ROWS chunks at most (the chunk rule of
# the module docstring).
_CHUNK_ROWS = 512

# A run hands back the rows it has stepped past in a block drawn ahead this
# many bytes at a time: about 50 releases for a 6.4 MB block.
_RELEASE_BYTES = 1 << 17

# One stream's Philox state while it waits between chunks: 77 bytes, where the
# dict that ``bitgen.state`` returns takes about 900.
_PHILOX_STATE = np.dtype([
    ("counter", np.uint64, 4), ("buffer", np.uint64, 4), ("buffer_pos", np.int64),
    ("has_uint32", np.int8), ("uinteger", np.uint32),
])

# numpy's SeedSequence hash mix (numpy/random/bit_generator.pyx). The pool
# holds four uint32 words; the hash constant advances once per hashmix call,
# so it depends only on a word's position in the entropy, never on its value.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _label_digest(label) -> bytes:
    if isinstance(label, (int, np.integer)):
        payload = b"i:" + int(label).to_bytes(16, "little", signed=True)
    elif isinstance(label, str):
        payload = b"s:" + label.encode("utf-8")
    else:
        raise TypeError(f"stream labels must be str or int, got {type(label).__name__}")
    return hashlib.sha256(payload).digest()


def _label_words(label) -> list[int]:
    digest = _label_digest(label)
    return [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]


def seed_sequence(master_seed: int, *labels) -> np.random.SeedSequence:
    entropy = [int(master_seed) & _U64]
    for lab in labels:
        entropy.extend(_label_words(lab))
    return np.random.SeedSequence(entropy)


def stream(master_seed: int, *labels) -> np.random.Generator:
    """Independent generator for (master_seed, labels)."""
    return np.random.Generator(np.random.Philox(seed_sequence(master_seed, *labels)))


def derive_seed(master_seed: int, *labels) -> int:
    """Collapse a labeled substream to a plain u64 seed for APIs that take one."""
    return int(seed_sequence(master_seed, *labels).generate_state(1, np.uint64)[0])


# ----- vectorised SeedSequence -> Philox key derivation -----


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k < count: the k-th hash call xors with
    entry k and multiplies by entry k + 1."""
    out = np.empty(count, dtype=np.uint32)
    value = init
    for k in range(count):
        out[k] = value
        value = (value * mult) & _U32
    return out


def _hashmix(value: np.ndarray, consts: np.ndarray, k: int) -> np.ndarray:
    value = (value ^ consts[k]) * consts[k + 1]
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _mix_pool(columns: list) -> np.ndarray:
    """SeedSequence's entropy pool for uint32 entropy given as columns.

    Column c holds word c of every row; a column of shape (1,) is shared by
    all rows, so a common entropy prefix is mixed once and broadcast when the
    first per-row word arrives. Returns the four pool words as the rows of a
    (4, rows) array, or (4, 1) when every column is shared.
    """
    calls = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(len(columns) - _POOL_SIZE, 0)
    consts = _hash_constants(_INIT_A, _MULT_A, calls + 1)
    zero = np.zeros(1, dtype=np.uint32)
    pool = [
        _hashmix(columns[i] if i < len(columns) else zero, consts, i) for i in range(_POOL_SIZE)
    ]
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts, k))
                k += 1
    # Each later word enters pool word dst through hash call k + dst, and each
    # pool word depends only on its own history, so the four updates of one
    # word run as one (4, rows) array.
    pool = np.stack(pool)
    xors, mults = consts[:-1, None], consts[1:, None]
    for word in columns[_POOL_SIZE:]:
        value = (word ^ xors[k : k + _POOL_SIZE]) * mults[k : k + _POOL_SIZE]
        pool = _mix(pool, value ^ (value >> _XSHIFT))
        k += _POOL_SIZE
    return pool


def _pool_keys(pool: np.ndarray) -> np.ndarray:
    """generate_state(2, uint64) of each row's pool, as (rows, 2) uint64."""
    consts = _hash_constants(_INIT_B, _MULT_B, _POOL_SIZE + 1)
    words = [_hashmix(pool[d], consts, d).astype(np.uint64) for d in range(_POOL_SIZE)]
    shift = np.uint64(32)
    return np.stack([words[0] | (words[1] << shift), words[2] | (words[3] << shift)], axis=-1)


def _uint32_words(rows: np.ndarray) -> tuple:
    """SeedSequence's uint32 form of (R, K) u64 entropy rows: each word's low
    half, then its high half only when that is nonzero. Returns the (R, 2K)
    halves and the mask of the ones kept."""
    shape = (rows.shape[0], 2 * rows.shape[1])
    low, high = rows & np.uint64(_U32), rows >> np.uint64(32)
    halves = np.stack([low, high], axis=-1).astype(np.uint32).reshape(shape)
    keep = np.stack([np.ones_like(high, dtype=bool), high != 0], axis=-1).reshape(shape)
    return halves, keep


def _philox_keys(prefix, rows: np.ndarray) -> np.ndarray:
    """Philox key of SeedSequence(prefix + row) for every row, as (rows, 2) uint64.

    ``prefix`` is a sequence of u64 entropy ints shared by all rows and ``rows``
    a (R, K) uint64 array. Equals ``SeedSequence(entropy).generate_state(2,
    np.uint64)`` row by row, including rows whose u64 words have a zero high
    half and so enter the pool as one uint32 word: rows are grouped by their
    uint32 length and each group is mixed on its own.
    """
    words, keep = _uint32_words(np.array(prefix, dtype=np.uint64).reshape(1, -1))
    shared = list(words[keep][:, None])
    halves, keep = _uint32_words(rows)
    lengths = keep.sum(axis=1)
    keys = np.empty((len(rows), 2), dtype=np.uint64)
    for length in np.unique(lengths):
        sel = lengths == length
        group = halves[sel][keep[sel]].reshape(np.count_nonzero(sel), length).T.copy()
        keys[sel] = _pool_keys(_mix_pool(shared + list(group)))
    return keys


# Per-index label words, (n, 4) u64: row i holds _label_words(i), a pure
# function of i, so sharing the table cannot change a result. Grown on demand
# to the largest ensemble seen; a racing grow only repeats work.
_INDEX_WORDS = np.zeros((0, 4), dtype=np.uint64)


def _index_words(n: int) -> np.ndarray:
    global _INDEX_WORDS
    table = _INDEX_WORDS
    if table.shape[0] < n:
        digests = b"".join(_label_digest(i) for i in range(table.shape[0], n))
        table = np.concatenate([table, np.frombuffer(digests, dtype="<u8").reshape(-1, 4)])
        _INDEX_WORDS = table
    return table[:n]


# While a sweep's helper process draws blocks ahead (see ``ahead``), this is
# called with a draw's arguments and returns that block, or None to draw it
# here. A block is a pure function of its arguments, so either way the bytes
# are the same. Its ``release(block, nbytes)``, where it has one, is told how
# far a run has read a block it is served once (``_increment_groups``).
_drawn_ahead: Optional[Callable[[tuple], Optional[np.ndarray]]] = None


def _checked_scale(scale) -> float:
    """``scale`` as a float; a negative one (sign bit set, -0.0 included)
    raises InvalidParams."""
    scale = float(scale)
    if math.copysign(1.0, scale) < 0.0 and not math.isnan(scale):
        raise InvalidParams(f"noise scale must be >= 0, got {scale!r}")
    return scale


def normal_increments(
    master_seed: int,
    label: str,
    steps: int,
    count: int,
    dims: int,
    scale: float,
) -> np.ndarray:
    """Gaussian increment block of shape (steps, count, dims), sd = scale.

    One stream per (particle, component) under the given label; particle i's
    draws are a fixed function of (seed, label, i, j) alone, so growing the
    ensemble leaves earlier particles' noise untouched. Column (i, j) equals
    ``stream(master_seed, label, i, j).normal(0, scale, steps)`` byte for byte.
    A negative scale (sign bit set, -0.0 included) raises InvalidParams.
    """
    scale = _checked_scale(scale)
    source = _drawn_ahead
    if source is not None:
        block = source((master_seed, label, steps, count, dims, scale))
        if block is not None:
            return block
    return _draw_block(master_seed, label, steps, count, dims, scale)


def _chunk_bounds(steps: int, group: int) -> list:
    """Row bounds of the chunks of a block of ``steps`` rows in groups of
    ``group`` rows (the last group may be short), by the chunk rule of the
    module docstring: ``[0, end of chunk 0, ..., steps]``."""
    groups = -(-steps // group)
    chunks = max(1, min(groups, steps // _CHUNK_ROWS))
    size, extra = divmod(groups, chunks)
    bounds = [0]
    for c in range(chunks):
        bounds.append(min(steps, bounds[-1] + (size + (c < extra)) * group))
    return bounds


def _increment_groups(
    master_seed: int,
    label: str,
    steps: int,
    count: int,
    dims: int,
    scale: float,
    group: int,
):
    """An iterator over the block ``normal_increments`` returns for the first
    six arguments, one group of ``group`` rows at a time: (group, count, dims)
    views, each valid until the next is taken (``steps`` is a whole number of
    groups).

    A block of one chunk (the chunk rule of the module docstring) is that
    ``normal_increments`` call, made here and not at the first ``next``, so
    that a run allocates its noise before its path arrays, which keeps its
    peak memory where it was. A longer one is read from the block drawn ahead
    when the helper has it, and otherwise drawn a chunk at a time into one
    buffer that each chunk overwrites.

    The block is read once, front to back. Where the helper drew it, the rows
    stepped past are handed back (``release``) each time another
    ``_RELEASE_BYTES`` of them have built up, and their whole pages are freed.
    """
    scale = _checked_scale(scale)
    args = (master_seed, label, steps, count, dims, scale)
    bounds = _chunk_bounds(steps, group)
    source = _drawn_ahead
    if len(bounds) == 2:
        block = normal_increments(*args)
    else:
        block = None if source is None else source(args)
    if block is None:
        chunks = _draw_chunks(master_seed, label, count, dims, scale, bounds)
        return itertools.chain.from_iterable(c.reshape(-1, group, count, dims) for c in chunks)
    return _read_once(block, group, getattr(source, "release", None))


def _read_once(block: np.ndarray, group: int, release):
    """Yield ``block`` ``group`` rows at a time, calling ``release(block,
    nbytes)`` with the bytes stepped past whenever ``_RELEASE_BYTES`` more of
    them have built up since the last call."""
    freed = 0
    for k, rows in enumerate(block.reshape(-1, group, *block.shape[1:])):
        behind = k * rows.nbytes
        if release is not None and behind - freed >= _RELEASE_BYTES:
            release(block, behind)
            freed = behind
        yield rows


def _draw_block(
    master_seed: int,
    label: str,
    steps: int,
    count: int,
    dims: int,
    scale: float,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The block :func:`normal_increments` returns, drawn in this process as
    one chunk; ``scale`` must already be a float >= 0. Drawn into ``out``, a
    C-contiguous (steps, count, dims) float64 array, when one is given."""
    if out is None:
        out = np.empty((steps, count, dims), dtype=np.float64)
    (_,) = _draw_chunks(master_seed, label, count, dims, scale, [0, steps], out)
    return out


def _draw_chunks(
    master_seed: int,
    label: str,
    count: int,
    dims: int,
    scale: float,
    bounds: list,
    out: Optional[np.ndarray] = None,
):
    """Draw the block whose chunks end at ``bounds[1:]`` chunk by chunk, into
    ``out`` (C-contiguous float64 with ``count * dims`` values per row and
    room for the longest chunk, allocated when not given), and yield each
    chunk as a (rows, count, dims) view of it.

    Each stream is drawn into one contiguous row of a bounded block of rows,
    and the block's transpose is written into the chunk. Between chunks, each
    stream's Philox state waits in one compact array, from which the stream
    resumes exactly where it stopped.
    """
    total = count * dims
    longest = max(end - start for start, end in zip(bounds, bounds[1:]))
    if out is None:
        out = np.empty((longest, count, dims), dtype=np.float64)
    words = _index_words(max(count, dims))
    rows = np.concatenate(
        [np.repeat(words[:count], dims, axis=0), np.tile(words[:dims], (count, 1))], axis=1
    )
    keys = _philox_keys([int(master_seed) & _U64, *_label_words(label)], rows)
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    # A fresh Philox state: counter 0, empty buffer. In the first chunk only
    # the key changes. The setter reads the state word by word, which is
    # cheaper from Python ints than from uint64 arrays.
    state = bitgen.state
    state["state"]["counter"] = state["state"]["counter"].tolist()
    state["buffer"] = state["buffer"].tolist()
    inner = state["state"]
    waiting = np.empty(total if len(bounds) > 2 else 0, dtype=_PHILOX_STATE)
    block = np.empty((min(_ROW_BLOCK, total), longest), dtype=np.float64)
    last = len(bounds) - 2
    for c, (start, end) in enumerate(zip(bounds, bounds[1:])):
        chunk = out[: end - start]
        flat = chunk.reshape(end - start, total)
        for r0 in range(0, total, _ROW_BLOCK):
            r1 = min(r0 + _ROW_BLOCK, total)
            part = block[: r1 - r0, : end - start]
            if c:
                resume = zip(*(waiting[name][r0:r1].tolist() for name in _PHILOX_STATE.names))
            kept = []
            for key, row in zip(keys[r0:r1].tolist(), part):
                inner["key"] = key
                if c:
                    (inner["counter"], state["buffer"], state["buffer_pos"],
                     state["has_uint32"], state["uinteger"]) = next(resume)
                bitgen.state = state
                gen.standard_normal(out=row)
                if c < last:
                    kept.append(bitgen.state)
            if kept:
                waiting[r0:r1] = [
                    (k["state"]["counter"], k["buffer"], k["buffer_pos"], k["has_uint32"],
                     k["uinteger"])
                    for k in kept
                ]
            flat[:, r0:r1] = part.T
        # Generator.normal(0, scale) returns 0.0 + scale * z: the same bytes,
        # -0.0 included, as scaling once and then adding 0.0.
        flat *= scale
        flat += 0.0
        yield chunk
