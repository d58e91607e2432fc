"""Deterministic CSV and JSON writers.

Every file is written atomically (temp file in the target directory, then
rename), and row order is fixed by the data structures themselves.  CSV
floats are ``format(v, ".17g")``: 17 significant digits with trailing zeros
dropped.  JSON floats are the shortest round-trip ``repr`` that
``json.dumps`` writes.  Both parse back bit for bit, and identical inputs
produce byte-identical files.

Particle paths stay float arrays until their text is built: a CSV table is
one ``(rows, cols)`` array or, for the long-form path tables, a
:class:`_LongRows` that builds its float blocks from the path arrays one at
a time; JSON payloads may hold float arrays, which are written exactly as
``json.dumps`` writes the equal nested lists.  Both are streamed in blocks
of about :data:`CHUNK` rows or values, so memory while writing does not grow
with the size of the table: no long-form table is ever held whole.  The
text of a row does not depend on the block it falls in, so neither do the
file's bytes.

The float text of a block comes from one numpy kernel, :func:`_float_words`,
with no per-value Python call on the common path.  For a normal value whose
decimal exponent k lies in [-4, 15], which both formats print in fixed
notation, it forms ``M * 5**(16 - k)`` exactly from the 53-bit mantissa as
two 64-bit words and shifts it to the 17-digit integer and its remainder.
``%.17g`` rounds that half-even.  ``repr`` keeps the nearest 16- or 15-digit
candidate that lies in the value's rounding interval, else the 17-digit
one; a 15-digit candidate there is the only one and the shortest form,
whatever its length.  The digits are laid out four at a time from a lookup
table, with the trailing zeros of the fraction dropped.  Every other value
is formatted by Python itself (``format(v, ".17g")``, ``repr``, or
``json.dumps`` for the non-finite ones) and spliced into the same block:
zeros, subnormals, non-finite values, magnitudes outside [1e-4, 1e16) and
exact ties.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import os
import re
import tempfile
from typing import Iterable, List, Sequence, Union

import numpy as np

from . import SCHEMA_VERSION

CHUNK = 8192
"""Rows per CSV block; a JSON array block holds about this many values."""


def format_float(x: float) -> str:
    """``%.17g``: 17 significant digits, trailing zeros dropped; round-trips."""
    return format(float(x), ".17g")


def format_value(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format_float(v)
    return str(v)


def atomic_write_chunks(path: str, chunks: Iterable[Union[str, bytes]]) -> None:
    """Write ``chunks`` (text as UTF-8) to a temp file, then rename it to ``path``.

    If anything raises, the temp file is removed and ``path`` is untouched.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str, data: bytes) -> None:
    """:func:`atomic_write_chunks` of one bytes object.

    Nothing in the package calls it.  It stays because ``perfbench/tracer.py``
    wraps it by name; it can go once the benchmark counts written bytes
    another way.
    """
    atomic_write_chunks(path, (data,))


# ----- float text -----

_U64 = np.uint64
_MANTISSA = (1 << 52) - 1


def _text_words(texts: Sequence[str], words: int) -> np.ndarray:
    """ASCII ``texts`` as rows of ``words`` uint64, zero-padded."""
    raw = b"".join(t.encode("ascii").ljust(8 * words, b"\0") for t in texts)
    return np.frombuffer(raw, _U64).reshape(len(texts), words)


@functools.lru_cache(maxsize=None)
def _float_tables():
    """The kernel's lookup tables, built on first use, so that a run that
    writes no paths never builds them (their numpy calls also page in code
    the run would not otherwise touch).

    - ``pow10[i]``: the double nearest ``10**(i - 4)``, i = 0..20;
    - ``pow5[q]``: ``5**q``, q = 0..20;
    - ``ascii4[g]``: ASCII of the four digits of g = 0000..9999, first digit
      in the lowest byte; ``zeros4[g]``: its trailing zero digits (4 for 0);
    - ``low_bytes[:, b]``: three words with their lowest b bytes set;
    - per layout row ``2 * (k + 4) + negative`` of fixed notation: ``keep``,
      the digit bytes ahead of the point; ``shifts``, the bit shifts of the
      digits ahead of and after the point; ``marks``, the bytes that are not
      digits (sign, point, and "0." and the leading zeros of k < 0).
    """
    pow10 = np.array([float(f"1e{i - 4}") for i in range(21)])
    pow5 = np.array([5**q for q in range(21)], dtype=_U64)
    group = np.arange(10000)
    ascii4 = sum((group // 10 ** (3 - j) % 10 + ord("0")) << 8 * j for j in range(4))
    zeros4 = sum(group % 10**j == 0 for j in range(1, 5)).astype(np.int8)
    low_bytes = np.array([[(1 << 8 * min(max(b - 8 * w, 0), 8)) - 1 for b in range(25)]
                          for w in range(3)], dtype=_U64)
    layouts = [(k, sign) for k in range(-4, 16) for sign in (0, 8)]
    keep = low_bytes[:2, [max(k + 1, 0) for k, _ in layouts]]
    shifts = np.array([[sign for k, sign in layouts],
                       [sign + 8 * max(1 - k, 1) for k, sign in layouts]], dtype=_U64)
    marks = [("-" if sign else "") + ("0." + "0" * (-k - 1) if k < 0 else "\0" * (k + 1) + ".")
             for k, sign in layouts]
    marks = _text_words(marks, 3).T.copy()
    return pow10, pow5, ascii4, zeros4, low_bytes, keep, shifts, marks


def _nearest(d, r, right, bound, step: int):
    """The multiple of ``step`` nearest the value ``d + r / 2**right``,
    whether it lies in the rounding interval (twice the distance at most
    ``bound``, in units of ``2**-right``), and whether it is a tie."""
    below = d - d // step * step
    twice = ((below << right) + r) << 1
    span = _U64(step) << right
    inside = np.minimum(twice, (span << 1) - twice) <= bound
    return inside, d - below + (twice > span) * _U64(step), twice == span


def _float_words(values: np.ndarray, shortest: bool, out: np.ndarray) -> None:
    """Write the text of each value of the contiguous 1-D float64 array
    ``values`` into columns 0-2 of the uint64 array ``out``: ASCII from the
    lowest byte up, padded with zero bytes.  ``shortest`` writes what
    ``json.dumps`` writes, else ``%.17g``."""
    pow10, pow5, ascii4, zeros4, low_bytes, keep, shifts, marks = _float_tables()
    bits = values.view(_U64)
    exponent = ((bits >> 52) & 0x7FF).view(np.int64)
    # floor(log10(2) * (exponent - 1023)), then one step up where 10**(k+1) <= |v|
    k = ((exponent - 1023) * 78913) >> 18
    k += np.abs(values) >= pow10.take(k + 5, mode="clip")
    fast = (k >= -4) & (k <= 15)
    q = 16 - k
    # M * 5**q as hi:lo; the value times 10**q is (hi:lo) * 2**s
    mant = (bits & _MANTISSA) | (1 << 52)
    five = pow5.take(q, mode="clip")
    s = exponent + (q - 1075)
    right = np.maximum(-s, 0).view(_U64)
    left = np.maximum(s, 0).view(_U64)
    m_lo, m_hi = mant & 0xFFFFFFFF, mant >> 32
    f_lo, f_hi = five & 0xFFFFFFFF, five >> 32
    cross = m_hi * f_lo + m_lo * f_hi
    low = m_lo * f_lo
    lo = low + (cross << 32)
    hi = m_hi * f_hi + (cross >> 32) + (lo < low)
    # the 17-digit integer d, the remainder r of 2**right, rounded half-even
    d = ((lo >> right) | (hi << (64 - right))) << left
    unit = _U64(1) << right
    r = lo & (unit - 1)
    half = unit >> 1
    tie = (r == half) & (half != 0)
    digits = d + (r > half)
    if shortest:
        # The nearest 16-, then 15-digit candidate in the rounding interval
        # (half an ulp each side) replaces the 17-digit one.  The interval is
        # narrower than the 15-digit spacing, so a 15-digit candidate in it is
        # the only one and is the shortest form, however many digits it has.
        # No candidate lies on an end of the interval, so whether the ends
        # belong to it (they do for an even mantissa) never matters; a power
        # of two, whose interval is narrower below, is its own candidate.
        bound = five << left
        for step in (10, 100):
            inside, nearest, even = _nearest(d, r, right, bound, step)
            digits = np.where(inside, nearest, digits)
            tie = np.where(inside, even, tie)
    # k is exact and no rounding carries to 10**17, so the range test is only
    # a guard; from here on a row outside ``fast`` reads clipped table rows
    # and is overwritten at the end
    fast &= ~tie & (d >= 10**16) & (digits < 10**17)
    digits = digits.view(np.int64)
    # 1 + 16 digits: ASCII in words w0 (lowest byte first), w1, w2
    top = digits // 10**16
    rest = digits - top * 10**16
    upper = rest // 10**8
    lower = rest - upper * 10**8
    g0 = upper // 10**4
    g1 = upper - g0 * 10**4
    g2 = lower // 10**4
    g3 = lower - g2 * 10**4
    a = (ascii4.take(g0, mode="clip") | (ascii4.take(g1, mode="clip") << 32)).view(_U64)
    b = (ascii4.take(g2, mode="clip") | (ascii4.take(g3, mode="clip") << 32)).view(_U64)
    w0 = (top + ord("0")).view(_U64) | (a << 8)
    w1 = (a >> 56) | (b << 8)
    w2 = b >> 56
    # trailing zero digits, from the last group back (the top digit is not 0)
    zeros = zeros4.take(g3, mode="clip")
    z = np.flatnonzero(g3 == 0)
    if z.size:
        zeros[z] = np.where(g2[z] != 0, 4 + zeros4.take(g2[z], mode="clip"),
                            np.where(g1[z] != 0, 8 + zeros4.take(g1[z], mode="clip"),
                                     12 + zeros4.take(g0[z], mode="clip")))
    # split the digits at the point and shift both parts into place
    negative = (bits >> 63).view(np.int64)
    row = 2 * k + 8 + negative
    keep0 = w0 & keep[0].take(row, mode="clip")
    keep1 = w1 & keep[1].take(row, mode="clip")
    move0, move1 = w0 ^ keep0, w1 ^ keep1
    ls, ms = shifts[0].take(row, mode="clip"), shifts[1].take(row, mode="clip")
    lb, mb = 64 - ls, 64 - ms
    fraction_digits = np.maximum(16 - zeros - k, 1 if shortest else 0)
    length = negative + np.maximum(k + 1, 1) + (fraction_digits > 0) + fraction_digits
    o = (keep0 << ls) | (move0 << ms) | marks[0].take(row, mode="clip")
    np.bitwise_and(o, low_bytes[0].take(length, mode="clip"), out=out[:, 0])
    o = (keep1 << ls) | (keep0 >> lb) | (move1 << ms) | (move0 >> mb)
    o |= marks[1].take(row, mode="clip")
    np.bitwise_and(o, low_bytes[1].take(length, mode="clip"), out=out[:, 1])
    o = (keep1 >> lb) | (w2 << ms) | (move1 >> mb) | marks[2].take(row, mode="clip")
    np.bitwise_and(o, low_bytes[2].take(length, mode="clip"), out=out[:, 2])
    slow = np.flatnonzero(~fast)
    if slow.size:
        if shortest:
            texts = [repr(v) if math.isfinite(v) else json.dumps(v) for v in values[slow].tolist()]
        else:
            texts = ["%.17g" % v for v in values[slow].tolist()]
        out[slow, :3] = _text_words(texts, 3)


def _without_zero_bytes(words: np.ndarray) -> bytes:
    """The bytes of ``words`` with the zero padding of every text dropped."""
    flat = words.view(np.uint8).reshape(-1)
    return flat[flat != 0].tobytes()


def write_csv(
    path: str, command: str, columns: Sequence[str], rows: Union[np.ndarray, Iterable[Sequence]]
) -> None:
    """Schema line, header, then one line per row.

    ``rows`` is a float ``(rows, cols)`` array or the long-form rows of
    :func:`ensemble_rows` or :func:`frozen_rows`, printed as
    :func:`format_float` prints each value, or an iterable of mixed-type rows.
    """
    if isinstance(rows, np.ndarray):
        body = _csv_blocks(rows)
    elif isinstance(rows, _LongRows):
        body = itertools.chain.from_iterable(map(_csv_blocks, rows))
    else:
        body = (",".join(format_value(v) for v in row) + "\n" for row in rows)
    head = f"# {SCHEMA_VERSION} {command}\n" + ",".join(columns) + "\n"
    atomic_write_chunks(path, itertools.chain((head,), body))


def _csv_blocks(rows: np.ndarray):
    """Text of a float table, :data:`CHUNK` rows per block: each cell's
    :func:`_float_words` and its separator in four words, zero bytes dropped."""
    width = rows.shape[1]
    cells = np.empty((min(len(rows), CHUNK), width, 4), _U64)
    cells[:, :, 3] = [ord(",")] * (width - 1) + [ord("\n")]
    for start in range(0, len(rows), CHUNK):
        block = np.asarray(rows[start : start + CHUNK], dtype=float)
        text = cells[: len(block)]
        for j in range(width):
            _float_words(np.ascontiguousarray(block[:, j]), False, text[:, j])
        yield _without_zero_bytes(text)


_ARRAY_SLOT = re.compile(r'^( *)(.*)"\\u0000array(\d+)"', re.MULTILINE)


def _json_template(shape: tuple, level: int) -> str:
    """``json.dumps(indent=2)`` layout of a nested list of ``shape`` at nesting
    ``level``, with ``%s`` for each value; ``shape`` has no zero entry."""
    if not shape:
        return "%s"
    item = "\n" + "  " * (level + 1) + _json_template(shape[1:], level + 1)
    return "[" + ",".join([item] * shape[0]) + "\n" + "  " * level + "]"


def _json_array(a: np.ndarray, level: int):
    """Non-empty float array as :func:`_json_template` lays it out, in blocks
    along the leading axis: each value's :func:`_float_words` and the layout
    text that follows it, zero bytes dropped."""
    item = "\n" + "  " * (level + 1) + _json_template(a.shape[1:], level + 1)
    pieces = item.split("%s")
    after = pieces[1:-1] + [pieces[-1] + "," + pieces[0]]
    width = 1 + max(map(len, after)) // 8
    glue = _text_words(after, width)
    last = _text_words(pieces[-1:], width)
    head = pieces[0].encode("ascii")
    step = max(1, CHUNK // len(after))
    yield "["
    for start in range(0, len(a), step):
        block = np.asarray(a[start : start + step], dtype=float)
        cells = np.empty((block.size, 3 + width), _U64)
        _float_words(block.reshape(-1), True, cells)
        cells.reshape(len(block), len(after), 3 + width)[:, :, 3:] = glue
        cells[-1, 3:] = last
        yield b"," + head if start else head
        yield _without_zero_bytes(cells)
    yield "\n" + "  " * level + "]"


def write_json(path: str, payload: dict) -> None:
    """``json.dumps(payload, sort_keys=True, indent=2)`` plus a newline.

    Arrays are written as their ``tolist()`` would be: non-empty float arrays
    of one or more dimensions by :func:`_json_array`, streamed in at a
    placeholder, and other arrays through ``tolist`` itself.
    """
    arrays = []

    def slot(value):
        if not isinstance(value, np.ndarray):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        if value.dtype.kind != "f" or value.size == 0 or value.ndim == 0:
            return value.tolist()
        arrays.append(value)
        return f"\0array{len(arrays) - 1}"

    text = json.dumps(payload, sort_keys=True, indent=2, default=slot)

    def chunks():
        pos = 0
        for m in _ARRAY_SLOT.finditer(text):
            yield text[pos : m.end(2)]
            yield from _json_array(arrays[int(m[3])], len(m[1]) // 2)
            pos = m.end()
        yield text[pos:] + "\n"

    atomic_write_chunks(path, chunks())


# ----- payload builders -----


def ensemble_columns(n: int, m: int, with_fast: bool) -> List[str]:
    cols = ["t", "particle"] + [f"x{j}" for j in range(n)]
    if with_fast:
        cols += [f"z{j}" for j in range(m)]
    return cols


class _LongRows:
    """Long-form rows (t, particle, components of each path) per time and
    particle, in time-major order: iterating yields them as float blocks of
    at most :data:`CHUNK` rows, each built from the path arrays when asked
    for; ``len`` is the number of rows.  A particle index below 2**53 prints
    as the integer does."""

    def __init__(self, times: np.ndarray, *paths):
        self.times = np.asarray(times, dtype=float)
        self.paths = [p for p in paths if p is not None]

    def __len__(self) -> int:
        steps, count = self.paths[0].shape[:2]
        return steps * count

    def __iter__(self):
        count = self.paths[0].shape[1]
        for start in range(0, len(self), CHUNK):
            k, i = np.divmod(np.arange(start, min(start + CHUNK, len(self))), count)
            yield np.column_stack([self.times[k], i.astype(float)] + [p[k, i] for p in self.paths])


def ensemble_rows(ensemble) -> _LongRows:
    """Long-form rows (t, particle, slow comps[, fast comps])."""
    return _LongRows(ensemble.times, ensemble.slow, ensemble.fast)


def ensemble_json(ensemble) -> dict:
    return {"times": ensemble.times, "slow": ensemble.slow, "fast": ensemble.fast}


def frozen_rows(ensemble) -> _LongRows:
    """Fast-state rows only; the slow input is pinned and lives in the config."""
    return _LongRows(ensemble.times, ensemble.fast)


def frozen_json(ensemble) -> dict:
    return {"times": ensemble.times, "fast": ensemble.fast}


def filter_rows(traj) -> List[list]:
    events = set(traj.resample_events)
    return [
        [float(traj.times[k]), float(traj.pi_F[k]), float(traj.log_rho1[k]),
         float(traj.ess[k]), int(k in events)]
        for k in range(len(traj.times))
    ]


def filter_json(traj) -> dict:
    return {
        "times": [float(t) for t in traj.times],
        "pi_F": [float(v) for v in traj.pi_F],
        "log_rho1": [float(v) for v in traj.log_rho1],
        "ess": [float(v) for v in traj.ess],
        "resample_events": [int(k) for k in traj.resample_events],
    }


SWEEP_COLUMNS = ("eps", "delta_eps", "p", "mean_error", "std_error", "reps")


def sweep_rows(report) -> List[list]:
    return [
        [r.eps, r.delta_eps, r.p, r.mean_error, r.std_error, r.reps]
        for r in report.rows
    ]


def sweep_json(report) -> dict:
    return {
        "kind": report.kind,
        "rows": [dataclasses.asdict(r) for r in report.rows],
        "envelope": report.envelope,
        "fits": {str(p): list(fit) for p, fit in sorted(report.fits.items())},
        "config_digest": report.config_digest,
    }
