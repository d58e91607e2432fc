"""Deterministic CSV and JSON writers.

Every file is written atomically (temp file in the target directory, then
rename), floats are printed with 17 significant digits so they parse back
bit for bit, and row order is fixed by the data structures themselves.
Identical inputs therefore produce byte-identical files.

Particle paths stay float arrays until their text is built: a CSV table is
one ``(rows, cols)`` array or, for the long-form path tables, a
:class:`_LongRows` that builds its float blocks from the path arrays one at
a time; JSON payloads may hold float arrays, which are written exactly as
``json.dumps`` writes the equal nested lists.  Both are streamed in blocks
of about :data:`CHUNK` rows or values, each block filled into a ``%``
template in one call, so memory while writing does not grow with the size
of the table: no long-form table is ever held whole.  The text of a row
does not depend on the block it falls in, so neither do the file's bytes.
"""

from __future__ import annotations

import dataclasses
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
    """Shortest-of-17-significant-digits decimal; always round-trips."""
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
    """Text of a float table, :data:`CHUNK` rows per block.

    ``"%.17g" % v`` is ``format(v, ".17g")``.  A column with few distinct
    values in a block (times, particle indices) has each distinct value
    formatted once and spliced in with ``%s``; values are told apart by
    their bits, so -0.0 and 0.0 stay distinct.
    """
    width = rows.shape[1]
    for start in range(0, len(rows), CHUNK):
        block = np.asarray(rows[start : start + CHUNK], dtype=float)
        cells = [None] * block.size
        fmts = []
        for j in range(width):
            col = block[:, j]
            keys, inverse = np.unique(col.view(np.int64), return_inverse=True)
            if 2 * len(keys) <= len(block):
                text = np.array(["%.17g" % v for v in keys.view(float).tolist()], dtype=object)
                cells[j::width] = text[inverse].tolist()
                fmts.append("%s")
            else:
                cells[j::width] = col.tolist()
                fmts.append("%.17g")
        yield ((",".join(fmts) + "\n") * len(block)) % tuple(cells)


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
    along the leading axis; ``str`` of a float is the ``repr`` ``json`` writes."""
    item = "\n" + "  " * (level + 1) + _json_template(a.shape[1:], level + 1)
    step = max(1, CHUNK // math.prod(a.shape[1:]))
    yield "["
    for start in range(0, len(a), step):
        block = a[start : start + step]
        values = block.ravel().tolist()
        for i in np.flatnonzero(~np.isfinite(block)).tolist():
            values[i] = json.dumps(values[i])
        yield ("," if start else "") + ",".join([item] * len(block)) % tuple(values)
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
    # runtime_s deliberately omitted: the payload is reproducible, wall clock is not
    return {
        "kind": report.kind,
        "rows": [dataclasses.asdict(r) for r in report.rows],
        "envelope": report.envelope,
        "fits": {str(p): list(fit) for p, fit in sorted(report.fits.items())},
        "config_digest": report.config_digest,
    }
