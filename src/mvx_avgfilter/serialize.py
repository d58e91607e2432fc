"""Deterministic CSV and JSON writers.

Every file is written atomically (temp file in the target directory, then
rename), floats are printed with 17 significant digits so they parse back
bit for bit, and row order is fixed by the data structures themselves.
Identical inputs therefore produce byte-identical files.

Particle paths stay float arrays until their text is built: a CSV table is
one ``(rows, cols)`` array, and JSON payloads may hold float arrays, which
are written exactly as ``json.dumps`` writes the equal nested lists.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import tempfile
from typing import Iterable, List, Sequence, Union

import numpy as np

from . import SCHEMA_VERSION


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


def atomic_write_bytes(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_csv(
    path: str, command: str, columns: Sequence[str], rows: Union[np.ndarray, Iterable[Sequence]]
) -> None:
    """Schema line, header, then one line per row.

    ``rows`` is a float ``(rows, cols)`` array, printed with
    :func:`format_float` per value, or an iterable of mixed-type rows.
    """
    lines = [f"# {SCHEMA_VERSION} {command}", ",".join(columns)]
    if isinstance(rows, np.ndarray):
        width = rows.shape[1]
        text = [format(v, ".17g") for v in rows.ravel().tolist()]
        lines += [",".join(text[i : i + width]) for i in range(0, len(text), width)]
    else:
        lines += [",".join(format_value(v) for v in row) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_ARRAY_SLOT = re.compile(r'^( *)(.*)"\\u0000array(\d+)"', re.MULTILINE)


def _json_array(a: np.ndarray, level: int) -> str:
    """Float array as ``json.dumps(indent=2)`` writes it at nesting ``level``.

    The values are joined in one pass; the separator after a value closes
    and reopens every inner list that ends there.  ``a`` is non-empty.
    """
    items = [repr(v) for v in a.ravel().tolist()]
    if not np.isfinite(a).all():
        items = [_JSON_NONFINITE.get(v, v) for v in items]
    nd = a.ndim
    pad = ["\n" + "  " * (level + k) for k in range(nd + 1)]
    opens = [pad[k] + "[" for k in range(nd)]
    closes = [pad[k] + "]" for k in range(nd)]
    seps = [None] * len(items)
    for r in range(nd):  # after each value that ends the r innermost lists
        block = math.prod(a.shape[nd - r :])
        sep = "".join(reversed(closes[nd - r :])) + "," + "".join(opens[nd - r :]) + pad[nd]
        seps[block - 1 :: block] = [sep] * (len(items) // block)
    seps[-1] = "".join(reversed(closes))
    text = [None] * (2 * len(items))
    text[0::2], text[1::2] = items, seps
    return "[" + "".join(opens[1:]) + pad[nd] + "".join(text)


def write_json(path: str, payload: dict) -> None:
    """``json.dumps(payload, sort_keys=True, indent=2)`` plus a newline.

    Arrays are written as their ``tolist()`` would be: non-empty float arrays
    by :func:`_json_array`, spliced in at a placeholder, and other arrays
    through ``tolist`` itself.  NaN and infinities come out as ``json``
    writes them.
    """
    arrays = []

    def slot(value):
        if not isinstance(value, np.ndarray):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        if value.dtype.kind != "f" or value.size == 0:
            return value.tolist()
        arrays.append(value)
        return f"\0array{len(arrays) - 1}"

    text = json.dumps(payload, sort_keys=True, indent=2, default=slot)
    if arrays:
        text = _ARRAY_SLOT.sub(
            lambda m: m[1] + m[2] + _json_array(arrays[int(m[3])], len(m[1]) // 2), text
        )
    atomic_write_text(path, text + "\n")


# ----- payload builders -----


def ensemble_columns(n: int, m: int, with_fast: bool) -> List[str]:
    cols = ["t", "particle"] + [f"x{j}" for j in range(n)]
    if with_fast:
        cols += [f"z{j}" for j in range(m)]
    return cols


def _long_rows(times: np.ndarray, *paths) -> np.ndarray:
    """(t, particle, components of each path) per time and particle, as floats;
    a particle index below 2**53 prints as the integer does."""
    paths = [p for p in paths if p is not None]
    steps, count = paths[0].shape[:2]
    t = np.repeat(np.asarray(times, dtype=float), count)
    particle = np.tile(np.arange(count, dtype=float), steps)
    return np.column_stack([t, particle] + [p.reshape(steps * count, -1) for p in paths])


def ensemble_rows(ensemble) -> np.ndarray:
    """Long-form rows (t, particle, slow comps[, fast comps])."""
    return _long_rows(ensemble.times, ensemble.slow, ensemble.fast)


def ensemble_json(ensemble) -> dict:
    return {"times": ensemble.times, "slow": ensemble.slow, "fast": ensemble.fast}


def frozen_rows(ensemble) -> np.ndarray:
    """Fast-state rows only; the slow input is pinned and lives in the config."""
    return _long_rows(ensemble.times, ensemble.fast)


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
