"""File formats: JSON matrix files and grid serialization.

Matrices travel as JSON objects with separate real and imaginary arrays,
producible from any tomography pipeline.  Grids serialize to CSV, JSON,
or gnuplot-ready columns; floats use the shortest round-trip rendering,
so parse(emit(grid)) reproduces the grid bit for bit.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from .kernel import _check_grid

GRID_FORMATS = ("csv", "json", "gnuplot")


def serialize_matrix(m) -> str:
    """Render a square complex matrix as a JSON object with keys dim/re/im."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    doc = {"dim": int(a.shape[0]), "re": a.real.tolist(), "im": a.imag.tolist()}
    return json.dumps(doc, sort_keys=True)


def parse_matrix(text) -> np.ndarray:
    """Parse the JSON matrix format back into a complex ndarray.

    Reports malformed syntax with line/column positions, ragged rows with
    the offending row index, and dimension mismatches with both sizes;
    rejects a non-integer (or boolean) dimension, and entries that are not
    finite JSON numbers (strings, booleans, nulls, lists, objects).
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed matrix file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"matrix file must be a JSON object, got {type(doc).__name__}")
    for key in ("dim", "re", "im"):
        if key not in doc:
            raise ValueError(f"matrix file is missing required field {key!r}")
    dim = doc["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError(f"field 'dim' must be a positive integer, got {dim!r}")
    parts = {}
    for key in ("re", "im"):
        rows = doc[key]
        if not isinstance(rows, list) or len(rows) != dim:
            count = len(rows) if isinstance(rows, list) else rows
            raise ValueError(f"field {key!r} must have {dim} rows, got {count!r}")
        for index, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != dim:
                raise ValueError(
                    f"row {index} of field {key!r} has {len(row) if isinstance(row, list) else 1} "
                    f"entries, expected {dim}"
                )
        if not {type(v) for row in rows for v in row} <= {int, float}:
            raise ValueError(f"field {key!r} has entries that are not JSON numbers")
        try:
            parts[key] = np.array(rows, dtype=float)
        except OverflowError:
            raise ValueError(f"field {key!r} has non-finite entries") from None
        if not np.all(np.isfinite(parts[key])):
            raise ValueError(f"field {key!r} has non-finite entries")
    return parts["re"] + 1j * parts["im"]


def _columns(w: np.ndarray) -> list[str]:
    if w.ndim == 2:
        return ["mu", "nu", "w"]
    return ["mu1", "nu1", "mu2", "nu2", "w"]


def emit_grid(values, fmt: str = "csv") -> str:
    """Serialize a grid in lexicographic index order.

    Formats: ``csv`` with an index header, ``json`` with explicit column
    names, or ``gnuplot`` whitespace columns with a blank line between
    blocks of the leading index.  A NaN or infinite value raises
    ``ValueError``, as ``parse_grid`` would refuse it.
    """
    w = _check_grid(values)
    flat = w.ravel().tolist()
    if not all(map(math.isfinite, flat)):
        raise ValueError("grid values must be finite")
    # (index tuple, Python float) pairs in lexicographic index order
    grid_rows = zip(itertools.product(*map(range, w.shape)), flat)
    columns = _columns(w)
    if fmt == "csv":
        lines = [",".join(columns)]
        for index, value in grid_rows:
            lines.append(",".join([*map(str, index), repr(value)]))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        rows = [[*index, value] for index, value in grid_rows]
        return json.dumps({"columns": columns, "rows": rows}) + "\n"
    if fmt == "gnuplot":
        lines = []
        previous_block = None
        for index, value in grid_rows:
            if previous_block is not None and index[0] != previous_block:
                lines.append("")
            previous_block = index[0]
            lines.append(" ".join([*map(str, index), repr(value)]))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown grid format {fmt!r}; expected one of {GRID_FORMATS}")


def _grid_index(value) -> int:
    # CSV and gnuplot fields are text, JSON fields numbers; a sign, a
    # fraction, a bool or a non-ASCII digit is never an index, so nothing wraps around
    if type(value) is str and value.isascii() and value.strip().isdecimal():
        return int(value)
    if type(value) is int and value >= 0:
        return value
    raise ValueError(f"grid index {value!r} is not a non-negative integer")


def _grid_value(value) -> float:
    # text in CSV and gnuplot, a number in JSON; a bool, a null or a
    # non-finite value is never a grid value
    if type(value) in (str, int, float):
        try:
            number = float(value)
        except (ValueError, OverflowError):
            pass
        else:
            if math.isfinite(number):
                return number
    raise ValueError(f"grid value {value!r} is not a finite number")


def _rows_to_grid(rows) -> np.ndarray:
    rows = list(rows)
    if not rows:
        raise ValueError("grid file contains no rows")
    if not all(isinstance(row, list) for row in rows):
        raise ValueError("every grid row must be a list of indices and a value")
    width = len(rows[0])
    if width == 3:
        n = round(len(rows) ** 0.5)
        if n * n != len(rows):
            raise ValueError(f"grid file has {len(rows)} rows, not a perfect square")
        grid = np.empty((n, n))
    elif width == 5:
        if len(rows) != 16:
            raise ValueError(f"pair grid file must have 16 rows, got {len(rows)}")
        grid = np.empty((2, 2, 2, 2))
    else:
        raise ValueError(f"grid rows must have 3 or 5 columns, got {width}")
    seen = set()
    for row in rows:
        if len(row) != width:
            raise ValueError("grid file has rows of inconsistent width")
        index = tuple(map(_grid_index, row[:-1]))
        if index in seen:
            raise ValueError(f"duplicate grid index {index}")
        seen.add(index)
        value = _grid_value(row[-1])
        try:
            grid[index] = value
        except IndexError:
            raise ValueError(f"grid index {index} out of range for shape {grid.shape}") from None
    if len(seen) != grid.size:
        raise ValueError("grid file does not cover every index")
    return grid


def parse_grid(text, fmt: str = "csv") -> np.ndarray:
    """Parse a serialized grid back into an ndarray (inverse of emit_grid).

    Every index must be a non-negative integer inside the grid shape:
    ASCII digits in CSV and gnuplot, a JSON integer in JSON.  Every value
    must be a finite number: text that ``float`` reads in CSV and gnuplot,
    a JSON number that is not a bool in JSON.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if fmt == "csv":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError("grid file is empty")
        return _rows_to_grid(line.split(",") for line in lines[1:])
    if fmt == "json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed grid file: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("rows"), list):
            raise ValueError("grid file must be a JSON object with a 'rows' list")
        return _rows_to_grid(doc["rows"])
    if fmt == "gnuplot":
        lines = [line for line in text.splitlines() if line.strip()]
        return _rows_to_grid(line.split() for line in lines)
    raise ValueError(f"unknown grid format {fmt!r}; expected one of {GRID_FORMATS}")
