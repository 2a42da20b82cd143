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
import re
from functools import lru_cache
from operator import itemgetter

import numpy as np

from .linalg import _check_grid, _square_matrix

GRID_FORMATS = ("csv", "json", "gnuplot")

_NUMBER_TYPES = {int, float}  # a JSON number; bool is its own type
# the text around each value of emit_grid's rows: the separator before it and the end of its row
_SLOT_CONTEXT = {"csv": (",", "\n"), "json": (", ", "]"), "gnuplot": (" ", "\n")}


def serialize_matrix(m) -> str:
    """Render a non-empty square complex matrix as a JSON object with keys dim/re/im; NaN or inf raises."""
    a = _square_matrix(m)
    doc = {"dim": int(a.shape[0]), "re": a.real.tolist(), "im": a.imag.tolist()}
    return json.dumps(doc, sort_keys=True, allow_nan=False)


def _matrix_field(rows, key: str, dim: int) -> np.ndarray:
    # one field of the matrix format in one pass, its first fault named: the row count and row
    # lengths, then the entry types, then finiteness
    if not isinstance(rows, list) or len(rows) != dim:
        count = len(rows) if isinstance(rows, list) else rows
        raise ValueError(f"field {key!r} must have {dim} rows, got {count!r}")
    for index, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(
                f"row {index} of field {key!r} has {len(row) if isinstance(row, list) else 1} "
                f"entries, expected {dim}"
            )
    if not set(map(type, itertools.chain.from_iterable(rows))) <= _NUMBER_TYPES:
        raise ValueError(f"field {key!r} has entries that are not JSON numbers")
    try:
        part = np.array(rows, dtype=float)
    except OverflowError:  # an integer beyond the float range
        finite = False
    else:
        finite = np.isfinite(part).all()
    if not finite:
        raise ValueError(f"field {key!r} has non-finite entries")
    return part


def parse_matrix(text) -> np.ndarray:
    """Parse the JSON matrix format back into a complex ndarray.

    Reports malformed syntax with line/column positions, ragged rows with
    the offending row index, and dimension mismatches with both sizes;
    rejects a non-integer (or boolean) dimension, and entries that are not
    finite JSON numbers (strings, booleans, nulls, lists, objects).  Each
    field is checked in one pass, 're' before 'im': its row count and row
    lengths, then its entry types, then its finiteness, so a file with
    several faults reports the first.  Each field is read into a float
    array, and the result takes the two as its real and imaginary parts,
    signed zeros included.
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
    m = np.empty((dim, dim), dtype=complex)
    m.real = _matrix_field(doc["re"], "re", dim)
    m.imag = _matrix_field(doc["im"], "im", dim)
    return m


_COLUMNS = {2: ["mu", "nu", "w"], 4: ["mu1", "nu1", "mu2", "nu2", "w"]}


@lru_cache(maxsize=16)
def _grid_template(shape: tuple[int, ...], fmt: str) -> str:
    # the whole emitted text with one %r slot per cell, in lexicographic index order; %r of a
    # float is float.__repr__, the shortest round-trip rendering json.dumps writes as well
    rows = [[*map(str, index), "%r"] for index in itertools.product(*map(range, shape))]
    columns = _COLUMNS[len(shape)]
    if fmt == "csv":
        return "\n".join([",".join(columns), *map(",".join, rows)]) + "\n"
    if fmt == "json":
        body = ", ".join("[" + ", ".join(row) + "]" for row in rows)
        return '{"columns": ' + json.dumps(columns) + ', "rows": [' + body + "]}\n"
    blocks = itertools.groupby(rows, key=itemgetter(0))
    return "\n\n".join("\n".join(map(" ".join, block)) for _, block in blocks) + "\n"


def emit_grid(values, fmt: str = "csv") -> str:
    """Serialize a grid in lexicographic index order.

    Formats: ``csv`` with an index header, ``json`` with explicit column
    names, or ``gnuplot`` whitespace columns with a blank line between
    blocks of the leading index.  A NaN or infinite value raises
    ``ValueError``, as ``parse_grid`` would refuse it, and so does a
    complex grid with a nonzero imaginary part.  The text is one
    template per shape and format, built on first use and cached, filled
    with the shortest round-trip rendering of each value, so equal grids
    give byte-identical text.
    """
    w = _check_grid(values)
    flat = w.ravel().tolist()
    if not all(map(math.isfinite, flat)):
        raise ValueError("grid values must be finite")
    if fmt not in GRID_FORMATS:
        raise ValueError(f"unknown grid format {fmt!r}; expected one of {GRID_FORMATS}")
    return _grid_template(w.shape, fmt) % tuple(flat)


def _grid_index(value, as_text: bool) -> int:
    # CSV and gnuplot fields are ASCII digits, JSON fields integers; a sign, a fraction, a bool,
    # a string in JSON or a non-ASCII digit is never an index, so nothing wraps around
    if as_text:
        if value.isascii() and value.strip().isdecimal():
            return int(value)
    elif type(value) is int and value >= 0:
        return value
    raise ValueError(f"grid index {value!r} is not a non-negative integer")


def _grid_value(value, as_text: bool) -> float:
    # text in CSV and gnuplot, a number in JSON; a bool, a null, a string in
    # JSON or a non-finite value is never a grid value
    if as_text or type(value) in _NUMBER_TYPES:
        try:
            number = float(value)
        except (ValueError, OverflowError):
            pass
        else:
            if math.isfinite(number):
                return number
    raise ValueError(f"grid value {value!r} is not a finite number")


@lru_cache(maxsize=None)
def _value_slot(fmt: str) -> re.Pattern:
    # a value with its context, compiled on first use: a JSON number with a fraction or an
    # exponent, the form float.__repr__ gives every finite float, which json reads with float too
    before, after = _SLOT_CONTEXT[fmt]
    number = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"
    return re.compile(re.escape(before) + number + re.escape(after))


@lru_cache(maxsize=16)
def _index_fields(shape: tuple[int, ...], fmt: str) -> list[str]:
    # emit_grid's text for the shape cut at its value slots: the header and every row's index fields
    before, after = _SLOT_CONTEXT[fmt]
    return _grid_template(shape, fmt).split(before + "%r" + after)


def _emitted_grid(text: str, fmt: str) -> np.ndarray | None:
    # the grid of a text that is emit_grid's for its shape, cut at its values in one C-level pass
    # and compared with the cached pieces: such a text meets every rule of the row walk, which
    # reads it to the same floats; None for any other text, or a value that overflows
    parts = _value_slot(fmt).split(text)
    fields, values = parts[::2], parts[1::2]
    n = math.isqrt(len(values))
    for shape in ((n, n), (2, 2, 2, 2)):
        if values and math.prod(shape) == len(values) and fields == _index_fields(shape, fmt):
            numbers = list(map(float, values))
            return np.array(numbers).reshape(shape) if all(map(math.isfinite, numbers)) else None
    return None


def _rows_to_grid(rows: list, as_text: bool) -> np.ndarray:
    if not rows:
        raise ValueError("grid file contains no rows")
    if not set(map(type, rows)) <= {list}:
        raise ValueError("every grid row must be a list of indices and a value")
    width = len(rows[0])
    if width == 3:
        n = round(len(rows) ** 0.5)
        if n * n != len(rows):
            raise ValueError(f"grid file has {len(rows)} rows, not a perfect square")
        shape = (n, n)
    elif width == 5:
        if len(rows) != 16:
            raise ValueError(f"pair grid file must have 16 rows, got {len(rows)}")
        shape = (2, 2, 2, 2)
    else:
        raise ValueError(f"grid rows must have 3 or 5 columns, got {width}")
    grid = np.empty(shape)
    seen = set()
    for row in rows:
        if len(row) != width:
            raise ValueError("grid file has rows of inconsistent width")
        index = tuple(_grid_index(field, as_text) for field in row[:-1])
        if index in seen:
            raise ValueError(f"duplicate grid index {index}")
        seen.add(index)
        value = _grid_value(row[-1], as_text)
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
    a JSON number that is not a bool in JSON (a JSON string is refused).
    A file that is exactly ``emit_grid``'s text for its shape, with a JSON
    number with a fraction or an exponent in each value slot, is cut at
    those slots by one regular-expression split and compared with the
    template's pieces, cached per shape and format; it meets every rule,
    so only its values' finiteness is checked.  Any other file (rows in
    another order, padded fields, CRLF line ends) is read row by row under
    every rule, and so is a malformed one, whose first fault is named in
    the ``ValueError``.  The first line of a CSV file must be the header
    ``emit_grid`` writes for the width of its rows (``mu,nu,w`` or
    ``mu1,nu1,mu2,nu2,w``).
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if fmt not in GRID_FORMATS:
        raise ValueError(f"unknown grid format {fmt!r}; expected one of {GRID_FORMATS}")
    grid = _emitted_grid(text, fmt)
    if grid is not None:
        return grid
    # any other layout, or a malformed file: walk the rows, which names the first fault
    if fmt == "csv":
        lines = list(filter(str.strip, text.splitlines()))
        if not lines:
            raise ValueError("grid file is empty")
        header, *rows = (line.split(",") for line in lines)
        columns = _COLUMNS.get(len(rows[0]) - 1) if rows else None
        if columns is not None and list(map(str.strip, header)) != columns:
            raise ValueError(
                f"grid file header must be {','.join(columns)!r} over {len(columns)}-column rows, "
                f"got {lines[0]!r}"
            )
        return _rows_to_grid(rows, as_text=True)
    if fmt == "json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed grid file: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("rows"), list):
            raise ValueError("grid file must be a JSON object with a 'rows' list")
        return _rows_to_grid(doc["rows"], as_text=False)
    return _rows_to_grid(list(map(str.split, filter(str.strip, text.splitlines()))), as_text=True)
