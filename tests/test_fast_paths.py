"""The fixed-cost paths of a four-level op against their references: parse_grid's read of
emitted text against its row walk, the Hermitian part validate_density stores, a refusal that
crosses a process boundary, and the Werner coefficients built from their vector."""

import copy
import json
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dwigner.io as io_module
from dwigner import (
    DensityMatrix,
    DensityMatrixError,
    emit_grid,
    parse_grid,
    serialize_matrix,
    validate_density,
    werner,
)
from dwigner.io import GRID_FORMATS, _grid_template
from dwigner.states import _werner_fano

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

SHAPES = st.one_of(st.integers(1, 8).map(lambda n: (n, n)), st.just((2, 2, 2, 2)))
FINITE = st.floats(allow_nan=False, allow_infinity=False)
GRIDS = SHAPES.flatmap(lambda shape: hnp.arrays(float, shape, elements=FINITE))
# one value's text replaced: the first eight are the faults and paddings a file may hold; "-0" is
# a JSON integer whose float has the other sign, "1e999" a number that overflows, "01.5" no JSON
VALUE_TEXTS = ("nan", "inf", "true", "null", '"0.5"', " 0.5", "1_0", "", "-0", "1e999", "01.5")
LAYOUTS = ("crlf", "blank line", "swap rows", "no final newline")


def _outcome(text, fmt):
    try:
        grid = parse_grid(text, fmt)
    except ValueError as exc:
        return str(exc)
    return grid.shape, grid.tobytes()


def _row_walk(text, fmt):
    # parse_grid with the read of emitted text switched off: the row walk alone
    with mock.patch.object(io_module, "_emitted_grid", return_value=None):
        return _outcome(text, fmt)


def _with_value(grid, fmt, cell, value_text):
    pieces = _grid_template(grid.shape, fmt).split("%r")
    values = list(map(repr, grid.ravel().tolist()))
    values[cell % len(values)] = value_text
    return "".join(piece + value for piece, value in zip(pieces, values)) + pieces[-1]


def _relaid(text, fmt, layout):
    if layout == "crlf":
        return text.replace("\n", "\r\n")
    if layout == "blank line":
        head, _, tail = text.partition("\n")
        return head + "\n\n" + tail
    if layout == "no final newline":
        return text[:-1]
    if fmt == "json":
        doc = json.loads(text)
        doc["rows"][0], doc["rows"][-1] = doc["rows"][-1], doc["rows"][0]
        return json.dumps(doc) + "\n"
    lines = text.split("\n")
    rows = [i for i, line in enumerate(lines) if line and not (fmt == "csv" and i == 0)]
    lines[rows[0]], lines[rows[-1]] = lines[rows[-1]], lines[rows[0]]
    return "\n".join(lines)


@PROPERTY_SETTINGS
@given(GRIDS, st.sampled_from(GRID_FORMATS))
def test_emitted_text_is_read_bit_exactly_without_the_row_walk(grid, fmt):
    text = emit_grid(grid, fmt)
    fast = io_module._emitted_grid(text, fmt)
    assert fast is not None
    assert fast.shape == grid.shape and fast.tobytes() == grid.tobytes()
    back = parse_grid(text, fmt)
    assert back.shape == grid.shape and back.tobytes() == grid.tobytes()


@PROPERTY_SETTINGS
@given(GRIDS, st.sampled_from(GRID_FORMATS), st.integers(0, 255), st.sampled_from(VALUE_TEXTS))
def test_a_changed_value_reads_as_the_row_walk_reads_it(grid, fmt, cell, value_text):
    text = _with_value(grid, fmt, cell, value_text)
    assert _outcome(text, fmt) == _row_walk(text, fmt)


@PROPERTY_SETTINGS
@given(GRIDS, st.sampled_from(GRID_FORMATS), st.sampled_from(LAYOUTS))
def test_another_layout_reads_as_the_row_walk_reads_it(grid, fmt, layout):
    text = _relaid(emit_grid(grid, fmt), fmt, layout)
    assert _outcome(text, fmt) == _row_walk(text, fmt)


@pytest.mark.parametrize("fmt", GRID_FORMATS)
def test_emitted_text_of_no_cells_is_refused(fmt):
    text = _grid_template((0, 0), fmt)
    assert io_module._emitted_grid(text, fmt) is None
    with pytest.raises(ValueError, match="no rows"):
        parse_grid(text, fmt)


def _density(parts):
    # a a† + I/10, normalized: full rank, so a perturbation below the tolerance keeps it positive
    a = parts[0] + 1j * parts[1]
    h = a @ a.conj().T + np.eye(a.shape[0]) / 10
    return h / np.trace(h).real


def _near_density(n):
    states = hnp.arrays(float, (2, n, n), elements=st.floats(-1.0, 1.0)).map(_density)
    noise = hnp.arrays(float, (2, n, n), elements=st.floats(-1.0, 1.0))
    return st.tuples(states, noise)


@PROPERTY_SETTINGS
@given(st.integers(2, 6).flatmap(_near_density), st.sampled_from([None, 1e-8, 1e-6]))
def test_validated_matrix_is_exactly_hermitian(pair, tol):
    rho, noise = pair
    n = rho.shape[0]
    scale = (1e-10 if tol is None else tol) / 8
    p = scale * (noise[0] + 1j * noise[1])
    p -= np.trace(p) / n * np.eye(n)  # every entry within 2.9 scale, so a - a† stays below tol
    m = validate_density(rho + p, tol).matrix
    assert (m == m.conj().T).all()
    assert not m.flags.writeable
    assert DensityMatrix(matrix=m).matrix is m


@pytest.mark.parametrize(
    "matrix",
    [
        [[0.5, 1e308], [1e308, 0.5]],
        [[0.5, 1e308j], [-1e308j, 0.5]],
        np.diag([0.25] * 4) + np.diag([-1.5e308] * 3, 1) + np.diag([-1.5e308] * 3, -1),
    ],
)
def test_a_hermitian_part_that_overflows_is_refused(matrix):
    # (a + a†)/2 of these finite inputs would hold inf and NaN; the guard refuses them first
    with pytest.raises(ValueError, match="too large"):
        validate_density(np.asarray(matrix))


def test_density_matrix_error_survives_pickle_and_copy():
    with pytest.raises(DensityMatrixError) as info:
        validate_density(np.diag([1.1, -0.1, 0, 0]))
    err = info.value
    for clone in (pickle.loads(pickle.dumps(err)), copy.copy(err), copy.deepcopy(err)):
        assert type(clone) is DensityMatrixError
        assert str(clone) == str(err)
        assert clone.violations == err.violations
        np.testing.assert_array_equal(clone.matrix, err.matrix)
        np.testing.assert_array_equal(clone.eigenvalues, err.eigenvalues)
    bare = DensityMatrixError([("unit trace", 0.5)], np.eye(2))
    clone = pickle.loads(pickle.dumps(bare))
    assert str(clone) == str(bare)
    assert not hasattr(clone, "eigenvalues")


# repr(_werner_fano(F)) and serialize_matrix(werner(F)) as the public FanoCoefficients
# constructor made them; q < 0 leaves -0.0 off the diagonal of c
WERNER_TEXT = {
    0.0: (
        "FanoCoefficients(a=array([0., 0., 0.]), b=array([0., 0., 0.]), c=array([[0.33333333, 0.        , 0.        ],\n"
        "       [0.        , 0.33333333, 0.        ],\n"
        "       [0.        , 0.        , 0.33333333]]))",
        '{"dim": 4, "im": [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]], '
        '"re": [[0.3333333333333333, 0.0, 0.0, 0.0], [0.0, 0.16666666666666669, 0.16666666666666666, 0.0], '
        "[0.0, 0.16666666666666666, 0.16666666666666669, 0.0], [0.0, 0.0, 0.0, 0.3333333333333333]]}",
    ),
    0.25: (
        "FanoCoefficients(a=array([0., 0., 0.]), b=array([0., 0., 0.]), c=array([[0., 0., 0.],\n"
        "       [0., 0., 0.],\n"
        "       [0., 0., 0.]]))",
        '{"dim": 4, "im": [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]], '
        '"re": [[0.25, 0.0, 0.0, 0.0], [0.0, 0.25, 0.0, 0.0], [0.0, 0.0, 0.25, 0.0], [0.0, 0.0, 0.0, 0.25]]}',
    ),
    0.3: (
        "FanoCoefficients(a=array([0., 0., 0.]), b=array([0., 0., 0.]), c=array([[-0.06666667, -0.        , -0.        ],\n"
        "       [-0.        , -0.06666667, -0.        ],\n"
        "       [-0.        , -0.        , -0.06666667]]))",
        '{"dim": 4, "im": [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]], '
        '"re": [[0.23333333333333334, 0.0, 0.0, 0.0], [0.0, 0.26666666666666666, -0.033333333333333326, 0.0], '
        "[0.0, -0.033333333333333326, 0.26666666666666666, 0.0], [0.0, 0.0, 0.0, 0.23333333333333334]]}",
    ),
    1.0: (
        "FanoCoefficients(a=array([0., 0., 0.]), b=array([0., 0., 0.]), c=array([[-1., -0., -0.],\n"
        "       [-0., -1., -0.],\n"
        "       [-0., -0., -1.]]))",
        '{"dim": 4, "im": [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]], '
        '"re": [[0.0, 0.0, 0.0, 0.0], [0.0, 0.5, -0.5, 0.0], [0.0, -0.5, 0.5, 0.0], [0.0, 0.0, 0.0, 0.0]]}',
    ),
}


@pytest.mark.parametrize("fraction", sorted(WERNER_TEXT))
def test_werner_coefficients_keep_their_text(fraction):
    fano_text, matrix_text = WERNER_TEXT[fraction]
    assert repr(_werner_fano(fraction)) == fano_text
    assert serialize_matrix(werner(fraction)) == matrix_text
