import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dwigner
from dwigner import (
    bell_wigner_su4,
    emit_grid,
    fano_extract,
    parse_grid,
    parse_matrix,
    serialize_matrix,
    werner,
    wigner_pair,
    wigner_su4,
)
from helpers import random_density


def test_parse_simple_matrix():
    text = '{"dim":2,"re":[[0.5,0],[0,0.5]],"im":[[0,0],[0,0]]}'
    np.testing.assert_allclose(parse_matrix(text), np.eye(2) / 2, atol=1e-15)


def test_werner_serialization_off_diagonal():
    rho = parse_matrix(serialize_matrix(werner(0.75)))
    assert abs(rho[1, 2] - (-1 / 3)) < 1e-12


def test_matrix_round_trip_bit_identical(rng):
    for n in (2, 4):
        m = random_density(rng, n)
        again = parse_matrix(serialize_matrix(m))
        assert np.array_equal(again, m)


def test_parse_matrix_reports_syntax_position():
    with pytest.raises(ValueError, match="line"):
        parse_matrix('{"dim": 2,\n "re": [[0, 1],')


def test_parse_matrix_missing_field():
    with pytest.raises(ValueError, match="'im'"):
        parse_matrix('{"dim":1,"re":[[1.0]]}')


def test_parse_matrix_ragged_rows():
    with pytest.raises(ValueError, match="row 1"):
        parse_matrix('{"dim":2,"re":[[1,0],[0]],"im":[[0,0],[0,0]]}')


def test_parse_matrix_dim_mismatch():
    with pytest.raises(ValueError, match="2 rows"):
        parse_matrix('{"dim":2,"re":[[1,0]],"im":[[0,0],[0,0]]}')


def test_parse_matrix_rejects_boolean_dim():
    with pytest.raises(ValueError, match="'dim'"):
        parse_matrix('{"dim":true,"re":[[1.0]],"im":[[0.0]]}')


@pytest.mark.parametrize("re, im", [("NaN", "0.0"), ("Infinity", "0.0"), ("1.0", "-Infinity")])
def test_parse_matrix_rejects_non_finite_entries(re, im):
    with pytest.raises(ValueError, match="non-finite"):
        parse_matrix(f'{{"dim":1,"re":[[{re}]],"im":[[{im}]]}}')


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.5, np.nan), complex(0.0, -np.inf)])
def test_serialize_matrix_refuses_non_finite_entries(value):
    # JSON has no token for them that parse_matrix reads back, so no text is written
    m = np.eye(2, dtype=complex) / 2
    m[1, 0] = value
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        serialize_matrix(m)


@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
def test_serialize_matrix_rejects_a_non_square_array(shape):
    with pytest.raises(ValueError) as info:
        serialize_matrix(np.zeros(shape))
    assert str(info.value) == f"expected a square matrix, got shape {shape}"


def test_parse_matrix_accepts_bytes():
    text = serialize_matrix(np.eye(2) / 2).encode()
    np.testing.assert_allclose(parse_matrix(text), np.eye(2) / 2, atol=1e-15)


def test_emit_constant_grid_rows():
    out = emit_grid(np.full((4, 4), 0.25))
    lines = out.strip().splitlines()
    assert lines[0] == "mu,nu,w"
    assert len(lines) == 17
    assert all(line.endswith(",0.25") for line in lines[1:])


def test_emit_contains_extreme_value():
    grid = bell_wigner_su4("psi+")
    out = emit_grid(grid)
    row = next(line for line in out.splitlines() if line.startswith("1,0,"))
    assert abs(float(row.split(",")[-1]) - 1.153) < 5e-4


def test_pair_grid_header():
    grid = wigner_pair(fano_extract(werner(0.5)))
    out = emit_grid(grid)
    assert out.splitlines()[0] == "mu1,nu1,mu2,nu2,w"
    assert len(out.strip().splitlines()) == 17


def test_gnuplot_blocks():
    out = emit_grid(np.full((4, 4), 0.25), "gnuplot")
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 4
    assert blocks[0].splitlines()[0] == "0 0 0.25"


def test_json_format_is_valid_json(rng):
    grid = wigner_su4(random_density(rng, 4))
    doc = json.loads(emit_grid(grid, "json"))
    assert doc["columns"] == ["mu", "nu", "w"]
    assert len(doc["rows"]) == 16


@pytest.mark.parametrize("fmt", ["csv", "json", "gnuplot"])
def test_grid_round_trips_exact(rng, fmt):
    single = wigner_su4(random_density(rng, 4))
    assert np.array_equal(parse_grid(emit_grid(single, fmt), fmt), single)
    assert np.array_equal(parse_grid(emit_grid(single, fmt).encode(), fmt), single)
    pair = wigner_pair(fano_extract(random_density(rng, 4)))
    assert np.array_equal(parse_grid(emit_grid(pair, fmt), fmt), pair)


# awkward floats: a shortest repr that is not the decimal typed, a denormal-scale value, a signed zero
AWKWARD_VALUES = [0.1, 1e-17, -0.0, 1 / 3, 0.25, -0.1, 2 / 3, 1e-300, 0.0, -1 / 3, 0.7, 1e16, 3.0, -2.5e-8, 0.125, 1 / 7]

PINNED_GRID_TEXT = {
    ((4, 4), "csv"): (
        "mu,nu,w\n0,0,0.1\n0,1,1e-17\n0,2,-0.0\n0,3,0.3333333333333333\n"
        "1,0,0.25\n1,1,-0.1\n1,2,0.6666666666666666\n1,3,1e-300\n"
        "2,0,0.0\n2,1,-0.3333333333333333\n2,2,0.7\n2,3,1e+16\n"
        "3,0,3.0\n3,1,-2.5e-08\n3,2,0.125\n3,3,0.14285714285714285\n"
    ),
    ((4, 4), "json"): (
        '{"columns": ["mu", "nu", "w"], "rows": [[0, 0, 0.1], [0, 1, 1e-17], [0, 2, -0.0], '
        "[0, 3, 0.3333333333333333], [1, 0, 0.25], [1, 1, -0.1], [1, 2, 0.6666666666666666], "
        "[1, 3, 1e-300], [2, 0, 0.0], [2, 1, -0.3333333333333333], [2, 2, 0.7], [2, 3, 1e+16], "
        "[3, 0, 3.0], [3, 1, -2.5e-08], [3, 2, 0.125], [3, 3, 0.14285714285714285]]}\n"
    ),
    ((4, 4), "gnuplot"): (
        "0 0 0.1\n0 1 1e-17\n0 2 -0.0\n0 3 0.3333333333333333\n\n"
        "1 0 0.25\n1 1 -0.1\n1 2 0.6666666666666666\n1 3 1e-300\n\n"
        "2 0 0.0\n2 1 -0.3333333333333333\n2 2 0.7\n2 3 1e+16\n\n"
        "3 0 3.0\n3 1 -2.5e-08\n3 2 0.125\n3 3 0.14285714285714285\n"
    ),
    ((2, 2, 2, 2), "csv"): (
        "mu1,nu1,mu2,nu2,w\n0,0,0,0,0.14285714285714285\n0,0,0,1,0.125\n0,0,1,0,-2.5e-08\n"
        "0,0,1,1,3.0\n0,1,0,0,1e+16\n0,1,0,1,0.7\n0,1,1,0,-0.3333333333333333\n0,1,1,1,0.0\n"
        "1,0,0,0,1e-300\n1,0,0,1,0.6666666666666666\n1,0,1,0,-0.1\n1,0,1,1,0.25\n"
        "1,1,0,0,0.3333333333333333\n1,1,0,1,-0.0\n1,1,1,0,1e-17\n1,1,1,1,0.1\n"
    ),
    ((2, 2, 2, 2), "json"): (
        '{"columns": ["mu1", "nu1", "mu2", "nu2", "w"], "rows": [[0, 0, 0, 0, 0.14285714285714285], '
        "[0, 0, 0, 1, 0.125], [0, 0, 1, 0, -2.5e-08], [0, 0, 1, 1, 3.0], [0, 1, 0, 0, 1e+16], "
        "[0, 1, 0, 1, 0.7], [0, 1, 1, 0, -0.3333333333333333], [0, 1, 1, 1, 0.0], "
        "[1, 0, 0, 0, 1e-300], [1, 0, 0, 1, 0.6666666666666666], [1, 0, 1, 0, -0.1], "
        "[1, 0, 1, 1, 0.25], [1, 1, 0, 0, 0.3333333333333333], [1, 1, 0, 1, -0.0], "
        "[1, 1, 1, 0, 1e-17], [1, 1, 1, 1, 0.1]]}\n"
    ),
    ((2, 2, 2, 2), "gnuplot"): (
        "0 0 0 0 0.14285714285714285\n0 0 0 1 0.125\n0 0 1 0 -2.5e-08\n0 0 1 1 3.0\n"
        "0 1 0 0 1e+16\n0 1 0 1 0.7\n0 1 1 0 -0.3333333333333333\n0 1 1 1 0.0\n\n"
        "1 0 0 0 1e-300\n1 0 0 1 0.6666666666666666\n1 0 1 0 -0.1\n1 0 1 1 0.25\n"
        "1 1 0 0 0.3333333333333333\n1 1 0 1 -0.0\n1 1 1 0 1e-17\n1 1 1 1 0.1\n"
    ),
}


@pytest.mark.parametrize("shape, fmt", list(PINNED_GRID_TEXT))
def test_emit_grid_bytes_are_pinned(shape, fmt):
    # the pair grid holds the values in reverse order, so both shapes see every value in a new place
    values = AWKWARD_VALUES if len(shape) == 2 else AWKWARD_VALUES[::-1]
    assert emit_grid(np.array(values).reshape(shape), fmt) == PINNED_GRID_TEXT[shape, fmt]


def test_serialize_matrix_bytes_are_pinned():
    m = np.array([[complex(0.1, 1e-17), complex(1 / 3, -0.0)], [complex(-0.0, 0.1), complex(1e-17, 0.0)]])
    expected = '{"dim": 2, "im": [[1e-17, -0.0], [0.1, 0.0]], "re": [[0.1, 0.3333333333333333], [-0.0, 1e-17]]}'
    assert serialize_matrix(m) == expected


@pytest.mark.parametrize("fmt", ["csv", "json", "gnuplot"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_emit_grid_rejects_non_finite_values(fmt, value):
    grid = np.full((2, 2, 2, 2), 0.25)
    grid[1, 0, 1, 1] = value
    with pytest.raises(ValueError, match="finite"):
        emit_grid(grid, fmt)


def test_unknown_format():
    with pytest.raises(ValueError, match="format"):
        emit_grid(np.zeros((2, 2)), "xml")
    with pytest.raises(ValueError, match="format"):
        parse_grid("", "xml")


def test_parse_grid_row_count_check():
    text = "mu,nu,w\n0,0,0.5\n0,1,0.5\n1,0,0.0\n"
    with pytest.raises(ValueError, match="perfect square"):
        parse_grid(text)


def test_parse_grid_duplicate_index():
    text = "mu,nu,w\n0,0,0.5\n0,0,0.5\n1,0,0.0\n1,1,0.0\n"
    with pytest.raises(ValueError, match="duplicate"):
        parse_grid(text)


def _csv_grid(first_row):
    rows = [first_row] + [f"{mu},{nu},0.25" for mu in range(4) for nu in range(4) if (mu, nu) != (3, 0)]
    return "mu,nu,w\n" + "\n".join(rows) + "\n"


def test_parse_grid_rejects_negative_csv_index():
    # -1 must not wrap around to fill cell [3, 0]
    assert parse_grid(_csv_grid("3,0,0.25")).shape == (4, 4)
    with pytest.raises(ValueError, match="non-negative integer"):
        parse_grid(_csv_grid("-1,0,0.25"))


def _json_grid(first_index):
    rows = [[first_index, 1, 0.5], [0, 0, 0.5], [1, 0, 0.0], [1, 1, 0.0]]
    return json.dumps({"columns": ["mu", "nu", "w"], "rows": rows})


def test_parse_grid_rejects_fractional_json_index():
    np.testing.assert_array_equal(parse_grid(_json_grid(0), "json"), [[0.5, 0.5], [0.0, 0.0]])
    with pytest.raises(ValueError, match="non-negative integer"):
        parse_grid(_json_grid(0.5), "json")
    with pytest.raises(ValueError, match="non-negative integer"):
        parse_grid(_json_grid(1.5), "json")


def test_parse_grid_rejects_boolean_json_index():
    with pytest.raises(ValueError, match="non-negative integer"):
        parse_grid(_json_grid(False), "json")
    with pytest.raises(ValueError, match="non-negative integer"):
        parse_grid(_json_grid(True), "json")


def test_parse_grid_rejects_negative_gnuplot_pair_index():
    grid = np.arange(16.0).reshape(2, 2, 2, 2)
    text = emit_grid(grid, "gnuplot")
    assert text.startswith("0 0 0 0 0.0\n")
    with pytest.raises(ValueError, match="non-negative integer"):
        parse_grid(text.replace("0 0 0 0 0.0", "0 0 -1 0 0.0", 1), "gnuplot")


@pytest.mark.parametrize("fmt", ["csv", "json", "gnuplot"])
def test_parse_grid_rejects_index_outside_the_shape(fmt):
    grid = np.zeros((2, 2))
    text = emit_grid(grid, fmt)
    if fmt == "json":
        doc = json.loads(text)
        doc["rows"][-1][0] = 2
        text = json.dumps(doc)
    else:
        sep = "," if fmt == "csv" else " "
        text = text.replace(f"1{sep}1{sep}", f"2{sep}1{sep}")
    with pytest.raises(ValueError, match="out of range"):
        parse_grid(text, fmt)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "0x1", "true"])
@pytest.mark.parametrize("fmt", ["csv", "gnuplot"])
def test_parse_grid_rejects_text_values_that_are_not_finite_numbers(fmt, value):
    text = emit_grid(np.zeros((2, 2)), fmt).replace("0.0", value, 1)
    with pytest.raises(ValueError, match="not a finite number"):
        parse_grid(text, fmt)


def _json_grid_value(value):
    return '{"rows": [[0, 0, %s], [0, 1, 0.5], [1, 0, 0.0], [1, 1, 0.0]]}' % value


def test_parse_grid_rejects_boolean_json_value():
    assert parse_grid(_json_grid_value("1"), "json")[0, 0] == 1.0
    with pytest.raises(ValueError, match="not a finite number"):
        parse_grid(_json_grid_value("true"), "json")


def test_parse_grid_rejects_null_json_value():
    with pytest.raises(ValueError, match="not a finite number"):
        parse_grid(_json_grid_value("null"), "json")


@pytest.mark.parametrize("value", ["NaN", "Infinity", "1e400", "1" + "0" * 400])
def test_parse_grid_rejects_non_finite_json_value(value):
    with pytest.raises(ValueError, match="not a finite number"):
        parse_grid(_json_grid_value(value), "json")


@pytest.mark.parametrize("rows", ["[1, 2, 3, 4]", "[[0, 0, 1], 2, 3, 4]", "5", "null", '"rows"'])
def test_parse_grid_rejects_json_rows_that_are_not_lists(rows):
    with pytest.raises(ValueError, match="list"):
        parse_grid('{"rows": %s}' % rows, "json")


@pytest.mark.parametrize("digit", ["\u0660", "\u0661", "\uff11", "\u00b9"])
@pytest.mark.parametrize("fmt", ["csv", "gnuplot"])
def test_parse_grid_index_is_ascii_digits_only(fmt, digit):
    sep = "," if fmt == "csv" else " "
    text = emit_grid(np.zeros((2, 2)), fmt)
    assert parse_grid(text, fmt).shape == (2, 2)
    with pytest.raises(ValueError, match="non-negative integer"):
        parse_grid(text.replace(f"1{sep}1{sep}", f"{digit}{sep}1{sep}"), fmt)


@pytest.mark.parametrize("entry", ['"1"', "true", "false", "null", "[1]", "{}"])
def test_parse_matrix_entries_must_be_json_numbers(entry):
    assert np.array_equal(parse_matrix('{"dim":2,"re":[[1,0],[0,1.0]],"im":[[0,0],[0,0]]}'), np.eye(2))
    with pytest.raises(ValueError, match="not JSON numbers"):
        parse_matrix('{"dim":2,"re":[[%s,0],[0,1]],"im":[[0,0],[0,0]]}' % entry)
    with pytest.raises(ValueError, match="not JSON numbers"):
        parse_matrix('{"dim":2,"re":[[1,0],[0,1]],"im":[[0,0],[%s,0]]}' % entry)


def test_parse_matrix_rejects_an_integer_beyond_float_range():
    with pytest.raises(ValueError, match="non-finite"):
        parse_matrix('{"dim":1,"re":[[%s]],"im":[[0]]}' % ("1" + "0" * 400))


FUZZ_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()
    | st.text(max_size=8)
)
json_trees = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=30,
)
small_json = st.one_of(json_leaves, st.lists(json_leaves, max_size=5))
matrix_docs = st.fixed_dictionaries(
    {"dim": st.one_of(st.integers(0, 3), json_trees), "re": json_trees, "im": json_trees}
) | st.fixed_dictionaries(
    {
        "dim": st.just(2),
        "re": st.lists(st.lists(small_json, min_size=2, max_size=2), min_size=2, max_size=2),
        "im": st.lists(st.lists(small_json, min_size=2, max_size=2), min_size=2, max_size=2),
    }
)
grid_docs = st.fixed_dictionaries({"rows": json_trees}) | st.fixed_dictionaries(
    {"rows": st.lists(st.one_of(small_json, st.lists(small_json, min_size=3, max_size=3)), min_size=4, max_size=4)}
)
grid_tokens = st.one_of(
    st.sampled_from(["0", "1", " 1", "-1", "1.5", "nan", "inf", "1e999", "\u0661", "true", "", "x"]),
    st.text(max_size=4),
)


def _two_by_two_with(position_token):
    # a complete 2x2 grid with one field replaced
    rows = [[str(mu), str(nu), "0.5"] for mu in range(2) for nu in range(2)]
    position, token = position_token
    rows[position // 3][position % 3] = token
    return rows


grid_texts = st.lists(st.lists(grid_tokens, min_size=1, max_size=6), max_size=6) | st.tuples(
    st.integers(0, 11), grid_tokens
).map(_two_by_two_with)


def _finite_or_value_error(parse, text):
    # a parser either returns finite numbers or raises ValueError, nothing else
    try:
        parsed = parse(text)
    except ValueError:
        return
    assert np.all(np.isfinite(parsed))


@FUZZ_SETTINGS
@given(st.one_of(json_trees, matrix_docs))
def test_fuzz_parse_matrix_raises_finite_or_value_error(doc):
    _finite_or_value_error(parse_matrix, json.dumps(doc))


@FUZZ_SETTINGS
@given(st.one_of(json_trees, grid_docs))
def test_fuzz_parse_json_grid_raises_finite_or_value_error(doc):
    _finite_or_value_error(lambda text: parse_grid(text, "json"), json.dumps(doc))


@FUZZ_SETTINGS
@given(grid_texts, st.sampled_from([("csv", ","), ("gnuplot", " ")]))
def test_fuzz_parse_text_grid_raises_finite_or_value_error(lines, fmt_sep):
    fmt, sep = fmt_sep
    text = "\n".join(sep.join(tokens) for tokens in lines)
    _finite_or_value_error(lambda t: parse_grid(t, fmt), ("mu,nu,w\n" if fmt == "csv" else "") + text)


@FUZZ_SETTINGS
@given(st.text(max_size=40), st.sampled_from(["csv", "json", "gnuplot", "matrix"]))
def test_fuzz_free_text_raises_finite_or_value_error(text, fmt):
    parse = parse_matrix if fmt == "matrix" else (lambda t: parse_grid(t, fmt))
    _finite_or_value_error(parse, text)


# the exact message of every malformed class, as the row-by-row parsers wrote them before the fast paths
MATRIX_MESSAGES = [
    ('{"dim": 2,\n "re": [[0, 1],', "malformed matrix file: Expecting value: line 2 column 16 (char 26)"),
    ("[1, 2]", "matrix file must be a JSON object, got list"),
    ('{"dim": 1, "re": [[1.0]]}', "matrix file is missing required field 'im'"),
    ('{"dim": true, "re": [[1.0]], "im": [[0.0]]}', "field 'dim' must be a positive integer, got True"),
    ('{"dim": 0, "re": [], "im": []}', "field 'dim' must be a positive integer, got 0"),
    ('{"dim": 2.0, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}', "field 'dim' must be a positive integer, got 2.0"),
    ('{"dim": 2, "re": [[1, 0]], "im": [[0, 0], [0, 0]]}', "field 're' must have 2 rows, got 1"),
    ('{"dim": 2, "re": "x", "im": [[0, 0], [0, 0]]}', "field 're' must have 2 rows, got 'x'"),
    ('{"dim": 2, "re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]}', "row 1 of field 're' has 1 entries, expected 2"),
    ('{"dim": 2, "re": [[1, 0], [0, 1]], "im": [5, [0, 0]]}', "row 0 of field 'im' has 1 entries, expected 2"),
    ('{"dim": 2, "re": [[1, 0], [0, 1]], "im": [[0, "0"], [0, 0]]}', "field 'im' has entries that are not JSON numbers"),
    ('{"dim": 2, "re": [[1, 0], [0, NaN]], "im": [[0, 0], [0, 0]]}', "field 're' has non-finite entries"),
    ('{"dim": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [-Infinity, 0]]}', "field 'im' has non-finite entries"),
    ('{"dim": 1, "re": [[1]], "im": [[1%s]]}' % ("0" * 400), "field 'im' has non-finite entries"),
    # with faults in both fields, the one in 're' is named
    ('{"dim": 2, "re": [[1, 0], [0, NaN]], "im": [[0, 0], [0]]}', "field 're' has non-finite entries"),
    ('{"dim": 2, "re": [[1, 0], [0, NaN]], "im": [[0, null], [0, 0]]}', "field 're' has non-finite entries"),
]

GRID_MESSAGES = [
    ("mu,nu,w\n0,0,1\n0,1,1\n1,0,1\n1,1,1\n", "xml", "unknown grid format 'xml'; expected one of ('csv', 'json', 'gnuplot')"),
    ("\n \n", "csv", "grid file is empty"),
    ("mu,nu,w\n", "csv", "grid file contains no rows"),
    ("", "gnuplot", "grid file contains no rows"),
    ('{"rows": [[0, 0, 1],', "json", "malformed grid file: Expecting value: line 1 column 21 (char 20)"),
    ('{"cols": []}', "json", "grid file must be a JSON object with a 'rows' list"),
    ('{"rows": [[0, 0, 1], 5, [1, 0, 1], [1, 1, 1]]}', "json", "every grid row must be a list of indices and a value"),
    ("mu,nu,w\n0,0,1\n0,1,1\n1,0,1\n", "csv", "grid file has 3 rows, not a perfect square"),
    ("0 0 0 0 1\n" * 15, "gnuplot", "pair grid file must have 16 rows, got 15"),
    ("mu,nu,w\n0,0,0,1\n", "csv", "grid rows must have 3 or 5 columns, got 4"),
    ("mu,nu,w\n0,0,1\n0,1,1\n1,0,1\n1,1\n", "csv", "grid file has rows of inconsistent width"),
    ("mu,nu,w\n0,0,1\n0,1,1\n1,0,1\n-1,1,1\n", "csv", "grid index '-1' is not a non-negative integer"),
    ('{"rows": [[0, 0, 1], [0, 1.5, 1], [1, 0, 1], [1, 1, 1]]}', "json", "grid index 1.5 is not a non-negative integer"),
    ("0 0 1\n0 1 1\n\n1 0 1\n0 0 1\n", "gnuplot", "duplicate grid index (0, 0)"),
    ("mu,nu,w\n0,0,1\n0,1,nan\n1,0,1\n1,1,1\n", "csv", "grid value 'nan' is not a finite number"),
    ('{"rows": [[0, 0, 1], [0, 1, null], [1, 0, 1], [1, 1, 1]]}', "json", "grid value None is not a finite number"),
    ("0 0 1\n0 1 1\n\n1 0 1\n2 1 1\n", "gnuplot", "grid index (2, 1) out of range for shape (2, 2)"),
]


@pytest.mark.parametrize("text, message", MATRIX_MESSAGES)
def test_parse_matrix_messages_are_pinned(text, message):
    with pytest.raises(ValueError) as info:
        parse_matrix(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text, fmt, message", GRID_MESSAGES)
def test_parse_grid_messages_are_pinned(text, fmt, message):
    with pytest.raises(ValueError) as info:
        parse_grid(text, fmt)
    assert str(info.value) == message


def test_parse_grid_refuses_a_json_string_index():
    with pytest.raises(ValueError) as info:
        parse_grid('{"rows": [["0", 0, 0.25], [0, 1, 0.25], [1, 0, 0.25], [1, 1, 0.25]]}', "json")
    assert str(info.value) == "grid index '0' is not a non-negative integer"


def test_parse_grid_refuses_a_json_string_value():
    with pytest.raises(ValueError) as info:
        parse_grid('{"rows": [[0, 0, "0.25"], [0, 1, 0.25], [1, 0, 0.25], [1, 1, 0.25]]}', "json")
    assert str(info.value) == "grid value '0.25' is not a finite number"


def test_parse_matrix_keeps_signed_zeros():
    m = np.array([[complex(-0.0, 0.5), complex(0.25, -0.0)], [complex(0.25, 0.0), complex(-0.0, -0.0)]])
    again = parse_matrix(serialize_matrix(m))
    assert np.signbit(again.real).tolist() == np.signbit(m.real).tolist()
    assert np.signbit(again.imag).tolist() == np.signbit(m.imag).tolist()


def _reference_emit(w, fmt):
    # the per-row emitter the template replaced: one formatted line per cell
    names = ["mu", "nu", "w"] if w.ndim == 2 else ["mu1", "nu1", "mu2", "nu2", "w"]
    rows = [(index, float(w[index])) for index in np.ndindex(*w.shape)]
    if fmt == "csv":
        return "\n".join([",".join(names)] + [",".join([*map(str, i), repr(v)]) for i, v in rows]) + "\n"
    if fmt == "json":
        return json.dumps({"columns": names, "rows": [[*i, v] for i, v in rows]}) + "\n"
    lines, block = [], None
    for i, v in rows:
        if block is not None and i[0] != block:
            lines.append("")
        block = i[0]
        lines.append(" ".join([*map(str, i), repr(v)]))
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1 / 3, -1 / 3, 1e16, 1e22, 0.1, 1.7976931348623157e308]
grid_shapes = st.sampled_from([(n, n) for n in range(2, 9)] + [(2, 2, 2, 2)])


@st.composite
def emit_cases(draw):
    shape = draw(grid_shapes)
    size = int(np.prod(shape))
    cell = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    values = draw(st.lists(cell, min_size=size, max_size=size))
    return np.array(values).reshape(shape), draw(st.sampled_from(["csv", "json", "gnuplot"]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(emit_cases())
def test_emit_grid_matches_the_per_row_reference(case):
    w, fmt = case
    text = emit_grid(w, fmt)
    assert text == _reference_emit(w, fmt)
    back = parse_grid(text, fmt)
    assert back.tobytes() == w.tobytes()  # signed zeros included


def test_emit_grid_edge_values_in_every_shape_and_format():
    for shape in [(n, n) for n in range(2, 9)] + [(2, 2, 2, 2)]:
        size = int(np.prod(shape))
        w = np.resize(np.array(EDGE_FLOATS), size).reshape(shape)
        for fmt in ("csv", "json", "gnuplot"):
            assert emit_grid(w, fmt) == _reference_emit(w, fmt)


@pytest.mark.parametrize("shape", [(4, 4), (2, 2, 2, 2)])
def test_parse_grid_reads_other_layouts_to_the_same_grid(shape):
    w = np.arange(16.0).reshape(shape) / 7 - 1
    csv = emit_grid(w, "csv")
    header, *rows = csv.splitlines()
    permuted = "\n".join([header, *rows[::-1]]) + "\n"
    padded = "\n".join([header] + [",".join(f" {f} " for f in row.split(",")) for row in rows]) + "\n"
    crlf = csv.replace("\n", "\r\n")
    gnuplot_permuted = "\n".join(emit_grid(w, "gnuplot").splitlines()[::-1])
    doc = json.loads(emit_grid(w, "json"))
    doc["rows"] = doc["rows"][3:] + doc["rows"][:3]
    plus = csv.replace(",0.", ",+0.")
    assert plus != csv
    for text, fmt in [
        (permuted, "csv"),
        (padded, "csv"),
        (crlf, "csv"),
        (plus, "csv"),
        (gnuplot_permuted, "gnuplot"),
        (json.dumps(doc), "json"),
    ]:
        assert parse_grid(text, fmt).tobytes() == w.tobytes()


def test_cli_import_builds_no_io_cache():
    code = (
        "import dwigner.cli\n"
        "from dwigner.io import _grid_template, _index_fields\n"
        "print(_grid_template.cache_info().currsize, _index_fields.cache_info().currsize)"
    )
    src = str(Path(dwigner.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert out.stdout.split() == ["0", "0"]


@pytest.mark.parametrize("row, index", [(3, "true"), (3, "1.0"), (3, '"1"'), (2, "false"), (2, "0.0")])
def test_parse_grid_refuses_a_json_index_that_only_equals_an_integer(row, index):
    # in the layout emit_grid writes, True == 1 and 0.0 == 0, so the index type is checked too
    rows = ["[0, 0, 0.25]", "[0, 1, 0.25]", "[1, 0, 0.25]", "[1, 1, 0.25]"]
    assert np.array_equal(parse_grid('{"rows": [%s]}' % ", ".join(rows), "json"), np.full((2, 2), 0.25))
    rows[row] = "[1, %s, 0.25]" % index
    with pytest.raises(ValueError, match="non-negative integer"):
        parse_grid('{"rows": [%s]}' % ", ".join(rows), "json")


def test_parse_grid_refuses_a_csv_file_without_its_header():
    w = np.arange(16.0).reshape(4, 4) / 16
    headerless = "".join(emit_grid(w, "csv").splitlines(keepends=True)[1:])
    with pytest.raises(ValueError) as info:
        parse_grid(headerless)
    assert str(info.value) == "grid file header must be 'mu,nu,w' over 3-column rows, got '0,0,0.0'"


@pytest.mark.parametrize(
    "header, expected",
    [("0,0,5", "mu,nu,w"), ("mu1,nu1,mu2,nu2,w", "mu,nu,w"), ("mu,nu", "mu,nu,w"), ("mu,nu,w", "mu1,nu1,mu2,nu2,w")],
)
def test_parse_grid_refuses_a_csv_header_that_is_not_the_emitted_one(header, expected):
    shape = (4, 4) if expected == "mu,nu,w" else (2, 2, 2, 2)
    body = emit_grid(np.full(shape, 1 / 16), "csv").split("\n", 1)[1]
    with pytest.raises(ValueError, match=f"header must be '{expected}'"):
        parse_grid(f"{header}\n{body}")


def test_parse_grid_reads_a_csv_header_with_padded_fields():
    w = np.full((2, 2, 2, 2), 1 / 16)
    text = emit_grid(w, "csv").replace("mu1,nu1,mu2,nu2,w", " mu1 , nu1,mu2, nu2 ,w ", 1)
    assert parse_grid(text).tobytes() == w.tobytes()


def test_serialize_matrix_refuses_an_empty_matrix():
    # a dim of 0 would be written that parse_matrix refuses
    with pytest.raises(ValueError, match=r"^expected a square matrix of dimension at least 1, got shape \(0, 0\)$"):
        serialize_matrix(np.zeros((0, 0)))


def test_emit_grid_refuses_an_empty_grid():
    # the header alone would be written, which parse_grid refuses
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fmt in ("csv", "json", "gnuplot"):
            with pytest.raises(ValueError) as info:
                emit_grid(np.zeros((0, 0)), fmt)
            assert str(info.value) == "expected an N x N grid or a 2x2x2x2 pair grid, got shape (0, 0)"
