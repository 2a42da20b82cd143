import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
