import json

import numpy as np
import pytest

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
