import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dwigner
from dwigner import bell, parse_grid, parse_matrix, serialize_matrix, validate_density, werner, wigner_su4
from dwigner.algorithm import run_parity_algorithm
from dwigner.cli import build_parser, main
from helpers import random_density, random_xstate


@pytest.fixture
def matrix_file(tmp_path):
    def write(name, matrix):
        path = tmp_path / name
        path.write_text(serialize_matrix(matrix), encoding="utf-8")
        return str(path)

    return write


def test_state_werner_pair_grid(capsys):
    assert main(["state", "--name", "werner:F=1", "--emit", "wigner", "--rep", "pair"]) == 0
    out = capsys.readouterr().out
    grid = parse_grid(out)
    assert set(np.round(grid.reshape(-1), 12)) == {0.5, -0.5}


def test_state_matrix_emission(capsys):
    assert main(["state", "--name", "bell:phi+", "--emit", "matrix"]) == 0
    out = capsys.readouterr().out
    np.testing.assert_allclose(parse_matrix(out), bell("phi+"), atol=1e-15)


def test_state_matrix_has_no_negative_zero(capsys):
    # the zero coherences of ph:x=0 are composed, like every cell, as sums that hold a +0.0 term
    assert main(["state", "--name", "ph:x=0", "--emit", "matrix"]) == 0
    out = capsys.readouterr().out
    assert "-0.0" not in out
    np.testing.assert_array_equal(parse_matrix(out), np.diag([1.0, 0, 0, 0]))


def test_state_level_and_munro(capsys):
    assert main(["state", "--name", "level:2", "--emit", "matrix"]) == 0
    rho = parse_matrix(capsys.readouterr().out)
    np.testing.assert_allclose(rho, np.diag([0, 0, 1.0, 0]), atol=1e-15)
    assert main(["state", "--name", "munro:g=0.75", "--emit", "wigner", "--rep", "su4"]) == 0
    capsys.readouterr()


def test_algorithm_golden_line(capsys):
    assert main(["algorithm", "--pulse", "6"]) == 0
    assert capsys.readouterr().out == "level 3, parity negative, p=1.000\n"
    assert main(["algorithm", "--pulse", "2"]) == 0
    assert capsys.readouterr().out == "level 1, parity positive, p=1.000\n"


def test_algorithm_snapshots(tmp_path, capsys):
    directory = tmp_path / "steps"
    assert main(["algorithm", "--pulse", "6", "--snapshots", str(directory)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in directory.iterdir())
    assert names == [
        "step0_initial.csv",
        "step1_fourier.csv",
        "step2_pulse.csv",
        "step3_inverse_fourier.csv",
    ]
    grid = parse_grid((directory / "step0_initial.csv").read_text())
    np.testing.assert_allclose(grid, wigner_su4(np.diag([0, 1.0, 0, 0])), atol=1e-12)


def test_wigner_command_su4(matrix_file, capsys):
    path = matrix_file("w.json", werner(0.5))
    assert main(["wigner", "--input", path, "--rep", "su4"]) == 0
    grid = parse_grid(capsys.readouterr().out)
    np.testing.assert_allclose(grid, wigner_su4(werner(0.5)), atol=1e-12)


def test_wigner_command_su2(matrix_file, capsys):
    path = matrix_file("q.json", np.eye(2) / 2)
    assert main(["wigner", "--input", path, "--rep", "su2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "mu,nu,w"
    np.testing.assert_allclose(parse_grid(out), 0.5, atol=1e-12)


def test_wigner_rejects_invalid_density(matrix_file, capsys):
    path = matrix_file("bad.json", np.diag([1.1, -0.1, 0.0, 0.0]))
    assert main(["wigner", "--input", path, "--rep", "su4"]) == 1
    err = capsys.readouterr().err
    assert "eigenvalues" in err
    assert "-0.1" in err


def test_wigner_output_file(matrix_file, tmp_path, capsys):
    path = matrix_file("w.json", werner(0.25))
    out_path = tmp_path / "grid.csv"
    assert main(["wigner", "--input", path, "--rep", "su4", "--output", str(out_path)]) == 0
    assert parse_grid(out_path.read_text()).shape == (4, 4)


def test_delta_pair_representation(matrix_file, capsys):
    path = matrix_file("w.json", werner(1.0))
    assert main(["delta", "--input", path, "--rep", "pair"]) == 0
    grid = parse_grid(capsys.readouterr().out)
    assert grid.shape == (2, 2, 2, 2)
    assert set(np.round(grid.reshape(-1), 12)) == {-0.75, 0.25}


def test_delta_xstate_representation(matrix_file, capsys):
    path = matrix_file("b.json", bell("phi+"))
    assert main(["delta", "--input", path, "--rep", "xstate"]) == 0
    grid = parse_grid(capsys.readouterr().out)
    assert grid.shape == (4, 4)
    assert abs(np.max(np.abs(grid)) - 0.6533) < 5e-4


def test_marginals_command(matrix_file, capsys):
    path = matrix_file("b.json", bell("phi+"))
    assert main(["marginals", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(doc["mu"], [1.0, 0.0, 0.0, 1.0], atol=1e-12)
    assert abs(sum(doc["nu"]) / 2 - 1.0) < 1e-12


def test_fidelity_command(matrix_file, capsys):
    path = matrix_file("w.json", werner(0.5))
    assert main(["fidelity", "--a", path, "--b", path]) == 0
    assert capsys.readouterr().out == "1.0\n"


def test_validate_valid_matrix(matrix_file, capsys):
    path = matrix_file("id.json", np.eye(4) / 4)
    assert main(["validate", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "eigenvalues: [0.25, 0.25, 0.25, 0.25]" in out
    assert "inequality 1 (tr2 <= 1): pass" in out
    assert out.strip().endswith("verdict: valid density matrix")


def test_validate_invalid_matrix(matrix_file, capsys):
    path = matrix_file("bad.json", np.diag([1.1, -0.1, 0.0, 0.0]))
    assert main(["validate", "--input", path]) == 1
    out = capsys.readouterr().out
    assert "verdict: invalid" in out


def test_validate_refuses_a_hermitian_part_that_overflows(matrix_file, capsys):
    # finite entries whose (a + a†)/2 would overflow: the guard refuses the file before the check
    matrix = np.diag([0.25] * 4) + np.diag([-1.5e308] * 3, 1) + np.diag([-1.5e308] * 3, -1)
    path = matrix_file("overflow.json", matrix)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--input", path]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: {TOO_LARGE}\n")


def test_validate_rejects_boolean_dim(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"dim": true, "re": [[1.0]], "im": [[0.0]]}', encoding="utf-8")
    assert main(["validate", "--input", str(path)]) == 1
    assert "'dim'" in capsys.readouterr().err


def test_state_rejects_non_finite_parameter(capsys):
    assert main(["state", "--name", "gisin:s=nan,p=0.1,x=0.5", "--emit", "matrix"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_unknown_state_name_is_usage_error(capsys):
    assert main(["state", "--name", "foo:x=1"]) == 2
    assert "unknown state name" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, message",
    [
        ("werner:G=0.5", "state 'werner:G=0.5' requires parameter 'F'"),
        ("munro:g=half", "parameter 'g' of 'munro:g=half' must be a number"),
        ("level:4", "level must be 0..3, got 4"),
    ],
    ids=["missing-parameter", "non-numeric-parameter", "level-out-of-range"],
)
def test_a_malformed_state_name_is_a_usage_error(name, message, capsys):
    assert main(["state", "--name", name]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_json_errors_flag(capsys):
    assert main(["--json-errors", "state", "--name", "foo:x=1"]) == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["kind"] == "usage"


def test_missing_file_is_data_error(capsys):
    assert main(["wigner", "--input", "/nonexistent/m.json"]) == 1
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("noise", ["2", "nan", "-1"])
def test_algorithm_noise_outside_the_unit_interval_is_a_usage_error(noise, capsys):
    with pytest.raises(ValueError) as refused:  # the CLI's pre-numpy check keeps the library's text
        run_parity_algorithm(pulse=2, noise=float(noise))
    message = str(refused.value)
    assert main(["algorithm", "--pulse", "2", "--noise", noise]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert main(["--json-errors", "algorithm", "--pulse", "2", "--noise", noise]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": message, "kind": "usage"}


@pytest.mark.parametrize("noise", ["0", "1"])
def test_algorithm_noise_at_the_ends_of_the_unit_interval_runs(noise, capsys):
    assert main(["algorithm", "--pulse", "2", "--noise", noise]) == 0
    assert capsys.readouterr().err == ""


def test_usage_error_exit_code(capsys):
    assert main(["wigner"]) == 2  # missing required --input
    capsys.readouterr()


def test_deterministic_output(matrix_file, capsys):
    path = matrix_file("w.json", werner(0.75))
    main(["wigner", "--input", path, "--rep", "pair"])
    first = capsys.readouterr().out
    main(["wigner", "--input", path, "--rep", "pair"])
    assert capsys.readouterr().out == first


def test_tolerance_environment_override(matrix_file, capsys, monkeypatch):
    slightly_off = np.eye(4) / 4 + np.diag([1e-7, 0.0, 0.0, 0.0])
    path = matrix_file("off.json", slightly_off)
    assert main(["validate", "--input", path]) == 1
    capsys.readouterr()
    monkeypatch.setenv("DWIGNER_TOLERANCE", "1e-5")
    assert main(["validate", "--input", path]) == 0
    capsys.readouterr()
    monkeypatch.setenv("DWIGNER_TOLERANCE", "not-a-number")
    assert main(["validate", "--input", path]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command",
    [
        ["delta", "--rep", "pair"],
        ["delta", "--rep", "xstate"],
        ["marginals"],
        ["wigner", "--rep", "pair"],
    ],
)
def test_pair_and_xstate_paths_honour_tolerance_environment(
    command, matrix_file, capsys, monkeypatch
):
    # an X-form matrix whose rho[0,3] is 1e-7 off the adjoint of rho[3,0]
    slightly_off = np.diag([0.4, 0.1, 0.1, 0.4]).astype(complex)
    slightly_off[0, 3] = 0.1 + 1e-7j
    slightly_off[3, 0] = 0.1
    argv = [command[0], "--input", matrix_file("skew.json", slightly_off), *command[1:]]
    assert main(argv) == 1
    capsys.readouterr()
    monkeypatch.setenv("DWIGNER_TOLERANCE", "1e-5")
    assert main(argv) == 0
    capsys.readouterr()


def test_wigner_su4_honours_tolerance_environment(matrix_file, capsys, monkeypatch):
    # an anti-Hermitian entry of 1e-7: invalid at the default tolerance,
    # valid at 1e-5, and then the grid is that of the Hermitian part
    slightly_off = np.eye(4, dtype=complex) / 4
    slightly_off[0, 1] = 1e-7j
    path = matrix_file("skew.json", slightly_off)
    assert main(["wigner", "--input", path, "--rep", "su4"]) == 1
    capsys.readouterr()
    monkeypatch.setenv("DWIGNER_TOLERANCE", "1e-5")
    assert main(["wigner", "--input", path, "--rep", "su4", "--format", "json"]) == 0
    grid = parse_grid(capsys.readouterr().out, "json")
    hermitian_part = (slightly_off + slightly_off.conj().T) / 2
    np.testing.assert_allclose(grid, wigner_su4(hermitian_part), atol=1e-12)


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("dwigner ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys, rng):
    monkeypatch.chdir(tmp_path)
    for name, matrix in [
        ("rho.json", random_density(rng, 4)),
        ("x.json", random_xstate(rng).matrix()),
        ("a.json", random_density(rng, 4)),
        ("b.json", random_density(rng, 4)),
    ]:
        (tmp_path / name).write_text(serialize_matrix(matrix), encoding="utf-8")
    lines = _readme_cli_lines()
    assert len(lines) == 12
    for argv in lines:
        assert main(argv[1:]) == 0, argv
        out = capsys.readouterr().out
        if argv[-2:] == ["--emit", "matrix"]:
            validate_density(parse_matrix(out))


def test_readme_library_example_runs_and_states_its_extremes(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library example\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert capsys.readouterr().out
    grid_line, delta_line = (line for line in block.splitlines() if line.startswith("print("))
    # the comments state the grid's max as an expression in sqrt and sqrt2, the signature's as ±x
    stated_max = eval(grid_line.split(", max ", 1)[1], {"sqrt": np.sqrt, "sqrt2": np.sqrt(2)})
    extreme = float(delta_line.split("±", 1)[1])
    grid = wigner_su4(namespace["rho"])
    assert np.max(grid) == pytest.approx(stated_max, abs=1e-12)
    delta = namespace["xstate_delta"](namespace["xstate_from_matrix"](namespace["rho"]))
    assert (round(float(np.max(delta)), 3), round(float(np.min(delta)), 3)) == (extreme, -extreme)


@pytest.mark.parametrize("name", ["gisin:a=0.8,b=0.6,x=1", "gisin:s=0.28,p=0.48,x=1"])
@pytest.mark.parametrize("emit", ["matrix", "wigner"])
def test_state_refuses_a_gisin_state_outside_the_coherence_bound(capsys, name, emit):
    # rho23^2 = 0.2304 > rho22 rho33 = 0.1716: the matrix has an eigenvalue -0.0557
    assert main(["state", "--name", name, "--emit", emit]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not positive semidefinite" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["wigner"], "the following arguments are required: --input"),
        ([], "the following arguments are required: command"),
        (["algorithm", "--pulse", "3"], "argument --pulse: invalid choice: 3 (choose from 2, 6)"),
    ],
)
def test_json_errors_covers_argument_errors(capsys, argv, message):
    assert main(["--json-errors", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": message, "kind": "usage"}


def test_argument_errors_without_json_errors_are_argparse_text(capsys):
    assert main(["wigner"]) == 2
    assert capsys.readouterr().err == (
        "usage: dwigner wigner [-h] --input INPUT [--rep {su2,su4,pair}]\n"
        "                      [--output OUTPUT] [--format {csv,json,gnuplot}]\n"
        "dwigner wigner: error: the following arguments are required: --input\n"
    )


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "-1e-5"])
@pytest.mark.parametrize(
    "command",
    [["validate"], ["wigner", "--rep", "su2"], ["wigner", "--rep", "su4"], ["delta"], ["marginals"]],
)
def test_tolerance_environment_must_be_finite_and_non_negative(raw, command, matrix_file, capsys, monkeypatch):
    # a NaN or infinite tolerance used to pass diag(3, 2) as a valid density matrix
    dim = 2 if command[-1] == "su2" else 4
    path = matrix_file("bad.json", np.diag([3.0, -2.0] + [0.0] * (dim - 2)))
    monkeypatch.setenv("DWIGNER_TOLERANCE", raw)
    assert main([command[0], "--input", path, *command[1:]]) == 2
    captured = capsys.readouterr()
    assert "valid density matrix" not in captured.out
    assert captured.err == f"error: DWIGNER_TOLERANCE must be finite and >= 0, got {raw!r}\n"


def test_fidelity_refuses_a_non_finite_tolerance(matrix_file, capsys, monkeypatch):
    path = matrix_file("rho.json", np.eye(4) / 4)
    monkeypatch.setenv("DWIGNER_TOLERANCE", "nan")
    assert main(["--json-errors", "fidelity", "--a", path, "--b", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["kind"] == "usage"


@pytest.mark.parametrize("command", [["delta", "--rep", "xstate"], ["marginals"]])
def test_x_pattern_check_honours_tolerance_environment(command, matrix_file, capsys, monkeypatch):
    # a valid density matrix with rho[0,1] = rho[1,0] = 1e-7 off the X pattern: refused as
    # "not X-form" at the default tolerance, read as the X state without it at 1e-5
    x_form = np.diag([0.4, 0.1, 0.1, 0.4]).astype(complex)
    x_form[0, 3] = x_form[3, 0] = 0.1
    leaky = x_form.copy()
    leaky[0, 1] = leaky[1, 0] = 1e-7
    argv = [command[0], "--input", matrix_file("leaky.json", leaky), *command[1:]]
    assert main(argv) == 1
    assert "not X-form" in capsys.readouterr().err
    monkeypatch.setenv("DWIGNER_TOLERANCE", "1e-5")
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert main([command[0], "--input", matrix_file("x.json", x_form), *command[1:]]) == 0
    assert out == capsys.readouterr().out


@pytest.mark.parametrize("command", [["delta", "--rep", "xstate"], ["marginals"]])
@pytest.mark.parametrize(
    "populations, coherence",
    [((0.4, 0.1, 0.1, 0.4 + 2e-6), (0, 3)), ((0.5, 0.3, 0.2 + 2e-6, -2e-6), (1, 2))],
    ids=["trace 1 + 2e-6", "population -2e-6"],
)
def test_x_state_population_checks_honour_tolerance_environment(
    command, populations, coherence, matrix_file, capsys, monkeypatch
):
    # valid density matrices at 1e-5, and X-form: wigner maps them, so delta --rep xstate and
    # marginals must read them as X states rather than refuse their populations
    x_form = np.diag(populations).astype(complex)
    x_form[coherence] = x_form[coherence[::-1]] = 0.1
    path = matrix_file("x.json", x_form)
    argv = [command[0], "--input", path, *command[1:]]
    assert main(argv) == 1
    capsys.readouterr()
    monkeypatch.setenv("DWIGNER_TOLERANCE", "1e-5")
    assert main(["wigner", "--input", path]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if command == ["marginals"]:
        # the mu-marginal is twice the populations
        np.testing.assert_allclose(json.loads(captured.out)["mu"], 2 * np.array(populations), atol=1e-12)


def test_validate_inequalities_honour_tolerance_environment(matrix_file, capsys, monkeypatch):
    # an eigenvalue of -2e-6: valid at 1e-5, where every trace-moment inequality must hold too
    path = matrix_file("neg.json", np.diag([1 / 3, 1 / 3, 1 / 3 + 2e-6, -2e-6]))
    monkeypatch.setenv("DWIGNER_TOLERANCE", "1e-5")
    assert main(["validate", "--input", path]) == 0
    out = capsys.readouterr().out
    assert out.count(": pass\n") == 3 and "fail" not in out
    assert out.endswith("verdict: valid density matrix\n")


@pytest.mark.parametrize(
    "argv, dim, needed",
    [
        (["wigner", "--rep", "su4"], 2, 4),
        (["wigner", "--rep", "pair"], 2, 4),
        (["delta", "--rep", "pair"], 2, 4),
        (["delta", "--rep", "xstate"], 2, 4),
        (["marginals"], 2, 4),
        (["wigner", "--rep", "su2"], 4, 2),
    ],
)
def test_a_matrix_file_of_the_wrong_dimension_is_a_usage_error(argv, dim, needed, matrix_file, capsys):
    # every command that reads a state in one representation refuses the other dimension alike
    path = matrix_file("m.json", np.eye(dim) / dim)
    assert main([argv[0], "--input", path, *argv[1:]]) == 2
    rep = argv[-1] if argv[0] != "marginals" else "xstate"
    assert capsys.readouterr().err == (
        f"error: representation {rep} needs a {needed}x{needed} matrix, got {dim}x{dim}\n"
    )
    assert main(["--json-errors", argv[0], "--input", path, *argv[1:]]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "usage"


def test_a_named_state_outside_su2_is_a_usage_error(capsys):
    assert main(["state", "--name", "bell:phi+", "--emit", "wigner", "--rep", "su2"]) == 2
    assert capsys.readouterr().err == "error: representation su2 needs a 2x2 matrix, got 4x4\n"


@pytest.mark.parametrize(
    "argv", [["wigner", "--rep", "su4"], ["delta", "--rep", "pair"], ["delta", "--rep", "xstate"], ["marginals"]]
)
def test_a_refused_matrix_reports_the_spectrum_of_its_hermitian_part(argv, matrix_file, capsys):
    path = matrix_file("bad.json", np.diag([1.1, -0.1, 0.0, 0.0]))
    assert main([argv[0], "--input", path, *argv[1:]]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: not a density matrix: positive semidefiniteness violated by 1.000000e-01; "
        "eigenvalues: [-0.1, 0.0, 0.0, 1.1]\n"
    )


OVERFLOWING = np.diag([0.25] * 4) + np.diag([-1.5e308] * 3, 1) + np.diag([-1.5e308] * 3, -1)
TOO_LARGE = "matrix entries are too large: the sum of their squared magnitudes overflows"
ASYMMETRIC = np.eye(4, dtype=complex) / 4
ASYMMETRIC[0, 1] = 1e-7j
TRACE_MOMENTS = (
    "tr(rho^2): {}\ntr(rho^3): {}\ntr(rho^4): {}\n"
    "inequality 1 (tr2 <= 1): {}\ninequality 2 (tr3 lower bound): {}\ninequality 3 (tr4 upper bound): {}\n"
)
ASYMMETRIC_REPORT = (
    "eigenvalues: [0.24999995000000003, 0.25, 0.25, 0.25000005]\ntrace: 1.0\nhermiticity defect: 1e-07\n"
    + TRACE_MOMENTS.format(
        "0.250000000000005", "0.06250000000000375", "0.015625000000001874", "pass", "pass", "pass"
    )
)
# each file with the tolerance, exit code and stdout of `dwigner validate`
VALIDATE_REPORTS = {
    "valid-4x4": (
        np.diag([0.4, 0.3, 0.2, 0.1]), None, 0,
        "eigenvalues: [0.1, 0.2, 0.3, 0.4]\ntrace: 1.0\nhermiticity defect: 0.0\n"
        + TRACE_MOMENTS.format("0.3", "0.10000000000000002", "0.03540000000000001", "pass", "pass", "pass")
        + "verdict: valid density matrix\n",
    ),
    "2x2": (
        np.diag([0.75, 0.25]), None, 0,
        "eigenvalues: [0.25, 0.75]\ntrace: 1.0\nhermiticity defect: 0.0\nverdict: valid density matrix\n",
    ),
    "8x8": (
        np.eye(8) / 8, None, 0,
        "eigenvalues: [" + ", ".join(["0.125"] * 8) + "]\ntrace: 1.0\nhermiticity defect: 0.0\n"
        "verdict: valid density matrix\n",
    ),
    "negative-eigenvalue": (
        np.diag([1.1, -0.1, 0.0, 0.0]), None, 1,
        "eigenvalues: [-0.1, 0.0, 0.0, 1.1]\ntrace: 1.0\nhermiticity defect: 0.0\n"
        + TRACE_MOMENTS.format(
            "1.2200000000000002", "1.3300000000000005", "1.4642000000000004", "fail", "pass", "pass"
        )
        + "verdict: invalid (positive semidefiniteness)\n",
    ),
    "trace-1.2": (
        np.diag([0.3] * 4), None, 1,
        "eigenvalues: [0.3, 0.3, 0.3, 0.3]\ntrace: 1.2\nhermiticity defect: 0.0\n"
        + TRACE_MOMENTS.format("0.36", "0.108", "0.0324", "pass", "pass", "fail")
        + "verdict: invalid (unit trace)\n",
    ),
    "asymmetry-1e-7": (ASYMMETRIC, None, 1, ASYMMETRIC_REPORT + "verdict: invalid (hermiticity)\n"),
    "asymmetry-1e-7-at-1e-5": (ASYMMETRIC, "1e-5", 0, ASYMMETRIC_REPORT + "verdict: valid density matrix\n"),
    # Tr a^4 overflows, which the guard admits: the moments print inf, with no numpy warning
    "trace-moments-overflow": (
        np.diag([1e100] * 4), None, 1,
        "eigenvalues: [1e+100, 1e+100, 1e+100, 1e+100]\ntrace: 4e+100\nhermiticity defect: 0.0\n"
        + TRACE_MOMENTS.format("4e+200", "4e+300", "inf", "fail", "pass", "pass")
        + "verdict: invalid (unit trace)\n",
    ),
    # refused by the guard before the check: no report, one line on stderr
    "hermitian-part-overflows": (OVERFLOWING, None, 1, ""),
}


@pytest.mark.parametrize("matrix, tolerance, code, report", VALIDATE_REPORTS.values(), ids=VALIDATE_REPORTS)
def test_validate_prints_the_numbers_of_the_density_check(
    matrix, tolerance, code, report, matrix_file, capsys, monkeypatch
):
    if tolerance is not None:
        monkeypatch.setenv("DWIGNER_TOLERANCE", tolerance)
    path = matrix_file("m.json", matrix)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--input", path]) == code
    assert capsys.readouterr() == (report, "" if report else f"error: {path}: {TOO_LARGE}\n")


@pytest.mark.parametrize("json_errors", [[], ["--json-errors"]], ids=["text", "json"])
@pytest.mark.parametrize("command", ["wigner", "delta", "marginals", "fidelity", "validate"])
def test_a_hermitian_part_that_overflows_writes_no_numpy_warning(command, json_errors, matrix_file, capsys):
    path = matrix_file("overflow.json", OVERFLOWING)
    inputs = ["--a", path, "--b", path] if command == "fidelity" else ["--input", path]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*json_errors, command, *inputs]) == 1
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    out, err = capsys.readouterr()
    assert out == ""
    [line] = err.splitlines()
    if json_errors:
        assert json.loads(line) == {"error": f"{path}: {TOO_LARGE}", "kind": "validation"}
    else:
        assert line == f"error: {path}: {TOO_LARGE}"


# runs cli.main once per argv of the JSON list in sys.argv[1], in one interpreter; prints each
# call's (exit code, stdout, stderr) and how many parsers main built
_MAIN_CALLS = (
    "import contextlib, io, json, sys\n"
    "from dwigner import cli\n"
    "results = []\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    out, err = io.StringIO(), io.StringIO()\n"
    "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
    "        results.append([cli.main(argv)])\n"
    "    results[-1] += [out.getvalue(), err.getvalue()]\n"
    "print(json.dumps([results, cli._main_parser.cache_info().misses]))"
)


def _main_calls(argvs):
    done = subprocess.run(
        [sys.executable, "-c", _MAIN_CALLS, json.dumps(argvs)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(dwigner.__file__).resolve().parents[1])},
        timeout=60,
    )
    return json.loads(done.stdout)


def test_main_calls_in_one_process_match_separate_processes(matrix_file):
    path = matrix_file("rho.json", werner(0.7))
    argvs = [
        ["state", "--name", "bell:phi+"],
        ["--json-errors", "state", "--nme", "bell:phi+"],
        ["wigner", "--input", path, "--rep", "pair"],
        ["wigner", "--rep", "su2"],
        ["--help"],
        ["validate", "--input", path + ".missing"],
        ["state", "--name", "bell:phi+"],
    ]
    together, parsers = _main_calls(argvs)
    assert parsers == 1
    assert together == [_main_calls([argv])[0][0] for argv in argvs]
    assert [code for code, _, _ in together] == [0, 2, 0, 2, 0, 1, 0]


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()
