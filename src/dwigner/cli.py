"""Command-line interface.

Subcommands: ``wigner`` (phase-space grid of a matrix file), ``state``
(named state constructors), ``delta`` (correlation signatures),
``marginals`` (X-state marginal distributions), ``algorithm`` (parity
protocol simulation), ``fidelity`` (super-fidelity of two matrix files),
and ``validate`` (density-matrix diagnostics).

Exit codes: 0 on success, 1 on validation/data failure, 2 on usage
errors, a matrix file of the wrong dimension for the representation
among them.  The environment variable DWIGNER_TOLERANCE overrides the
default validation tolerance of 1e-10, the tolerance of the trace-moment
inequalities ``validate`` prints, and the X-pattern tolerance of
``delta --rep xstate`` and ``marginals``; it must be finite and >= 0.
``validate`` prints the numbers of the density check ``validate_density`` makes, once the
library's guard has passed the file: entries whose squares overflow exit 1, naming the file;
its trace moments read ``inf``, with no warning, for entries above about 1e77.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# numpy and the library modules are imported where a command first needs them, after every
# check that needs neither, so a refused argument exits before numpy loads

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2

GRID_FORMATS = ("csv", "json", "gnuplot")  # io.GRID_FORMATS, without importing numpy to offer them
STATE_KINDS = ("bell", "werner", "munro", "ph", "gisin", "level")


class UsageError(ValueError):
    """Bad argument values detected after argparse (exit code 2)."""


class _ArgumentError(Exception):
    """An argparse usage error, with the (sub)command parser that found it."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that hands its usage errors to ``main``, which reports them."""

    def error(self, message):
        raise _ArgumentError(self, message)


def _tolerance() -> float:
    raw = os.environ.get("DWIGNER_TOLERANCE")
    if raw is None:
        from .linalg import DEFAULT_TOLERANCE

        return DEFAULT_TOLERANCE
    try:
        tol = float(raw)
    except ValueError as exc:
        raise UsageError(f"DWIGNER_TOLERANCE must be a number, got {raw!r}") from exc
    if not math.isfinite(tol) or tol < 0:
        raise UsageError(f"DWIGNER_TOLERANCE must be finite and >= 0, got {raw!r}")
    return tol


def _report_error(message: str, json_errors: bool, kind: str) -> None:
    if json_errors:
        print(json.dumps({"error": message, "kind": kind}), file=sys.stderr)
    else:
        print(f"error: {message}", file=sys.stderr)


def _load_matrix(path: str) -> np.ndarray:
    from .io import parse_matrix

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    return parse_matrix(text)


def _load_density(path: str, tol: float):
    from .linalg import DensityMatrixError, validate_density

    matrix = _load_matrix(path)
    try:
        return validate_density(matrix, tol)
    except DensityMatrixError as exc:
        detail = ", ".join(repr(float(v)) for v in exc.eigenvalues)
        raise ValueError(f"{path}: {exc}; eigenvalues: [{detail}]") from exc
    except ValueError as exc:  # parse_matrix reads square finite matrices: the guard's "too large"
        raise ValueError(f"{path}: {exc}") from exc


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _write_grid(grid, args) -> None:
    from .io import emit_grid

    _write_output(emit_grid(grid, args.format), args.output)


def _parse_params(spec: str, name: str) -> dict[str, str]:
    params = {}
    for item in spec.split(","):
        if "=" not in item:
            raise UsageError(f"malformed parameter {item!r} in state name {name!r}")
        key, value = item.split("=", 1)
        params[key.strip()] = value.strip()
    return params


def _float_param(params: dict[str, str], key: str, name: str) -> float:
    if key not in params:
        raise UsageError(f"state {name!r} requires parameter {key!r}")
    try:
        return float(params[key])
    except ValueError as exc:
        raise UsageError(f"parameter {key!r} of {name!r} must be a number") from exc


def named_state(name: str) -> np.ndarray:
    """Build a named four-level density matrix from a name:params string.

    Supported names: bell:phi+|phi-|psi+|psi-, werner:F=...,
    munro:g=..., ph:x=..., gisin:a=..,b=..,x=.. (or s=..,p=..,x=.. with
    s = a^2 - b^2 and p = a*b), and level:k for the pure level states.
    """
    kind, _, rest = name.partition(":")
    kind = kind.lower()
    if kind not in STATE_KINDS:
        raise UsageError(
            f"unknown state name {name!r}; expected bell:, werner:, munro:, ph:, gisin: or level:"
        )
    try:
        if kind == "level":
            level = int(rest)
            if not 0 <= level <= 3:
                raise UsageError(f"level must be 0..3, got {rest}")
            import numpy as np

            matrix = np.zeros((4, 4), dtype=complex)
            matrix[level, level] = 1.0
            return matrix
        from .states import bell, gisin, gisin_from_combinations, munro, peres_horodecki, werner

        if kind == "bell":
            return bell(rest)
        if kind == "werner":
            return werner(_float_param(_parse_params(rest, name), "F", name))
        if kind == "munro":
            return munro(_float_param(_parse_params(rest, name), "g", name)).matrix()
        if kind == "ph":
            return peres_horodecki(_float_param(_parse_params(rest, name), "x", name)).matrix()
        params = _parse_params(rest, name)
        if "a" in params or "b" in params:
            family, keys = gisin, ("a", "b", "x")
        else:
            family, keys = gisin_from_combinations, ("s", "p", "x")
        state = family(*(_float_param(params, key, name) for key in keys))
        # the library keeps such X states representable; the CLI emits only states
        if not state.is_physical():
            raise UsageError(
                f"state {name!r} is not positive semidefinite: |rho23|^2 = {abs(state.rho23) ** 2:.6g} "
                f"exceeds rho22 rho33 = {state.rho22 * state.rho33:.6g}"
            )
        return state.matrix()
    except UsageError:
        raise
    except (ValueError, TypeError) as exc:
        raise UsageError(f"invalid state name {name!r}: {exc}") from exc


def _check_dim(n: int, rep: str) -> None:
    # the one shape check of every command that reads a state in one representation: su2 reads a
    # 2x2 matrix and su4, pair and xstate a 4x4 one; any other dimension is a usage error
    dim = 2 if rep == "su2" else 4
    if n != dim:
        raise UsageError(f"representation {rep} needs a {dim}x{dim} matrix, got {n}x{n}")


def _grid_for_rep(rho, rep: str) -> np.ndarray:
    if rep == "su2":
        from .generators import bloch_vector, wigner_su2

        return wigner_su2(bloch_vector(rho))
    if rep == "su4":
        from .generators import wigner_su4

        return wigner_su4(rho)
    if rep == "pair":
        from .twoqubit import fano_extract, wigner_pair

        return wigner_pair(fano_extract(rho))
    raise UsageError(f"unknown representation {rep!r}")


def _cmd_wigner(args) -> int:
    rho = _load_density(args.input, _tolerance())
    _check_dim(rho.dim, args.rep)
    _write_grid(_grid_for_rep(rho, args.rep), args)
    return EXIT_OK


def _cmd_state(args) -> int:
    matrix = named_state(args.name)
    if args.emit == "matrix":
        from .io import serialize_matrix

        _write_output(serialize_matrix(matrix) + "\n", args.output)
        return EXIT_OK
    _check_dim(len(matrix), args.rep)
    _write_grid(_grid_for_rep(matrix, args.rep), args)
    return EXIT_OK


def _cmd_delta(args) -> int:
    tol = _tolerance()
    rho = _load_density(args.input, tol)
    _check_dim(rho.dim, args.rep)
    if args.rep == "pair":
        from .twoqubit import delta_pair, fano_extract

        grid = delta_pair(fano_extract(rho))
    else:
        from .states import xstate_delta, xstate_from_matrix

        grid = xstate_delta(xstate_from_matrix(rho, tol))
    _write_grid(grid, args)
    return EXIT_OK


def _cmd_marginals(args) -> int:
    tol = _tolerance()
    rho = _load_density(args.input, tol)
    _check_dim(rho.dim, "xstate")
    from .states import xstate_from_matrix, xstate_marginals

    marginals = xstate_marginals(xstate_from_matrix(rho, tol))
    doc = {
        "mu": [float(v) for v in marginals.mu_marginal],
        "nu": [float(v) for v in marginals.nu_marginal],
    }
    _write_output(json.dumps(doc) + "\n", args.output)
    return EXIT_OK


def _cmd_algorithm(args) -> int:
    from .algorithm import run_parity_algorithm

    trace = run_parity_algorithm(pulse=args.pulse, noise=args.noise)
    if args.snapshots is not None:
        from .io import emit_grid

        directory = Path(args.snapshots)
        directory.mkdir(parents=True, exist_ok=True)
        suffix = {"csv": "csv", "json": "json", "gnuplot": "dat"}[args.format]
        for position, step in enumerate(trace.steps):
            path = directory / f"step{position}_{step.label}.{suffix}"
            path.write_text(emit_grid(step.wigner, args.format), encoding="utf-8")
    print(
        f"level {trace.outcome_level}, parity {trace.parity}, "
        f"p={trace.outcome_probability:.3f}"
    )
    return EXIT_OK


def _cmd_fidelity(args) -> int:
    tol = _tolerance()
    rho = _load_density(args.a, tol)
    sigma = _load_density(args.b, tol)
    from .fidelity import super_fidelity

    print(repr(super_fidelity(rho, sigma)))
    return EXIT_OK


def _cmd_validate(args) -> int:
    from .linalg import _density_check, positivity_inequalities

    matrix = _load_matrix(args.input)
    tol = _tolerance()
    try:
        _, defect, trace, hermitian_part, eigenvalues, violations = _density_check(matrix, tol)
    except ValueError as exc:  # as in _load_density, only the guard's "too large" reaches here
        raise ValueError(f"{args.input}: {exc}") from exc
    print("eigenvalues: [" + ", ".join(repr(float(v)) for v in eigenvalues) + "]")
    print(f"trace: {float(trace.real)!r}")
    print(f"hermiticity defect: {defect!r}")
    if matrix.shape[0] == 4:
        report = positivity_inequalities(hermitian_part, tol)
        print(f"tr(rho^2): {report.trace_sq!r}")
        print(f"tr(rho^3): {report.trace_cube!r}")
        print(f"tr(rho^4): {report.trace_fourth!r}")
        print(f"inequality 1 (tr2 <= 1): {'pass' if report.ineq1 else 'fail'}")
        print(f"inequality 2 (tr3 lower bound): {'pass' if report.ineq2 else 'fail'}")
        print(f"inequality 3 (tr4 upper bound): {'pass' if report.ineq3 else 'fail'}")
    if violations:
        print(f"verdict: invalid ({'; '.join(name for name, _ in violations)})")
        return EXIT_INVALID
    print("verdict: valid density matrix")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dwigner",
        description="Discrete phase-space toolkit for qubit pairs and ququarts.",
    )
    parser.add_argument(
        "--json-errors",
        action="store_true",
        help="report errors as JSON objects on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output", help="output file (default: stdout)")
        p.add_argument("--format", choices=GRID_FORMATS, default="csv", help="grid format")

    p = sub.add_parser("wigner", help="phase-space grid of a matrix file")
    p.add_argument("--input", required=True, help="JSON matrix file")
    p.add_argument("--rep", choices=("su2", "su4", "pair"), default="su4")
    add_output(p)
    p.set_defaults(func=_cmd_wigner)

    p = sub.add_parser("state", help="emit a named state as a matrix or a grid")
    p.add_argument("--name", required=True, help="e.g. bell:phi+, werner:F=0.5, level:1")
    p.add_argument("--emit", choices=("matrix", "wigner"), default="matrix")
    p.add_argument("--rep", choices=("su2", "su4", "pair"), default="su4")
    add_output(p)
    p.set_defaults(func=_cmd_state)

    p = sub.add_parser("delta", help="correlation signature of a matrix file")
    p.add_argument("--input", required=True)
    p.add_argument("--rep", choices=("pair", "xstate"), default="pair")
    add_output(p)
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("marginals", help="marginal distributions of an X-form matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--output", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_marginals)

    p = sub.add_parser("algorithm", help="run the parity-determination protocol")
    p.add_argument("--pulse", type=int, choices=(2, 6), required=True)
    p.add_argument("--snapshots", help="directory for per-step grid files")
    p.add_argument("--noise", type=float, default=0.0, help="snapshot depolarizing weight")
    p.add_argument("--format", choices=GRID_FORMATS, default="csv")
    p.set_defaults(func=_cmd_algorithm)

    p = sub.add_parser("fidelity", help="super-fidelity of two matrix files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_fidelity)

    p = sub.add_parser("validate", help="density-matrix diagnostics for a matrix file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_validate)

    return parser


# the parser main reads, built by its first call and reused by every later one in the process;
# build_parser itself still returns a fresh parser
_main_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _main_parser()
    # a namespace of our own keeps --json-errors, read before any later argument fails
    args = argparse.Namespace()
    try:
        parser.parse_args(argv, namespace=args)
    except _ArgumentError as exc:
        if getattr(args, "json_errors", False):
            _report_error(str(exc), True, "usage")
        else:
            # argparse's own report: the failing (sub)command's usage, then the message
            exc.parser.print_usage(sys.stderr)
            print(f"{exc.parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        return int(exc.code or 0)
    json_errors = args.json_errors
    try:
        return args.func(args)
    except UsageError as exc:
        _report_error(str(exc), json_errors, "usage")
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        _report_error(str(exc), json_errors, "validation")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
