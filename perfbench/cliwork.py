"""The cli_invocations workload: one ``python -m dwigner.cli`` process per operation.

Files are written at set-up from the seed.  The invocations cycle through
all seven subcommands, every ``--rep`` and ``--format`` value, malformed
files and usage errors.  Expected outputs are computed afterwards through
the library's own functions, not through the CLI; every invocation of the
run is checked.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from workloads import (
    ACCEPTED_MALFORMED,
    ERROR,
    OK,
    REJECTED,
    algorithm_oracle,
    malformed_input,
    matrix_text,
    random_state,
    random_xstate,
)

INVOCATION_TIMEOUT_S = 60
SUBCOMMANDS = ("wigner", "state", "delta", "marginals", "algorithm", "fidelity", "validate")


class Invocation:
    """One argument list; ``expected`` is None for inputs that must be refused."""

    def __init__(self, args: list[str], expected=None):
        self.args = args
        self.expected = expected  # callable -> expected stdout, or None
        self.subcommand = subcommand(args)


def subcommand(args: list[str]) -> str:
    return next(a for a in args if not a.startswith("-"))


class CliInvocations:
    name = "cli_invocations"
    pending = ()  # outputs are kept in ``results`` and all checked by ``check``

    def __init__(self, seed: int, lib, workdir: Path, src: Path):
        self.lib = lib
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p
        )
        rng = np.random.default_rng([seed, 3])
        workdir.mkdir(parents=True, exist_ok=True)
        files = {
            "rho4_0": random_state(rng, 4, 1),
            "rho4_1": random_state(rng, 4, 2),
            "rho4_2": random_state(rng, 4, 3),
            "rho4_3": random_state(rng, 4, 4),
            "sigma4": random_state(rng, 4, 4),
            "rho2": random_state(rng, 2, 2),
            "x4": random_xstate(rng),
        }
        self.paths = {}
        for key, matrix in files.items():
            self.paths[key] = self._write(key, matrix_text(matrix))
        for kind in ("non_hermitian", "trace", "negative_eigenvalue", "ragged", "broken_json", "nan_literal"):
            self.paths[kind] = self._write(kind, malformed_input(rng, kind)[2])
        self.paths["dim_true"] = self._write("dim_true", json.dumps({"dim": True, "re": [[1.0]], "im": [[0.0]]}))
        self.snapshots = workdir / "snapshots"
        self.cycle = self._invocations(rng)
        order = []
        while len(order) < 64 * len(self.cycle):
            order.extend(int(k) for k in rng.permutation(len(self.cycle)))
        self.order = order
        self.results: list[tuple] = []  # (invocation index, exit code, stdout, stderr)
        self.peak_rss_kb = 0  # the largest CLI process
        self.wall_ms: dict[str, list[float]] = {name: [] for name in SUBCOMMANDS}

    def _write(self, key: str, text: str) -> str:
        path = self.workdir / f"{key}.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _invocations(self, rng) -> list[Invocation]:
        lib = self.lib
        p = self.paths
        bell_kind = ("phi+", "phi-", "psi+", "psi-")[rng.integers(4)]
        fraction, gamma, x_ph = (repr(float(v)) for v in rng.uniform(0.0, 1.0, size=3))
        a, b, x_gisin = 0.6, repr(float(rng.uniform(0.0, 0.3))), repr(float(rng.uniform(0.0, 1.0)))
        level = int(rng.integers(4))
        noise = repr(float(rng.uniform(0.0, 0.2)))

        def density(key):
            return lib.linalg.validate_density(lib.io.parse_matrix(Path(p[key]).read_text()))

        def grid(fmt, build):
            return lambda: lib.io.emit_grid(build(), fmt)

        def pair_of(m):
            return lib.twoqubit.wigner_pair(lib.twoqubit.fano_extract(np.asarray(m)))

        def level_matrix():
            m = np.zeros((4, 4), dtype=complex)
            m[level, level] = 1.0
            return m

        def marginals():
            mg = lib.states.xstate_marginals(lib.states.xstate_from_matrix(np.asarray(density("x4"))))
            return json.dumps({"mu": [float(v) for v in mg.mu_marginal], "nu": [float(v) for v in mg.nu_marginal]}) + "\n"

        def algorithm(pulse, noise_level):
            trace = lib.algorithm.run_parity_algorithm(pulse=pulse, noise=noise_level)
            return (
                f"level {trace.outcome_level}, parity {trace.parity}, "
                f"p={trace.outcome_probability:.3f}\n"
            )

        s = lib.states
        # The mix is an assumption, not a measured use: neither the paper nor the
        # repository says how the CLI is called.  It is one invocation per
        # subcommand and option value (16), one per malformed class (8) and one
        # per kind of usage error (4), so the error paths are 12 of 28.
        return [
            Invocation(["wigner", "--input", p["rho4_0"], "--rep", "su4"],
                       grid("csv", lambda: lib.generators.wigner_su4(density("rho4_0")))),
            Invocation(["wigner", "--input", p["rho2"], "--rep", "su2", "--format", "json"],
                       grid("json", lambda: lib.generators.wigner_su2(lib.generators.bloch_vector(density("rho2"))))),
            Invocation(["wigner", "--input", p["rho4_1"], "--rep", "pair", "--format", "gnuplot"],
                       grid("gnuplot", lambda: pair_of(density("rho4_1")))),
            Invocation(["state", "--name", f"bell:{bell_kind}", "--emit", "matrix"],
                       lambda: lib.io.serialize_matrix(s.bell(bell_kind)) + "\n"),
            Invocation(["state", "--name", f"werner:F={fraction}", "--emit", "wigner", "--rep", "pair", "--format", "json"],
                       grid("json", lambda: pair_of(s.werner(float(fraction))))),
            Invocation(["state", "--name", f"munro:g={gamma}", "--emit", "wigner", "--format", "gnuplot"],
                       grid("gnuplot", lambda: lib.generators.wigner_su4(s.munro(float(gamma)).matrix()))),
            Invocation(["state", "--name", f"ph:x={x_ph}", "--emit", "wigner", "--rep", "su4"],
                       grid("csv", lambda: lib.generators.wigner_su4(s.peres_horodecki(float(x_ph)).matrix()))),
            Invocation(["state", "--name", f"gisin:a={a},b={b},x={x_gisin}", "--emit", "matrix"],
                       lambda: lib.io.serialize_matrix(s.gisin(a, float(b), float(x_gisin)).matrix()) + "\n"),
            Invocation(["state", "--name", f"level:{level}", "--emit", "wigner", "--rep", "pair"],
                       grid("csv", lambda: pair_of(level_matrix()))),
            Invocation(["delta", "--input", p["rho4_2"], "--rep", "pair"],
                       grid("csv", lambda: lib.twoqubit.delta_pair(lib.twoqubit.fano_extract(np.asarray(density("rho4_2")))))),
            Invocation(["delta", "--input", p["x4"], "--rep", "xstate", "--format", "json"],
                       grid("json", lambda: s.xstate_delta(s.xstate_from_matrix(np.asarray(density("x4")))))),
            Invocation(["marginals", "--input", p["x4"]], marginals),
            Invocation(["algorithm", "--pulse", "2"], lambda: algorithm(2, 0.0)),
            Invocation(["algorithm", "--pulse", "6", "--snapshots", str(self.snapshots), "--noise", noise,
                        "--format", "gnuplot"], lambda: algorithm(6, float(noise))),
            Invocation(["fidelity", "--a", p["rho4_3"], "--b", p["sigma4"]],
                       lambda: repr(lib.fidelity.super_fidelity(density("rho4_3"), density("sigma4"))) + "\n"),
            Invocation(["validate", "--input", p["rho4_0"]], lambda: "verdict: valid density matrix"),
            # malformed files: exit 1 or 2 without a traceback
            Invocation(["wigner", "--input", p["non_hermitian"]]),
            Invocation(["delta", "--input", p["trace"]]),
            Invocation(["validate", "--input", p["negative_eigenvalue"]]),
            Invocation(["fidelity", "--a", p["ragged"], "--b", p["sigma4"]]),
            Invocation(["--json-errors", "marginals", "--input", p["broken_json"]]),
            Invocation(["wigner", "--input", p["nan_literal"], "--rep", "pair"]),
            Invocation(["validate", "--input", p["dim_true"]]),
            Invocation(["state", "--name", "gisin:s=nan,p=0.1,x=0.5", "--emit", "matrix"]),
            # usage errors: exit 2
            Invocation(["wigner", "--input", p["rho4_0"], "--rep", "bogus"]),
            Invocation(["state", "--name", "nosuch:1"]),
            Invocation(["algorithm", "--pulse", "3"]),
            Invocation(["wigner", "--input", p["rho2"], "--rep", "su4"]),
        ]

    @property
    def period(self) -> int:
        """Invocations after which every invocation has run equally often."""
        return len(self.cycle)

    def warm(self, namespace=None) -> None:
        """One untimed invocation, so the interpreter and numpy's libraries are cached as for a repeat user."""
        self._spawn(["--help"])

    def _spawn(self, args: list[str]) -> subprocess.CompletedProcess:
        """Runs one CLI process and keeps its peak RSS, which ``subprocess.run`` does not give."""
        with open(self.workdir / "stdout.txt", "w+b") as out, open(self.workdir / "stderr.txt", "w+b") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "dwigner.cli", *args], cwd=self.workdir, env=self.env, stdout=out, stderr=err
            )
            timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return subprocess.CompletedProcess(args, proc.returncode, out.read().decode(), err.read().decode())

    def op(self, i: int, L=None, record: bool = True) -> str:
        index = self.order[i % len(self.order)]
        invocation = self.cycle[index]
        start = time.perf_counter()
        done = self._spawn(invocation.args)
        wall = (time.perf_counter() - start) * 1e3
        self.results.append((index, done.returncode, done.stdout, done.stderr))
        if invocation.expected is None:
            return _refusal(done.returncode, done.stderr)
        if done.returncode != 0:
            return ERROR
        self.wall_ms[invocation.subcommand].append(wall)
        return OK

    def main_in_process(self, i: int, main) -> tuple[str, str, float]:
        """Run one invocation through ``main`` in this process; returns (subcommand, outcome, ms)."""
        invocation = self.cycle[self.order[i % len(self.order)]]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(invocation.args)
        elapsed = (time.perf_counter() - start) * 1e3
        if invocation.expected is None:
            return invocation.subcommand, _refusal(code, err.getvalue()), elapsed
        return invocation.subcommand, OK if code == 0 else ERROR, elapsed

    @property
    def checked(self) -> int:
        return len(self.results)

    @property
    def covered(self) -> set[int]:
        return {index for index, *_ in self.results}

    def check(self) -> list[str]:
        errors = []
        expected = {}
        for index, invocation in enumerate(self.cycle):
            if invocation.expected is not None:
                expected[index] = invocation.expected()
        for index, code, stdout, stderr in self.results:
            invocation = self.cycle[index]
            if invocation.expected is None:
                continue
            label = " ".join(invocation.args)
            if code != 0 or "Traceback" in stderr:
                errors.append(f"`{label}` exited {code}: {stderr.strip()[-200:]}")
            elif invocation.subcommand == "validate":
                if stdout.rstrip("\n").splitlines()[-1] != expected[index]:
                    errors.append(f"`{label}` printed a different verdict")
            elif stdout != expected[index]:
                errors.append(f"`{label}` output differs from the library's")
        if any(self.cycle[index].args[:3] == ["algorithm", "--pulse", "6"] for index, *_ in self.results):
            errors.extend(self._check_snapshots())
        if len(self.results) < 10:
            errors.append(f"only {len(self.results)} invocations completed")
        errors.extend(algorithm_oracle(self.lib))
        return errors

    def _check_snapshots(self) -> list[str]:
        invocation = next(c for c in self.cycle if c.args[:3] == ["algorithm", "--pulse", "6"])
        noise = float(invocation.args[invocation.args.index("--noise") + 1])
        trace = self.lib.algorithm.run_parity_algorithm(pulse=6, noise=noise)
        errors = []
        for position, step in enumerate(trace.steps):
            path = self.snapshots / f"step{position}_{step.label}.dat"
            if not path.is_file() or path.read_text() != self.lib.io.emit_grid(step.wigner, "gnuplot"):
                errors.append(f"snapshot {path.name} differs from the library's grid")
        return errors


def _refusal(code: int, stderr: str) -> str:
    """A malformed input is refused when the CLI exits 1 or 2 without a traceback."""
    if code in (1, 2) and "Traceback" not in stderr:
        return REJECTED
    return ACCEPTED_MALFORMED
