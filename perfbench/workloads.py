"""Seeded inputs and one operation each for the in-process workloads.

``ququart_stream`` maps a stream of 4x4 matrix texts through every
four-level transform; ``kernel_large_n`` round-trips random states through
the phase-point kernel at N = 8, 16 and 32.  One operation in each
``*_ORACLE_STRIDE``, over the whole run, keeps its outputs in ``pending``; the runner
calls ``check_pending`` in an untimed pause to hold them against the
oracles.  The stride is prime to the pool size, so a run of at least
``pool size x stride`` operations checks every pool input.
"""

from __future__ import annotations

import json
import math

import numpy as np

# an operation's outcome; ERROR is an exception or failure exit on a valid input
OK, REJECTED, ACCEPTED_MALFORMED, ERROR = "ok", "rejected", "accepted_malformed", "error"
FORMATS = ("csv", "json", "gnuplot")
TOLERANCE = 1e-12
KERNEL_DIMS = (8, 16, 32)

# The ququart_stream mix, per block of 20 operations.  It is an assumption,
# not a measured use: neither the paper nor the repository says how often
# each kind of input occurs.  README.md ("Input mix") gives the reason for
# each share.
GENERAL_STATES = 8
X_FORM_STATES = 5
NAMED_REQUESTS = 5
MALFORMED_INPUTS = 2
STREAM_BLOCK = (
    ("state",) * GENERAL_STATES
    + ("xform",) * X_FORM_STATES
    + ("named",) * NAMED_REQUESTS
    + ("bad",) * MALFORMED_INPUTS
)
# 24 blocks: every malformed class occurs equally often in the pool
STREAM_POOL = 480
KERNEL_POOL_BLOCKS = 64  # the pool holds 64 states of each N
# one operation in each stride is checked; each stride is prime to its pool size
STREAM_ORACLE_STRIDE = 29
KERNEL_ORACLE_STRIDE = 13
NAMED_FAMILIES = ("bell", "werner", "munro", "peres_horodecki", "gisin")
MALFORMED = (
    "non_hermitian",
    "trace",
    "negative_eigenvalue",
    "ragged",
    "broken_json",
    "nan_literal",
    "dim_true",
    "named_nan",
)
NAN_FAMILIES = ("werner", "munro", "peres_horodecki", "gisin", "gisin_from_combinations")


def matrix_text(m: np.ndarray) -> str:
    """The JSON matrix format, rendered by the benchmark rather than the library."""
    return json.dumps({"dim": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()})


def random_state(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    a = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_xstate(rng: np.random.Generator) -> np.ndarray:
    """A physical X-form matrix: populations plus in-range antidiagonal coherences."""
    p = rng.dirichlet(np.ones(4))
    m = np.diag(p).astype(complex)
    for i, j in ((0, 3), (1, 2)):
        c = rng.uniform(0.0, 1.0) * math.sqrt(p[i] * p[j]) * np.exp(2j * np.pi * rng.uniform())
        m[i, j], m[j, i] = c, np.conj(c)
    return m


def named_request(rng: np.random.Generator, family: str) -> tuple:
    if family == "bell":
        return (family, ("phi+", "phi-", "psi+", "psi-")[rng.integers(4)])
    if family == "gisin":
        # a^2 + b^2 <= 1/2 keeps the family inside the state space
        r = math.sqrt(rng.uniform(0.05, 0.5))
        theta = rng.uniform(0.01, np.pi / 4 - 0.01)
        return (family, r * math.cos(theta), r * math.sin(theta), rng.uniform(0.0, 1.0))
    return (family, float(rng.uniform(0.0, 1.0)))


def malformed_input(rng: np.random.Generator, kind: str, variant: int = 0):
    """A malformed input of one class, as ("bad", kind, text) or ("bad_named", family).

    ``variant`` picks the form of ``dim_true`` and the family of ``named_nan``,
    so that how often each form occurs does not depend on the seed.
    """
    rho = random_state(rng, 4, int(rng.integers(1, 5)))
    if kind == "non_hermitian":
        i, j = rng.choice(4, size=2, replace=False)
        rho[i, j] += rng.uniform(0.05, 0.5) * 1j
        return ("bad", kind, matrix_text(rho))
    if kind == "trace":
        return ("bad", kind, matrix_text(rho * rng.uniform(1.05, 1.5)))
    if kind == "negative_eigenvalue":
        u = random_unitary(rng, 4)
        s = rng.uniform(0.05, 0.4)
        values = np.array([1.0 + s, 0.2, -s, -0.2])
        return ("bad", kind, matrix_text(u @ np.diag(values) @ u.conj().T))
    doc = {"dim": 4, "re": rho.real.tolist(), "im": rho.imag.tolist()}
    if kind == "ragged":
        doc["re"][int(rng.integers(4))].pop()
        return ("bad", kind, json.dumps(doc))
    if kind == "broken_json":
        text = json.dumps(doc)
        return ("bad", kind, text[: int(rng.integers(1, len(text) - 1))])
    if kind == "nan_literal":
        doc["re"][int(rng.integers(4))][int(rng.integers(4))] = float("nan")
        return ("bad", kind, json.dumps(doc))
    if kind == "dim_true":
        # a boolean dimension with a 1x1 payload is the form that dim=1 would take
        if variant % 2 == 0:
            doc = {"dim": True, "re": [[1.0]], "im": [[0.0]]}
        else:
            doc["dim"] = True
        return ("bad", kind, json.dumps(doc))
    if kind == "named_nan":
        return ("bad_named", NAN_FAMILIES[variant % len(NAN_FAMILIES)])
    raise ValueError(f"unknown malformed class {kind!r}")


class QuquartStream:
    """One operation maps one 4x4 input through every four-level transform."""

    name = "ququart_stream"

    def __init__(self, seed: int, lib, pool_size: int = STREAM_POOL):
        self.lib = lib
        rng = np.random.default_rng([seed, 1])
        pool = []
        malformed = 0
        while len(pool) < pool_size:
            for kind in rng.permutation(STREAM_BLOCK):
                if kind == "state":
                    rank = 1 + len(pool) % 4
                    pool.append(("state", matrix_text(random_state(rng, 4, rank))))
                elif kind == "xform":
                    pool.append(("xform", matrix_text(random_xstate(rng))))
                elif kind == "named":
                    family = NAMED_FAMILIES[rng.integers(len(NAMED_FAMILIES))]
                    pool.append(("named", named_request(rng, family)))
                else:
                    kind, variant = MALFORMED[malformed % len(MALFORMED)], malformed // len(MALFORMED)
                    pool.append(malformed_input(rng, kind, variant))
                    malformed += 1
        self.pool = pool
        self.previous = None
        self.pending: list[dict] = []
        self.checked = 0
        self.covered: set[int] = set()

    @property
    def period(self) -> int:
        """Operations after which the inputs repeat."""
        return len(self.pool)

    def warm(self, namespace) -> None:
        """Run one operation of every input kind, which fills every cache the stream uses."""
        self.previous = self.lib.linalg.validate_density(np.eye(4) / 4.0)
        seen = set()
        for i, item in enumerate(self.pool):
            if item[0] not in seen:
                seen.add(item[0])
                self.op(i, namespace, record=False)

    def _construct(self, request, L, out: dict):
        family = request[0]
        if family == "bell":
            out["closed_pair"] = L.bell_wigner_pair(request[1])
            out["closed_su4"] = L.bell_wigner_su4(request[1])
            return L.bell(request[1]), None
        if family == "werner":
            out["closed_pair"] = L.werner_wigner(request[1], "pair")
            out["closed_su4"] = L.werner_wigner(request[1], "su4")
            return L.werner(request[1]), None
        if family == "munro":
            x = L.munro(request[1])
        elif family == "peres_horodecki":
            x = L.peres_horodecki(request[1])
        else:
            x = L.gisin(*request[1:])
        return x.matrix(), x

    def _malformed(self, item, L) -> str:
        try:
            if item[0] == "bad_named":
                nan = float("nan")
                family = item[1]
                if family == "werner":
                    matrix = L.werner(nan)
                elif family == "munro":
                    matrix = L.munro(nan).matrix()
                elif family == "peres_horodecki":
                    matrix = L.peres_horodecki(nan).matrix()
                elif family == "gisin":
                    matrix = L.gisin(nan, 0.1, 0.5).matrix()
                else:
                    matrix = L.gisin_from_combinations(nan, 0.1, 0.5).matrix()
                text = L.serialize_matrix(matrix)
            else:
                text = item[2]
            L.validate_density(L.parse_matrix(text))
        except ValueError:
            return REJECTED
        return ACCEPTED_MALFORMED

    def op(self, i: int, L, record: bool = True) -> str:
        item = self.pool[i % len(self.pool)]
        if item[0] in ("bad", "bad_named"):
            return self._malformed(item, L)
        out = {"kind": item[0]}
        x = None
        if item[0] == "named":
            matrix, x = self._construct(item[1], L, out)
            out["family"] = item[1][0]
            text = L.serialize_matrix(matrix)
        else:
            text = item[1]
        rho = L.validate_density(L.parse_matrix(text))
        out["rho"] = rho
        out["su4"] = L.wigner_su4(rho)
        out["kernel"] = L.wigner_grid(rho)
        f = L.fano_extract(rho)
        out["fano"] = f
        out["pair"] = L.wigner_pair(f)
        out["delta"] = L.delta_pair(f)
        out["su4_coefficients"] = L.su4_coefficients(f)
        if item[0] == "xform":
            x = L.xstate_from_matrix(rho)
        if x is not None:
            out["x_su4"] = L.xstate_wigner(x, "su4")
            out["x_pair"] = L.xstate_wigner(x, "pair")
            out["x_marginals"] = L.xstate_marginals(x)
            out["x_delta"] = L.xstate_delta(x)
            out["x_reduced"] = (L.xstate_reduced_wigner(x, 1), L.xstate_reduced_wigner(x, 2))
        fmt = FORMATS[i % 3]
        grid = out["su4"] if (i // 3) % 2 == 0 else out["pair"]
        emitted = L.emit_grid(grid, fmt)
        out["round_trip"] = (grid, L.parse_grid(emitted, fmt))
        out["previous"] = self.previous
        out["super_fidelity"] = L.super_fidelity(rho, self.previous)
        self.previous = rho
        if record and i % STREAM_ORACLE_STRIDE == 0:
            out["op"] = i
            self.pending.append(out)
        return OK

    def check_pending(self) -> list[str]:
        """Hold the kept outputs against the oracles and drop them; returns the mismatches."""
        lib = self.lib
        errors = []

        def expect(label, deviation, tol=TOLERANCE):
            if not deviation <= tol:  # also catches NaN
                errors.append(f"{label}: deviation {deviation:.3e} > {tol:.0e}")

        def dev(a, b):
            return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))

        for out in self.pending:
            index = out["op"]
            self.covered.add(index % len(self.pool))
            rho = np.asarray(out["rho"])
            pair = out["pair"]
            expect(f"op {index} (1/4) sum W_su4", abs(out["su4"].sum() / 4.0 - 1.0))
            reference_pair = lib.twoqubit.wigner_pair_from_matrix(rho)
            expect(f"op {index} wigner_pair(fano_extract)", dev(pair, reference_pair))
            half1 = pair.sum(axis=(2, 3)) / 2.0
            half2 = pair.sum(axis=(0, 1)) / 2.0
            expect(f"op {index} half-sum qubit 1", dev(half1, lib.twoqubit.reduced_wigner(out["fano"], 1)))
            expect(f"op {index} half-sum qubit 2", dev(half2, lib.twoqubit.reduced_wigner(out["fano"], 2)))
            expect(f"op {index} delta_pair", dev(out["delta"], pair - np.multiply.outer(half1, half2)))
            coefficients = lib.twoqubit.density_from_su4_coefficients(out["su4_coefficients"])
            expect(f"op {index} su4_coefficients", dev(coefficients, rho))
            if "x_su4" in out:
                x_su4 = out["x_su4"]
                expect(f"op {index} xstate su4 grid", dev(x_su4, out["su4"]))
                expect(f"op {index} xstate pair grid", dev(out["x_pair"], reference_pair))
                marginals = out["x_marginals"]
                expect(f"op {index} mu marginal", dev(marginals.mu_marginal, x_su4.sum(axis=1) / 2.0))
                column = x_su4.sum(axis=0) / 2.0
                expect(f"op {index} nu marginal", dev(marginals.nu_marginal - 0.5, (column - 0.5) / 2.0))
                product = np.outer(marginals.mu_marginal, marginals.nu_marginal)
                expect(f"op {index} xstate delta", dev(out["x_delta"], x_su4 - product))
                expect(f"op {index} xstate reduced 1", dev(out["x_reduced"][0], half1))
                expect(f"op {index} xstate reduced 2", dev(out["x_reduced"][1], half2))
            if "closed_pair" in out:
                expect(f"op {index} {out['family']} closed pair grid", dev(out["closed_pair"], pair))
                expect(f"op {index} {out['family']} closed su4 grid", dev(out["closed_su4"], out["su4"]))
            grid, back = out["round_trip"]
            if not np.array_equal(grid, back):
                errors.append(f"op {index} emit/parse round trip is not bit-exact")
            sigma = np.asarray(out["previous"])
            overlap = float(np.real(np.trace(rho @ sigma)))
            sigma_pair = lib.twoqubit.wigner_pair_from_matrix(sigma)
            expect(f"op {index} grid_overlap pair", abs(lib.kernel.grid_overlap(pair, sigma_pair) - overlap))
            sigma_kernel = lib.kernel.wigner_grid(sigma)
            expect(f"op {index} grid_overlap kernel", abs(lib.kernel.grid_overlap(out["kernel"], sigma_kernel) - overlap))
            expect(f"op {index} reconstruct(wigner_grid)", dev(lib.kernel.reconstruct(out["kernel"]), rho))
        self.checked += len(self.pending)
        self.pending.clear()
        return errors

    def check(self) -> list[str]:
        """The oracles on what is still pending, plus the run-wide ones."""
        return self.check_pending() + final_checks(self, 20) + algorithm_oracle(self.lib)


def final_checks(workload, least: int) -> list[str]:
    if workload.checked < least:
        return [f"only {workload.checked} operations were held against the oracles"]
    return []


def algorithm_oracle(lib) -> list[str]:
    errors = []
    for pulse, level in ((2, 1), (6, 3)):
        outcome = lib.algorithm.run_parity_algorithm(pulse=pulse).outcome_level
        if outcome != level:
            errors.append(f"algorithm pulse {pulse}: level {outcome}, expected {level}")
    return errors


class KernelLargeN:
    """One operation is wigner_grid -> reconstruct plus grid_overlap at N in {8, 16, 32}."""

    name = "kernel_large_n"

    def __init__(self, seed: int, lib, blocks: int = KERNEL_POOL_BLOCKS):
        self.lib = lib
        rng = np.random.default_rng([seed, 2])
        self.pool = [
            (n, random_state(rng, n, n)) for _ in range(blocks) for n in rng.permutation(KERNEL_DIMS)
        ]
        self.partner: dict[int, tuple] = {}
        self.pending: list[tuple] = []
        self.checked = 0
        self.covered: set[int] = set()

    @property
    def period(self) -> int:
        """Operations after which the inputs repeat."""
        return len(self.pool)

    def warm(self, namespace) -> None:
        """Build kernel(8), kernel(16), kernel(32) and one partner grid per N.

        The order is fixed: the order of the builds sets how the heap is laid
        out, and with it the peak RSS, which differed by 16 MiB between seeds.
        """
        for n in KERNEL_DIMS:
            rho = next(r for m, r in reversed(self.pool) if m == n)
            self.partner[n] = (rho, self.lib.kernel.wigner_grid(rho))

    def op(self, i: int, L, record: bool = True) -> str:
        n, rho = self.pool[i % len(self.pool)]
        grid = L.wigner_grid(rho)
        back = L.reconstruct(grid)
        sigma, sigma_grid = self.partner[n]
        overlap = L.grid_overlap(grid, sigma_grid)
        self.partner[n] = (rho, grid)
        if record and i % KERNEL_ORACLE_STRIDE == 0:
            self.pending.append((i, grid, back, sigma, overlap))
        return OK

    def check_pending(self) -> list[str]:
        errors = []
        for index, grid, back, sigma, overlap in self.pending:
            self.covered.add(index % len(self.pool))
            n, rho = self.pool[index % len(self.pool)]
            checks = (
                ("(1/N) sum W", abs(grid.sum() / n - 1.0)),
                ("reconstruct(wigner_grid)", float(np.max(np.abs(back - rho)))),
                ("grid_overlap", abs(overlap - float(np.real(np.trace(rho @ sigma))))),
            )
            for label, deviation in checks:
                if not deviation <= TOLERANCE:
                    errors.append(f"op {index} N={n} {label}: deviation {deviation:.3e}")
        self.checked += len(self.pending)
        self.pending.clear()
        return errors

    def check(self) -> list[str]:
        return self.check_pending() + final_checks(self, 12)


def library_table(lib) -> dict:
    """attribute -> (span name, function, variant) for every call the workloads make."""

    def by_dim(args, kwargs):
        return f"n{np.asarray(args[0]).shape[0]}"

    def by_rep(args, kwargs):
        return args[1]

    table = {
        "wigner_grid": ("kernel.wigner_grid", lib.kernel.wigner_grid, by_dim),
        "reconstruct": ("kernel.reconstruct", lib.kernel.reconstruct, by_dim),
        "grid_overlap": ("kernel.grid_overlap", lib.kernel.grid_overlap, None),
        "wigner_su4": ("generators.wigner_su4", lib.generators.wigner_su4, None),
        "xstate_wigner": ("states.xstate_wigner", lib.states.xstate_wigner, by_rep),
    }
    for module, names in (
        ("twoqubit", ("fano_extract", "wigner_pair", "delta_pair", "su4_coefficients")),
        ("linalg", ("validate_density",)),
        ("io", ("parse_matrix", "serialize_matrix", "emit_grid", "parse_grid")),
        ("fidelity", ("super_fidelity",)),
        (
            "states",
            (
                "xstate_from_matrix",
                "xstate_marginals",
                "xstate_delta",
                "xstate_reduced_wigner",
                "bell",
                "bell_wigner_pair",
                "bell_wigner_su4",
                "werner",
                "werner_wigner",
                "munro",
                "peres_horodecki",
                "gisin",
                "gisin_from_combinations",
            ),
        ),
    ):
        for name in names:
            table[name] = (f"{module}.{name}", getattr(getattr(lib, module), name), None)
    return table
