"""Generator sets for the special unitary groups of dimensions 2 and 4.

Both sets follow one rule, the generalized Gell-Mann construction: for
each level l = 1 ... n-1, the real coupling E_kl + E_lk and then the
imaginary coupling -i(E_kl - E_lk) to every lower level k, then the
diagonal diag(1, ..., 1, -l, 0, ...) divided by sqrt(l(l+1)/2).  The
Pauli matrices ``PAULI_X, PAULI_Y, PAULI_Z`` are ``generators(2)``.

Covers the algebraic law checks (orthonormality, closure, Jacobi
identities, trace products), Bloch vectors, the clock/shift polynomial of
each four-level generator (computed by one gather and one DFT, as for any
matrix at any N, with the paper's printed table as the test oracle), the
four-level cell-operator stack as one closed-form array expression, the
phase-space representatives of each generator read back from it (the qubit
ones are parities), and the qubit and four-level phase-space grids.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import numpy as np

from .kernel import (
    MappingKernel, _clock_shift, _clock_shift_coefficients, _compose, _per_dimension, _real_rows, wigner_grid
)
from .linalg import (
    DEFAULT_TOLERANCE, _bounded, _checked_integer, _checked_tolerance, _real_array, hermitian_matrix
)


def _gell_mann(n: int) -> tuple[np.ndarray, ...]:
    # the generalized Gell-Mann rule of the module docstring
    # (Bertlmann & Krammer, J. Phys. A 41, 235303 (2008))
    unit = np.eye(n * n, dtype=complex).reshape(n, n, n, n)  # unit[k, l] = E_kl
    matrices = []
    for level in range(1, n):
        for k in range(level):
            matrices.append(unit[k, level] + unit[level, k])
            matrices.append(-1j * (unit[k, level] - unit[level, k]))
        diagonal = np.diag([1] * level + [-level] + [0] * (n - level - 1)).astype(complex)
        matrices.append(diagonal / np.sqrt(level * (level + 1) / 2))
    return tuple(matrices)


@dataclasses.dataclass(frozen=True, eq=False)
class GeneratorSet:
    """Ordered traceless Hermitian generators with Tr[g_i g_j] = 2 delta_ij.

    The (count, n, n) stack of the matrices is built once, read-only.
    """

    dim: int
    matrices: tuple[np.ndarray, ...]
    _stack: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        stack = np.stack(self.matrices)
        stack.flags.writeable = False
        object.__setattr__(self, "_stack", stack)

    def __len__(self) -> int:
        return len(self.matrices)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.matrices[i]

    def __iter__(self):
        return iter(self.matrices)

    def stack(self) -> np.ndarray:
        return self._stack


@_per_dimension
def generators(n: int) -> GeneratorSet:
    """Generator set for dimension n; supported dimensions are 2 and 4.

    Built once per dimension and cached, as ``kernel(n)`` is: a bool or
    non-integer n raises ``ValueError``, and ``generators(np.int64(4)) is
    generators(4)``.
    """
    if n not in (2, 4):
        raise ValueError(f"unsupported dimension {n}; expected 2 or 4")
    matrices = _gell_mann(n)
    for m in matrices:
        m.flags.writeable = False
    return GeneratorSet(dim=n, matrices=matrices)


PAULI_X, PAULI_Y, PAULI_Z = generators(2)


def _generator_index(name: str, value, count: int | None = None) -> None:
    # one check for every generator and grid index: the package's integer check and, where a
    # count is given, a generator index in [0, count)
    _checked_integer(name, value)
    if count is not None and not 0 <= value < count:
        raise IndexError(f"generator index {value} out of range [0, {count})")


def generator_from_schwinger(i: int) -> np.ndarray:
    """Dimension-4 generator i (0-based) summed from its clock/shift polynomial.

    Its coefficients chi[eta, xi] = Tr[(u^eta v^xi)† g_i] / 4 are one gather and one DFT, the
    rule of ``kernel._clock_shift_coefficients`` for any matrix at any N; the paper's printed
    polynomials are the test oracle.  A bool or non-integer i raises ValueError, an integer
    outside [0, 15) IndexError.
    """
    _generator_index("i", i, 15)
    chi = _clock_shift_coefficients(generators(4)[i])
    return sum(c * _clock_shift(eta, xi, 4) for (eta, xi), c in np.ndenumerate(chi))


@dataclasses.dataclass(frozen=True, eq=False)
class StructureConstants:
    """Antisymmetric and symmetric structure tensors of a generator set."""

    dim: int
    antisymmetric: np.ndarray  # totally antisymmetric; fixes the commutators
    symmetric: np.ndarray  # symmetric in the first two indices; fixes the anticommutators


def _trace_products(stack: np.ndarray) -> tuple[np.ndarray, ...]:
    # the pair products P[i, j] = g_i g_j, the triple traces Tr[g_i g_j g_k] and the
    # structure tensors f and d they give: the one source of every product law
    pairs = np.einsum("iab,jbc->ijac", stack, stack)
    triples = np.einsum("ijab,kba->ijk", pairs, stack)
    swapped = np.transpose(triples, (1, 0, 2))
    f = np.real(-0.25j * (triples - swapped))
    d = np.real(0.25 * (triples + swapped))
    return pairs, triples, f, d


def structure_constants(gs: GeneratorSet) -> StructureConstants:
    """Structure tensors from the trace formulas.

    antisymmetric_ijk = -i/4 Tr[[g_i, g_j] g_k] and
    symmetric_ijk     =  1/4 Tr[{g_i, g_j} g_k].
    """
    _, _, f, d = _trace_products(gs.stack())
    f.flags.writeable = False
    d.flags.writeable = False
    return StructureConstants(dim=gs.dim, antisymmetric=f, symmetric=d)


@dataclasses.dataclass(frozen=True)
class AlgebraReport:
    """Maximum deviation per algebraic law, with pass/fail at a tolerance."""

    tolerance: float
    deviations: dict[str, float]

    @property
    def results(self) -> dict[str, bool]:
        return {law: dev <= self.tolerance for law, dev in self.deviations.items()}

    @property
    def all_pass(self) -> bool:
        return all(self.results.values())


def verify_algebra(gs: GeneratorSet, tol: float = DEFAULT_TOLERANCE) -> AlgebraReport:
    """Exhaustively check the generator algebra and report deviations.

    Laws covered: Hermiticity, tracelessness, trace orthonormality,
    commutator and anticommutator closure through the structure tensors,
    both Jacobi identities, and the cubic and quartic trace product
    formulas.
    """
    tol = _checked_tolerance(tol)
    stack = gs.stack()
    m, n = stack.shape[0], gs.dim
    eye = np.eye(n, dtype=complex)
    pairs, triples, f, d = _trace_products(stack)
    j = d + 1j * f

    swapped = np.transpose(pairs, (1, 0, 2, 3))
    comms = pairs - swapped
    antis = pairs + swapped

    deviations = {
        "hermiticity": float(np.max(np.abs(stack - np.conj(np.transpose(stack, (0, 2, 1)))))),
        "tracelessness": float(np.max(np.abs(np.trace(stack, axis1=1, axis2=2)))),
        "orthonormality": float(
            np.max(np.abs(np.trace(pairs, axis1=2, axis2=3) - 2 * np.eye(m)))
        ),
        "commutator_closure": float(
            np.max(np.abs(comms - 2j * np.einsum("ijk,kab->ijab", f, stack)))
        ),
        "anticommutator_closure": float(
            np.max(
                np.abs(
                    antis
                    - (4.0 / n) * np.einsum("ij,ab->ijab", np.eye(m), eye)
                    - 2 * np.einsum("ijk,kab->ijab", d, stack)
                )
            )
        ),
    }

    # both Jacobi identities, the second with anticommutators inside
    def cyclic(inner):
        term = np.einsum("iab,jkbc->ijkac", stack, inner) - np.einsum(
            "jkab,ibc->ijkac", inner, stack
        )
        return term + np.transpose(term, (1, 2, 0, 3, 4)) + np.transpose(term, (2, 0, 1, 3, 4))

    deviations["jacobi_commutator"] = float(np.max(np.abs(cyclic(comms))))
    deviations["jacobi_mixed"] = float(np.max(np.abs(cyclic(antis))))
    deviations["triple_trace"] = float(np.max(np.abs(triples - 2 * j)))

    quartics = np.einsum("ijab,klba->ijkl", pairs, pairs)
    expected = (4.0 / n) * np.einsum("ij,kl->ijkl", np.eye(m), np.eye(m)) + 2 * np.einsum(
        "ijp,pkl->ijkl", j, j
    )
    deviations["quartic_trace"] = float(np.max(np.abs(quartics - expected)))

    return AlgebraReport(tolerance=tol, deviations=deviations)


def bloch_vector(rho) -> np.ndarray:
    """Generator mean values Tr[g_i rho] of a Hermitian matrix, a real vector of length N^2 - 1.

    The generators are ``generators(N)``, the one set of each dimension, so N is 2 or 4.
    """
    a = hermitian_matrix(rho)
    return _real_rows(generators(a.shape[0]).stack()) @ _real_rows(a)[0]


def density_from_bloch(components, n: int) -> np.ndarray:
    """Rebuild the matrix I/n + (1/2) sum_i components_i g_i; a non-finite sum of squares raises.

    The sum is the transpose of ``bloch_vector``'s read: the components times
    the same real rows of ``generators(n)``, read back as complex entries.
    """
    v = _real_array(components, "components")
    gs = _generators_for(v, n)
    return _bloch_density(_bounded(v, "components", shown=components), gs)


def _generators_for(v, n: int) -> GeneratorSet:
    # generators(n), once v is known to hold one component for each of them
    gs = generators(n)
    if v.shape != (len(gs),):
        raise ValueError(f"expected {len(gs)} components, got shape {v.shape}")
    return gs


def _bloch_density(v, gs: GeneratorSet) -> np.ndarray:
    # I/n + (1/2) sum_i v_i g_i for components that have passed the acceptance rule where they
    # entered the library, so it is held once
    n = gs.dim
    return np.eye(n, dtype=complex) / n + 0.5 * _compose(v, _real_rows(gs.stack()), n)


def _mu_ratio(mu, half_offset):
    # Dirichlet-type ratio sin(4x)/sin(x) at x = (mu - half_offset) * pi/4, elementwise;
    # half-integer offsets keep the denominator nonzero at integer mu.
    x = (mu - half_offset) * np.pi / 4.0
    return np.sin(4.0 * x) / np.sin(x)


@lru_cache(maxsize=None)
def _representative_table(dim: int) -> np.ndarray:
    # R[i, mu, nu] over the grid window: the qubit parities, or Tr[g_i A(mu, nu)] of the su4 stack
    if dim == 2:
        mu, nu = np.indices((2, 2))
        table = 1.0 - 2.0 * (np.stack([nu, mu + nu + 1, mu]) % 2)
    else:
        table = (_real_rows(generators(4).stack()) @ _real_rows(su4_kernel().ops).T).reshape(15, 4, 4)
    table.flags.writeable = False
    return table


def generator_representative(i: int, mu: int, nu: int, dim: int = 4) -> float:
    """Phase-space representative R_i(mu, nu) of generator i, read from the convention's table.

    Total over all integer points: the grid indices enter through their
    residues modulo the dimension.  A bool or non-integer index or dimension
    raises ValueError, a generator index outside [0, dim^2 - 1) IndexError.  For
    dimension 2 these are the parities (-1)^nu, (-1)^(mu + nu + 1), (-1)^mu;
    for dimension 4, R_i = Tr[g_i A(mu, nu)] over the cell operators of
    ``su4_kernel()``, the standard closed forms of the four-level convention.
    The diagonal generators agree with the invertible kernel while coherence
    sectors deviate from it (that convention is not informationally complete).
    """
    dim = generators(dim).dim  # the dimension check of generators(n)
    for name, value in (("i", i), ("mu", mu), ("nu", nu)):
        _generator_index(name, value)
    _generator_index("i", i, dim * dim - 1)
    return float(_representative_table(dim)[i, mu % dim, nu % dim])


@lru_cache(maxsize=None)
def su4_kernel() -> MappingKernel:
    """Cell operators of the four-level closed form, one array expression over (mu, nu, k, l).

    A(mu, nu)[k, l] = (1/4) D(mu - (k + l)/2) i^(-nu (l - k)), where D(x) is
    sin(pi x) / sin(pi x / 4) when k + l is odd, and exactly 4 at x = 0 and 0
    elsewhere when k + l is even; i^(-m) is read from the exact table
    (1, -i, -1, i).  This is I/4 + (1/2) sum_i R_i(mu, nu) g_i with R_i the
    closed-form representatives (``generator_representative``).  Every
    operator is exactly Hermitian with trace exactly 1 and diagonal
    delta(mu, k), but the family is not trace-orthogonal: its span has
    dimension 12 of 16 (see ``wigner_su4``).
    """
    mu = np.arange(4).reshape(4, 1, 1, 1)
    nu = np.arange(4).reshape(1, 4, 1, 1)
    k, l = np.indices((4, 4))
    odd = (k + l) % 2 == 1
    # the even cells get a half-integer offset too, so the ratio never divides 0 by 0
    ratio = _mu_ratio(mu, np.where(odd, (k + l) / 2, 0.5))
    d = np.where(odd, ratio, np.where(2 * mu == k + l, 4.0, 0.0))
    ops = 0.25 * d * np.array([1, -1j, -1, 1j])[(nu * (l - k)) % 4]
    ops.flags.writeable = False
    return MappingKernel(dim=4, ops=ops)


def wigner_su2(p) -> np.ndarray:
    """2x2 phase-space grid of a qubit state given its polarization vector.

    The grid is ``wigner_grid`` of I/2 + (1/2) p . sigma: at n = 2 the
    phase-point kernel is the qubit convention.  A |P|^2 that is not
    finite raises ``ValueError`` before the unit-ball check.
    """
    p = _real_array(p, "components")
    if p.shape != (3,):
        raise ValueError(f"expected a 3-component polarization vector, got shape {p.shape}")
    norm_sq = float(np.vdot(p, p))
    _bounded(p, "components", norm_sq, shown=p)
    if norm_sq > 1.0 + DEFAULT_TOLERANCE:
        raise ValueError(f"polarization vector lies outside the unit ball: |P|^2 = {norm_sq}")
    return wigner_grid(_bloch_density(p, generators(2)))


def wigner_su4(rho) -> np.ndarray:
    """4x4 phase-space grid of a four-level state, Tr[A(mu, nu) rho] over ``su4_kernel()``.

    With A(mu, nu)[k, l] = (1/4) D(mu - (k + l)/2) i^(-nu (l - k)), a cell is
    W(mu, nu) = (1/4) sum_kl D(mu - (k + l)/2) i^(-nu (l - k)) rho[l, k]
    (``su4_kernel`` defines D).
    Agrees with the kernel-trace evaluation Tr[G†(mu, nu) rho] of
    ``kernel(4)`` on diagonal states, and for every state both grids have
    the populations as mu-marginals, (1/4) sum_nu W(mu, nu) = rho[mu, mu].
    Elsewhere the two differ: the linear part of this map has rank 11 of
    15, so it is not invertible.  It is blind to exactly four Hermitian
    directions, Im rho[0,2], Im rho[1,3], Re(rho[0,3] - rho[1,2]) and
    Im(rho[0,3] + rho[1,2]).  See the README section "Two conventions for
    dimension 4".
    """
    return wigner_grid(rho, su4_kernel())
