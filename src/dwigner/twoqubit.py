"""Two-qubit states in the Pauli-product parameterization.

Covers composition/extraction of the 15 real coefficients, reductions to
single qubits, the four-index pair phase-space function in both the
coefficient and the matrix-element form, the correlation signature, and
the change of basis into the four-level generator description.

A ``FanoCoefficients`` holds one read-only Fano vector t = [1, a, b, vec c].
Every quantity read from it is affine in rho, so it is a cached real map
times t: ``_fano_map(rep)`` stacks the 16 grid rows of ``pair_kernel()`` or
``su4_kernel()`` over two blocks of four rows (the two half-sums for the
pair grid, the mu-marginal and the nu-marginal itself for the 4x4 grid),
which ``_grid`` and ``_signature`` read for the Fano and the X-state
functions alike, and ``_su4_basis_map()`` gives the generator
coefficients.
"""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache

import numpy as np

from .generators import _bloch_density, _generators_for, generators, su4_kernel
from .kernel import MappingKernel, _compose, _real_rows, kernel, wigner_grid
from .linalg import DensityMatrix, _bounded, _checked_integer, _real_array, hermitian_matrix, validate_density


@dataclasses.dataclass(frozen=True, eq=False)
class FanoCoefficients:
    """Polarizations ``a`` (qubit 1), ``b`` (qubit 2) and correlations ``c``.

    Construction checks the shapes and that sum t_k^2 is finite (the
    package's acceptance rule, which names a field that fails it), and
    copies the fields once into the stored read-only Fano vector
    t = [1, a, b, vec c] (private ``_vector``); ``a``, ``b`` and ``c`` are
    read-only views of it, so later writes to the caller's arrays do not
    reach the object.  Every grid, half-sum and signature of the state is
    the cached map ``_fano_map(rep)`` times t.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = _real_array(self.a, "Fano coefficients 'a'")
        b = _real_array(self.b, "Fano coefficients 'b'")
        c = _real_array(self.c, "Fano coefficients 'c'")
        if a.shape != (3,) or b.shape != (3,) or c.shape != (3, 3):
            raise ValueError(
                f"expected shapes (3,), (3,), (3, 3); got {a.shape}, {b.shape}, {c.shape}"
            )
        t = np.empty(16)
        t[0] = 1.0
        t[1:4], t[4:7], t[7:] = a, b, c.ravel()
        self._adopt(t)

    def _adopt(self, t: np.ndarray) -> None:
        # take t = [1, a, b, vec c] as the stored vector: frozen first, so the fields made views of
        # it are read-only too, and held to the acceptance rule (the field is named only when it fails)
        t.flags.writeable = False
        a, b, c = t[1:4], t[4:7], t[7:].reshape(3, 3)
        total = np.vdot(t, t)
        if not math.isfinite(total):
            for arr, name in ((a, "a"), (b, "b"), (c, "c")):
                _bounded(arr, f"Fano coefficients {name!r}", shown=arr.tolist())
            _bounded(t, "Fano coefficients", total)
        object.__setattr__(self, "_vector", t)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @classmethod
    def _from_vector(cls, t: np.ndarray) -> FanoCoefficients:
        # the coefficients stored in t = [1, a, b, vec c], a fresh float (16,) array, uncopied
        f = object.__new__(cls)
        f._adopt(t)
        return f

    def __reduce__(self):
        # copies and pickles are built anew, so their fields stay read-only views of their vector
        return type(self), (self.a, self.b, self.c)


def pair_index(i: int, j: int) -> int:
    """Level of the four-level system matching basis state |i j> of the pair; bits are integers."""
    # 1.0 and True equal 1, so only the integer checks refuse them; an array's `in` is ambiguous,
    # so it skips the range check and the integer checks refuse it too
    if any(not isinstance(b, np.ndarray) and b not in (0, 1) for b in (i, j)):
        raise ValueError(f"bits must be 0 or 1, got ({i}, {j})")
    _checked_integer("bit", i)
    _checked_integer("bit", j)
    return 2 * i + j


@lru_cache(maxsize=None)
def _pauli_products() -> np.ndarray:
    # sigma_i x I, then I x sigma_j, then sigma_i x sigma_j row by row:
    # the order of the coefficients a, b, c
    eye2 = np.eye(2, dtype=complex)
    paulis = generators(2)
    stack = np.array(
        [np.kron(p, eye2) for p in paulis]
        + [np.kron(eye2, p) for p in paulis]
        + [np.kron(p, q) for p in paulis for q in paulis]
    )
    stack.flags.writeable = False
    return stack


@lru_cache(maxsize=None)
def _pauli_rows() -> np.ndarray:
    # the Pauli products as real (15, 32) rows: row k times rho's real row is Tr[P_k rho]
    return _real_rows(_pauli_products())


def fano_matrix(f: FanoCoefficients) -> np.ndarray:
    """Compose the 4x4 matrix (I + sum_k t_k P_k) / 4; defined for any coefficients, physical or not.

    The sum is the transpose of ``fano_extract``'s read: [a, b, vec c] times the
    same real rows of the Pauli products, read back as complex entries.  The
    identity is added outside the product: as a 16th row it would change the
    last bits of Werner matrices.
    """
    return (np.eye(4, dtype=complex) + _compose(f._vector[1:], _pauli_rows(), 4)) / 4.0


def fano_compose(f: FanoCoefficients, tol: float | None = None) -> DensityMatrix:
    """Compose and validate; rejects coefficient sets outside the state space.

    The raised error carries the composed matrix, so non-physical
    coefficient sets remain available for exploratory work through
    ``fano_matrix``.
    """
    return validate_density(fano_matrix(f), tol)


def fano_extract(rho) -> FanoCoefficients:
    """The 15 coefficients Tr[P_k rho] of a Hermitian 4x4 matrix, as the Pauli products' real rows times rho's.

    The product is written straight into the Fano vector t = [1, a, b, vec c]
    (t[0] = 1 exactly, whatever the trace), which the result stores uncopied.
    """
    m = hermitian_matrix(rho)
    if m.shape[0] != 4:
        raise ValueError(f"dimension must be 4, got {m.shape[0]}")
    t = np.empty(16)
    t[0] = 1.0
    np.matmul(_pauli_rows(), _real_rows(m)[0], out=t[1:])
    return FanoCoefficients._from_vector(t)


def reduced_density(f: FanoCoefficients, which: int) -> np.ndarray:
    """Partial trace onto qubit 1 or 2: (I + polarization . sigma) / 2."""
    # the Fano vector passed the acceptance rule when it was built
    return _bloch_density((f.a, f.b)[_qubit(which)], generators(2))


def _qubit(which: int) -> int:
    # the qubit selector 1 or 2 as the index 0 or 1 of its polarization and of its half-sum rows
    # 1.0 and True equal 1, so only the integer check refuses them; an array's `in` is ambiguous,
    # so it skips the range check and the integer check refuses it too
    if not isinstance(which, np.ndarray) and which not in (1, 2):
        raise ValueError(f"qubit selector must be 1 or 2, got {which}")
    _checked_integer("qubit selector", which)
    return which - 1


@lru_cache(maxsize=None)
def pair_kernel() -> MappingKernel:
    """Cell operators G(mu1, nu1) x G(mu2, nu2) of ``kernel(2)`` on the 16 pair points.

    ``ops[mu1, nu1, mu2, nu2]`` is the Kronecker product of the two qubit
    phase-point operators, so the stack is trace-orthogonal and
    informationally complete like ``kernel(4)``.
    """
    k = kernel(2).ops
    ops = np.einsum("abij,cdkl->abcdikjl", k, k).reshape(2, 2, 2, 2, 4, 4)
    ops.flags.writeable = False
    return MappingKernel(dim=4, ops=ops)


def _rep_kernel(rep: str) -> MappingKernel:
    if rep == "pair":
        return pair_kernel()
    if rep == "su4":
        return su4_kernel()
    raise ValueError(f"unknown representation tag {rep!r}; expected 'pair' or 'su4'")


# the shape of each representation's grid; its 16 cells are the first rows of a stacked map
_GRID_SHAPE = {"pair": (2, 2, 2, 2), "su4": (4, 4)}
# the two blocks of four rows of a stacked map below its grid (see _stacked_map); a state's product
# with a map is m.dot(t), the same bits as m @ t without the matmul ufunc's per-call dispatch cost
_HALVES = _FIRST, _SECOND = slice(16, 20), slice(20, 24)


def _stacked_map(rep: str, basis) -> np.ndarray:
    # the (24, k) map of the Hermitian B_k in rho = sum_k t_k B_k, t real: 16 grid rows Re Tr[G†(p) B_k],
    # then two blocks of row sums over the grid viewed as (4, 4) cells: for "pair" the half-sums over
    # qubit 2's and over qubit 1's indices; for "su4" the mu-marginal (1/2) sum_nu W and the
    # nu-marginal (Tr rho + sum_mu W) / 4, whose constant 1/4 is the term Tr rho / 4, linear in rho
    grid = _rep_kernel(rep)._rows @ _real_rows(basis).T
    cells = grid.reshape(4, 4, -1)
    if rep == "pair":
        second = cells.sum(axis=0) / 2.0
    else:
        second = (cells.sum(axis=0) + np.trace(basis, axis1=1, axis2=2).real) / 4.0
    table = np.concatenate([grid, cells.sum(axis=1) / 2.0, second])
    table.flags.writeable = False
    return table


def _grid(v: np.ndarray, rep: str) -> np.ndarray:
    # the grid of a stacked map's product v with a state vector
    return v[:16].reshape(_GRID_SHAPE[rep])


def _signature(v: np.ndarray, rep: str) -> np.ndarray:
    # the grid of a stacked product v minus the outer product of its two row blocks: the reductions'
    # grids for "pair", the mu- and nu-marginals for "su4"
    return (v[:16].reshape(4, 4) - v[_FIRST, None] * v[_SECOND]).reshape(_GRID_SHAPE[rep])


@lru_cache(maxsize=None)
def _fano_map(rep: str) -> np.ndarray:
    # column k: the grid and row sums of basis matrix B_k in fano_matrix(f) = sum_k t_k B_k,
    # t = [1, a, b, vec c]
    basis = np.concatenate([np.eye(4, dtype=complex)[None], _pauli_products()]) / 4.0
    return _stacked_map(rep, basis)


def _fano_grid(f: FanoCoefficients, rep: str) -> np.ndarray:
    return _grid(_fano_map(rep).dot(f._vector), rep)


def wigner_pair(f: FanoCoefficients) -> np.ndarray:
    """Pair phase-space function on the 16 points (mu1, nu1, mu2, nu2).

    Equals ``wigner_grid`` of ``fano_matrix(f)`` over ``pair_kernel()``, for
    physical and unphysical coefficients alike, but is computed in
    coefficient form: the grid is affine in the stored Fano vector
    t = [1, a, b, vec c], so it is the grid rows of the real (24, 16) map
    ``_fano_map("pair")``, built from ``pair_kernel()`` on first use and
    cached, times t.  No matrix is composed, and no Hermiticity guard runs:
    ``FanoCoefficients`` has already held t to the acceptance rule.
    """
    return _fano_grid(f, "pair")


def wigner_pair_from_matrix(rho) -> np.ndarray:
    """Pair phase-space function of a 4x4 matrix, over ``pair_kernel()``.

    Agrees with ``wigner_pair(fano_extract(rho))`` for every Hermitian
    unit-trace matrix.
    """
    return wigner_grid(rho, pair_kernel())


def reduced_wigner(f: FanoCoefficients, which: int) -> np.ndarray:
    """2x2 phase-space grid of one qubit's reduction.

    Equals the half-sum of the pair grid over the other qubit's indices:
    the half-sum rows of ``_fano_map("pair")`` times the Fano vector.
    """
    return _fano_map("pair").dot(f._vector)[_HALVES[_qubit(which)]].reshape(2, 2)


def delta_pair(f: FanoCoefficients) -> np.ndarray:
    """Correlation signature: pair grid minus the product of reductions.

    Identically zero exactly when the correlations factorize,
    c_ij = a_i b_j.  One product of the stacked (24, 16) map
    ``_fano_map("pair")`` with the stored Fano vector gives the grid and
    both half-sums; the signature is the grid minus their outer product.
    """
    return _signature(_fano_map("pair").dot(f._vector), "pair")


@lru_cache(maxsize=None)
def _su4_basis_map() -> np.ndarray:
    # entry (i, k) is Tr[g_i P_k] / 2, so for rho = (I + sum_k t_k P_k) / 4, 2 Tr[g_i rho] is this times t
    table = _real_rows(generators(4).stack()) @ _real_rows(_pauli_products()).T / 2.0
    table.flags.writeable = False
    return table


def su4_coefficients(f: FanoCoefficients) -> np.ndarray:
    """Coefficients of the same state over the 15 dimension-4 generators.

    The composed matrix equals (I + sum_i coeffs[i] g_i) / 4; each
    coefficient is twice the corresponding generator mean value: the cached
    (15, 15) map Tr[g_i P_k] / 2 times [a, b, vec c], the stored Fano
    vector after its leading 1.
    """
    return _su4_basis_map() @ f._vector[1:]


def density_from_su4_coefficients(coeffs) -> np.ndarray:
    """Rebuild the 4x4 matrix (I + sum_i coeffs[i] g_i) / 4; a non-finite sum of squares raises.

    The rule is held once, on the coefficients as given, before they are
    halved into ``density_from_bloch``'s components, and a refusal echoes
    them; the components are not checked again.
    """
    v = _bounded(_real_array(coeffs, "components"), "components", shown=coeffs) / 2.0
    return _bloch_density(v, _generators_for(v, 4))
