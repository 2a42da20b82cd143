"""Two-qubit states in the Pauli-product parameterization.

Covers composition/extraction of the 15 real coefficients, reductions to
single qubits, the four-index pair phase-space function in both the
coefficient and the matrix-element form, the correlation signature, and
the change of basis into the four-level generator description.
"""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache

import numpy as np

from .generators import density_from_bloch, generators, su4_kernel
from .kernel import MappingKernel, _coefficient_map, _real_rows, kernel, wigner_grid
from .linalg import DensityMatrix, hermitian_matrix, validate_density


@dataclasses.dataclass(frozen=True, eq=False)
class FanoCoefficients:
    """Polarizations ``a`` (qubit 1), ``b`` (qubit 2) and correlations ``c``.

    Construction checks the shapes and that every entry is finite.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        c = np.array(self.c, dtype=float)
        if a.shape != (3,) or b.shape != (3,) or c.shape != (3, 3):
            raise ValueError(
                f"expected shapes (3,), (3,), (3, 3); got {a.shape}, {b.shape}, {c.shape}"
            )
        # one pass over all 15 entries; the field is named only when it fails
        if not all(map(math.isfinite, [*a.tolist(), *b.tolist(), *c.ravel().tolist()])):
            for arr, name in ((a, "a"), (b, "b"), (c, "c")):
                if not all(map(math.isfinite, arr.ravel().tolist())):
                    raise ValueError(f"Fano coefficients {name!r} must be finite, got {arr.tolist()}")
        for arr, name in ((a, "a"), (b, "b"), (c, "c")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def pair_index(i: int, j: int) -> int:
    """Level of the four-level system matching basis state |i j> of the pair."""
    if i not in (0, 1) or j not in (0, 1):
        raise ValueError(f"bits must be 0 or 1, got ({i}, {j})")
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


def fano_matrix(f: FanoCoefficients) -> np.ndarray:
    """Compose the 4x4 matrix; defined for any coefficients, physical or not."""
    coeffs = np.concatenate([f.a, f.b, f.c.reshape(-1)])
    return (np.eye(4, dtype=complex) + np.einsum("k,kij->ij", coeffs, _pauli_products())) / 4.0


def fano_compose(f: FanoCoefficients, tol: float | None = None) -> DensityMatrix:
    """Compose and validate; rejects coefficient sets outside the state space.

    The raised error carries the composed matrix, so non-physical
    coefficient sets remain available for exploratory work through
    ``fano_matrix``.
    """
    return validate_density(fano_matrix(f), tol)


def fano_extract(rho) -> FanoCoefficients:
    """The 15 coefficients Tr[P_k rho] of a Hermitian 4x4 matrix, as the Pauli products' real rows times rho's."""
    m = hermitian_matrix(rho)
    if m.shape[0] != 4:
        raise ValueError(f"dimension must be 4, got {m.shape[0]}")
    t = _real_rows(_pauli_products()) @ _real_rows(m)[0]
    return FanoCoefficients(a=t[:3], b=t[3:6], c=t[6:].reshape(3, 3))


def reduced_density(f: FanoCoefficients, which: int) -> np.ndarray:
    """Partial trace onto qubit 1 or 2: (I + polarization . sigma) / 2."""
    return density_from_bloch(_polarization(f, which), 2)


def _polarization(f: FanoCoefficients, which: int) -> np.ndarray:
    if which == 1:
        return f.a
    if which == 2:
        return f.b
    raise ValueError(f"qubit selector must be 1 or 2, got {which}")


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


@lru_cache(maxsize=None)
def _fano_map(rep: str) -> np.ndarray:
    # column k: the grid of basis matrix B_k in fano_matrix(f) = sum_k t_k B_k, t = [1, a, b, vec c]
    basis = np.concatenate([np.eye(4, dtype=complex)[None], _pauli_products()]) / 4.0
    return _coefficient_map(_rep_kernel(rep), basis)


def _fano_grid(f: FanoCoefficients, rep: str) -> np.ndarray:
    t = np.concatenate(([1.0], f.a, f.b, f.c.ravel()))
    return (_fano_map(rep) @ t).reshape(_rep_kernel(rep).ops.shape[:-2])


def wigner_pair(f: FanoCoefficients) -> np.ndarray:
    """Pair phase-space function on the 16 points (mu1, nu1, mu2, nu2).

    Equals ``wigner_grid`` of ``fano_matrix(f)`` over ``pair_kernel()``, for
    physical and unphysical coefficients alike, but is computed in
    coefficient form: the grid is affine in the Fano vector
    t = [1, a, b, vec c], so it is one real (16, 16) matrix, built from
    ``pair_kernel()`` on first use and cached, times t.  No matrix is
    composed, and no Hermiticity guard runs: ``FanoCoefficients`` has
    already refused non-finite fields.
    """
    return _fano_grid(f, "pair")


def wigner_pair_from_matrix(rho) -> np.ndarray:
    """Pair phase-space function of a 4x4 matrix, over ``pair_kernel()``.

    Agrees with ``wigner_pair(fano_extract(rho))`` for every Hermitian
    unit-trace matrix.
    """
    return wigner_grid(rho, pair_kernel())


def _half_sum(pair_grid: np.ndarray, which: int) -> np.ndarray:
    """Half-sum of a pair grid over the other qubit's indices."""
    if which == 1:
        return pair_grid.sum(axis=(2, 3)) / 2.0
    if which == 2:
        return pair_grid.sum(axis=(0, 1)) / 2.0
    raise ValueError(f"qubit selector must be 1 or 2, got {which}")


def reduced_wigner(f: FanoCoefficients, which: int) -> np.ndarray:
    """2x2 phase-space grid of one qubit's reduction.

    Equals the half-sum of the pair grid over the other qubit's indices.
    """
    return _half_sum(wigner_pair(f), which)


def delta_pair(f: FanoCoefficients) -> np.ndarray:
    """Correlation signature: pair grid minus the product of reductions.

    Identically zero exactly when the correlations factorize,
    c_ij = a_i b_j.
    """
    w = wigner_pair(f)
    return w - np.multiply.outer(_half_sum(w, 1), _half_sum(w, 2))


@lru_cache(maxsize=None)
def _su4_basis_map() -> np.ndarray:
    # entry (i, k) is Tr[g_i P_k] / 2, so for rho = (I + sum_k t_k P_k) / 4, 2 Tr[g_i rho] is this times t
    table = _real_rows(generators(4).stack()) @ _real_rows(_pauli_products()).T / 2.0
    table.flags.writeable = False
    return table


def su4_coefficients(f: FanoCoefficients) -> np.ndarray:
    """Coefficients of the same state over the 15 dimension-4 generators.

    The composed matrix equals (I + sum_i coeffs[i] g_i) / 4; each
    coefficient is twice the corresponding generator mean value: the Fano
    vector [a, b, vec c] times the cached (15, 15) map Tr[g_i P_k] / 2.
    """
    return _su4_basis_map() @ np.concatenate([f.a, f.b, f.c.ravel()])


def density_from_su4_coefficients(coeffs) -> np.ndarray:
    """Rebuild the 4x4 matrix (I + sum_i coeffs[i] g_i) / 4; a NaN or infinite coefficient raises."""
    return density_from_bloch(np.asarray(coeffs, dtype=float) / 2.0, 4)
