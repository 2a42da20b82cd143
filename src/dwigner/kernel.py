"""Clock/shift unitary pairs and the phase-point operator basis.

The basis maps operators on an N-level system to functions on the N x N
discrete phase space and back.  Conventions: the clock operator is
diagonal with phases w^k, w = exp(2 pi i / N); the shift operator lowers
the clock eigenbasis cyclically (v|k> = |k-1 mod N>), so v u = w u v;
the half-phase branch is w^(1/2) = exp(i pi / N).
"""

from __future__ import annotations

import dataclasses
import math
from functools import cached_property, lru_cache, wraps

import numpy as np

from .linalg import DensityMatrix, _bounded, _checked_integer, _hermitian_entries, as_matrix


# Largest n at which kernel(n) is evaluated through the real rows of its table (16 n^4 bytes,
# built on first use) instead of its factors.  Per wigner_grid + reconstruct call (Xeon, numpy
# 2.4 with OpenBLAS on one thread), table time over half-spectrum DFT-step time, each run the
# median of 21 alternated rounds: 0.70-0.71 at n = 8-9 and 0.78-0.86 at 10-11; at 12 the two
# were even (0.83-1.09, median 1.03 over 13 runs), and from 13 on the table was slower
# (1.01-1.09 at 13, 1.2-1.3 at 14).  Where the times are even, the O(n^2) path wins on memory.
_TABLE_MAX = 11


@dataclasses.dataclass(frozen=True, eq=False)
class SchwingerPair:
    """Clock operator ``u`` and cyclic-lowering shift operator ``v``."""

    dim: int
    u: np.ndarray
    v: np.ndarray


def _clock_shift(eta: int, xi: int, n: int) -> np.ndarray:
    # (u^eta v^xi)[j, k] = w^(eta j) when k = j + xi (mod n), else 0
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    j = np.arange(n)
    m = np.zeros((n, n), dtype=complex)
    m[j, (j + xi) % n] = np.exp(2j * np.pi * (eta * j % n) / n)
    return m


def _per_dimension(build):
    # build once per dimension: a bool or non-integer n raises ValueError, and the cache is keyed
    # on int(n), so a numpy integer finds what its int built; __wrapped__ is the uncached build
    # and cache_info the cache's.  An int, the common case, skips the check (0.6 against 0.2 us
    # per lookup)
    cached = lru_cache(maxsize=None)(build)

    @wraps(build)
    def lookup(n):
        if type(n) is not int:
            _checked_integer("dimension", n)
            n = int(n)
        return cached(n)

    lookup.cache_info = cached.cache_info
    return lookup


@_per_dimension
def schwinger_pair(n: int) -> SchwingerPair:
    """Build (and cache) the dimension-n clock/shift pair; n must be an integer."""
    u = _clock_shift(1, 0, n)
    v = _clock_shift(0, 1, n)
    u.flags.writeable = False
    v.flags.writeable = False
    return SchwingerPair(dim=n, u=u, v=v)


def phase_exponent(eta: int, xi: int, n: int) -> int:
    """Integer exponent that makes the basis invariant under window shifts.

    Uses floor division toward minus infinity for the integer parts; the
    value vanishes whenever both indices lie in the fundamental window
    [0, n).
    """
    i_eta = eta // n
    i_xi = xi // n
    return n * i_eta * i_xi - eta * i_xi - xi * i_eta


def symmetrized_basis(eta: int, xi: int, n: int) -> np.ndarray:
    """n^(-1/2) w^(eta xi / 2) u^eta v^xi, defined for any integer indices.

    The monomial is built by index arithmetic, not by matrix powers:
    (u^eta v^xi)[j, k] = w^(eta j) when k = j + xi (mod n), and 0 otherwise.
    """
    phase = np.exp(1j * np.pi * eta * xi / n)
    return phase / np.sqrt(n) * _clock_shift(eta, xi, n)


@dataclasses.dataclass(frozen=True, eq=False)
class PhasePointFactors:
    """The tables from which ``kernel(n)`` is evaluated, above ``_TABLE_MAX``, without its n^4 table.

    They take O(n^2) memory and cover the half spectrum xi = 0 .. h - 1, h = n // 2 + 1, as
    every cell operator is Hermitian (see ``kernel``).  ``dft[a, b] = w^(ab)`` and ``dft_h`` is
    its conjugate, n x n; ``spectrum[k, xi] = (dft conj(c))[k, xi] / n``, the conjugate of
    F† c / n, diagonalizes the cyclic correlation in j of the closed form; ``adjoint =
    conj(spectrum) / n`` is the same diagonal for ``reconstruct``, its conjugate and the 1/n of
    the inverse taken once, at build time; ``gather[j, xi] = j n + (j + xi) mod n`` is the flat
    index of rho[j, (j + xi) mod n] and ``mirror[j, xi] = ((j + xi) mod n) n + j`` that of
    rho[(j + xi) mod n, j]; all four are n x h.  ``scatter``, n x n, is their inverse: the flat
    index into (conj(R) over R), 2 n h entries, of the value ``reconstruct`` writes to each
    rho[j, k], R's own where the gather and the mirror meet.  The two real ends: ``half`` is the
    real (n, 2 h) view of dft_h[:, :h], so W F̄[:, :h] is one real product with it, and ``fold``
    is the real (2 h, n) table of weight(xi) (Re F over -Im F) for xi < h, weight 1 at xi = 0
    and at xi = n / 2 for even n and 2 between, so Re[Y F] is one real product with Y's first h
    columns.
    """

    dft: np.ndarray
    dft_h: np.ndarray
    spectrum: np.ndarray
    adjoint: np.ndarray
    gather: np.ndarray
    mirror: np.ndarray
    scatter: np.ndarray
    half: np.ndarray
    fold: np.ndarray


class MappingKernel:
    """Stack of n x n cell operators, one per point of a phase-space grid.

    The grid may have any shape; ``ops[p]`` is the operator of point p.
    Every operator is Hermitian.  For ``kernel(n)`` the grid is n x n,
    every operator has unit trace, the family is trace-orthogonal with
    normalization Tr[G†(p) G(q)] = n * delta(p, q), and the average over
    all points is the identity; only that stack can be inverted by
    ``reconstruct``.  A stack given as ``ops`` must pass the package's
    acceptance rule, checked once.  ``kernel(n)`` carries ``factors`` instead
    of a stack, at every n, and its read-only ``ops`` table is built only on
    first access.  Above ``_TABLE_MAX`` (11), ``wigner_grid`` and
    ``reconstruct`` evaluate it from the factors in O(n^2) memory, and the
    table is never built; up to 11, where one real product is faster than
    the DFT products, they read the table's real rows like those of every
    other stack, so the first call builds it (16 n^4 bytes).  Every stack in
    the package is C-contiguous, so the real (cells, 2 n^2) rows that
    ``wigner_grid`` and ``reconstruct`` contract are a view of it, not a copy.
    """

    def __init__(self, dim: int, ops: np.ndarray | None = None, factors: PhasePointFactors | None = None):
        if (ops is None) == (factors is None):
            raise ValueError("a mapping kernel carries either a stack of operators or phase-point factors")
        self.dim = dim
        self.factors = factors
        if ops is not None:
            self.ops = _bounded(ops, "cell operator entries")  # shape (*grid, n, n)

    @cached_property
    def ops(self) -> np.ndarray:
        """The (*grid, n, n) stack; for ``kernel(n)``, its phase-point table built on first access."""
        return _phase_point_table(self.dim)

    @cached_property
    def _rows(self) -> np.ndarray:
        # the stack's real (cells, 2 n^2) rows, taken once: a view, so it holds no second table
        return _real_rows(self.ops)

    @property
    def _factored(self) -> bool:
        # kernel(n) above _TABLE_MAX is evaluated from its factors; every other stack, and
        # kernel(n) up to it, through its real rows
        return self.factors is not None and self.dim > _TABLE_MAX

    def __getitem__(self, key) -> np.ndarray:
        return self.ops[key]


def _real_rows(stack) -> np.ndarray:
    # a (..., n, n) stack as real (k, 2 n^2) rows [Re, Im, Re, Im, ...], so the dot product of
    # two rows is Re Tr[A† B]; a view, not a copy, of a C-contiguous complex stack
    s = np.ascontiguousarray(stack, dtype=complex)
    return s.reshape(-1, s.shape[-1] ** 2).view(float)


def _compose(t, rows, n: int) -> np.ndarray:
    # the transpose of a read through _real_rows: for rows = _real_rows(B) and real t, the n x n
    # matrix sum_k t_k B_k, as the real row t @ rows read back as complex entries
    return (t @ rows).view(complex).reshape(n, n)


def _hermitizing_phases(n: int) -> np.ndarray:
    # the unimodular weights h(eta, xi) that make every phase-point operator Hermitian, over the
    # window, from index parity and zeros: for odd n, -1 where eta and xi are both odd; for even
    # n, i where both are nonzero and eta + xi is odd; 1 elsewhere
    idx = np.arange(n)
    products = np.outer(idx, idx)
    if n % 2 == 1:
        return np.where(products % 2 == 1, -1.0, 1.0)
    return np.where((products != 0) & ((idx[:, None] + idx) % 2 == 1), 1j, 1.0)


def _cell_coefficients(n: int) -> tuple[np.ndarray, np.ndarray]:
    # the DFT matrix w^(ab) and c[m, xi] = (1/n) sum_eta h(eta, xi) w^(eta xi / 2 + eta m)
    idx = np.arange(n)
    h = _hermitizing_phases(n)
    products = np.outer(idx, idx)
    half = np.exp(1j * np.pi * (products % (2 * n)) / n)  # w^(eta xi / 2)
    dft = np.exp(2j * np.pi * (products % n) / n)  # w^(m eta)
    return dft, dft @ (h * half) / n


def _phase_point_table(n: int) -> np.ndarray:
    # G(mu, nu)[j, k] = w^(-nu xi) c[(j - mu) mod n, xi], xi = (k - j) mod n: O(n^4) in time and memory
    _, c = _cell_coefficients(n)
    idx = np.arange(n)
    diff = (idx[None, :] - idx[:, None]) % n  # diff[a, b] = (b - a) mod n
    shift = np.exp(-2j * np.pi * (np.multiply.outer(idx, diff) % n) / n)  # w^(-nu xi)[nu, j, k]
    ops = c[diff[:, :, None], diff[None, :, :]][:, None] * shift[None]
    ops.flags.writeable = False
    return ops


@_per_dimension
def kernel(n: int) -> MappingKernel:
    """Construct (and cache) the phase-point operator basis for dimension n.

    G(mu, nu) = n^(-1/2) sum_{eta, xi < n} w^(-(mu eta + nu xi)) h(eta, xi) S(eta, xi) over the
    symmetrized basis S with hermitizing phase h.  As u^eta v^xi puts w^(eta j) at (j, j + xi),
    G(mu, nu)[j, k] = w^(-nu xi) c[(j - mu) mod n, xi] with xi = (k - j) mod n and
    c[m, xi] = (1/n) sum_eta h(eta, xi) w^(eta xi / 2 + eta m).  So a grid is a gather of rho
    along its cyclic diagonals, a cyclic correlation in j with c (diagonal under the DFT) and
    one DFT along xi (Vourdas, Rep. Prog. Phys. 67, 267 (2004)).  Every G is Hermitian, so
    c[(m + xi) mod n, -xi] = conj(c[m, xi]): for a Hermitian rho the correlated column n - xi
    is the conjugate of column xi, and the steps need only the half spectrum xi <= n / 2.  The
    kernel carries only the O(n^2) ``PhasePointFactors`` of these steps, built in O(n^3); its
    ``ops`` table is built in O(n^4) time and 16 n^4 bytes only on first access.  Above
    ``_TABLE_MAX`` (11) ``wigner_grid`` and ``reconstruct`` take the steps, in O(n^3) time and
    O(n^2) memory, and the table is never built.  Up to 11 one real product with the table's
    rows is faster than the DFT products, so there the first ``wigner_grid`` or
    ``reconstruct`` builds it.  A bool or non-integer n raises ``ValueError``, as does n < 2;
    the cache is keyed on int(n), so ``kernel(np.int64(4)) is kernel(4)``.
    """
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    dft, c = _cell_coefficients(n)
    dft_h = dft.conj()
    h = n // 2 + 1
    spectrum = dft @ c[:, :h].conj() / n
    idx = np.arange(n)
    diagonals = (idx[:, None] + idx[:h]) % n  # (j + xi) mod n
    weights = np.where((idx[:h] == 0) | (2 * idx[:h] == n), 1.0, 2.0)
    fold = np.ascontiguousarray((dft_h[:, :h] * weights).view(float).T)
    gather, mirror = idx[:, None] * n + diagonals, diagonals * n + idx[:, None]
    scatter = np.empty((n, n), dtype=np.intp)  # into (conj(R) over R): mirror first, gather wins
    scatter.put(mirror, np.arange(n * h))
    scatter.put(gather, np.arange(n * h, 2 * n * h))
    half = dft_h[:, :h].view(float)
    tables = (dft, dft_h, spectrum, spectrum.conj() / n, gather, mirror, scatter, half, fold)
    for table in tables:
        table.flags.writeable = False
    return MappingKernel(dim=n, factors=PhasePointFactors(*tables))


def wigner_grid(rho, kern: MappingKernel | None = None) -> np.ndarray:
    """Phase-space values W(p) = Tr[G†(p) rho] on the kernel's grid, as a real array.

    ``kern`` defaults to ``kernel(n)``, for which (1/n) sum W = 1 on a
    density matrix.  Over ``kernel(n)`` with n above ``_TABLE_MAX`` (11)
    the values take O(n^3) time and O(n^2) memory, on the half spectrum
    xi < h = n // 2 + 1 of the Hermitian rho: gather
    R[j, xi] = rho[j, (j + xi) mod n], correlate R with conj(c) along j
    through two n x n by n x h DFT products and the cached spectrum, and
    take the real part of the DFT along xi, folded over the half spectrum,
    as one real product with the cached (2 h, n) ``fold`` table, so no
    complex grid is formed.  Over any other stack, and over
    ``kernel(n)`` up to 11, they are one real matrix-vector product,
    Re Tr[G† rho] as the dot product of the stack's real (cells, 2 n^2)
    rows, a view of it, with rho's.  A DensityMatrix is exactly Hermitian;
    a raw array must be Hermitian within 1e-10, and its values are those
    of its Hermitian part.  On the half spectrum the guard reads only the
    gathered R and, through the mirror index, the conjugates R' of the
    entries across the diagonal; every pair (j, k) is one of the two, so
    max|R - R'| is the whole max|a - a†|.  One exact comparison settles an
    exactly Hermitian array, whose R is read as it is; on a mismatch the
    defect is computed and (R + R')/2, the gather of (a + a†)/2, is read.
    Elsewhere ``hermitian_matrix``'s guard reads the whole matrix.  A
    non-Hermitian array is refused before a dimension mismatch.
    """
    raw = not isinstance(rho, DensityMatrix)
    a = as_matrix(rho) if raw else rho.matrix
    if kern is None:
        kern = kernel(a.shape[0])
    if kern._factored and kern.dim == a.shape[0]:
        # W(mu, nu) = Re sum_xi w^(nu xi) Y[mu, xi], Y[mu, xi] = sum_j conj(c[(j - mu) mod n, xi])
        # R[j, xi]; as Y[mu, n - xi] = conj(Y[mu, xi]), the sum folds onto xi < h, one real product
        f = kern.factors
        r = a.take(f.gather)
        if raw:
            # every pair (j, k) is read once, through the gather or the mirror, so this is the
            # whole guard, and (r + r')/2 is the gather of (a + a†)/2
            r = _hermitian_entries(r, a.take(f.mirror).conj())
        y = f.dft @ (f.spectrum * (f.dft_h @ r))
        return y.view(float) @ f.fold
    if raw:
        a = _hermitian_entries(a, a.conj().T)
    if kern.dim != a.shape[0]:
        raise ValueError(f"dimension mismatch: kernel {kern.dim} vs matrix {a.shape[0]}")
    return (kern._rows @ _real_rows(a)[0]).reshape(kern.ops.shape[:-2])


def reconstruct(values, kern: MappingKernel | None = None) -> np.ndarray:
    """Invert a phase-space grid back to the operator (1/n) sum W(p) G(p).

    A grid whose sum W^2 / n, the sum |rho_ij|^2 of the matrix it maps, is
    not finite raises ``ValueError``.  Only the trace-orthogonal ``kernel(n)``
    is inverted; any other stack (the pair or four-level closed-form stacks)
    raises.  Up to ``_TABLE_MAX`` (11) the sum is the transpose of
    ``wigner_grid``'s one real product: the grid times the table's real
    rows, read as complex entries and divided by n, exact because the family
    is trace-orthogonal with Tr[G† G] = n.  This is the package's one compose
    rule, sum_k t_k B_k over the real rows its read takes, by which
    ``fano_matrix``, ``density_from_bloch`` and ``XState.matrix`` compose
    their coordinates too.  Above 11 it is the adjoint of
    ``wigner_grid``'s steps on the half spectrum xi < h = n // 2 + 1, in
    O(n^3) time and O(n^2) memory, as the result is Hermitian: the DFT
    along nu for xi < h, one real product of the real grid with the cached
    real (n, 2 h) ``half`` view, so the grid is never cast to complex; the
    cyclic convolution in mu with c through two n x n by n x h DFT products
    and the cached spectrum; and a scatter of each R[j, xi] to
    rho[j, (j + xi) mod n] and of its conjugate to rho[(j + xi) mod n, j],
    one ``take`` from (conj(R) over R) through the cached ``scatter`` index,
    which keeps the values computed directly where the two meet (the
    diagonal, and xi = n / 2 for even n).  The steps are taken conjugated,
    so the conjugate and the 1/n of the sum come from the cached
    ``adjoint`` diagonal, with no pass of their own over the result.  A grid in any memory order, or a nested list, is read
    by index, taken in C order, so every order gives the same bits.
    """
    w = np.ascontiguousarray(values, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square grid, got shape {w.shape}")
    if kern is None:
        kern = kernel(w.shape[0])
    f = kern.factors
    if f is None:
        raise ValueError("reconstruct inverts only the phase-point kernel kernel(n)")
    if kern.dim != w.shape[0]:
        raise ValueError(f"dimension mismatch: kernel {kern.dim} vs grid {w.shape[0]}")
    n = kern.dim
    if not math.isfinite(np.vdot(w, w)):  # the rule holds sum W^2 / n, as n times it may overflow
        _bounded(w / math.sqrt(n), "grid values")
    if not kern._factored:
        return _compose(w.ravel(), kern._rows, n) / n
    # R[j, xi] = (1/n) sum_mu c[(j - mu) mod n, xi] sum_nu W(mu, nu) w^(-nu xi) for xi < h; W F̄
    # is one real product with the real view of F̄'s first h columns, so W is never cast to complex
    r = f.dft @ (f.adjoint * (f.dft_h @ (w @ f.half).view(complex)))
    return np.concatenate((r.conj(), r)).take(f.scatter)


def _check_grid(values) -> np.ndarray:
    w = np.asarray(values, dtype=float)
    if w.ndim == 2 and w.shape[0] == w.shape[1]:
        return w
    if w.shape == (2, 2, 2, 2):
        return w
    raise ValueError(f"expected an N x N grid or a 2x2x2x2 pair grid, got shape {w.shape}")


def grid_overlap(wa, wb) -> float:
    """Tr[rho sigma] recovered from two phase-space grids.

    Works for both single grids (n x n) and pair grids (2 x 2 x 2 x 2),
    and rejects any other shape; the normalization is 1/sqrt(number of
    cells).  The sum of products is one ``vdot``, with no temporary
    product grid; a grid in any memory order (a transposed or strided
    view) pairs its values by index.  An overlap that is not finite
    raises ``ValueError``, naming a NaN or infinite value or finite ones too large.
    """
    a = _check_grid(wa)
    b = _check_grid(wb)
    if a.shape != b.shape:
        raise ValueError(f"grid shape mismatch: {a.shape} vs {b.shape}")
    weight = round(a.size**0.5)
    overlap = float(np.vdot(a, b) / weight)
    if not math.isfinite(overlap):
        # |sum a b| <= (sum a^2 + sum b^2) / 2: the two grids together fail the rule
        _bounded(np.concatenate((a, b), axis=None), "grid values", overlap)
    return overlap
