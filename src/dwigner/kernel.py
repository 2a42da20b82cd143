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

from .linalg import _bounded, _checked_integer, hermitian_matrix


# Largest n at which kernel(n) is evaluated through the real rows of its table (16 n^4 bytes,
# built from the factors on first use, see MappingKernel.ops) instead of its factors.  Per
# wigner_grid + reconstruct call (Xeon, numpy 2.4 with OpenBLAS on one thread), table time over
# shifted-profile step time, each the median of 21 alternated rounds: 0.71 at n = 8, 0.92 at 10
# and 1.10 at 12 for even n, where the steps take one circulant product; 1.28 at 9, 1.48 at 11
# and 1.79 at 13 for odd n, where they take none (1.03 at 5, 1.11 at 7).  One threshold serves
# both parities, so at n = 9 and 11 the table path is the slower one.
_TABLE_MAX = 11


@dataclasses.dataclass(frozen=True, eq=False)
class SchwingerPair:
    """Clock operator ``u`` and cyclic-lowering shift operator ``v``."""

    dim: int
    u: np.ndarray
    v: np.ndarray


def _checked_indices(eta: int, xi: int, n: int) -> None:
    # the integer check of a monomial's indices and dimension, and n >= 2 as kernel(n) asks
    for name, value in (("eta", eta), ("xi", xi), ("dimension", n)):
        _checked_integer(name, value)
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")


def _clock_shift(eta: int, xi: int, n: int) -> np.ndarray:
    # (u^eta v^xi)[j, k] = w^(eta j) when k = j + xi (mod n), else 0
    _checked_indices(eta, xi, n)
    j = np.arange(n)
    m = np.zeros((n, n), dtype=complex)
    m[j, (j + xi) % n] = np.exp(2j * np.pi * (eta * j % n) / n)
    return m


def _clock_shift_coefficients(m) -> np.ndarray:
    # chi[eta, xi] = Tr[(u^eta v^xi)† m] / n, so m = sum chi[eta, xi] u^eta v^xi: as u^eta v^xi puts
    # w^(eta j) at (j, j + xi), chi = F̄ R / n for the gather R[j, xi] = m[j, (j + xi) mod n] and
    # F̄[eta, j] = w^(-eta j).  kernel(n)'s grid of a Hermitian m is Re[F̄ (h w^(eta xi / 2) conj(chi)) F̄]
    a = np.asarray(m, dtype=complex)
    n = a.shape[0]
    idx = np.arange(n)
    dft = np.exp(-2j * np.pi * (np.outer(idx, idx) % n) / n)
    return dft @ a.take(idx[:, None] * n + (idx[:, None] + idx) % n) / n


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
    [0, n).  A bool or non-integer index or dimension raises ``ValueError``,
    as does n < 2.
    """
    _checked_indices(eta, xi, n)
    i_eta = eta // n
    i_xi = xi // n
    return n * i_eta * i_xi - eta * i_xi - xi * i_eta


def symmetrized_basis(eta: int, xi: int, n: int) -> np.ndarray:
    """n^(-1/2) w^(eta xi / 2) u^eta v^xi, defined for any integer indices.

    The monomial is built by index arithmetic, not by matrix powers:
    (u^eta v^xi)[j, k] = w^(eta j) when k = j + xi (mod n), and 0 otherwise.
    A bool or non-integer index or dimension raises ``ValueError``, as does n < 2.
    """
    monomial = _clock_shift(eta, xi, n)  # first: its check refuses n < 2 before the phase divides by n
    return np.exp(1j * np.pi * eta * xi / n) / np.sqrt(n) * monomial


@dataclasses.dataclass(frozen=True, eq=False)
class PhasePointFactors:
    """The six O(n^2) tables from which ``kernel(n)`` is evaluated above ``_TABLE_MAX``.

    They cover the half spectrum xi = 0 .. h - 1, h = n // 2 + 1, as every cell operator is
    Hermitian (see ``kernel``), with each column c[m, xi] = p[(m + s) mod n] read through its
    shift s.  The gathered block's columns are the half spectrum, its dense-profile columns
    first (the odd xi at even n, none at odd n), and at even n the e = n // 4 two-point columns
    once more.  ``gather``, n x (h + e), holds the flat index of rho[j - s, j - s + xi] (mod n),
    n / 2 rows further on in the two-point columns' second block: a gathered delta column is
    already correlated, and a two-point column reads its row and the row n / 2 below.
    ``scatter``, n x n, inverts the gather's first h columns and their mirror rho[j - s + xi,
    j - s]: the flat index into (conj(R) over R), 2 n h entries, of the value ``reconstruct``
    writes to each rho[j, k], R's own where the two meet.  ``circulant[mu, j] =
    conj(p[(j - mu) mod n])`` for the dense profile p, n x n at even n and empty at odd n,
    correlates the dense columns.  The two real ends: ``fold``, real (2 (h + e), n), holds
    weight(xi) times the profile's value (1, or (1 + i)/2 and (1 - i)/2 on the two-point blocks)
    times F̄ for each column as (Re over Im) rows, weight 1 at xi = 0 and at xi = n / 2 for even
    n and 2 between, so Re[Y F] is one real product with the gathered block; ``unfold``, real
    (b n, 2 h), is the same columns conjugated and over n, its second block of rows (at even n,
    b = 2) nonzero on the two-point columns only, and ``spread``, n x b n, the flat index of the
    grid's rows and at even n its rows n / 2 down, so conj(R) before the dense columns'
    correlation is one real product.
    """

    gather: np.ndarray
    scatter: np.ndarray
    circulant: np.ndarray
    fold: np.ndarray
    spread: np.ndarray
    unfold: np.ndarray


class MappingKernel:
    """Stack of n x n cell operators, one per point of a phase-space grid.

    The grid may have any shape; ``ops[p]`` is the operator of point p.
    Every operator is Hermitian.  For ``kernel(n)`` the grid is n x n,
    every operator has unit trace, the family is trace-orthogonal with
    normalization Tr[G†(p) G(q)] = n * delta(p, q), and the average over
    all points is the identity; only that stack can be inverted by
    ``reconstruct``.  A stack given as ``ops`` must pass the package's
    acceptance rule, checked once.  ``kernel(n)`` carries ``factors`` instead
    of a stack, at every n, and its read-only ``ops`` table is built from
    them on first access, so the kernel has one definition.  Above
    ``_TABLE_MAX`` (11), ``wigner_grid`` and ``reconstruct`` evaluate it
    from the factors, shifted gathers and at most one circulant product, in
    O(n^2) memory, and the table is never built; up to 11 they read the
    table's real rows like those of every other stack, one real product, so
    the first call builds it (16 n^4 bytes).  Every stack in the package is
    C-contiguous, so the real (cells, 2 n^2) rows that ``wigner_grid`` and
    ``reconstruct`` contract are a view of it, not a copy.
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
        """The (*grid, n, n) stack; for ``kernel(n)``, its phase-point table built on first access.

        Each G(mu, nu) is the factored ``reconstruct`` of the unit grid n e_(mu, nu), so the table
        comes from the factors alone, in O(n^5) time over the n^2 unit grids (about 1 ms at
        n = 11, 21 ms at 32).
        """
        n = self.dim
        ops = np.empty((n, n, n, n), dtype=complex)
        unit = np.zeros((n, n))
        for cell in np.ndindex(n, n):
            unit[cell] = n
            ops[cell] = _factored_reconstruct(unit, self.factors, n)
            unit[cell] = 0.0
        ops.flags.writeable = False
        return ops

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


def _profile_shifts(n: int) -> tuple[np.ndarray, np.ndarray]:
    # the class of each column xi < n of c (0 delta, 1 two-point, 2 dense) and its shift s, as
    # c[m, xi] = profile[(m + s) mod n]: at odd n every column is a delta, s = xi (n + 1) / 2 mod n;
    # at even n, s = xi // 2, and the column is a delta at xi = 0, two-point at even xi, dense at odd
    xi = np.arange(n)
    if n % 2 == 1:
        return np.zeros(n, dtype=int), xi * ((n + 1) // 2) % n
    return np.where(xi == 0, 0, np.where(xi % 2 == 0, 1, 2)), xi // 2


def _dense_columns(n: int) -> int:
    # how many columns of the half spectrum have the dense profile (odd xi <= n / 2 at even n, none
    # at odd n); they lead the gathered block
    return (n + 2) // 4 if n % 2 == 0 else 0


@_per_dimension
def kernel(n: int) -> MappingKernel:
    """Construct (and cache) the phase-point operator basis for dimension n.

    G(mu, nu) = n^(-1/2) sum_{eta, xi < n} w^(-(mu eta + nu xi)) h(eta, xi) S(eta, xi) over the
    symmetrized basis S with the unimodular hermitizing phase h: at odd n, -1 where eta and xi
    are both odd; at even n, i where both are nonzero and eta + xi is odd; 1 elsewhere.  As
    u^eta v^xi puts w^(eta j) at (j, j + xi), G(mu, nu)[j, k] = w^(-nu xi) c[(j - mu) mod n, xi]
    with xi = (k - j) mod n and c[m, xi] = (1/n) sum_eta h(eta, xi) w^(eta xi / 2 + eta m), the
    closed form the tests hold the table to.  Every column of c is a cyclic
    shift of one of at most three profiles, c[m, xi] = p[(m + s) mod n].  At odd n every column
    is the delta at 0, with s = xi (n + 1) / 2 mod n, so each G(mu, nu) is a displaced parity
    with n nonzero entries, G(0, 0) being |k> -> |-k> (Gross, J. Math. Phys. 47, 122107 (2006)).
    At even n, s = xi // 2, and the column is the delta at xi = 0, the two-point profile
    (1 + i)/2 at 0 and (1 - i)/2 at n / 2 at even xi, and one dense profile at odd xi.  So a
    grid is a gather of rho along its cyclic diagonals, a cyclic correlation in j with c that is
    index arithmetic but for the dense columns, and one DFT along xi (Vourdas, Rep. Prog. Phys.
    67, 267 (2004)).  Every G is Hermitian, so c[(m + xi) mod n, -xi] = conj(c[m, xi]): for a
    Hermitian rho the correlated column n - xi is the conjugate of column xi, and the steps need
    only the half spectrum xi <= n / 2.  The kernel carries only the O(n^2)
    ``PhasePointFactors`` of these steps, built in O(n^2) time and holding the only definition of
    G: its ``ops`` table (16 n^4 bytes) is ``reconstruct``'s factored steps on each unit grid,
    O(n^5) in time, built on first access, which ``wigner_grid`` and ``reconstruct`` make only up
    to ``_TABLE_MAX`` (see ``MappingKernel``).  A bool or non-integer n raises
    ``ValueError``, as does n < 2; the cache is keyed on int(n), so ``kernel(np.int64(4)) is
    kernel(4)``.
    """
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    h = n // 2 + 1
    kind, shift = _profile_shifts(n)
    # the gathered block's columns: the half spectrum, dense columns first, then the two-point
    # columns again, each read n / 2 rows down
    order = np.argsort(-kind[:h], kind="stable")
    columns = np.concatenate((order, order[kind[order] == 1]))
    rolled = np.arange(len(columns)) >= h
    idx = np.arange(n)
    rows = (idx[:, None] + np.where(rolled, n // 2, 0) - shift[columns]) % n
    diagonals = (rows + columns) % n
    gather, mirror = rows * n + diagonals, diagonals * n + rows
    scatter = np.empty((n, n), dtype=np.intp)  # into (conj(R) over R): mirror first, gather wins
    scatter.put(mirror[:, :h], np.arange(n * h))
    scatter.put(gather[:, :h], np.arange(n * h, 2 * n * h))
    # each column's profile value at 0, and the two-point's (1 - i)/2 at n / 2 on its rolled read
    value = np.where(rolled, (1 - 1j) / 2, np.where(kind[columns] == 1, (1 + 1j) / 2, 1.0))
    weights = np.where((columns == 0) | (2 * columns == n), 1.0, 2.0)
    roots = np.exp(2j * np.pi * idx / n)
    dft = roots[np.outer(idx, columns) % n]  # w^(nu xi)
    fold = np.ascontiguousarray((dft.conj() * (weights * value)).view(float).T)
    # reconstruct reads the grid's rows and, at even n, its rows n / 2 down, in one take
    blocks = 2 - n % 2
    spread = ((idx[:, None] + np.arange(blocks) * (n // 2)) % n * n)[:, :, None] + idx
    unfold = np.zeros((blocks * n, h), dtype=complex)
    unfold[:n] = dft[:, :h] * value[:h].conj() / n
    circulant = np.zeros((0, 0), dtype=complex)  # no dense profile at odd n
    if n % 2 == 0:
        unfold[n:, kind[columns[:h]] == 1] = dft[:, h:] * value[h:].conj() / n
        # the dense profile c[m, 1] = (1/n) sum_eta h(eta, 1) w^(eta / 2 + eta m), a length-n sum per
        # m, where h(eta, 1) is i at even eta > 0 and 1 elsewhere
        phases = np.where((idx % 2 == 0) & (idx > 0), 1j, 1.0) * np.exp(1j * np.pi * idx / n)
        profile = roots[np.outer(idx, idx) % n] @ phases / n
        circulant = profile.conj()[(idx[None, :] - idx[:, None]) % n]  # conj(p[(j - mu) mod n])
    tables = (gather, scatter, circulant, fold, spread.reshape(n, -1), unfold.view(float))
    for table in tables:
        table.flags.writeable = False
    return MappingKernel(dim=n, factors=PhasePointFactors(*tables))


def wigner_grid(rho, kern: MappingKernel | None = None) -> np.ndarray:
    """Phase-space values W(p) = Tr[G†(p) rho] on the kernel's grid, as a real array.

    ``kern`` defaults to ``kernel(n)``, for which (1/n) sum W = 1 on a
    density matrix.  rho is read through ``hermitian_matrix``, so a raw
    array is refused unless Hermitian within 1e-10, before a dimension
    mismatch, and its values are those of its Hermitian part.  Over
    ``kernel(n)`` with n above ``_TABLE_MAX`` (11) the values take O(n^3)
    time and O(n^2) memory, on the half spectrum xi < h = n // 2 + 1 of the
    Hermitian rho, with each column of c a profile p shifted by s (see
    ``kernel``): one ``take`` gathers rho[j - s, j - s + xi], which is the
    correlation in j for a delta column, and for a two-point column adds
    its rows n / 2 down as a second block; the q = ceil(n / 4) dense
    columns (odd xi at even n) take one n x n by n x q complex product with
    the cached ``circulant``; and the real part of the DFT along xi, folded
    over the half spectrum and over the two-point constants, is one real
    product with the cached ``fold`` table, so no complex grid is formed.
    At odd n every column is a delta and there is no complex product.  Over
    any other stack, and over ``kernel(n)`` up to 11, they are one real
    matrix-vector product, Re Tr[G† rho] as the dot product of the stack's
    real (cells, 2 n^2) rows, a view of it, with rho's.
    """
    a = hermitian_matrix(rho)
    if kern is None:
        kern = kernel(a.shape[0])
    if kern.dim != a.shape[0]:
        raise ValueError(f"dimension mismatch: kernel {kern.dim} vs matrix {a.shape[0]}")
    if kern._factored:
        # W(mu, nu) = Re sum_xi w^(nu xi) Y[mu, xi], Y[mu, xi] = sum_j conj(p[(j - mu) mod n]) r[j, xi]
        # for r gathered through the shift; as Y[mu, n - xi] = conj(Y[mu, xi]), the sum folds onto
        # xi < h, and with the two-point constants in ``fold`` it is one real product
        f = kern.factors
        r = a.take(f.gather)
        q = _dense_columns(kern.dim)
        if q:
            r[:, :q] = f.circulant @ r[:, :q]
        return r.view(float) @ f.fold
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
    their coordinates too.  Above 11 it is the adjoint of ``wigner_grid``'s
    steps through the same shifted index, on the half spectrum
    xi < h = n // 2 + 1, in O(n^3) time and O(n^2) memory, as the result is
    Hermitian: one real product of the grid's rows, and at even n of its
    rows n / 2 down (one ``take`` through the cached ``spread``), with the
    cached real ``unfold`` table, so the grid is never cast to complex; the
    circulant's transpose on the dense columns; and a scatter of each
    R[j, xi] to rho[j - s, j - s + xi] and of its conjugate to the mirror,
    one ``take`` from (conj(R) over R) through the cached ``scatter`` index,
    which keeps the values computed directly where the two meet (the
    diagonal, and xi = n / 2 for even n).  The steps are taken conjugated,
    so the conjugate and the 1/n of the sum sit in ``unfold``, with no pass
    of their own over the result.  A grid in any memory order, or a nested
    list, is read by index, taken in C order, so every order gives the same
    bits.
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
    return _factored_reconstruct(w, f, n)


def _factored_reconstruct(w: np.ndarray, f: PhasePointFactors, n: int) -> np.ndarray:
    # (1/n) sum W(mu, nu) G(mu, nu) for a C-contiguous real grid w, as the adjoint of wigner_grid's
    # steps: conj(R)[j, xi] = (1/n) sum_mu conj(p[(j - mu) mod n]) sum_nu W(mu, nu) w^(nu xi) for
    # xi < h, R read through the shifted gather: index arithmetic and the two-point constants in
    # one real product, then the circulant's transpose on the dense columns, then the scatter of
    # R and of its conjugate to the mirror
    v = (w.take(f.spread) @ f.unfold).view(complex)
    q = _dense_columns(n)
    if q:
        v[:, :q] = f.circulant.T @ v[:, :q]
    return np.concatenate((v, v.conj())).take(f.scatter)


def _check_grid(values) -> np.ndarray:
    w = np.asarray(values, dtype=float)
    if w.ndim == 2 and w.shape[0] == w.shape[1] and w.size:
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
