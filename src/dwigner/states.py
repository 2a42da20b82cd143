"""Named two-qubit and four-level state families.

Constructors and phase-space grids for the maximally entangled pair
states, Werner mixtures, general X-form states, the maximal-concurrence
family, and the Peres-Horodecki and Gisin families, together with
marginals and the correlation signature on the 4x4 grid.  Every grid is
that of ``wigner_grid`` over the pair or the four-level cell-operator
stack, computed in coefficient form: a cached real map, built from the
stack on first use, times the family's real parameters.  An ``XState``
stores its eight real fields as one read-only vector t over one X basis,
``x.matrix() = sum_k t_k B_k``.  ``_xstate_map(rep)`` maps that basis: it
stacks the grid rows over the rows of the reductions' half-sums ("pair")
or of the mu- and nu-marginals ("su4"), so every X-state grid, marginal
and signature is one product with t.  ``xstate_from_matrix`` reads t with
the same basis, which is orthogonal.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import numpy as np

from .kernel import _compose, _real_rows
from .linalg import DEFAULT_TOLERANCE, _bounded, _checked_tolerance, hermitian_matrix
from .twoqubit import _FIRST, _HALVES, _SECOND, _fano_grid, _grid, _qubit, _signature, _stacked_map
from .twoqubit import FanoCoefficients, fano_matrix, wigner_pair

BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")


def _bell_sign(kind: str) -> tuple[str, float]:
    k = kind.lower()
    if k not in BELL_KINDS:
        raise ValueError(f"unknown maximally entangled state {kind!r}; expected one of {BELL_KINDS}")
    return k[:3], 1.0 if k.endswith("+") else -1.0


def bell(kind: str) -> np.ndarray:
    """Density matrix of one of the four maximally entangled pair states, with entries +-1/2 and 0."""
    return fano_matrix(bell_fano(kind))


def bell_fano(kind: str) -> FanoCoefficients:
    """Pauli-product coefficients of a maximally entangled state.

    One frozen object per state, built on first use and cached; its arrays are read-only.
    """
    return _bell_fano(*_bell_sign(kind))


@lru_cache(maxsize=None)
def _bell_fano(family: str, sign: float) -> FanoCoefficients:
    if family == "phi":
        diag = (sign, -sign, 1.0)
    else:
        diag = (sign, sign, -1.0)
    return FanoCoefficients(a=np.zeros(3), b=np.zeros(3), c=np.diag(diag))


def bell_wigner_pair(kind: str) -> np.ndarray:
    """Pair grid of a maximally entangled state; every cell equals +1/2 or -1/2.

    It is ``wigner_pair(bell_fano(kind))``, the coefficient form of the grid
    of ``bell(kind)`` over ``pair_kernel()``.
    """
    return wigner_pair(bell_fano(kind))


def bell_wigner_su4(kind: str) -> np.ndarray:
    """4x4 grid of a maximally entangled state: ``wigner_su4(bell(kind))``, in coefficient form."""
    return _fano_grid(bell_fano(kind), "su4")


def _werner_fano(fraction: float) -> FanoCoefficients:
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"mixing fraction must lie in [0, 1], got {fraction}")
    q = (1.0 - 4.0 * fraction) / 3.0
    # t = [1, a = 0, b = 0, vec(q I)]; q times the flat identity keeps the sign of q on its zeros
    t = np.zeros(16)
    t[0] = 1.0
    t[7:] = q * np.eye(3).ravel()
    return FanoCoefficients._from_vector(t)


def werner(fraction: float) -> np.ndarray:
    """Mixture of the four maximally entangled states with singlet weight ``fraction``."""
    return fano_matrix(_werner_fano(fraction))


def werner_wigner(fraction: float, rep: str = "pair") -> np.ndarray:
    """Grid of the Werner family in either representation.

    ``rep="pair"`` returns the 16-point grid, which takes exactly the two
    values 1/6 + fraction/3 and 1/2 - fraction; ``rep="su4"`` returns the
    4x4 grid of the corresponding four-level state.  Either is the grid of
    ``werner(fraction)``, computed in coefficient form from the Fano vector
    with a = b = 0 and c = q I, q = (1 - 4 fraction) / 3.
    """
    return _fano_grid(_werner_fano(fraction), rep)


# the bound on |sum of populations - 1| of an XState built from its fields
_POPULATION_SUM_TOLERANCE = 1e-9
_FIELD_NAMES = ("rho11", "rho22", "rho33", "rho44", "rho14", "rho23")
# the stored vector's entries in the real view [Re, Im, Re, Im, ...] of the six fields
_FIELD_PARTS = np.array([0, 2, 4, 6, 8, 9, 10, 11])
_FIELD_PARTS.flags.writeable = False


@dataclasses.dataclass(frozen=True)
class XState:
    """State whose matrix is supported on the main diagonal and antidiagonal.

    Construction checks the package's acceptance rule (the fields' sum of
    squared magnitudes is finite), that the populations are real, nonnegative
    (within ``DEFAULT_TOLERANCE``) and sum to one (within 1e-9), and stores
    the eight real fields as one read-only vector t = [rho11, rho22, rho33,
    rho44, Re rho14, Im rho14, Re rho23, Im rho23] (private ``_vector``);
    every grid, marginal and signature is the cached map ``_xstate_map(rep)``
    times t.  The antidiagonal 2x2
    blocks are not required to be positive (``is_physical`` reports
    whether they are, and ``validate_density(x.matrix())`` refuses them
    when not), so coherence choices outside the state space stay
    representable for exploratory use.
    """

    rho11: float
    rho22: float
    rho33: float
    rho44: float
    rho14: complex = 0.0
    rho23: complex = 0.0

    def __post_init__(self):
        fields = (self.rho11, self.rho22, self.rho33, self.rho44, self.rho14, self.rho23)
        parts = np.array(fields, dtype=complex).view(float)
        _bounded(parts, "X-state fields", shown=fields)
        # Python and numpy reals cannot make the populations complex; anything else is asked
        if not all(isinstance(p, (float, int)) for p in fields[:4]) and np.iscomplexobj(fields[:4]):
            raise ValueError(f"populations must be real, got {fields[:4]}")
        for name, value in zip(_FIELD_NAMES, fields):
            if isinstance(value, np.ndarray):  # a 0-d array: keep a read-only copy, apart from the caller's
                value = value.copy()
                value.flags.writeable = False
                object.__setattr__(self, name, value)
        self._adopt(parts[_FIELD_PARTS], DEFAULT_TOLERANCE)

    def _adopt(self, t: np.ndarray, tol: float) -> None:
        # take t as the stored vector once its populations are >= -tol and sum to 1 within
        # max(tol, _POPULATION_SUM_TOLERANCE); then freeze it
        populations = t[:4].tolist()
        for label, p in zip(_FIELD_NAMES, populations):
            if p < -tol:
                raise ValueError(f"population {label} is negative: {p}")
        total = sum(populations)
        if abs(total - 1.0) > max(tol, _POPULATION_SUM_TOLERANCE):
            raise ValueError(f"populations must sum to 1, got {total}")
        t.flags.writeable = False
        object.__setattr__(self, "_vector", t)

    @classmethod
    def _from_vector(cls, t: np.ndarray, tol: float) -> XState:
        # an XState whose fields are read from t, a fresh float (8,) array it stores uncopied
        x = object.__new__(cls)
        r11, r22, r33, r44, re14, im14, re23, im23 = t.tolist()
        fields = (r11, r22, r33, r44, complex(re14, im14), complex(re23, im23))
        for name, value in zip(_FIELD_NAMES, fields):
            object.__setattr__(x, name, value)
        x._adopt(t, tol)
        return x

    def __reduce__(self):
        # copies and pickles are built anew from the fields, with a read-only vector of their own
        return type(self), (self.rho11, self.rho22, self.rho33, self.rho44, self.rho14, self.rho23)

    @property
    def populations(self) -> np.ndarray:
        return self._vector[:4].copy()

    def matrix(self) -> np.ndarray:
        """The 4x4 matrix sum_k t_k B_k over the X basis, a new array on each call.

        It is the transpose of ``xstate_from_matrix``'s read: the stored vector
        times the same real rows of the basis, read back as complex entries.
        A zero cell sums the +0.0 term of a positive population, so it is +0.0,
        never -0.0.
        """
        return _compose(self._vector, _X_ROWS, 4)

    def is_physical(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        tol = _checked_tolerance(tol)
        outer_ok = abs(self.rho14) ** 2 <= self.rho11 * self.rho44 + tol
        inner_ok = abs(self.rho23) ** 2 <= self.rho22 * self.rho33 + tol
        return bool(outer_ok and inner_ok)


# the X basis: x.matrix() = sum_k t_k B_k, t = [rho11, rho22, rho33, rho44, Re rho14, Im rho14,
# Re rho23, Im rho23]; its Hermitian B_k are orthogonal, so t_k = Re Tr[B_k† m] / Tr[B_k^2]
_X_BASIS = np.zeros((8, 4, 4), dtype=complex)
_X_BASIS[range(4), range(4), range(4)] = 1.0
# each coherence's pair of cells (rho14, rho41), then (rho23, rho32): ones for Re, (i, -i) for Im
_X_BASIS[range(4, 8), [0, 0, 1, 1], [3, 3, 2, 2]] = (1, 1j, 1, 1j)
_X_BASIS[range(4, 8), [3, 3, 2, 2], [0, 0, 1, 1]] = (1, -1j, 1, -1j)
# the basis's real rows, those rows scaled by 1 / Tr[B_k^2], and the flat indices of the cells no
# B_k touches
_X_ROWS = _real_rows(_X_BASIS)
_X_READ = _X_ROWS / (np.abs(_X_BASIS) ** 2).sum(axis=(1, 2))[:, None]
_X_OFF = np.flatnonzero(~_X_BASIS.any(axis=0))
for _table in (_X_BASIS, _X_ROWS, _X_READ, _X_OFF):
    _table.flags.writeable = False


def xstate_from_matrix(m, tol: float = DEFAULT_TOLERANCE) -> XState:
    """Read a Hermitian X-form matrix into its six potentially nonzero elements.

    ``tol`` bounds the elements off the X pattern and widens, never narrows,
    the constructor's population checks: each population must be at least
    -max(tol, DEFAULT_TOLERANCE) and their sum within max(tol, 1e-9) of
    one, so a matrix that ``validate_density`` accepts at ``tol`` is read.
    ``hermitian_matrix`` guards Hermiticity.  The coherences are read from
    the Hermitian part, as every grid is: the stored vector is one real
    product of the X basis's rows, each scaled by 1 / Tr[B_k^2], with the
    matrix's, and one ``take`` of the cells no basis matrix touches checks
    the pattern.
    """
    tol = _checked_tolerance(tol)
    a = hermitian_matrix(m)
    if a.shape[0] != 4:
        raise ValueError(f"dimension must be 4, got {a.shape[0]}")
    leak = float(np.abs(a.take(_X_OFF)).max())
    if leak > tol:
        raise ValueError(f"matrix is not X-form: off-pattern element of magnitude {leak:.3e}")
    return XState._from_vector(_X_READ @ _real_rows(a)[0], max(tol, DEFAULT_TOLERANCE))


@lru_cache(maxsize=None)
def _xstate_map(rep: str) -> np.ndarray:
    # column k: the grid and row sums of B_k of the X basis
    return _stacked_map(rep, _X_BASIS)


def xstate_wigner(x: XState, rep: str = "su4") -> np.ndarray:
    """Phase-space grid of an X-form state in either representation.

    Equals ``wigner_grid`` of ``x.matrix()`` over ``su4_kernel()`` or
    ``pair_kernel()``, but is computed in coefficient form: the grid is
    linear in the stored vector t = [rho11, rho22, rho33, rho44,
    Re rho14, Im rho14, Re rho23, Im rho23], so it is the grid rows of the
    real (24, 8) map ``_xstate_map(rep)``, built from the stack on first
    use and cached, times t.  No matrix is composed, and no Hermiticity
    guard runs: ``XState`` has already held its fields to the rule.
    """
    return _grid(_xstate_map(rep).dot(x._vector), rep)


def xstate_reduced_wigner(x: XState, which: int) -> np.ndarray:
    """2x2 grid of one qubit's reduction; constant along the nu axis.

    It is the half-sum rows of ``_xstate_map("pair")`` times the stored vector.
    """
    return _xstate_map("pair").dot(x._vector)[_HALVES[_qubit(which)]].reshape(2, 2)


@dataclasses.dataclass(frozen=True, eq=False)
class MarginalPair:
    """Marginals of the 4x4 grid W along each axis.

    ``mu_marginal`` is the half-sum (1/2) sum_nu W(mu, nu) = 2 rho[mu, mu]
    and carries only the populations.  ``nu_marginal`` is
    (Tr rho + sum_mu W(mu, nu)) / 4, which is 1/4 + (1/4) sum_mu W(mu, nu)
    at unit trace, and carries only the trace and the antidiagonal
    coherences.  Each half-sums to Tr rho, the sum of the populations.
    """

    mu_marginal: np.ndarray
    nu_marginal: np.ndarray


def xstate_marginals(x: XState) -> MarginalPair:
    """Marginal distributions of the 4x4 X-state grid (see ``MarginalPair``).

    Both are rows of one product of the stacked (24, 8) map
    ``_xstate_map("su4")`` with the stored vector; they are read-only.
    """
    v = _xstate_map("su4").dot(x._vector)
    v.flags.writeable = False
    return MarginalPair(mu_marginal=v[_FIRST], nu_marginal=v[_SECOND])


def xstate_delta(x: XState) -> np.ndarray:
    """Correlation signature on the 4x4 grid: W minus the marginal product.

    One product of the stacked (24, 8) map ``_xstate_map("su4")`` with the
    stored vector gives W and both marginals; the signature is W minus
    their outer product.
    """
    return _signature(_xstate_map("su4").dot(x._vector), "su4")


def munro(gamma: float) -> XState:
    """Maximal-concurrence X-state at fixed purity parameter ``gamma``."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"purity parameter must lie in [0, 1], got {gamma}")
    g = gamma / 2.0 if gamma >= 2.0 / 3.0 else 1.0 / 3.0
    return XState(
        rho11=g, rho22=1.0 - 2.0 * g, rho33=0.0, rho44=g, rho14=gamma / 2.0, rho23=0.0
    )


def peres_horodecki(x: float) -> XState:
    """One-parameter family interpolating from |0><0| to the singlet."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"parameter must lie in [0, 1], got {x}")
    return XState(
        rho11=1.0 - x, rho22=x / 2.0, rho33=x / 2.0, rho44=0.0, rho14=0.0, rho23=-x / 2.0
    )


def gisin(a: float, b: float, x: float) -> XState:
    """Three-parameter family mixing a pure coherence block with |00>, |11>.

    It is ``gisin_from_combinations(a^2 - b^2, a b, x)``.  The result is a
    state only when (a b)^2 <= 1/4 - (a^2 - b^2)^2 (or x = 0); like every
    ``XState`` constructor, this one does not enforce that bound, so an
    unphysical coherence stays representable.  ``dwigner state`` refuses
    such parameters with ``XState.is_physical``.
    """
    if not a > b >= 0.0:
        raise ValueError(f"parameters must satisfy a > b >= 0, got a={a}, b={b}")
    return gisin_from_combinations(a * a - b * b, a * b, x)


def gisin_from_combinations(square_difference: float, product: float, x: float) -> XState:
    """Same family parameterized by s = a^2 - b^2 and p = a*b directly.

    Every phase-space quantity of the family depends on the two
    parameters only through these combinations.  The populations are
    (1 - x)/2, (s + 1/2) x, (1/2 - s) x, (1 - x)/2 and the coherence is
    rho23 = -p x, so for x > 0 the result is a state only when
    p^2 <= 1/4 - s^2.  The constructor checks the populations but not
    that bound; ``dwigner state`` refuses such parameters with
    ``XState.is_physical``.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {x}")
    return XState(
        rho11=(1.0 - x) / 2.0,
        rho22=(square_difference + 0.5) * x,
        rho33=-(square_difference - 0.5) * x,
        rho44=(1.0 - x) / 2.0,
        rho14=0.0,
        rho23=-product * x,
    )
