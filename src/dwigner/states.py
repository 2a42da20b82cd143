"""Named two-qubit and four-level state families.

Constructors and phase-space grids for the maximally entangled pair
states, Werner mixtures, general X-form states, the maximal-concurrence
family, and the Peres-Horodecki and Gisin families, together with
marginals and the correlation signature on the 4x4 grid.  Every grid is
``wigner_grid`` over the pair or the four-level cell-operator stack.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .generators import su4_kernel, wigner_su4
from .kernel import MappingKernel, wigner_grid
from .linalg import DEFAULT_TOLERANCE, DensityMatrix, hermitian_matrix, validate_density
from .twoqubit import FanoCoefficients, _half_sum, fano_matrix, pair_kernel

BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")


def _bell_sign(kind: str) -> tuple[str, float]:
    k = kind.lower()
    if k not in BELL_KINDS:
        raise ValueError(f"unknown maximally entangled state {kind!r}; expected one of {BELL_KINDS}")
    return k[:3], 1.0 if k.endswith("+") else -1.0


def bell(kind: str) -> np.ndarray:
    """Density matrix of one of the four maximally entangled pair states."""
    family, sign = _bell_sign(kind)
    ket = np.zeros(4, dtype=complex)
    if family == "phi":
        ket[0], ket[3] = 1.0, sign  # (|00> ± |11>) / sqrt 2
    else:
        ket[1], ket[2] = 1.0, sign  # (|01> ± |10>) / sqrt 2
    ket /= np.sqrt(2.0)
    return np.outer(ket, ket.conj())


def bell_fano(kind: str) -> FanoCoefficients:
    """Pauli-product coefficients of a maximally entangled state."""
    family, sign = _bell_sign(kind)
    if family == "phi":
        diag = (sign, -sign, 1.0)
    else:
        diag = (sign, sign, -1.0)
    return FanoCoefficients(a=np.zeros(3), b=np.zeros(3), c=np.diag(diag))


def bell_wigner_pair(kind: str) -> np.ndarray:
    """Pair grid of a maximally entangled state; every cell equals +1/2 or -1/2."""
    return wigner_grid(bell(kind), pair_kernel())


def bell_wigner_su4(kind: str) -> np.ndarray:
    """4x4 grid of a maximally entangled state."""
    return wigner_su4(bell(kind))


def _rep_kernel(rep: str) -> MappingKernel:
    if rep == "pair":
        return pair_kernel()
    if rep == "su4":
        return su4_kernel()
    raise ValueError(f"unknown representation tag {rep!r}; expected 'pair' or 'su4'")


def werner(fraction: float) -> np.ndarray:
    """Mixture of the four maximally entangled states with singlet weight ``fraction``."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"mixing fraction must lie in [0, 1], got {fraction}")
    q = (1.0 - 4.0 * fraction) / 3.0
    return fano_matrix(FanoCoefficients(a=np.zeros(3), b=np.zeros(3), c=q * np.eye(3)))


def werner_wigner(fraction: float, rep: str = "pair") -> np.ndarray:
    """Grid of the Werner family in either representation.

    ``rep="pair"`` returns the 16-point grid, which takes exactly the two
    values 1/6 + fraction/3 and 1/2 - fraction; ``rep="su4"`` returns the
    4x4 grid of the corresponding four-level state.
    """
    return wigner_grid(werner(fraction), _rep_kernel(rep))


@dataclasses.dataclass(frozen=True)
class XState:
    """State whose matrix is supported on the main diagonal and antidiagonal.

    Construction checks that every field is finite and that the
    populations are nonnegative and sum to one.  The antidiagonal 2x2 blocks are only required to be positive
    when converting to a validated density matrix, so coherence choices
    outside the state space stay representable for exploratory use.
    """

    rho11: float
    rho22: float
    rho33: float
    rho44: float
    rho14: complex = 0.0
    rho23: complex = 0.0

    def __post_init__(self):
        fields = (self.rho11, self.rho22, self.rho33, self.rho44, self.rho14, self.rho23)
        if not np.all(np.isfinite(np.array(fields, dtype=complex))):
            raise ValueError(f"X-state fields must be finite, got {fields}")
        populations = self.populations
        for label, p in zip(("rho11", "rho22", "rho33", "rho44"), populations):
            if p < -DEFAULT_TOLERANCE:
                raise ValueError(f"population {label} is negative: {p}")
        total = float(np.sum(populations))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"populations must sum to 1, got {total}")

    @property
    def populations(self) -> np.ndarray:
        return np.array([self.rho11, self.rho22, self.rho33, self.rho44], dtype=float)

    def matrix(self) -> np.ndarray:
        m = np.diag(self.populations).astype(complex)
        m[0, 3] = self.rho14
        m[3, 0] = np.conj(self.rho14)
        m[1, 2] = self.rho23
        m[2, 1] = np.conj(self.rho23)
        return m

    def is_physical(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        outer_ok = abs(self.rho14) ** 2 <= self.rho11 * self.rho44 + tol
        inner_ok = abs(self.rho23) ** 2 <= self.rho22 * self.rho33 + tol
        return bool(outer_ok and inner_ok)

    def to_density(self, tol: float | None = None) -> DensityMatrix:
        return validate_density(self.matrix(), tol)


def xstate_from_matrix(m, tol: float = DEFAULT_TOLERANCE) -> XState:
    """Read a Hermitian X-form matrix into its six potentially nonzero elements.

    ``tol`` bounds the elements off the X pattern; ``hermitian_matrix`` guards Hermiticity.
    The coherences are read from the Hermitian part, as every grid is.
    """
    a = hermitian_matrix(m)
    if a.shape[0] != 4:
        raise ValueError(f"dimension must be 4, got {a.shape[0]}")
    mask = np.ones((4, 4), dtype=bool)
    mask[np.arange(4), np.arange(4)] = False
    mask[[0, 3, 1, 2], [3, 0, 2, 1]] = False
    leak = float(np.max(np.abs(a[mask]))) if np.any(mask) else 0.0
    if leak > tol:
        raise ValueError(f"matrix is not X-form: off-pattern element of magnitude {leak:.3e}")
    return XState(
        rho11=float(a[0, 0].real),
        rho22=float(a[1, 1].real),
        rho33=float(a[2, 2].real),
        rho44=float(a[3, 3].real),
        rho14=complex(a[0, 3] + np.conj(a[3, 0])) / 2.0,
        rho23=complex(a[1, 2] + np.conj(a[2, 1])) / 2.0,
    )


def xstate_wigner(x: XState, rep: str = "su4") -> np.ndarray:
    """Phase-space grid of an X-form state in either representation."""
    return wigner_grid(x.matrix(), _rep_kernel(rep))


def xstate_reduced_wigner(x: XState, which: int) -> np.ndarray:
    """2x2 grid of one qubit's reduction; constant along the nu axis."""
    return _half_sum(xstate_wigner(x, "pair"), which)


@dataclasses.dataclass(frozen=True, eq=False)
class MarginalPair:
    """Marginals of the 4x4 grid W along each axis.

    ``mu_marginal`` is the half-sum (1/2) sum_nu W(mu, nu) = 2 rho[mu, mu]
    and carries only the populations.  ``nu_marginal`` is
    1/4 + (1/4) sum_mu W(mu, nu) and carries only the antidiagonal
    coherences.  Each half-sums to one.
    """

    mu_marginal: np.ndarray
    nu_marginal: np.ndarray


def _marginals(w: np.ndarray) -> MarginalPair:
    q = w.sum(axis=1) / 2.0
    r = 0.25 + w.sum(axis=0) / 4.0
    q.flags.writeable = False
    r.flags.writeable = False
    return MarginalPair(mu_marginal=q, nu_marginal=r)


def xstate_marginals(x: XState) -> MarginalPair:
    """Marginal distributions of the 4x4 X-state grid (see ``MarginalPair``)."""
    return _marginals(xstate_wigner(x, "su4"))


def xstate_delta(x: XState) -> np.ndarray:
    """Correlation signature on the 4x4 grid: W minus the marginal product."""
    w = xstate_wigner(x, "su4")
    marginals = _marginals(w)
    return w - np.outer(marginals.mu_marginal, marginals.nu_marginal)


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
    """Three-parameter family mixing a pure coherence block with |00>, |11>."""
    if not a > b >= 0.0:
        raise ValueError(f"parameters must satisfy a > b >= 0, got a={a}, b={b}")
    return gisin_from_combinations(a * a - b * b, a * b, x)


def gisin_from_combinations(square_difference: float, product: float, x: float) -> XState:
    """Same family parameterized by a^2 - b^2 and a*b directly.

    Every phase-space quantity of the family depends on the two
    parameters only through these combinations.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {x}")
    p2 = (square_difference + 0.5) * x
    p3 = -(square_difference - 0.5) * x
    for label, p in (("rho22", p2), ("rho33", p3)):
        if p < -DEFAULT_TOLERANCE:
            raise ValueError(f"population {label} is negative: {p}")
    return XState(
        rho11=(1.0 - x) / 2.0,
        rho22=p2,
        rho33=p3,
        rho44=(1.0 - x) / 2.0,
        rho14=0.0,
        rho23=-product * x,
    )
