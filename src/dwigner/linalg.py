"""Dense complex linear algebra over small square matrices.

Provides the validated density-matrix type used throughout the package,
together with purity and the trace-moment positivity diagnostic for
four-level systems.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

DEFAULT_TOLERANCE = 1e-10


def _checked_tolerance(tol: float | None) -> float:
    # None means DEFAULT_TOLERANCE; NaN and infinity would pass every check, so they raise
    if tol is None:
        return DEFAULT_TOLERANCE
    if not math.isfinite(tol) or tol < 0:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
    return tol


def _checked_integer(name: str, value) -> None:
    # the one integer check of every index and dimension: an int or numpy integer, not a bool
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _square_matrix(m) -> np.ndarray:
    # the one square check of every matrix input; a 0 x 0 matrix is no state
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not a.size:
        raise ValueError(f"expected a square matrix of dimension at least 1, got shape {a.shape}")
    return a


def _bounded(a, what: str, total: float | None = None, shown=None):
    # the one acceptance rule of every array input: sum |a_i|^2 (``total``, else one BLAS vdot, which
    # never warns) is finite; isfinite only names the fault, echoing ``shown`` for a NaN or inf
    if not math.isfinite(np.vdot(a, a).real if total is None else total):
        if not np.isfinite(a).all():
            raise ValueError(f"{what} must be finite" + ("" if shown is None else f", got {shown}"))
        raise ValueError(f"{what} are too large: the sum of their squared magnitudes overflows")
    return a


def as_matrix(m) -> np.ndarray:
    """Coerce input to a square complex matrix whose sum of |a_ij|^2 is finite, or raise ValueError.

    Every density matrix passes (the sum is Tr rho^2 <= 1); NaN or infinite entries, and finite
    ones whose squares overflow (of order 1e154 / n), do not.  Every entry is then below 2^512, so
    no sum, product, DFT or spectrum of n of them overflows.
    """
    return _bounded(_square_matrix(m), "matrix entries")


def _asymmetry(a, adjoint) -> float:
    # max|a - a†|.  One exact comparison settles a == a† (count_nonzero is the cheapest
    # reduction of it); the arithmetic is done only on a mismatch
    if not np.count_nonzero(a != adjoint):
        return 0.0
    return float(np.abs(a - adjoint).max())


def _guarded(m) -> tuple[np.ndarray, np.ndarray, float]:
    # one guard pass over raw input: the accepted matrix, its adjoint and max|a - a†|
    a = as_matrix(m)
    adjoint = a.conj().T
    return a, adjoint, _asymmetry(a, adjoint)


def trace_product(a, b) -> complex:
    """Tr[A† B] for two square matrices of the same dimension."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(
            f"dimension mismatch: {a.shape[0]}x{a.shape[0]} vs {b.shape[0]}x{b.shape[0]}"
        )
    return complex(np.sum(a.conj() * b))


def _density_check(m, tol: float) -> tuple:
    # the one density check: (a, max|a - a†|, Tr a, Hermitian part (a + a†)/2, its ascending
    # spectrum, violated invariants with magnitudes), all finite for a matrix the guard accepts
    a, adjoint, defect = _guarded(m)
    violations = []
    if defect > tol:
        violations.append(("hermiticity", defect))
    trace = a.trace()
    trace_error = float(abs(trace - 1.0))
    if trace_error > tol:
        violations.append(("unit trace", trace_error))
    hermitian_part = (a + adjoint) / 2.0
    eigenvalues = np.linalg.eigvalsh(hermitian_part)
    min_eigenvalue = float(eigenvalues[0])
    if not min_eigenvalue >= -tol:
        violations.append(("positive semidefiniteness", -min_eigenvalue))
    return a, defect, trace, hermitian_part, eigenvalues, violations


def hermitian_eigenvalues(a, tol: float = DEFAULT_TOLERANCE) -> np.ndarray:
    """Real eigenvalues of the Hermitian part (a + a†)/2 that ``validate_density`` checks, ascending.

    The matrix must pass ``as_matrix`` and be Hermitian within ``tol``, or it raises ``ValueError``;
    its eigenvalues, bounded by sqrt(sum |a_ij|^2), are then finite.
    """
    tol = _checked_tolerance(tol)
    _, defect, _, _, eigenvalues, _ = _density_check(a, tol)
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian: max asymmetry {defect:.3e}")
    return eigenvalues


class DensityMatrixError(ValueError):
    """Validation failure carrying every violated invariant.

    ``violations`` is a list of ``(invariant, magnitude)`` pairs and
    ``matrix`` keeps the rejected input for inspection.  An error raised by
    ``validate_density`` also carries ``eigenvalues``, the ascending
    spectrum of the input's Hermitian part that the check computed.
    """

    def __init__(self, violations, matrix):
        self.violations = list(violations)
        self.matrix = matrix
        detail = "; ".join(f"{name} violated by {mag:.6e}" for name, mag in self.violations)
        super().__init__(f"not a density matrix: {detail}")

    def __reduce__(self):
        # rebuilt from its fields, so a copy or an unpickled error keeps them, eigenvalues included
        return type(self), (self.violations, self.matrix), self.__dict__


@dataclasses.dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density matrix: exactly Hermitian, unit trace, positive semidefinite.

    Made by ``validate_density``, which stores the read-only Hermitian part.  Construction
    refuses a matrix that is not square or is empty, fails ``as_matrix``'s rule or is not
    exactly equal to its conjugate transpose, so ``hermitian_matrix`` can trust every instance.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if not isinstance(m, np.ndarray) or m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise ValueError(f"a DensityMatrix holds a non-empty square matrix, got shape {np.shape(m)}")
        _bounded(m, "matrix entries")
        if _asymmetry(m, m.conj().T):
            raise ValueError("a DensityMatrix holds an exactly Hermitian matrix; build one with validate_density")

    @classmethod
    def _from_hermitian(cls, m: np.ndarray) -> DensityMatrix:
        # m is a finite (a + a†)/2 of a square a, exactly Hermitian as floating-point addition
        # commutes and the diagonal's imaginary parts cancel to 0, so it is not compared again
        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", m)
        return rho

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype)


def hermitian_matrix(rho) -> np.ndarray:
    """A state's matrix, exactly Hermitian: a DensityMatrix's own, unchecked and uncopied.

    The one Hermiticity guard of every reader.  A raw array must pass ``as_matrix`` and be
    Hermitian within DEFAULT_TOLERANCE, or it raises ``ValueError``; it is returned itself when
    exactly Hermitian, else as its Hermitian part (a + a†)/2, so every value read from it is
    that of the Hermitian part.
    """
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    a, adjoint, defect = _guarded(rho)
    if defect > DEFAULT_TOLERANCE:
        raise ValueError(
            f"input matrix is not Hermitian: max asymmetry {defect:.3e} exceeds "
            f"{DEFAULT_TOLERANCE:.1e}, so its phase-space values would have an imaginary part"
        )
    return a if defect == 0 else (a + adjoint) / 2.0


def validate_density(m, tol: float | None = None) -> DensityMatrix:
    """Check Hermiticity, unit trace and positive semidefiniteness within ``tol``.

    Raises DensityMatrixError listing every violated invariant together
    with its measured magnitude; ``dwigner validate`` prints the same check.
    Stores the Hermitian part (a + a†)/2, whose spectrum ``hermitian_eigenvalues``
    reads.  When ``a`` is exactly Hermitian it equals ``a`` entry for entry, but
    not always bit for bit: a zero part reads -0.0 only where both addends do,
    so the -0.0 imaginary parts of ``conj(eye(2)) / 2`` are stored as +0.0.  The
    part is exactly Hermitian, so the result is built once, without the exact
    comparison a public ``DensityMatrix(matrix=...)`` makes.  The input
    passes ``as_matrix``'s rule first, as in ``hermitian_matrix``, so every
    number the check computes is finite.  A tolerance that is negative or
    not finite raises ``ValueError``: NaN and infinity would pass every check.
    """
    a, _, _, hermitian_part, eigenvalues, violations = _density_check(m, _checked_tolerance(tol))
    if violations:
        error = DensityMatrixError(violations, a)
        error.eigenvalues = eigenvalues
        raise error
    hermitian_part.flags.writeable = False
    return DensityMatrix._from_hermitian(hermitian_part)


def purity(rho) -> float:
    """Tr[rho^2]; 1 for pure states, 1/N for the maximally mixed state.

    Computed as ``vdot(rho, rho)``, Tr[rho† rho], which is Tr[rho^2] for the Hermitian input
    the guard admits.
    """
    a = hermitian_matrix(rho)
    return float(np.vdot(a, a).real)


@dataclasses.dataclass(frozen=True)
class PositivityReport:
    """Trace-moment test equivalent to a nonnegative spectrum in dimension 4.

    For a Hermitian unit-trace 4x4 matrix the three inequalities hold
    exactly when all four eigenvalues are nonnegative.
    """

    trace_sq: float
    trace_cube: float
    trace_fourth: float
    ineq1: bool
    ineq2: bool
    ineq3: bool

    @property
    def all_hold(self) -> bool:
        return self.ineq1 and self.ineq2 and self.ineq3


def positivity_inequalities(rho, tol: float = DEFAULT_TOLERANCE) -> PositivityReport:
    """Evaluate the three trace-moment inequalities for a Hermitian 4x4 matrix; a moment too large reads inf."""
    tol = _checked_tolerance(tol)
    a = hermitian_matrix(rho)
    if a.shape[0] != 4:
        raise ValueError(f"dimension must be 4, got {a.shape[0]}")
    # the moments of a / s, s the least power of two >= 1 with sum |a_ij / s|^2 <= 1, scaled back
    # exactly in Python floats, which overflow to inf with no warning
    s = 2.0 ** max(0, (math.frexp(np.vdot(a, a).real)[1] + 1) // 2)
    b = a / s
    b2 = b @ b
    p2 = float(np.real(np.trace(b2))) * s * s
    p3 = float(np.real(np.trace(b2 @ b))) * s * s * s
    p4 = float(np.real(np.trace(b2 @ b2))) * s * s * s * s
    return PositivityReport(
        trace_sq=p2,
        trace_cube=p3,
        trace_fourth=p4,
        ineq1=p2 <= 1.0 + tol,
        ineq2=p3 >= 1.5 * p2 - 0.5 - tol,
        ineq3=p4 <= 1.0 / 6.0 - p2 + 0.5 * p2 * p2 + (4.0 / 3.0) * p3 + tol,
    )
