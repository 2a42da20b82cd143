import dataclasses
import warnings

import numpy as np
import pytest

from dwigner import (
    DensityMatrix,
    DensityMatrixError,
    FanoCoefficients,
    bloch_vector,
    density_from_bloch,
    density_from_su4_coefficients,
    emit_grid,
    fano_extract,
    grid_overlap,
    hermitian_eigenvalues,
    positivity_inequalities,
    purity,
    reconstruct,
    state_overlap,
    super_fidelity,
    trace_product,
    validate_density,
    werner,
    wigner_grid,
    wigner_pair_from_matrix,
    wigner_su2,
    wigner_su4,
    xstate_from_matrix,
)
from dwigner.generators import PAULI_X, PAULI_Y
from dwigner.linalg import hermitian_matrix
from helpers import random_density, random_hermitian_unit_trace

TOO_LARGE = "matrix entries are too large: the sum of their squared magnitudes overflows"


def test_trace_product_identity():
    assert trace_product(np.eye(4), np.eye(4)) == 4


def test_trace_product_pauli_orthogonality():
    assert abs(trace_product(PAULI_X, PAULI_Y)) == 0


def test_trace_product_against_elementwise_sum(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    # independent double-loop oracle
    expected = 0.0
    for i in range(4):
        for j in range(4):
            expected += np.conj(a[i, j]) * b[i, j]
    assert abs(trace_product(a, b) - expected) < 1e-13


def test_trace_product_dimension_mismatch():
    with pytest.raises(ValueError, match="2.*4|4.*2"):
        trace_product(np.eye(2), np.eye(4))


def test_eigenvalues_pauli_z():
    np.testing.assert_allclose(
        hermitian_eigenvalues(np.diag([1.0, -1.0])), [-1.0, 1.0], atol=1e-14
    )


def test_eigenvalues_maximally_mixed():
    np.testing.assert_allclose(hermitian_eigenvalues(np.eye(4) / 4), [0.25] * 4, atol=1e-14)


def test_eigenvalues_are_those_of_the_hermitian_part():
    # within tol of Hermitian: the spectrum of (a + a†)/2, not [0.5, 0.5] of a's lower triangle
    matrix = np.array([[0.5, 0.3j], [0.0, 0.5]])
    np.testing.assert_allclose(hermitian_eigenvalues(matrix, 0.5), [0.35, 0.65], rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "matrix",
    [
        np.diag([0.25] * 4) + np.diag([-1.5e308] * 3, 1) + np.diag([-1.5e308] * 3, -1),
        np.full((4, 4), 8e307),
    ],
    ids=["hermitian-part-overflows", "largest-eigenvalue-overflows"],
)
def test_eigenvalues_refuse_a_matrix_without_a_finite_spectrum(matrix):
    # the guard refuses both before any eigenvalue is computed, and nothing overflows on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            hermitian_eigenvalues(matrix)
    assert str(info.value) == TOO_LARGE


@pytest.mark.parametrize("reader", [hermitian_matrix, validate_density, hermitian_eigenvalues, wigner_grid])
def test_raw_readers_refuse_a_non_square_matrix(reader):
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        reader(np.ones((2, 3)) / 2)


def test_eigenvalues_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="asymmetry"):
        hermitian_eigenvalues(m)


def _characteristic_roots_by_bisection(a):
    """Roots of det(a - x I) located by sign changes and bisected."""

    def char(x):
        return np.linalg.det(a - x * np.eye(a.shape[0])).real

    radius = np.max(np.sum(np.abs(a), axis=1)) + 1.0
    xs = np.linspace(-radius, radius, 4001)
    values = [char(x) for x in xs]
    roots = []
    for lo, hi, flo, fhi in zip(xs[:-1], xs[1:], values[:-1], values[1:]):
        if flo == 0.0:
            roots.append(lo)
            continue
        if flo * fhi < 0:
            for _ in range(100):
                mid = (lo + hi) / 2
                fm = char(mid)
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append((lo + hi) / 2)
    return np.array(roots)


def test_eigenvalues_match_characteristic_polynomial(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (a + a.conj().T) / 2
    roots = _characteristic_roots_by_bisection(h)
    assert len(roots) == 4
    np.testing.assert_allclose(hermitian_eigenvalues(h), np.sort(roots), atol=1e-9)


def test_eigenvalue_sum_matches_trace(rng):
    h = random_hermitian_unit_trace(rng, 4)
    assert abs(np.sum(hermitian_eigenvalues(h)) - 1.0) < 1e-10


def test_validate_accepts_maximally_mixed():
    rho = validate_density(np.eye(4) / 4)
    assert rho.dim == 4


def test_validate_rejects_negative_eigenvalue():
    with pytest.raises(DensityMatrixError) as info:
        validate_density(np.diag([1.1, -0.1, 0.0, 0.0]))
    names = [name for name, _ in info.value.violations]
    assert "positive semidefiniteness" in names
    magnitude = dict(info.value.violations)["positive semidefiniteness"]
    assert abs(magnitude - 0.1) < 1e-12


def test_validate_reports_every_violation():
    bad = np.array([[1.5, 1.0], [0.0, -0.2]])
    with pytest.raises(DensityMatrixError) as info:
        validate_density(bad)
    names = {name for name, _ in info.value.violations}
    assert {"hermiticity", "unit trace", "positive semidefiniteness"} <= names


def test_validated_eigenvalues_nonnegative_and_sum_to_one(rng):
    for _ in range(20):
        rho = validate_density(random_density(rng, 4))
        eig = hermitian_eigenvalues(rho.matrix)
        assert eig[0] >= -1e-10
        assert abs(np.sum(eig) - 1.0) < 1e-10


def test_werner_extreme_is_pure_state():
    rho = validate_density(werner(1.0))
    assert abs(purity(rho) - 1.0) < 1e-12


def test_purity_of_projector(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    assert abs(purity(np.outer(v, v.conj())) - 1.0) < 1e-12


def test_purity_maximally_mixed():
    assert abs(purity(np.eye(4) / 4) - 0.25) < 1e-15


@pytest.mark.parametrize("fraction", [0.0, 0.3, 0.5, 0.75, 1.0])
def test_werner_purity_closed_form(fraction):
    expected = (1 - 2 * fraction + 4 * fraction**2) / 3
    assert abs(purity(werner(fraction)) - expected) < 1e-12


def test_positivity_on_pure_projector():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[0, 3] = rho[3, 0] = rho[3, 3] = 0.5
    report = positivity_inequalities(rho)
    assert abs(report.trace_sq - 1) < 1e-12
    assert abs(report.trace_cube - 1) < 1e-12
    assert abs(report.trace_fourth - 1) < 1e-12
    assert report.all_hold
    # the cubic bound is tight for projectors
    assert abs(report.trace_cube - (1.5 * report.trace_sq - 0.5)) < 1e-12


def test_positivity_maximally_mixed():
    report = positivity_inequalities(np.eye(4) / 4)
    assert abs(report.trace_sq - 0.25) < 1e-15
    assert abs(report.trace_cube - 1 / 16) < 1e-15
    assert report.all_hold


def test_positivity_detects_small_negative_eigenvalue():
    report = positivity_inequalities(np.diag([0.55, 0.3, 0.2, -0.05]))
    assert not report.all_hold


@pytest.mark.parametrize("scale", [1e-150, 1e-3, 1.0, 3.0, 1e10, 1e50, 1e75])
def test_trace_moments_are_the_unscaled_ones_bit_for_bit(rng, scale):
    # the moments are taken of the matrix over a power of two and scaled back, exactly
    for _ in range(20):
        a = random_hermitian_unit_trace(rng, 4) * scale
        a = (a + a.conj().T) / 2
        a2 = a @ a
        report = positivity_inequalities(a)
        assert report.trace_sq == float(np.real(np.trace(a2)))
        assert report.trace_cube == float(np.real(np.trace(a2 @ a)))
        assert report.trace_fourth == float(np.real(np.trace(a2 @ a2)))


@pytest.mark.parametrize("entry", [1e100, 1e150, -1e150])
def test_trace_moments_that_overflow_read_inf_with_no_warning(entry):
    a = np.diag([0.25] * 4) + np.diag([entry] * 3, 1) + np.diag([entry] * 3, -1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = positivity_inequalities(a)
    assert report.trace_fourth == np.inf
    assert np.isfinite(report.trace_sq)


def test_positivity_wrong_dimension():
    with pytest.raises(ValueError, match="dimension"):
        positivity_inequalities(np.eye(3) / 3)


def test_positivity_iff_nonnegative_spectrum(rng):
    # mixture of PSD and indefinite unit-trace Hermitian samples
    for i in range(500):
        if i % 2 == 0:
            m = random_density(rng, 4)
        else:
            m = random_hermitian_unit_trace(rng, 4)
        min_eig = np.linalg.eigvalsh(m)[0]
        if abs(min_eig) < 1e-8:
            continue  # skip samples too close to the boundary for a clean verdict
        assert positivity_inequalities(m).all_hold == (min_eig >= 0)


def test_density_matrix_has_the_single_field_matrix():
    assert [field.name for field in dataclasses.fields(DensityMatrix)] == ["matrix"]


def test_hermitian_matrix_trusts_a_validated_state(rng):
    dm = validate_density(random_density(rng, 4))
    assert hermitian_matrix(dm) is dm.matrix
    assert not dm.matrix.flags.writeable


def test_hermitian_matrix_returns_an_exactly_hermitian_array_itself(rng):
    m = random_density(rng, 4)
    m = (m + m.conj().T) / 2
    assert hermitian_matrix(m) is m


def test_hermitian_matrix_returns_the_hermitian_part_of_a_nearly_hermitian_array():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 1e-11j
    a = hermitian_matrix(m)
    assert (a == a.conj().T).all()
    np.testing.assert_array_equal(a, (m + m.conj().T) / 2)


def test_validated_state_stores_the_exact_hermitian_part():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 1e-7j
    dm = validate_density(m, 1e-5)
    assert (dm.matrix == dm.matrix.conj().T).all()
    np.testing.assert_array_equal(dm.matrix, (m + m.conj().T) / 2)


def test_validated_hermitian_input_is_stored_bit_for_bit(rng):
    rho = random_density(rng, 4)
    m = (rho + rho.conj().T) / 2
    assert (m == m.conj().T).all()
    np.testing.assert_array_equal(validate_density(m).matrix, m)


def test_validated_hermitian_input_keeps_its_values_but_not_its_signed_zeros():
    # (a + a†)/2 adds each -0.0 imaginary part to the +0.0 of its conjugate: equal values, other bits
    m = np.eye(2).astype(complex).conj() / 2
    assert (m == m.conj().T).all() and np.signbit(m.imag).all()
    stored = validate_density(m).matrix
    np.testing.assert_array_equal(stored, m)
    assert not np.signbit(stored.imag).any()
    assert stored.tobytes() == ((m + m.conj().T) / 2).tobytes()


def _skewed(n, shift):
    # I/n with rho[0,1] += shift: purity, overlaps and the Bloch vector of
    # such a matrix are not those of any state
    m = np.eye(n, dtype=complex) / n
    m[0, 1] += shift
    return m


@pytest.mark.parametrize(
    "reader",
    [
        bloch_vector,
        purity,
        lambda m: state_overlap(m, np.eye(m.shape[0]) / m.shape[0]),
        lambda m: state_overlap(np.eye(m.shape[0]) / m.shape[0], m),
        lambda m: super_fidelity(m, m),
    ],
    ids=["bloch_vector", "purity", "state_overlap_a", "state_overlap_b", "super_fidelity"],
)
@pytest.mark.parametrize("n", [2, 4])
def test_state_readers_reject_non_hermitian_input(reader, n):
    with pytest.raises(ValueError, match="would have an imaginary part"):
        reader(_skewed(n, 0.3j))


def test_positivity_inequalities_reject_non_hermitian_input():
    with pytest.raises(ValueError, match="not Hermitian"):
        positivity_inequalities(_skewed(4, 0.1j))


@pytest.mark.parametrize(
    "matrix",
    [np.eye(4) / 4 + 0.3j * np.outer(np.eye(4)[0], np.eye(4)[1]), np.ones((2, 3)) / 2, np.ones(4) / 4, [[1.0, 0.0], [0.0, 0.0]]],
    ids=["not-hermitian", "not-square", "vector", "list"],
)
def test_density_matrix_refuses_a_matrix_outside_its_contract(matrix):
    with pytest.raises(ValueError, match="DensityMatrix"):
        DensityMatrix(matrix)


def test_density_matrix_accepts_an_exactly_hermitian_matrix(rng):
    m = random_hermitian_unit_trace(rng, 4)
    assert DensityMatrix(m).matrix is m


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-10])
def test_validate_density_refuses_a_tolerance_that_is_negative_or_not_finite(tol):
    # NaN and infinity would pass every check, so diag(3, 2) would come back as a state
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0") as info:
        validate_density(np.diag([3.0, 2.0]), tol)
    assert not isinstance(info.value, DensityMatrixError)
    with pytest.raises(ValueError, match="tolerance"):
        validate_density(np.eye(2) / 2, tol)


def test_validate_density_accepts_a_zero_tolerance():
    assert validate_density(np.diag([0.5, 0.5]), 0.0).matrix.tolist() == [[0.5, 0.0], [0.0, 0.5]]


def _raw_matrix(entries):
    m = np.eye(4, dtype=complex) / 4
    for (i, j), value in entries.items():
        m[i, j] = value
    return m


FINITE = "matrix entries must be finite"
# each raw input with the asymmetry its error reports, or the guard's own message for an input
# it refuses whatever the asymmetry: non-finite entries, and finite ones whose squares overflow
GUARD_INPUTS = {
    "nan-in-real-part": ({(0, 1): complex(np.nan, 0.0)}, FINITE),
    "nan-in-imaginary-part": ({(0, 1): complex(0.0, np.nan)}, FINITE),
    "inf-on-diagonal": ({(2, 2): np.inf}, FINITE),
    "conjugate-symmetric-inf-pair": ({(0, 1): np.inf, (1, 0): np.inf}, FINITE),
    "finite-pair-whose-difference-overflows": ({(0, 1): 1e308, (1, 0): -1e308}, TOO_LARGE),
    "asymmetry-1e-7": ({(0, 1): 1e-7j}, ("1.000e-07", "1.000000e-07")),
}
STATE_GUARD_MESSAGE = (
    "input matrix is not Hermitian: max asymmetry {0} exceeds 1.0e-10, "
    "so its phase-space values would have an imaginary part"
)
GUARD_ERRORS = {
    hermitian_matrix: (ValueError, STATE_GUARD_MESSAGE),
    wigner_grid: (ValueError, STATE_GUARD_MESSAGE),
    hermitian_eigenvalues: (ValueError, "matrix is not Hermitian: max asymmetry {0}"),
    validate_density: (DensityMatrixError, "not a density matrix: hermiticity violated by {1}"),
}


@pytest.mark.parametrize("function", GUARD_ERRORS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("entries, asymmetry", GUARD_INPUTS.values(), ids=GUARD_INPUTS)
def test_raw_input_guard_errors_and_warnings(function, entries, asymmetry):
    # the guard's refusal comes before the caller's own error, and no input warns
    if isinstance(asymmetry, str):
        expected_type, message = ValueError, asymmetry
    else:
        expected_type, template = GUARD_ERRORS[function]
        message = template.format(*asymmetry)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            function(_raw_matrix(entries))
    assert type(info.value) is expected_type
    assert str(info.value) == message


OVERFLOWING = np.diag([0.25] * 4) + np.diag([-1.5e308] * 3, 1) + np.diag([-1.5e308] * 3, -1)


def test_a_matrix_whose_hermitian_part_overflows_is_refused_before_the_density_check():
    # (a + a†)/2 would overflow to -inf; the guard refuses the matrix, not as a density matrix
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            validate_density(OVERFLOWING)
    assert type(info.value) is ValueError
    assert str(info.value) == TOO_LARGE


HUGE = np.full((4, 4), 1e308)  # finite and exactly Hermitian, but sum |a_ij|^2 overflows
RAW_MATRIX_READERS = {
    "wigner_grid": wigner_grid,
    "wigner_su4": wigner_su4,
    "wigner_pair_from_matrix": wigner_pair_from_matrix,
    "fano_extract": fano_extract,
    "bloch_vector": bloch_vector,
    "xstate_from_matrix": xstate_from_matrix,
    "purity": purity,
    "state_overlap": lambda m: state_overlap(m, np.eye(4) / 4),
    "super_fidelity": lambda m: super_fidelity(np.eye(4) / 4, m),
    "positivity_inequalities": positivity_inequalities,
    "hermitian_eigenvalues": hermitian_eigenvalues,
    "validate_density": validate_density,
    "trace_product": lambda m: trace_product(np.eye(4), m),
    "DensityMatrix": DensityMatrix,
}


@pytest.mark.parametrize("reader", RAW_MATRIX_READERS.values(), ids=RAW_MATRIX_READERS)
def test_every_raw_matrix_reader_refuses_entries_whose_squares_overflow(reader):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            reader(HUGE)
    assert type(info.value) is ValueError
    assert str(info.value) == TOO_LARGE


def test_a_finite_hermitian_part_that_lapack_fails_on_raises(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        validate_density(np.eye(4) / 4)


EMPTY = np.zeros((0, 0))
EMPTY_MATRIX = r"^expected a square matrix of dimension at least 1, got shape \(0, 0\)$"


def _refuses_empty(call, message=EMPTY_MATRIX):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message) as info:
            call()
    assert type(info.value) is ValueError


def test_validate_density_refuses_an_empty_matrix():
    _refuses_empty(lambda: validate_density(EMPTY))


def test_hermitian_eigenvalues_refuses_an_empty_matrix():
    _refuses_empty(lambda: hermitian_eigenvalues(EMPTY))


def test_purity_refuses_an_empty_matrix():
    _refuses_empty(lambda: purity(EMPTY))


def test_super_fidelity_refuses_an_empty_matrix():
    _refuses_empty(lambda: super_fidelity(EMPTY, EMPTY))


def test_density_matrix_constructor_refuses_an_empty_matrix():
    _refuses_empty(
        lambda: DensityMatrix(matrix=EMPTY),
        r"^a DensityMatrix holds a non-empty square matrix, got shape \(0, 0\)$",
    )


GRID = wigner_grid(werner(0.3))
POLARIZATION = np.array([0.3, -0.2, 0.1])
# every reader of a real array: the call, a real input it accepts, and the name its refusals give
REAL_READERS = {
    "reconstruct": (reconstruct, GRID, "grid values"),
    "grid_overlap": (lambda w: grid_overlap(w, GRID), GRID, "grid values"),
    "emit_grid": (emit_grid, GRID, "grid values"),
    "wigner_su2": (wigner_su2, POLARIZATION, "components"),
    "density_from_bloch": (lambda v: density_from_bloch(v, 2), POLARIZATION, "components"),
    "FanoCoefficients": (
        lambda a: FanoCoefficients(a=a, b=np.zeros(3), c=np.eye(3) / 4)._vector,
        POLARIZATION,
        "Fano coefficients 'a'",
    ),
    "density_from_su4_coefficients": (density_from_su4_coefficients, np.linspace(-0.1, 0.1, 15), "components"),
}


@pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
@pytest.mark.parametrize("call, real, what", REAL_READERS.values(), ids=REAL_READERS)
def test_real_readers_refuse_a_nonzero_imaginary_part(call, real, what, as_list):
    values = real + 0.5j * (np.arange(real.size) == 1).reshape(real.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            call(values.tolist() if as_list else values)
    assert type(info.value) is ValueError
    assert str(info.value) == f"{what} must be real, got an imaginary part of magnitude 5.000e-01"


@pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
@pytest.mark.parametrize("call, real, what", REAL_READERS.values(), ids=REAL_READERS)
def test_real_readers_read_an_all_zero_imaginary_part_as_the_real_array(call, real, what, as_list):
    values = real - 0j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = call(values.tolist() if as_list else values)
    assert np.array_equal(got, call(real))


def test_real_readers_keep_numpys_message_for_a_string_and_read_none_as_nan():
    with pytest.raises(ValueError, match="^could not convert string to float: 'abc'$"):
        wigner_su2("abc")
    with pytest.raises(ValueError) as info:
        density_from_bloch([None, 0, 0], 2)
    assert str(info.value) == "components must be finite, got [None, 0, 0]"
