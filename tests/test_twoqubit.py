import dataclasses
import warnings

import numpy as np
import pytest

from dwigner import (
    FanoCoefficients,
    DensityMatrixError,
    bell,
    bell_fano,
    bloch_vector,
    delta_pair,
    density_from_su4_coefficients,
    fano_compose,
    fano_extract,
    fano_matrix,
    kernel,
    pair_index,
    purity,
    reduced_density,
    reduced_wigner,
    su4_coefficients,
    werner,
    wigner_pair,
    wigner_pair_from_matrix,
    wigner_su2,
)
from helpers import random_density, random_product_fano

# reference sign table for 4W in terms of the 15 coefficients, rows in the
# order (mu1, nu1, mu2, nu2) = (0,0,0,0), (0,0,1,0), (0,0,0,1), (0,0,1,1),
# (1,0,0,0), ..., (1,1,1,1); columns ax ay az bx by bz cxx cxy cxz cyx cyy
# cyz czx czy czz
PAIR_SIGN_TABLE = {
    (0, 0, 0, 0): [+1, -1, +1, +1, -1, +1, +1, -1, +1, -1, +1, -1, +1, -1, +1],
    (0, 0, 1, 0): [+1, -1, +1, +1, +1, -1, +1, +1, -1, -1, -1, +1, +1, +1, -1],
    (0, 0, 0, 1): [+1, -1, +1, -1, +1, +1, -1, +1, +1, +1, -1, -1, -1, +1, +1],
    (0, 0, 1, 1): [+1, -1, +1, -1, -1, -1, -1, -1, -1, +1, +1, +1, -1, -1, -1],
    (1, 0, 0, 0): [+1, +1, -1, +1, -1, +1, +1, -1, +1, +1, -1, +1, -1, +1, -1],
    (1, 0, 1, 0): [+1, +1, -1, +1, +1, -1, +1, +1, -1, +1, +1, -1, -1, -1, +1],
    (1, 0, 0, 1): [+1, +1, -1, -1, +1, +1, -1, +1, +1, -1, +1, +1, +1, -1, -1],
    (1, 0, 1, 1): [+1, +1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, +1, +1, +1],
    (0, 1, 0, 0): [-1, +1, +1, +1, -1, +1, -1, +1, -1, +1, -1, +1, +1, -1, +1],
    (0, 1, 1, 0): [-1, +1, +1, +1, +1, -1, -1, -1, +1, +1, +1, -1, +1, +1, -1],
    (0, 1, 0, 1): [-1, +1, +1, -1, +1, +1, +1, -1, -1, -1, +1, +1, -1, +1, +1],
    (0, 1, 1, 1): [-1, +1, +1, -1, -1, -1, +1, +1, +1, -1, -1, -1, -1, -1, -1],
    (1, 1, 0, 0): [-1, -1, -1, +1, -1, +1, -1, +1, -1, -1, +1, -1, -1, +1, -1],
    (1, 1, 1, 0): [-1, -1, -1, +1, +1, -1, -1, -1, +1, -1, -1, +1, -1, -1, +1],
    (1, 1, 0, 1): [-1, -1, -1, -1, +1, +1, +1, -1, -1, +1, -1, -1, +1, -1, -1],
    (1, 1, 1, 1): [-1, -1, -1, -1, -1, -1, +1, +1, +1, +1, +1, +1, +1, +1, +1],
}


def pair_table_value(f, point):
    signs = PAIR_SIGN_TABLE[point]
    coeffs = np.concatenate([f.a, f.b, f.c.reshape(-1)])
    return (1.0 + np.dot(signs, coeffs)) / 4.0


# reference matrix-element table: each row maps the six independent complex
# entries (rows 0..3 of the upper triangle) to the cell value
def matrix_table_value(r, point):
    R = np.real
    I = np.imag
    r11, r22, r33, r44 = r[0, 0].real, r[1, 1].real, r[2, 2].real, r[3, 3].real
    r12, r13, r14, r23, r24, r34 = r[0, 1], r[0, 2], r[0, 3], r[1, 2], r[1, 3], r[2, 3]
    table = {
        (0, 0, 0, 0): r11 + R(r12 + r13 + r23) + I(r12 + r13 + r14),
        (0, 0, 1, 0): r22 + R(r12 + r14 + r24) - I(r12 - r23 - r24),
        (0, 0, 0, 1): r11 - R(r12 - r13 + r23) - I(r12 - r13 + r14),
        (0, 0, 1, 1): r22 - R(r12 + r14 - r24) + I(r12 - r23 + r24),
        (1, 0, 0, 0): r33 + R(r13 + r14 + r34) - I(r13 + r23 - r34),
        (1, 0, 1, 0): r44 + R(r23 + r24 + r34) - I(r14 + r24 + r34),
        (1, 0, 0, 1): r33 + R(r13 - r14 - r34) - I(r13 - r23 + r34),
        (1, 0, 1, 1): r44 - R(r23 - r24 + r34) + I(r14 - r24 + r34),
        (0, 1, 0, 0): r11 + R(r12 - r13 - r23) + I(r12 - r13 - r14),
        (0, 1, 1, 0): r22 + R(r12 - r14 - r24) - I(r12 + r23 + r24),
        (0, 1, 0, 1): r11 - R(r12 + r13 - r23) - I(r12 + r13 - r14),
        (0, 1, 1, 1): r22 - R(r12 - r14 + r24) + I(r12 + r23 - r24),
        (1, 1, 0, 0): r33 - R(r13 + r14 - r34) + I(r13 + r23 + r34),
        (1, 1, 1, 0): r44 - R(r23 + r24 - r34) + I(r14 + r24 - r34),
        (1, 1, 0, 1): r33 - R(r13 - r14 + r34) + I(r13 - r23 - r34),
        (1, 1, 1, 1): r44 + R(r23 - r24 - r34) - I(r14 - r24 - r34),
    }
    return table[point]


def tensor_kernel_grid(rho):
    """Pair grid via the tensor product of two qubit phase-point operators."""
    k = kernel(2)
    grid = np.empty((2, 2, 2, 2))
    for mu1 in range(2):
        for nu1 in range(2):
            for mu2 in range(2):
                for nu2 in range(2):
                    op = np.kron(k[mu1, nu1].conj().T, k[mu2, nu2].conj().T)
                    grid[mu1, nu1, mu2, nu2] = np.trace(op @ rho).real
    return grid


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["a", "b", "c"])
def test_fano_coefficients_reject_non_finite_fields(field, value):
    fields = {"a": np.zeros(3), "b": np.zeros(3), "c": np.zeros((3, 3))}
    fields[field].flat[-1] = value
    with pytest.raises(ValueError, match="finite"):
        FanoCoefficients(**fields)


@pytest.mark.parametrize(
    "field, shape",
    [("a", (2,)), ("b", (3, 1)), ("c", (9,)), ("c", (3, 4))],
    ids=["a-2", "b-column", "c-flat", "c-3x4"],
)
def test_fano_coefficients_reject_fields_of_the_wrong_shape(field, shape):
    fields = {"a": np.zeros(3), "b": np.zeros(3), "c": np.zeros((3, 3))}
    fields[field] = np.zeros(shape)
    with pytest.raises(ValueError, match=r"expected shapes \(3,\), \(3,\), \(3, 3\)"):
        FanoCoefficients(**fields)


def test_fano_matrix_trivial():
    zero = FanoCoefficients(a=np.zeros(3), b=np.zeros(3), c=np.zeros((3, 3)))
    np.testing.assert_allclose(fano_matrix(zero), np.eye(4) / 4, atol=1e-15)


def test_fano_matrix_bell_coefficients():
    rho = fano_matrix(bell_fano("phi+"))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
    np.testing.assert_allclose(rho, expected, atol=1e-15)


def test_fano_matrix_product_state(rng):
    f = random_product_fano(rng)
    np.testing.assert_allclose(
        fano_matrix(f), np.kron(reduced_density(f, 1), reduced_density(f, 2)), atol=1e-12
    )


def test_fano_compose_rejects_unphysical():
    f = FanoCoefficients(a=np.zeros(3), b=np.zeros(3), c=np.diag([1.5, 0.0, 0.0]))
    with pytest.raises(DensityMatrixError) as info:
        fano_compose(f)
    # the composed matrix stays available for exploratory work
    np.testing.assert_allclose(info.value.matrix, fano_matrix(f), atol=1e-15)


def test_fano_extract_singlet():
    f = fano_extract(bell("psi-"))
    np.testing.assert_allclose(f.a, 0.0, atol=1e-12)
    np.testing.assert_allclose(f.b, 0.0, atol=1e-12)
    np.testing.assert_allclose(f.c, -np.eye(3), atol=1e-12)


def test_fano_extract_maximally_mixed():
    f = fano_extract(np.eye(4) / 4)
    assert np.max(np.abs(f.a)) < 1e-14
    assert np.max(np.abs(f.b)) < 1e-14
    assert np.max(np.abs(f.c)) < 1e-14


def test_fano_extract_rejects_non_hermitian_input():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] += 0.1j
    with pytest.raises(ValueError, match="not Hermitian"):
        fano_extract(m)


def test_fano_round_trip(rng):
    worst = 0.0
    for _ in range(100):
        rho = random_density(rng, 4)
        worst = max(worst, np.max(np.abs(fano_matrix(fano_extract(rho)) - rho)))
    assert worst < 1e-12


def test_fano_purity_formula(rng):
    # squared correlation entries; the squares are required for the purity
    # identity to close
    rho = random_density(rng, 4)
    f = fano_extract(rho)
    value = (1 + f.a @ f.a + f.b @ f.b + np.sum(f.c * f.c)) / 4
    assert abs(value - purity(rho)) < 1e-12


def test_reduced_density_of_bell_states():
    for kind in ("phi+", "phi-", "psi+", "psi-"):
        f = fano_extract(bell(kind))
        for which in (1, 2):
            np.testing.assert_allclose(reduced_density(f, which), np.eye(2) / 2, atol=1e-12)


def test_reduced_density_against_partial_trace(rng):
    rho = random_density(rng, 4)
    f = fano_extract(rho)
    first = np.array(
        [[sum(rho[2 * i + j, 2 * k + j] for j in range(2)) for k in range(2)] for i in range(2)]
    )
    second = np.array(
        [[sum(rho[2 * j + i, 2 * j + k] for j in range(2)) for k in range(2)] for i in range(2)]
    )
    np.testing.assert_allclose(reduced_density(f, 1), first, atol=1e-12)
    np.testing.assert_allclose(reduced_density(f, 2), second, atol=1e-12)


def test_reduced_density_selector():
    with pytest.raises(ValueError):
        reduced_density(fano_extract(np.eye(4) / 4), 3)


def test_pair_grid_flat_for_zero_coefficients():
    zero = FanoCoefficients(a=np.zeros(3), b=np.zeros(3), c=np.zeros((3, 3)))
    np.testing.assert_allclose(wigner_pair(zero), 0.25, atol=1e-15)


def test_pair_grid_against_sign_table(rng):
    for _ in range(100):
        f = fano_extract(random_density(rng, 4))
        grid = wigner_pair(f)
        for point in PAIR_SIGN_TABLE:
            assert abs(grid[point] - pair_table_value(f, point)) < 1e-12


def test_pair_grid_against_tensor_kernel(rng):
    for _ in range(20):
        rho = random_density(rng, 4)
        np.testing.assert_allclose(
            wigner_pair(fano_extract(rho)), tensor_kernel_grid(rho), atol=1e-12
        )


def test_matrix_form_against_table(rng):
    for _ in range(100):
        rho = random_density(rng, 4)
        grid = wigner_pair_from_matrix(rho)
        for point in PAIR_SIGN_TABLE:
            assert abs(grid[point] - matrix_table_value(rho, point)) < 1e-12


def test_matrix_form_flat_for_maximally_mixed():
    np.testing.assert_allclose(wigner_pair_from_matrix(np.eye(4) / 4), 0.25, atol=1e-15)


def test_matrix_form_agrees_with_coefficient_form(rng):
    for _ in range(100):
        rho = random_density(rng, 4)
        np.testing.assert_allclose(
            wigner_pair_from_matrix(rho), wigner_pair(fano_extract(rho)), atol=1e-12
        )


def test_reduced_wigner_bell_states():
    for kind in ("phi+", "psi-"):
        f = fano_extract(bell(kind))
        np.testing.assert_allclose(reduced_wigner(f, 1), 0.5, atol=1e-12)
        np.testing.assert_allclose(reduced_wigner(f, 2), 0.5, atol=1e-12)


def test_reduced_wigner_product_state(rng):
    f = random_product_fano(rng)
    np.testing.assert_allclose(reduced_wigner(f, 1), wigner_su2(f.a), atol=1e-12)
    np.testing.assert_allclose(reduced_wigner(f, 2), wigner_su2(f.b), atol=1e-12)


def test_reduced_wigner_partial_sums(rng):
    f = fano_extract(random_density(rng, 4))
    grid = wigner_pair(f)
    np.testing.assert_allclose(reduced_wigner(f, 1), grid.sum(axis=(2, 3)) / 2, atol=1e-12)
    np.testing.assert_allclose(reduced_wigner(f, 2), grid.sum(axis=(0, 1)) / 2, atol=1e-12)


def test_pair_grid_normalization_and_purity(rng):
    for _ in range(100):
        rho = random_density(rng, 4)
        grid = wigner_pair(fano_extract(rho))
        assert abs(np.sum(grid) / 4 - 1.0) < 1e-12
        assert abs(np.sum(grid * grid) / 4 - purity(rho)) < 1e-10


def test_delta_of_bell_states():
    for kind in ("phi+", "phi-", "psi+", "psi-"):
        values = np.unique(np.round(delta_pair(bell_fano(kind)), 12))
        np.testing.assert_allclose(values, [-0.75, 0.25], atol=1e-12)


def test_delta_of_separable_werner_point():
    f = fano_extract(werner(0.25))
    np.testing.assert_allclose(delta_pair(f), 0.0, atol=1e-12)


def test_delta_of_product_states(rng):
    for _ in range(20):
        f = random_product_fano(rng)
        np.testing.assert_allclose(delta_pair(f), 0.0, atol=1e-12)


def test_delta_factorization_criterion(rng):
    rho = random_density(rng, 4)
    f = fano_extract(rho)
    factorized = np.max(np.abs(f.c - np.outer(f.a, f.b))) < 1e-12
    vanishes = np.max(np.abs(delta_pair(f))) < 1e-12
    assert factorized == vanishes


def test_su4_coefficient_formulas(rng):
    f = fano_extract(random_density(rng, 4))
    coeffs = su4_coefficients(f)
    assert abs(coeffs[0] - (f.b[0] + f.c[2, 0])) < 1e-14
    assert abs(coeffs[7] - (2 * f.a[2] - f.b[2] + f.c[2, 2]) / np.sqrt(3)) < 1e-14


def test_su4_coefficients_zero_input():
    zero = FanoCoefficients(a=np.zeros(3), b=np.zeros(3), c=np.zeros((3, 3)))
    np.testing.assert_allclose(su4_coefficients(zero), 0.0, atol=1e-15)


def test_su4_coefficients_recompose_and_bloch(rng):
    rho = random_density(rng, 4)
    f = fano_extract(rho)
    coeffs = su4_coefficients(f)
    np.testing.assert_allclose(density_from_su4_coefficients(coeffs), rho, atol=1e-12)
    # each coefficient is twice the generator mean value of the state
    np.testing.assert_allclose(coeffs, 2 * bloch_vector(rho), atol=1e-12)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_density_from_su4_coefficients_rejects_non_finite_coefficients(value):
    with pytest.raises(ValueError, match="finite"):
        density_from_su4_coefficients([value] * 15)


def test_density_from_su4_coefficients_refuses_finite_coefficients_whose_squares_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="components are too large: the sum of their squared magnitudes"):
            density_from_su4_coefficients([1e308] * 15)


def test_density_from_su4_coefficients_holds_the_rule_on_the_coefficients_as_given():
    # their squares overflow, although those of the halved components would not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="components are too large: the sum of their squared magnitudes"):
            density_from_su4_coefficients([6e153] * 15)


def test_density_from_su4_coefficients_echoes_the_coefficients_as_given():
    coeffs = [np.nan, 2.0] + [0] * 13
    with pytest.raises(ValueError, match=r"components must be finite, got \[nan, 2\.0, 0, "):
        density_from_su4_coefficients(coeffs)


def test_pair_index_map():
    assert pair_index(0, 0) == 0
    assert pair_index(0, 1) == 1
    assert pair_index(1, 0) == 2
    assert pair_index(1, 1) == 3
    with pytest.raises(ValueError):
        pair_index(2, 0)


def test_fano_compose_accepts_physical_states(rng):
    rho = fano_compose(fano_extract(random_density(rng, 4)))
    assert rho.dim == 4
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-12


@pytest.mark.parametrize("kind", ["phi+", "phi-", "psi+", "PSI-"])
def test_bell_fano_is_cached_and_cannot_be_mutated(kind):
    f = bell_fano(kind)
    assert f is bell_fano(kind.swapcase())
    for name in ("a", "b", "c"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(f, name)[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, name, np.zeros(3))
    np.testing.assert_allclose(fano_matrix(f), bell(kind), atol=1e-15)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["a", "b", "c"])
def test_fano_coefficients_name_the_non_finite_field(field, value):
    fields = {"a": np.zeros(3), "b": np.full(3, 1e150), "c": np.full((3, 3), -1e150)}
    FanoCoefficients(**fields)  # large entries whose squares sum to a finite value are accepted
    fields[field] = fields[field].copy()
    fields[field].flat[-1] = value
    with pytest.raises(ValueError) as info:
        FanoCoefficients(**fields)
    assert str(info.value) == f"Fano coefficients {field!r} must be finite, got {fields[field].tolist()}"


@pytest.mark.parametrize("field", ["a", "b", "c", None])
def test_fano_coefficients_refuse_finite_fields_whose_squares_overflow(field):
    # a field of 1e308 is named; 1e154 in each of a and b overflows only in the sum over both
    fields = {"a": np.zeros(3), "b": np.full(3, 1e150), "c": np.full((3, 3), -1e150)}
    if field is None:
        fields["a"] = fields["b"] = np.array([1e154, 0.0, 0.0])
    else:
        fields[field] = fields[field].copy()
        fields[field].flat[-1] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            FanoCoefficients(**fields)
    name = "" if field is None else f" {field!r}"
    assert str(info.value) == f"Fano coefficients{name} are too large: the sum of their squared magnitudes overflows"


@pytest.mark.parametrize(
    "bits", [(True, 0), (1.0, 0), (0, False), (0, 1.0), (np.array([0, 1]), 0), (1, np.array([0, 1]))]
)
def test_pair_index_refuses_bits_that_are_not_integers(bits):
    with pytest.raises(ValueError, match=r"^bit must be an integer, got "):
        pair_index(*bits)


def test_pair_index_takes_numpy_integers():
    assert pair_index(np.int64(1), np.uint8(1)) == 3
