import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dwigner import (
    bell,
    grid_overlap,
    kernel,
    phase_exponent,
    purity,
    reconstruct,
    schwinger_pair,
    symmetrized_basis,
    wigner_grid,
    wigner_pair_from_matrix,
    wigner_su4,
)
from dwigner.generators import PAULI_X, PAULI_Y, PAULI_Z
from dwigner.generators import su4_kernel
from dwigner.kernel import _TABLE_MAX, MappingKernel, _clock_shift_coefficients
from dwigner.linalg import validate_density
from dwigner.twoqubit import pair_kernel
from helpers import (
    STATE_GUARD_MESSAGE,
    _hermitizing_phases,
    _phase_point_table,
    clock_shift_sum,
    hermitizing_phase,
    random_density,
    reference_reconstruct,
    reference_wigner_grid,
)

DIMS = (2, 3, 4, 5)


@pytest.mark.parametrize("n", DIMS)
def test_schwinger_pair_properties(n):
    pair = schwinger_pair(n)
    w = np.exp(2j * np.pi / n)
    np.testing.assert_allclose(np.linalg.matrix_power(pair.u, n), np.eye(n), atol=1e-12)
    np.testing.assert_allclose(np.linalg.matrix_power(pair.v, n), np.eye(n), atol=1e-12)
    np.testing.assert_allclose(pair.v @ pair.u, w * pair.u @ pair.v, atol=1e-12)


def test_schwinger_pair_qubit_case():
    pair = schwinger_pair(2)
    np.testing.assert_allclose(pair.u, PAULI_Z, atol=1e-15)
    np.testing.assert_allclose(pair.v, PAULI_X, atol=1e-15)
    # sigma_y = -i u v
    np.testing.assert_allclose(-1j * pair.u @ pair.v, PAULI_Y, atol=1e-15)


def test_schwinger_pair_ququart_clock():
    pair = schwinger_pair(4)
    np.testing.assert_allclose(np.diag(pair.u), [1, 1j, -1, -1j], atol=1e-15)
    np.testing.assert_allclose(
        pair.v @ pair.u, np.exp(1j * np.pi / 2) * pair.u @ pair.v, atol=1e-12
    )


def test_schwinger_pair_rejects_small_dimension():
    with pytest.raises(ValueError):
        schwinger_pair(1)


def test_kernel_rejects_small_dimension():
    with pytest.raises(ValueError, match="dimension must be at least 2, got 1"):
        kernel(1)


@pytest.mark.parametrize("build", [kernel, schwinger_pair])
@pytest.mark.parametrize("n", [4.0, 2.5, np.float64(4.0), True, np.True_, "4", None])
def test_dimension_must_be_an_integer(build, n):
    with pytest.raises(ValueError, match="dimension must be an integer"):
        build(n)


@pytest.mark.parametrize("build", [kernel, schwinger_pair])
def test_a_numpy_integer_dimension_finds_the_cached_build(build):
    with pytest.raises(ValueError):
        build(4.0)
    for n in (np.int64(4), np.int32(4), np.uint8(4)):
        assert build(n) is build(4)
    assert type(build(np.int64(5)).dim) is int
    assert build(np.int64(5)) is build(5)


@pytest.mark.parametrize(
    "fields", [{}, {"ops": np.zeros((2, 2, 2, 2)), "factors": kernel(2).factors}], ids=["neither", "both"]
)
def test_mapping_kernel_carries_either_a_stack_or_factors(fields):
    with pytest.raises(ValueError, match="either a stack of operators or phase-point factors"):
        MappingKernel(2, **fields)


@pytest.mark.parametrize(
    "value, message",
    [
        (np.nan, "cell operator entries must be finite"),
        (complex(0.0, np.inf), "cell operator entries must be finite"),
        (1e308, "cell operator entries are too large: the sum of their squared magnitudes overflows"),
    ],
    ids=["nan", "infinite-imaginary-part", "squares-overflow"],
)
def test_mapping_kernel_refuses_a_stack_that_fails_the_rule(value, message):
    ops = kernel(2).ops.copy()
    ops[1, 0, 0, 1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            MappingKernel(2, ops=ops)


def test_symmetrized_basis_identity_point():
    np.testing.assert_allclose(symmetrized_basis(0, 0, 4), np.eye(4) / 2, atol=1e-15)


@pytest.mark.parametrize("n", (2, 4))
def test_symmetrized_basis_traces(n):
    for eta in range(n):
        for xi in range(n):
            expected = np.sqrt(n) if (eta == 0 and xi == 0) else 0.0
            assert abs(np.trace(symmetrized_basis(eta, xi, n)) - expected) < 1e-12


def test_symmetrized_basis_orthonormal_on_window():
    n = 4
    for eta in range(n):
        for xi in range(n):
            s = symmetrized_basis(eta, xi, n)
            for eta2 in range(n):
                for xi2 in range(n):
                    s2 = symmetrized_basis(eta2, xi2, n)
                    expected = 1.0 if (eta, xi) == (eta2, xi2) else 0.0
                    assert abs(np.sum(s.conj() * s2) - expected) < 1e-12


def test_phase_exponent_window_values():
    for n in (2, 4):
        for eta in range(n):
            for xi in range(n):
                assert phase_exponent(eta, xi, n) == 0


def test_phase_exponent_shift_rules():
    n = 4
    for eta in range(n):
        for xi in range(n):
            assert phase_exponent(eta + n, xi, n) == -xi
    assert phase_exponent(n, n, n) == -n


@pytest.mark.parametrize(
    "build, args, message",
    [
        (symmetrized_basis, (0.5, 0, 4), "eta must be an integer, got 0.5"),
        (symmetrized_basis, (True, 1, 4), "eta must be an integer, got True"),
        (symmetrized_basis, (1, 1, 4.0), "dimension must be an integer, got 4.0"),
        (phase_exponent, (1, 1, 1), "dimension must be at least 2, got 1"),
        (phase_exponent, (0.5, 0, 4), "eta must be an integer, got 0.5"),
    ],
    ids=["basis-half-eta", "basis-bool-eta", "basis-float-dimension", "exponent-dimension-1", "exponent-half-eta"],
)
def test_basis_and_exponent_refuse_non_integers_and_dimensions_below_two(build, args, message):
    with pytest.raises(ValueError, match=message):
        build(*args)


def test_basis_and_exponent_take_numpy_integers():
    eta, xi, n = np.int64(3), np.int32(2), np.int64(4)
    assert np.array_equal(symmetrized_basis(eta, xi, n), symmetrized_basis(3, 2, 4))
    assert phase_exponent(eta + n, xi, n) == phase_exponent(7, 2, 4) == -2


def test_clock_shift_coefficients_of_the_paulis_are_single_monomials():
    # sigma_z = u, sigma_x = v and sigma_y = -i u v at n = 2
    for pauli, (eta, xi), coeff in ((PAULI_Z, (1, 0), 1), (PAULI_X, (0, 1), 1), (PAULI_Y, (1, 1), -1j)):
        expected = np.zeros((2, 2), dtype=complex)
        expected[eta, xi] = coeff
        chi = _clock_shift_coefficients(pauli)
        np.testing.assert_allclose(chi, expected, rtol=0, atol=1e-15)
        np.testing.assert_allclose(clock_shift_sum(chi), pauli, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", range(2, 17))
def test_clock_shift_coefficients_resum_any_matrix(n):
    re, im = np.random.default_rng(n).normal(size=(2, n, n))
    m = re + 1j * im
    np.testing.assert_allclose(clock_shift_sum(_clock_shift_coefficients(m)), m, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", DIMS)
def test_kernel_unit_traces(n):
    k = kernel(n)
    for mu in range(n):
        for nu in range(n):
            assert abs(np.trace(k[mu, nu]) - 1.0) < 1e-12


@pytest.mark.parametrize("n", DIMS)
def test_kernel_hermitian(n):
    k = kernel(n)
    for mu in range(n):
        for nu in range(n):
            assert np.max(np.abs(k[mu, nu] - k[mu, nu].conj().T)) < 1e-12


@pytest.mark.parametrize("n", DIMS)
def test_kernel_orthogonality(n):
    k = kernel(n)
    for mu in range(n):
        for nu in range(n):
            for mu2 in range(n):
                for nu2 in range(n):
                    value = np.sum(k[mu, nu].conj() * k[mu2, nu2])
                    expected = n if (mu, nu) == (mu2, nu2) else 0.0
                    assert abs(value - expected) < 1e-12


@pytest.mark.parametrize("n", DIMS)
def test_kernel_completeness(n):
    k = kernel(n)
    np.testing.assert_allclose(k.ops.sum(axis=(0, 1)) / n, np.eye(n), atol=1e-12)


@pytest.mark.parametrize("n", (8, 16, 32))
def test_kernel_structure_at_large_n(n):
    ops = kernel(n).ops
    np.testing.assert_allclose(ops, ops.conj().swapaxes(-1, -2), atol=1e-12)
    np.testing.assert_allclose(np.trace(ops, axis1=-2, axis2=-1), 1.0, atol=1e-12)
    flat = ops.reshape(n * n, n * n)
    np.testing.assert_allclose(flat.conj() @ flat.T, n * np.eye(n * n), atol=1e-12)
    np.testing.assert_allclose(ops.sum(axis=(0, 1)) / n, np.eye(n), atol=1e-12)
    assert not ops.flags.writeable
    assert kernel(n) is kernel(n)


STACKS = [pytest.param(lambda n=n: kernel(n), id=f"kernel{n}") for n in (2, 3, 4, 5, 6, 7, 8, 9, 16, 32)]
STACKS += [pytest.param(pair_kernel, id="pair"), pytest.param(su4_kernel, id="su4")]


@pytest.mark.parametrize("stack", STACKS)
def test_stack_flat_view_shares_memory(stack):
    # a stack that is not C-contiguous would make every grid copy the whole table
    kern = stack()
    assert kern.ops.flags.c_contiguous
    assert np.shares_memory(kern.ops, kern.ops.reshape(-1, kern.dim**2))


@pytest.mark.parametrize("stack", STACKS)
def test_grid_and_reconstruct_match_einsum_reference(rng, stack):
    kern = stack()
    n = kern.dim
    rho = random_density(rng, n)
    expected = np.einsum("...ij,ij->...", kern.ops.conj(), rho).real
    np.testing.assert_allclose(wigner_grid(rho, kern), expected, rtol=0, atol=1e-12)
    if kern is kernel(n):
        w = rng.normal(size=(n, n))
        expected = np.einsum("mn,mnij->ij", w, kern.ops) / n
        np.testing.assert_allclose(reconstruct(w, kern), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("stack", STACKS)
def test_grid_ignores_input_memory_order(rng, stack):
    kern = stack()
    n = kern.dim
    rho = random_density(rng, n)
    for m in (rho, rho.T):
        expected = wigner_grid(np.ascontiguousarray(m), kern)
        np.testing.assert_array_equal(wigner_grid(np.asfortranarray(m), kern), expected)
        np.testing.assert_array_equal(wigner_grid(m, kern), expected)
    if kern is kernel(n):
        w = rng.normal(size=(n, n))
        for g in (w, w.T):
            expected = reconstruct(np.ascontiguousarray(g))
            np.testing.assert_array_equal(reconstruct(np.asfortranarray(g)), expected)
            np.testing.assert_array_equal(reconstruct(g), expected)


def test_kernel_qubit_pauli_traces():
    k = kernel(2)
    for mu in range(2):
        for nu in range(2):
            gdag = k[mu, nu].conj().T
            assert abs(np.trace(gdag @ PAULI_X) - (-1.0) ** nu) < 1e-12
            assert abs(np.trace(gdag @ PAULI_Y) - (-1.0) ** (mu + nu + 1)) < 1e-12
            assert abs(np.trace(gdag @ PAULI_Z) - (-1.0) ** mu) < 1e-12


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 7))
def test_kernel_window_shift_invariance(n):
    # rebuild each operator summing eta over [-n, -1]; the integer-part
    # exponent supplies exactly the compensating sign
    w = np.exp(2j * np.pi / n)
    k = kernel(n)
    for mu in range(n):
        for nu in range(n):
            total = np.zeros((n, n), dtype=complex)
            for eta in range(-n, 0):
                for xi in range(n):
                    total += (
                        w ** (-(mu * eta + nu * xi))
                        * np.exp(1j * np.pi * phase_exponent(eta, xi, n))
                        * hermitizing_phase(eta, xi, n)
                        * symmetrized_basis(eta, xi, n)
                    )
            np.testing.assert_allclose(total / np.sqrt(n), k[mu, nu], atol=1e-12)


def test_kernel_window_shift_invariance_both_axes():
    n = 4
    w = np.exp(2j * np.pi / n)
    k = kernel(n)
    total = np.zeros((n, n), dtype=complex)
    mu, nu = 2, 3
    for eta in range(-n, 0):
        for xi in range(n, 2 * n):
            total += (
                w ** (-(mu * eta + nu * xi))
                * np.exp(1j * np.pi * phase_exponent(eta, xi, n))
                * hermitizing_phase(eta, xi, n)
                * symmetrized_basis(eta, xi, n)
            )
    np.testing.assert_allclose(total / np.sqrt(n), k[mu, nu], atol=1e-12)


@pytest.mark.parametrize("n", DIMS)
def test_grid_of_maximally_mixed(n):
    np.testing.assert_allclose(wigner_grid(np.eye(n) / n), np.full((n, n), 1 / n), atol=1e-12)


def test_grid_of_qubit_ground_state():
    rho = np.diag([1.0, 0.0]).astype(complex)
    grid = wigner_grid(rho)
    np.testing.assert_allclose(grid[0], [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(grid[1], [0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("n", DIMS)
def test_grid_normalization_and_purity(rng, n):
    for _ in range(100):
        rho = random_density(rng, n)
        grid = wigner_grid(rho)
        assert abs(np.sum(grid) / n - 1.0) < 1e-10
        assert abs(np.sum(grid * grid) / n - purity(rho)) < 1e-10


def test_grid_rejects_non_hermitian_input():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    m[0, 0] = 1.0
    with pytest.raises(ValueError, match="imaginary"):
        wigner_grid(m)


def _non_hermitian(kind):
    m = np.eye(4, dtype=complex) / 4
    if kind == "blind":
        # anti-Hermitian part i * (Im rho[0,2] direction), which the
        # four-level closed form cannot see
        m[0, 2], m[2, 0] = -0.1, 0.1
    else:
        m[0, 1] += 0.1j
    return m


@pytest.mark.parametrize("kind", ["blind", "coherence"])
@pytest.mark.parametrize("transform", [wigner_grid, wigner_su4, wigner_pair_from_matrix])
def test_grid_functions_reject_non_hermitian_input(transform, kind):
    with pytest.raises(ValueError, match="not Hermitian"):
        transform(_non_hermitian(kind))


@pytest.mark.parametrize("transform", [wigner_grid, wigner_su4, wigner_pair_from_matrix])
def test_grid_functions_use_the_validated_tolerance(transform):
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 1e-7j
    with pytest.raises(ValueError, match="not Hermitian"):
        transform(m)
    hermitian_part = (m + m.conj().T) / 2
    np.testing.assert_allclose(transform(validate_density(m, 1e-5)), transform(hermitian_part), atol=1e-15)


def test_grid_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        wigner_grid(np.eye(4) / 4, kernel(2))


def test_grid_linearity(rng):
    rho1 = random_density(rng, 4)
    rho2 = random_density(rng, 4)
    alpha = 0.3
    mixed = alpha * rho1 + (1 - alpha) * rho2
    np.testing.assert_allclose(
        wigner_grid(mixed),
        alpha * wigner_grid(rho1) + (1 - alpha) * wigner_grid(rho2),
        atol=1e-12,
    )


def test_reconstruct_constant_grid():
    np.testing.assert_allclose(reconstruct(np.full((4, 4), 0.25)), np.eye(4) / 4, atol=1e-12)


@pytest.mark.parametrize("stack", [su4_kernel, pair_kernel])
def test_reconstruct_rejects_other_stacks(stack):
    rho = np.eye(4) / 4
    with pytest.raises(ValueError, match="only the phase-point kernel"):
        reconstruct(wigner_grid(rho, stack()).reshape(4, 4), stack())


@pytest.mark.parametrize(
    "grid, kern, message",
    [
        (np.full((2, 3), 0.5), None, r"expected a square grid, got shape \(2, 3\)"),
        (np.full(4, 0.5), None, r"expected a square grid, got shape \(4,\)"),
        (np.full((4, 4), 0.25), kernel(2), "dimension mismatch: kernel 2 vs grid 4"),
        (np.full((4, 4), 1e308), None, "grid values are too large: the sum of their squared magnitudes"),
    ],
    ids=["not-square", "vector", "kernel-of-another-dimension", "squares-overflow"],
)
def test_reconstruct_rejects_a_grid_it_cannot_invert(grid, kern, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            reconstruct(grid, kern)


def test_reconstruct_bell_grid():
    rho = bell("phi+")
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
    np.testing.assert_allclose(rho, expected, atol=1e-15)
    np.testing.assert_allclose(reconstruct(wigner_grid(rho)), expected, atol=1e-12)


@pytest.mark.parametrize("n", (2, 4))
def test_round_trip_random_states(rng, n):
    worst = 0.0
    for _ in range(100):
        rho = random_density(rng, n)
        worst = max(worst, np.max(np.abs(reconstruct(wigner_grid(rho)) - rho)))
    assert worst < 1e-12


@pytest.mark.parametrize("n", (3, 4))
def test_operator_decomposition_for_arbitrary_operators(rng, n):
    # non-Hermitian operators decompose through complex coefficients
    op = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    k = kernel(n)
    coeffs = np.einsum("mnij,ij->mn", k.ops.conj(), op)
    rebuilt = np.einsum("mn,mnij->ij", coeffs, k.ops) / n
    np.testing.assert_allclose(rebuilt, op, atol=1e-12)


def test_overlap_with_itself_is_purity(rng):
    rho = random_density(rng, 4)
    grid = wigner_grid(rho)
    assert abs(grid_overlap(grid, grid) - purity(rho)) < 1e-12


def test_overlap_orthogonal_levels():
    a = np.diag([1.0, 0, 0, 0]).astype(complex)
    b = np.diag([0, 1.0, 0, 0]).astype(complex)
    assert abs(grid_overlap(wigner_grid(a), wigner_grid(b))) < 1e-12


def test_overlap_matches_direct_trace(rng):
    a = random_density(rng, 4)
    b = random_density(rng, 4)
    direct = np.trace(a @ b).real
    assert abs(grid_overlap(wigner_grid(a), wigner_grid(b)) - direct) < 1e-12


def _strided(a):
    # a view of every other value of a grid twice the size along each axis
    big = np.zeros(tuple(2 * d for d in a.shape))
    big[tuple(slice(None, None, 2) for _ in a.shape)] = a
    return big[tuple(slice(None, None, 2) for _ in a.shape)]


@pytest.mark.parametrize("shape", [(3, 3), (4, 4), (8, 8), (2, 2, 2, 2)], ids=str)
@pytest.mark.parametrize(
    "view",
    [lambda a: a.T.copy().T, _strided, lambda a: np.flip(a, -1).copy()[..., ::-1]],
    ids=["transposed", "strided", "reversed"],
)
def test_overlap_pairs_values_by_index_in_any_memory_order(rng, shape, view):
    a, b = rng.normal(size=shape), rng.normal(size=shape)
    expected = float(np.sum(a * b)) / math.sqrt(a.size)
    for first, second in ((view(a), b), (a, view(b)), (view(a), view(b))):
        assert not (first.flags.c_contiguous and second.flags.c_contiguous)
        assert abs(grid_overlap(first, second) - expected) < 1e-12


def test_hermitizing_phase_table_matches_the_scalar():
    for n in range(2, 34):
        expected = [[hermitizing_phase(eta, xi, n) for xi in range(n)] for eta in range(n)]
        np.testing.assert_array_equal(_hermitizing_phases(n), expected)


def test_overlap_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        grid_overlap(np.zeros((2, 2)), np.zeros((4, 4)))


@pytest.mark.parametrize("shape", [(2, 3), (2, 2, 2), (4,)])
def test_overlap_rejects_malformed_shapes(shape):
    with pytest.raises(ValueError, match="grid"):
        grid_overlap(np.ones(shape), np.ones(shape))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_overlap_rejects_non_finite_grids(value):
    with pytest.raises(ValueError, match="finite"):
        grid_overlap(np.full((2, 2), value), np.ones((2, 2)))
    pair = np.full((2, 2, 2, 2), 0.25)
    pair[0, 1, 1, 0] = value
    with pytest.raises(ValueError, match="finite"):
        grid_overlap(pair, np.full((2, 2, 2, 2), 0.25))


@pytest.mark.parametrize("value", [1e308, -1e308])
def test_overlap_refuses_finite_grids_whose_overlap_overflows(value):
    pair = np.full((2, 2, 2, 2), 0.25)
    pair[0, 1, 1, 0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="grid values are too large"):
            grid_overlap(np.full((2, 2), value), np.full((2, 2), value))
        with pytest.raises(ValueError, match="grid values are too large"):
            grid_overlap(pair, pair.T)


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_reconstruct_rejects_non_finite_grids(n, value):
    grid = np.full((n, n), 1.0 / n)
    grid[n - 1, 1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            reconstruct(grid)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_reconstruct_refuses_finite_grids_whose_squares_overflow(n):
    grid = np.full((n, n), 1.0 / n)
    grid[n - 1, 1] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="grid values are too large: the sum of their squared magnitudes"):
            reconstruct(grid)


def test_reconstruct_inverts_a_grid_whose_squares_overflow_when_the_state_s_do_not():
    # sum W^2 = 32 sum |rho_ij|^2 overflows for sum |rho_ij|^2 = 1e307; the state passes the rule
    rng = np.random.default_rng(7)
    a = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    h = a + a.conj().T
    rho = h * math.sqrt(1e307 / np.vdot(h, h).real)
    grid = wigner_grid(rho)
    assert not math.isfinite(np.vdot(grid, grid))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = reconstruct(grid)
    assert np.linalg.norm(back - rho) <= 1e-12 * np.linalg.norm(rho)


@pytest.mark.parametrize("n", range(2, 41))
def test_factored_kernel_matches_its_table(rng, n):
    # the table is the closed form, not kern.ops: that is built from the same factors.  An
    # uncached kernel, so a table it builds is freed after the test
    kern = kernel.__wrapped__(n)
    rho = random_density(rng, n)
    w = rng.normal(size=(n, n))
    grid, back = wigner_grid(rho, kern), reconstruct(w, kern)
    assert n <= _TABLE_MAX or "ops" not in vars(kern)
    table = _phase_point_table(n)
    expected = np.einsum("...ij,ij->...", table.conj(), rho).real
    np.testing.assert_allclose(grid, expected, rtol=0, atol=1e-13)
    np.testing.assert_allclose(back, np.einsum("mn,mnij->ij", w, table) / n, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", range(2, 41))
def test_kernel_table_built_from_the_factors_is_the_closed_form(n):
    # an uncached kernel, so its n^4 table is freed after the test; row by row, so the comparison
    # holds no third table
    ops, table = kernel.__wrapped__(n).ops, _phase_point_table(n)
    for mu in range(n):
        np.testing.assert_allclose(ops[mu], table[mu], rtol=0, atol=1e-14, err_msg=f"mu = {mu}")


@pytest.mark.parametrize("n", (13, 16, 17, 32, 33))
def test_factored_grid_of_a_nearly_hermitian_array_is_that_of_its_hermitian_part(rng, n):
    # the half spectrum reads rho[j, j + xi] for xi <= n / 2 only; an anti-Hermitian part of
    # 1e-11 would move the grid by about that much if it were read as given
    rho = random_density(rng, n)
    e = rng.normal(size=(n, n))
    m = rho + 0.5e-11 * (e - e.T) / np.abs(e - e.T).max()
    assert np.abs(m - m.conj().T).max() == pytest.approx(1e-11)
    np.testing.assert_allclose(wigner_grid(m), wigner_grid((m + m.conj().T) / 2), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", (_TABLE_MAX + 1, 16, 17, 32, 33))
def test_factored_reconstruct_is_hermitian(rng, n):
    back = reconstruct(rng.normal(size=(n, n)))
    np.testing.assert_allclose(back, back.conj().T, rtol=0, atol=1e-15)


@pytest.mark.parametrize("first", ("wigner_grid", "reconstruct"))
def test_kernel_table_is_built_up_to_the_constant_and_never_above_it(rng, first):
    n = _TABLE_MAX
    kern = kernel.__wrapped__(n)
    assert "ops" not in vars(kern)
    if first == "wigner_grid":
        wigner_grid(random_density(rng, n), kern)
    else:
        reconstruct(rng.normal(size=(n, n)), kern)
    assert "ops" in vars(kern)
    kern = kernel.__wrapped__(n + 1)
    reconstruct(wigner_grid(random_density(rng, n + 1), kern), kern)
    assert "ops" not in vars(kern)


@pytest.mark.parametrize("n", sorted({2, _TABLE_MAX, _TABLE_MAX + 1, 12, 13, 32}))
def test_reconstruct_reads_a_grid_in_any_memory_order(rng, n):
    w = rng.normal(size=(n, n))
    expected = reconstruct(w)
    for grid in (np.asfortranarray(w), np.ascontiguousarray(w.T).T, w.tolist()):
        np.testing.assert_allclose(reconstruct(grid), expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", (64, 128))
def test_factored_kernel_properties_at_large_n(rng, n):
    u, v = schwinger_pair(n).u, schwinger_pair(n).v
    for _ in range(3):
        rho, sigma = random_density(rng, n), random_density(rng, n)
        grid = wigner_grid(rho)
        np.testing.assert_allclose(wigner_grid(u @ rho @ u.conj().T), np.roll(grid, 1, axis=1), atol=1e-12)
        np.testing.assert_allclose(wigner_grid(v @ rho @ v.conj().T), np.roll(grid, -1, axis=0), atol=1e-12)
        np.testing.assert_allclose(reconstruct(grid), rho, atol=1e-12)
        assert abs(np.sum(grid) / n - 1.0) < 1e-12
        assert abs(np.sum(grid * grid) / n - purity(rho)) < 1e-12
        assert abs(np.sum(grid * wigner_grid(sigma)) / n - np.trace(rho @ sigma).real) < 1e-12
    assert "ops" not in vars(kernel(n))


def test_factored_round_trip_memory_is_quadratic(rng):
    # the n^4 table at n = 64 would take 268 MB
    n = 64
    rho = random_density(rng, n)
    tracemalloc.start()
    try:
        back = reconstruct(wigner_grid(rho))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert "ops" not in vars(kernel(n))
    np.testing.assert_allclose(back, rho, atol=1e-12)


def test_kernel_table_is_built_once_on_first_access():
    kern = kernel.__wrapped__(3)
    assert "ops" not in vars(kern)
    ops = kern.ops
    assert kern.ops is ops
    assert not ops.flags.writeable
    assert not any(table.flags.writeable for table in vars(kern.factors).values())


def _nearly_hermitian(rng, n):
    # a state moved by an anti-Hermitian part of 1e-12, within the guard's 1e-10
    rho = random_density(rng, n)
    e = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    skew = e - e.conj().T
    return rho + 0.5e-12 * skew / np.abs(skew).max()


@pytest.mark.parametrize("n", [*range(2, 41), 64])
def test_transforms_match_the_full_guard_and_two_put_scatter_bit_for_bit(rng, n):
    for rho in (random_density(rng, n), _nearly_hermitian(rng, n)):
        for m in (rho, np.asfortranarray(rho), rho.T):
            grid = wigner_grid(m)
            assert grid.tobytes() == reference_wigner_grid(m).tobytes()
        for g in (grid, np.asfortranarray(grid), grid.T):
            assert reconstruct(g).tobytes() == reference_reconstruct(g).tobytes()


REFUSAL_DIMS = (12, 13, 16, 32)


def _refusal(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            call()
    assert type(info.value) is ValueError
    return str(info.value)


@pytest.mark.parametrize("n", REFUSAL_DIMS)
@pytest.mark.parametrize(
    "entries, message",
    [
        ({(0, 1): complex(np.nan, 0.0)}, "matrix entries must be finite"),
        ({(0, 1): complex(0.0, np.nan)}, "matrix entries must be finite"),
        ({(2, 2): np.inf}, "matrix entries must be finite"),
        ({(0, 1): np.inf, (1, 0): np.inf}, "matrix entries must be finite"),
        (
            {(0, 1): 1e308, (1, 0): -1e308},
            "matrix entries are too large: the sum of their squared magnitudes overflows",
        ),
        ({(0, 1): 1e-7j}, STATE_GUARD_MESSAGE.format(1e-7)),
    ],
    ids=["nan-real", "nan-imaginary", "inf-diagonal", "inf-pair", "overflowing-pair", "asymmetry-1e-7"],
)
def test_factored_grid_refuses_the_raw_guard_inputs(n, entries, message):
    m = np.eye(n, dtype=complex) / n
    for (i, j), value in entries.items():
        m[i, j] = value
    assert _refusal(lambda: wigner_grid(m)) == message


@pytest.mark.parametrize("n", REFUSAL_DIMS)
def test_factored_grid_reports_the_full_matrix_asymmetry(rng, n):
    m = random_density(rng, n) + 1e-8 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    defect = np.abs(m - m.conj().T).max()
    assert _refusal(lambda: wigner_grid(m)) == STATE_GUARD_MESSAGE.format(defect)
    assert _refusal(lambda: reference_wigner_grid(m)) == STATE_GUARD_MESSAGE.format(defect)


@pytest.mark.parametrize("n", REFUSAL_DIMS)
def test_factored_grid_refuses_an_asymmetry_read_only_through_the_mirror(rng, n):
    # rho[j, k] with (k - j) mod n > n / 2 is read only as the mirror of rho[k, j]
    m = random_density(rng, n)
    j, k = 1, (1 + n // 2 + 1) % n
    assert (k - j) % n > n / 2
    m[j, k] += 3.7e-6 - 2.1e-6j
    asymmetry = np.abs(m - m.conj().T)
    assert asymmetry.argmax() in (j * n + k, k * n + j)
    assert _refusal(lambda: wigner_grid(m)) == STATE_GUARD_MESSAGE.format(asymmetry.max())


@pytest.mark.parametrize("n", REFUSAL_DIMS)
def test_factored_grid_refuses_non_hermitian_input_before_a_dimension_mismatch(n):
    m = np.eye(n, dtype=complex) / n
    m[0, 1] = 1e-7j
    for other in (n - 1, n + 1, 32 if n != 32 else 16):
        assert _refusal(lambda: wigner_grid(m, kernel(other))) == STATE_GUARD_MESSAGE.format(1e-7)


def test_grid_overlap_refuses_an_empty_grid():
    # no NaN from 0 / 0 on the way: the shape check refuses the grid first
    message = "expected an N x N grid or a 2x2x2x2 pair grid, got shape (0, 0)"
    empty = np.zeros((0, 0))
    assert _refusal(lambda: grid_overlap(empty, empty)) == message
    assert _refusal(lambda: grid_overlap(empty, np.eye(2))) == message
