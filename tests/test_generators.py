import warnings

import numpy as np
import pytest

from dwigner import (
    GeneratorSet,
    bell,
    bloch_vector,
    density_from_bloch,
    generator_from_schwinger,
    generator_representative,
    generators,
    kernel,
    purity,
    structure_constants,
    verify_algebra,
    wigner_grid,
    wigner_su2,
    wigner_su4,
)
from dwigner.kernel import _clock_shift_coefficients
from helpers import clock_shift_sum, printed_clock_shift_coefficients, random_density

CP = np.sqrt((2 + np.sqrt(2)) / 2)
CM = np.sqrt((2 - np.sqrt(2)) / 2)


def test_generator_counts():
    assert len(generators(2)) == 3
    assert len(generators(4)) == 15


def test_unsupported_dimension():
    with pytest.raises(ValueError):
        generators(3)


@pytest.mark.parametrize("n", (4.0, True, "4"))
def test_generators_refuse_a_dimension_that_is_not_an_integer(n):
    with pytest.raises(ValueError, match="dimension must be an integer"):
        generators(n)
    with pytest.raises(ValueError, match="dimension must be an integer"):
        density_from_bloch(np.zeros(15), n)
    with pytest.raises(ValueError, match="dimension must be an integer"):
        generator_representative(0, 0, 0, dim=n)


def test_generators_of_a_numpy_integer_are_the_cached_set():
    assert generators(np.int64(4)) is generators(4)
    assert generators(np.int32(2)) is generators(2)
    assert generator_representative(7, 2, 3, dim=np.int64(4)) == generator_representative(7, 2, 3)


def test_eighth_generator_matrix():
    np.testing.assert_allclose(
        generators(4)[7], np.diag([1, 1, -2, 0]) / np.sqrt(3), atol=1e-15
    )


@pytest.mark.parametrize("n", (2, 4))
def test_orthonormality(n):
    gs = generators(n)
    for i, gi in enumerate(gs):
        assert abs(np.trace(gi)) < 1e-15
        np.testing.assert_allclose(gi, gi.conj().T, atol=1e-15)
        for j, gj in enumerate(gs):
            assert abs(np.trace(gi @ gj) - 2.0 * (i == j)) < 1e-12


def test_schwinger_expression_population_difference():
    np.testing.assert_allclose(
        generator_from_schwinger(2), np.diag([1, -1, 0, 0]), atol=1e-12
    )


def test_schwinger_expression_level_zero_two_coupling():
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = expected[2, 0] = 1.0
    np.testing.assert_allclose(generator_from_schwinger(3), expected, atol=1e-12)


def test_all_schwinger_expressions_match_matrices():
    gs = generators(4)
    for i in range(15):
        np.testing.assert_allclose(generator_from_schwinger(i), gs[i], atol=1e-12)


@pytest.mark.parametrize("i", range(15))
def test_printed_clock_shift_polynomials_are_the_gather_dft_coefficients(i):
    # the paper's printed terms are the oracle: the same support and values as the coefficients
    # the gather and DFT compute from generators(4)[i], and their sum is that generator
    printed = printed_clock_shift_coefficients(i)
    chi = _clock_shift_coefficients(generators(4)[i])
    assert np.array_equal(np.abs(chi) > 1e-12, printed != 0)
    assert np.max(np.abs(chi - printed)) <= 1e-15
    np.testing.assert_allclose(clock_shift_sum(printed), generators(4)[i], rtol=0, atol=1e-12)


def test_schwinger_expression_index_range():
    with pytest.raises(IndexError):
        generator_from_schwinger(15)


def test_structure_constants_qubit_case():
    sc = structure_constants(generators(2))
    levi_civita = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        levi_civita[i, j, k] = 1.0
        levi_civita[j, i, k] = -1.0
    np.testing.assert_allclose(sc.antisymmetric, levi_civita, atol=1e-12)
    np.testing.assert_allclose(sc.symmetric, 0.0, atol=1e-12)


# published su(4) structure constants, 1-based Gell-Mann labels: the su(3) block
# (Gell-Mann, Phys. Rev. 125, 1067 (1962)) and three entries checked by hand from the traces
SU4_ANTISYMMETRIC = (
    ((1, 2, 3), 1.0),
    ((1, 4, 7), 0.5), ((2, 4, 6), 0.5), ((2, 5, 7), 0.5), ((3, 4, 5), 0.5),
    ((1, 5, 6), -0.5), ((3, 6, 7), -0.5),
    ((4, 5, 8), np.sqrt(3) / 2), ((6, 7, 8), np.sqrt(3) / 2),
    ((13, 14, 15), np.sqrt(2 / 3)),
)
SU4_SYMMETRIC = (
    ((1, 1, 8), 1 / np.sqrt(3)), ((8, 8, 8), -1 / np.sqrt(3)),
    ((1, 4, 6), 0.5), ((4, 4, 8), -1 / (2 * np.sqrt(3))),
    ((1, 1, 15), 1 / np.sqrt(6)), ((15, 15, 15), -2 / np.sqrt(6)),
)


@pytest.mark.parametrize("labels, value", SU4_ANTISYMMETRIC)
def test_su4_antisymmetric_published_values(labels, value):
    f = structure_constants(generators(4)).antisymmetric
    i, j, k = (label - 1 for label in labels)
    for (a, b, c), sign in (((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1), ((j, i, k), -1)):
        assert f[a, b, c] == pytest.approx(sign * value, abs=1e-12)


@pytest.mark.parametrize("labels, value", SU4_SYMMETRIC)
def test_su4_symmetric_published_values(labels, value):
    d = structure_constants(generators(4)).symmetric
    i, j, k = (label - 1 for label in labels)
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j), (j, i, k)):
        assert d[a, b, c] == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("n", (2, 4))
def test_antisymmetric_tensor_vanishing_diagonal(n):
    f = structure_constants(generators(n)).antisymmetric
    count = n * n - 1
    for i in range(count):
        np.testing.assert_allclose(f[i, i, :], 0.0, atol=1e-12)


def test_triple_trace_random_triples(rng):
    gs = generators(4)
    sc = structure_constants(gs)
    j = sc.symmetric + 1j * sc.antisymmetric
    for _ in range(50):
        a, b, c = rng.integers(0, 15, size=3)
        direct = np.trace(gs[a] @ gs[b] @ gs[c])
        assert abs(direct - 2 * j[a, b, c]) < 1e-12


@pytest.mark.parametrize("n", (2, 4))
def test_verify_algebra_passes(n):
    report = verify_algebra(generators(n))
    assert report.all_pass, report.deviations


@pytest.mark.parametrize("n", (2, 4))
def test_generator_stack_is_built_once(n):
    gs = generators(n)
    assert gs.stack() is gs.stack()
    assert not gs.stack().flags.writeable
    np.testing.assert_array_equal(gs.stack(), np.stack(gs.matrices))


def test_verify_algebra_negative_control():
    gs = generators(4)
    scaled = GeneratorSet(dim=4, matrices=(2.0 * gs[0],) + gs.matrices[1:])
    report = verify_algebra(scaled)
    results = report.results
    assert not results["orthonormality"]
    assert not results["quartic_trace"]


def test_bloch_vector_closed_forms(rng):
    rho = random_density(rng, 4)
    v = bloch_vector(rho)
    assert abs(v[0] - 2 * rho[0, 1].real) < 1e-12
    assert abs(
        v[14]
        - (rho[0, 0].real + rho[1, 1].real + rho[2, 2].real - 3 * rho[3, 3].real) / np.sqrt(6)
    ) < 1e-12


def test_bloch_vector_maximally_mixed():
    np.testing.assert_allclose(bloch_vector(np.eye(4) / 4), 0.0, atol=1e-14)


def test_bloch_vector_reads_the_one_generator_set_of_its_dimension():
    with pytest.raises(ValueError, match="unsupported dimension 3; expected 2 or 4"):
        bloch_vector(np.eye(3) / 3)


@pytest.mark.parametrize("n", (2, 4))
def test_bloch_round_trip_and_purity_identity(rng, n):
    rho = random_density(rng, n)
    v = bloch_vector(rho)
    np.testing.assert_allclose(density_from_bloch(v, n), rho, atol=1e-12)
    assert abs(purity(rho) - (1 / n + 0.5 * v @ v)) < 1e-12


def test_representative_population_difference():
    for mu in range(4):
        for nu in range(4):
            expected = float(mu % 4 == 0) - float(mu % 4 == 1)
            assert generator_representative(2, mu, nu) == expected


def test_representatives_vanish_for_two_generators():
    for i in (4, 11):
        for mu in range(4):
            for nu in range(4):
                assert generator_representative(i, mu, nu) == 0.0


def test_representative_total_over_integers():
    assert generator_representative(2, 4, 0) == generator_representative(2, 0, 0)
    assert generator_representative(0, -1, 2) == pytest.approx(
        generator_representative(0, 3, 2), abs=1e-12
    )


def test_representative_index_errors():
    with pytest.raises(IndexError):
        generator_representative(15, 0, 0)
    with pytest.raises(IndexError):
        generator_representative(3, 0, 0, dim=2)
    with pytest.raises(ValueError):
        generator_representative(0, 0, 0, dim=3)


@pytest.mark.parametrize("index", ((0, 0.5, 0), (2, np.nan, 0), (0, 0, 0.5), (1.0, 0, 0)))
def test_representative_rejects_non_integer_indices(index):
    with pytest.raises(ValueError, match="integer"):
        generator_representative(*index)


def test_representative_takes_numpy_integers():
    for i, mu, nu in ((0, 1, 2), (7, 2, 3), (14, 3, 1)):
        assert generator_representative(np.int64(i), np.int32(mu), np.uint8(nu)) == (
            generator_representative(i, mu, nu)
        )


def test_qubit_representatives_match_kernel():
    k = kernel(2)
    gs = generators(2)
    for i in range(3):
        for mu in range(2):
            for nu in range(2):
                via_kernel = np.trace(k[mu, nu].conj().T @ gs[i]).real
                assert abs(generator_representative(i, mu, nu, dim=2) - via_kernel) < 1e-12


def test_diagonal_representatives_match_kernel():
    # the closed forms for the three diagonal generators agree with the
    # invertible kernel; the coherence-sector closed forms follow the
    # standard non-invertible four-level convention and deviate
    k = kernel(4)
    gs = generators(4)
    for i in (2, 7, 14):
        for mu in range(4):
            for nu in range(4):
                via_kernel = np.trace(k[mu, nu].conj().T @ gs[i]).real
                assert abs(generator_representative(i, mu, nu) - via_kernel) < 1e-12


def test_closed_form_representatives_are_not_a_tight_frame():
    # Regression pin of a structural fact: two closed-form representatives
    # vanish identically and two carry doubled weight, so the closed-form
    # four-level phase-space map is not invertible and cannot agree with
    # any trace-orthogonal kernel.  The invertible kernel therefore
    # deviates from the closed forms on coherence sectors by design.
    table = np.array(
        [
            [[generator_representative(i, mu, nu) for nu in range(4)] for mu in range(4)]
            for i in range(15)
        ]
    )
    norms = np.einsum("imn,imn->i", table, table) / 4.0
    np.testing.assert_allclose(norms[[4, 11]], 0.0, atol=1e-12)
    np.testing.assert_allclose(norms[[3, 10]], 4.0, atol=1e-12)
    others = [i for i in range(15) if i not in (3, 4, 10, 11)]
    np.testing.assert_allclose(norms[others], 2.0, atol=1e-12)


# The four-level convention written out generator by generator, with the
# qubit parities: the test oracle for the tables generator_representative
# reads (su4_kernel()'s stack at dimension 4).
def _cos_half(nu):
    return float((1, 0, -1, 0)[nu % 4])


def _sin_half(nu):
    return float((0, 1, 0, -1)[nu % 4])


def _alternating(nu):
    return float(1 - 2 * (nu % 2))


def _delta4(mu, k):
    return 1.0 if mu % 4 == k else 0.0


def _closed_form_representative(i, mu, nu):
    from dwigner.generators import _mu_ratio

    mu %= 4
    nu %= 4
    forms = (
        lambda: 0.5 * _cos_half(nu) * _mu_ratio(mu, 0.5),
        lambda: 0.5 * _sin_half(nu) * _mu_ratio(mu, 0.5),
        lambda: _delta4(mu, 0) - _delta4(mu, 1),
        lambda: 2.0 * _alternating(nu) * _delta4(mu, 1),
        lambda: 0.0,  # 2 sin(nu pi) vanishes at every integer point
        lambda: 0.5 * _cos_half(nu) * _mu_ratio(mu, 1.5),
        lambda: 0.5 * _sin_half(nu) * _mu_ratio(mu, 1.5),
        lambda: (_delta4(mu, 0) + _delta4(mu, 1) - 2.0 * _delta4(mu, 2)) / np.sqrt(3),
        lambda: 0.5 * _alternating(nu) * _cos_half(nu) * _mu_ratio(mu, 1.5),
        lambda: 0.5 * _alternating(nu) * _sin_half(nu) * _mu_ratio(mu, 1.5),
        lambda: 2.0 * _alternating(nu) * _delta4(mu, 2),
        lambda: 0.0,  # 2 sin(nu pi) vanishes at every integer point
        lambda: 0.5 * _cos_half(nu) * _mu_ratio(mu, 2.5),
        lambda: 0.5 * _sin_half(nu) * _mu_ratio(mu, 2.5),
        lambda: (_delta4(mu, 0) + _delta4(mu, 1) + _delta4(mu, 2) - 3.0 * _delta4(mu, 3)) / np.sqrt(6),
    )
    return float(forms[i]())


def _closed_form_parity(i, mu, nu):
    return (_alternating(nu), _alternating(mu + nu + 1), _alternating(mu))[i]


@pytest.mark.parametrize("i", range(15))
def test_representatives_equal_the_closed_forms(i):
    # equal as floats, so bit for bit up to the sign of a zero: a zero cosine times a
    # negative ratio is -0.0 in the formula and +0.0 in the table
    for mu in range(-4, 8):
        for nu in range(-4, 8):
            assert generator_representative(i, mu, nu) == _closed_form_representative(i, mu, nu), (mu, nu)


@pytest.mark.parametrize("i", range(3))
def test_qubit_representatives_equal_the_parities(i):
    for mu in range(-4, 8):
        for nu in range(-4, 8):
            assert generator_representative(i, mu, nu, dim=2) == _closed_form_parity(i, mu, nu), (mu, nu)


def test_su4_stack_is_exactly_hermitian_with_unit_trace_and_population_diagonal():
    from dwigner.generators import su4_kernel

    ops = su4_kernel().ops
    assert ops.shape == (4, 4, 4, 4)
    for mu in range(4):
        for nu in range(4):
            op = ops[mu, nu]
            assert np.array_equal(op, op.conj().T), (mu, nu)
            assert np.trace(op) == 1.0, (mu, nu)
            assert np.array_equal(np.diag(op), np.eye(4)[mu]), (mu, nu)


@pytest.mark.parametrize("kind", ["phi+", "phi-", "psi+", "psi-"])
def test_bell_su4_grids_are_exactly_zero_where_the_closed_form_is(kind):
    rho = bell(kind)
    components = bloch_vector(rho)
    expected = np.array(
        [
            [0.25 + 0.5 * sum(_closed_form_representative(i, mu, nu) * components[i] for i in range(15))
             for nu in range(4)]
            for mu in range(4)
        ]
    )
    zeros = np.abs(expected) < 1e-12
    assert zeros.sum() == 4
    grid = wigner_su4(rho)
    np.testing.assert_allclose(grid, expected, atol=1e-12)
    assert np.all(grid[zeros] == 0.0)


@pytest.mark.parametrize("i", [1.0, "3", np.nan, True, np.True_, 2.5])
def test_schwinger_expression_refuses_a_bool_or_non_integer_index(i):
    with pytest.raises(ValueError, match="i must be an integer"):
        generator_from_schwinger(i)


@pytest.mark.parametrize("i", [-1, 15, np.int64(15)])
def test_schwinger_expression_keeps_index_error_out_of_range(i):
    with pytest.raises(IndexError, match=r"generator index -?\d+ out of range \[0, 15\)"):
        generator_from_schwinger(i)


def test_schwinger_expression_takes_numpy_integers():
    assert np.array_equal(generator_from_schwinger(np.int32(3)), generator_from_schwinger(3))


@pytest.mark.parametrize(
    "index, name",
    [((True, 0, 0), "i"), ((np.True_, 0, 0), "i"), ((0, False, 0), "mu"), ((0, 0, True), "nu")],
)
@pytest.mark.parametrize("dim", [2, 4])
def test_representative_refuses_a_bool_index(index, name, dim):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        generator_representative(*index, dim=dim)


@pytest.mark.parametrize("i, dim", [(-1, 4), (-1, 2)])
def test_representative_keeps_index_error_out_of_range(i, dim):
    with pytest.raises(IndexError, match=f"out of range \\[0, {dim * dim - 1}\\)"):
        generator_representative(i, 0, 0, dim=dim)


def test_wigner_su2_table_column():
    grid = wigner_su2([0.0, 0.0, 1.0])
    np.testing.assert_allclose(grid, [[1.0, 1.0], [0.0, 0.0]], atol=1e-12)


def test_wigner_su2_unpolarized():
    np.testing.assert_allclose(wigner_su2(np.zeros(3)), 0.5, atol=1e-15)


def test_wigner_su2_rejects_long_vectors():
    with pytest.raises(ValueError, match="unit ball"):
        wigner_su2([1.0, 1.0, 0.0])


@pytest.mark.parametrize("p", ([0.0, 0.0], np.zeros((3, 1))), ids=("two-components", "column"))
def test_wigner_su2_rejects_a_vector_of_the_wrong_shape(p):
    with pytest.raises(ValueError, match="expected a 3-component polarization vector"):
        wigner_su2(p)


def test_wigner_su2_rejects_non_finite_vectors():
    with pytest.raises(ValueError, match="finite"):
        wigner_su2([np.nan] * 3)


def test_wigner_su2_refuses_finite_vectors_whose_squares_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="components are too large: the sum of their squared magnitudes"):
            wigner_su2([1e308] * 3)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_density_from_bloch_rejects_non_finite_components(n, value):
    components = np.zeros(n * n - 1)
    components[0] = value
    with pytest.raises(ValueError, match="finite"):
        density_from_bloch(components, n)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("value", [1e308, -1e308, 1e200])
def test_density_from_bloch_refuses_finite_components_whose_squares_overflow(n, value):
    components = np.zeros(n * n - 1)
    components[-1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="components are too large: the sum of their squared magnitudes"):
            density_from_bloch(components, n)


@pytest.mark.parametrize("n, count", [(2, 4), (4, 3)])
def test_density_from_bloch_rejects_the_wrong_number_of_components(n, count):
    with pytest.raises(ValueError, match=f"expected {n * n - 1} components, got shape \\({count},\\)"):
        density_from_bloch(np.zeros(count), n)


def test_wigner_su2_matrix_element_form(rng):
    for _ in range(100):
        rho = random_density(rng, 2)
        grid = wigner_su2(bloch_vector(rho))
        r11, r12, r22 = rho[0, 0].real, rho[0, 1], rho[1, 1].real
        expected = np.array(
            [
                [r11 + r12.real + r12.imag, r11 - r12.real - r12.imag],
                [r22 + r12.real - r12.imag, r22 - r12.real + r12.imag],
            ]
        )
        np.testing.assert_allclose(grid, expected, atol=1e-12)
        np.testing.assert_allclose(grid, wigner_grid(rho), atol=1e-12)


def test_wigner_su4_maximally_mixed():
    np.testing.assert_allclose(wigner_su4(np.eye(4) / 4), 0.25, atol=1e-14)


def test_wigner_su4_first_cell_closed_form(rng):
    rho = random_density(rng, 4)
    expected = (
        rho[0, 0].real
        + CP * rho[0, 1].real
        - CM * (rho[0, 3] + rho[1, 2] - rho[2, 3]).real
    )
    assert abs(wigner_su4(rho)[0, 0] - expected) < 1e-12


def test_wigner_su4_normalization(rng):
    for _ in range(100):
        grid = wigner_su4(random_density(rng, 4))
        assert abs(np.sum(grid) / 4 - 1.0) < 1e-12


def test_wigner_su4_purity_identity_on_antidiagonal_states(rng):
    # the closed form preserves purity exactly on states whose
    # (0,2) and (1,3) coherences vanish; elsewhere those terms are lost
    from helpers import random_xstate

    for _ in range(50):
        x = random_xstate(rng)
        if abs((x.rho14 * x.rho23).real) > 1e-12:
            continue  # cross term between the two antidiagonal sectors survives
        grid = wigner_su4(x.matrix())
        assert abs(np.sum(grid * grid) / 4 - purity(x.matrix())) < 1e-10


def test_wigner_su4_discards_two_coherence_directions():
    # regression pin: the closed form cannot see Im(rho_02) or Im(rho_13)
    base = np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex)
    coherent = base.copy()
    coherent[0, 2] = 0.5j
    coherent[2, 0] = -0.5j
    np.testing.assert_allclose(wigner_su4(base), wigner_su4(coherent), atol=1e-14)


def test_surd_coefficients():
    # the trig ratio weights evaluate to the quarter-angle surds with the
    # sign patterns used throughout the closed forms
    from dwigner.generators import _mu_ratio

    half = {mu: 0.5 * _mu_ratio(mu, 0.5) for mu in range(4)}
    np.testing.assert_allclose(
        [half[0], half[1], half[2], half[3]], [CP, CP, -CM, CM], atol=1e-12
    )
    mid = {mu: 0.5 * _mu_ratio(mu, 1.5) for mu in range(4)}
    np.testing.assert_allclose(
        [mid[0], mid[1], mid[2], mid[3]], [-CM, CP, CP, -CM], atol=1e-12
    )
    upper = {mu: 0.5 * _mu_ratio(mu, 2.5) for mu in range(4)}
    np.testing.assert_allclose(
        [upper[0], upper[1], upper[2], upper[3]], [CM, -CM, CP, CP], atol=1e-12
    )
