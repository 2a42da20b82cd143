import warnings

import numpy as np
import pytest

from dwigner import (
    XState,
    bell,
    bell_fano,
    bell_wigner_pair,
    bell_wigner_su4,
    delta_pair,
    fano_extract,
    fano_matrix,
    gisin,
    gisin_from_combinations,
    munro,
    peres_horodecki,
    purity,
    validate_density,
    werner,
    werner_wigner,
    wigner_pair,
    wigner_pair_from_matrix,
    wigner_su4,
    xstate_delta,
    xstate_from_matrix,
    xstate_marginals,
    xstate_reduced_wigner,
    xstate_wigner,
)
from helpers import random_xstate

CP = np.sqrt((2 + np.sqrt(2)) / 2)
CM = np.sqrt((2 - np.sqrt(2)) / 2)
ROOT = np.sqrt(2 - np.sqrt(2))


def test_bell_matrices_and_fano_forms():
    for kind, diag in (
        ("phi+", (1, -1, 1)),
        ("phi-", (-1, 1, 1)),
        ("psi+", (1, 1, -1)),
        ("psi-", (-1, -1, -1)),
    ):
        f = bell_fano(kind)
        np.testing.assert_allclose(f.c, np.diag(diag), atol=1e-15)
        np.testing.assert_allclose(fano_matrix(f), bell(kind), atol=1e-12)
        assert abs(purity(bell(kind)) - 1.0) < 1e-12


def test_bell_unknown_kind():
    with pytest.raises(ValueError, match="unknown"):
        bell("chi+")


def test_bell_pair_values_and_normalization():
    for kind in ("phi+", "phi-", "psi+", "psi-"):
        grid = bell_wigner_pair(kind)
        assert set(np.round(grid.reshape(-1), 12)) == {0.5, -0.5}
        assert abs(grid.sum() / 4 - 1.0) < 1e-12
        np.testing.assert_allclose(
            grid, wigner_pair(fano_extract(bell(kind))), atol=1e-12
        )


def test_bell_pair_first_cell():
    assert abs(bell_wigner_pair("psi+")[0, 0, 0, 0] - 0.5) < 1e-15


def test_bell_su4_extremes():
    for kind in ("psi+", "psi-"):
        grid = bell_wigner_su4(kind)
        assert abs(grid.max() - (0.5 + 0.5 * CP)) < 1e-12
        assert abs(grid.min() - (-0.5 * CM)) < 1e-12
    for kind in ("phi+", "phi-"):
        grid = bell_wigner_su4(kind)
        assert abs(grid.max() - (0.5 + 0.5 * CM)) < 1e-12
        assert abs(grid.min() - (-0.5 * CP)) < 1e-12


def test_bell_su4_against_general_closed_form():
    for kind in ("phi+", "phi-", "psi+", "psi-"):
        np.testing.assert_allclose(
            bell_wigner_su4(kind), wigner_su4(bell(kind)), atol=1e-12
        )


def test_werner_limits():
    np.testing.assert_allclose(werner(1.0), bell("psi-"), atol=1e-12)
    np.testing.assert_allclose(werner(0.25), np.eye(4) / 4, atol=1e-12)


def test_werner_matrix_display():
    fraction = 0.75
    rho = werner(fraction)
    np.testing.assert_allclose(
        np.diag(rho).real,
        [(2 - 2 * fraction) / 6, (1 + 2 * fraction) / 6, (1 + 2 * fraction) / 6, (2 - 2 * fraction) / 6],
        atol=1e-12,
    )
    assert abs(rho[1, 2] - (1 - 4 * fraction) / 6) < 1e-12


def test_werner_is_bell_mixture(rng):
    fraction = rng.uniform()
    mixture = fraction * bell("psi-") + (1 - fraction) / 3 * (
        bell("psi+") + bell("phi+") + bell("phi-")
    )
    np.testing.assert_allclose(werner(fraction), mixture, atol=1e-12)


@pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_werner_pair_values(fraction):
    grid = werner_wigner(fraction, "pair")
    values = set(np.round(grid.reshape(-1), 12))
    expected = {
        round(1 / 6 + fraction / 3, 12),
        round(0.5 - fraction, 12),
    }
    assert values == expected
    np.testing.assert_allclose(grid, wigner_pair(fano_extract(werner(fraction))), atol=1e-12)


def test_werner_su4_against_general_closed_form():
    for fraction in np.linspace(0.0, 1.0, 11):
        np.testing.assert_allclose(
            werner_wigner(fraction, "su4"), wigner_su4(werner(fraction)), atol=1e-12
        )
    np.testing.assert_allclose(werner_wigner(1.0, "su4"), bell_wigner_su4("psi-"), atol=1e-12)


def test_werner_rejects_bad_arguments():
    with pytest.raises(ValueError):
        werner(1.5)
    with pytest.raises(ValueError, match="representation"):
        werner_wigner(0.5, "su3")


def test_xstate_population_validation():
    with pytest.raises(ValueError, match="negative"):
        XState(-0.1, 0.6, 0.3, 0.2)
    with pytest.raises(ValueError, match="sum"):
        XState(0.5, 0.5, 0.5, 0.0)


@pytest.mark.parametrize(
    "fields",
    [(0.5, 0.0, 0.0, 0.5, 1e308), (0.5, 0.0, 0.0, 0.5, 0.0, complex(1e200, 1e200))],
    ids=["rho14", "rho23"],
)
def test_xstate_refuses_finite_fields_whose_squares_overflow(fields):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="X-state fields are too large: the sum of their squared magnitudes"):
            XState(*fields)


def test_xstate_rejects_non_finite_fields():
    with pytest.raises(ValueError, match="finite"):
        XState(np.nan, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="finite"):
        XState(0.5, 0.0, 0.0, 0.5, rho14=complex(0.0, np.inf))
    with pytest.raises(ValueError, match="finite"):
        gisin_from_combinations(np.nan, 0.1, 0.5)
    with pytest.raises(ValueError, match="finite"):
        gisin_from_combinations(0.1, np.nan, 0.5)


@pytest.mark.parametrize(
    "population", (np.complex128(0.5 + 0.3j), 0.5 + 0.3j, 0.5 + 0j), ids=("numpy", "python", "real-valued")
)
def test_xstate_rejects_complex_populations(population):
    with pytest.raises(ValueError, match="real"):
        XState(population, 0.2, 0.2, 0.1)


def test_xstate_block_positivity_flag():
    sound = XState(0.5, 0.0, 0.0, 0.5, rho14=0.49)
    assert sound.is_physical()
    assert validate_density(sound.matrix()).dim == 4
    broken = XState(0.25, 0.25, 0.25, 0.25, rho23=0.4)
    assert not broken.is_physical()


def test_xstate_from_matrix_round_trip(rng):
    x = random_xstate(rng)
    again = xstate_from_matrix(x.matrix())
    np.testing.assert_allclose(again.matrix(), x.matrix(), atol=1e-14)


def test_xstate_from_matrix_rejects_off_pattern():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = m[1, 0] = 0.05
    with pytest.raises(ValueError, match="X-form"):
        xstate_from_matrix(m)


def test_xstate_from_matrix_rejects_non_hermitian_input():
    m = np.eye(4, dtype=complex) / 4
    m[0, 3], m[3, 0] = 0.1, 0.3
    with pytest.raises(ValueError, match="not Hermitian"):
        xstate_from_matrix(m)


def test_xstate_from_matrix_reads_the_hermitian_part():
    m = np.diag([0.4, 0.1, 0.1, 0.4]).astype(complex)
    m[0, 3], m[3, 0] = 0.1 + 1e-7j, 0.1
    m[1, 2], m[2, 1] = 0.05, 0.05 - 1e-7j
    rho = validate_density(m, 1e-5)
    x = xstate_from_matrix(rho)
    assert x.rho14 == 0.1 + 0.5e-7j and x.rho23 == 0.05 + 0.5e-7j
    np.testing.assert_allclose(xstate_wigner(x, "su4"), wigner_su4(rho), rtol=0, atol=1e-15)
    np.testing.assert_allclose(xstate_wigner(x, "pair"), wigner_pair_from_matrix(rho), rtol=0, atol=1e-15)


def test_xstate_su4_first_cell(rng):
    x = random_xstate(rng)
    grid = xstate_wigner(x, "su4")
    expected = x.rho11 - CM * (x.rho14 + x.rho23).real
    assert abs(grid[0, 0] - expected) < 1e-12


def test_xstate_su4_coherence_free_is_nu_independent():
    x = XState(0.4, 0.3, 0.2, 0.1)
    grid = xstate_wigner(x, "su4")
    for mu in range(4):
        assert np.max(np.abs(grid[mu] - grid[mu, 0])) < 1e-14


def test_xstate_forms_match_general_state_functions(rng):
    for _ in range(50):
        x = random_xstate(rng)
        m = x.matrix()
        np.testing.assert_allclose(xstate_wigner(x, "su4"), wigner_su4(m), atol=1e-12)
        np.testing.assert_allclose(
            xstate_wigner(x, "pair"), wigner_pair_from_matrix(m), atol=1e-12
        )


def test_xstate_reduced_forms(rng):
    x = random_xstate(rng)
    pair = xstate_wigner(x, "pair")
    np.testing.assert_allclose(
        xstate_reduced_wigner(x, 1), pair.sum(axis=(2, 3)) / 2, atol=1e-12
    )
    np.testing.assert_allclose(
        xstate_reduced_wigner(x, 2), pair.sum(axis=(0, 1)) / 2, atol=1e-12
    )
    for fraction in (0.0, 0.5, 1.0):
        w = xstate_from_matrix(werner(fraction))
        np.testing.assert_allclose(xstate_reduced_wigner(w, 1), 0.5, atol=1e-12)
        np.testing.assert_allclose(xstate_reduced_wigner(w, 2), 0.5, atol=1e-12)


def test_xstate_reduced_pure_level():
    x = XState(1.0, 0.0, 0.0, 0.0)
    np.testing.assert_allclose(
        xstate_reduced_wigner(x, 1), [[1.0, 1.0], [0.0, 0.0]], atol=1e-14
    )


def test_marginal_normalization_and_mu_half_sum(rng):
    x = random_xstate(rng)
    marginals = xstate_marginals(x)
    assert abs(np.sum(marginals.mu_marginal) / 2 - 1.0) < 1e-12
    assert abs(np.sum(marginals.nu_marginal) / 2 - 1.0) < 1e-12
    grid = xstate_wigner(x, "su4")
    np.testing.assert_allclose(marginals.mu_marginal, grid.sum(axis=1) / 2, atol=1e-12)


def test_nu_marginal_halves_the_column_sum(rng):
    # the antidiagonal marginal convention carries half the coherence
    # weight of the raw column half-sum; the headline signature values
    # (0.26 .. 0.65) are defined with this convention, pinned here
    x = random_xstate(rng)
    marginals = xstate_marginals(x)
    column = xstate_wigner(x, "su4").sum(axis=0) / 2
    np.testing.assert_allclose(
        marginals.nu_marginal - 0.5, (column - 0.5) / 2, atol=1e-12
    )


def test_marginal_coherence_free():
    x = XState(0.4, 0.3, 0.2, 0.1)
    np.testing.assert_allclose(xstate_marginals(x).nu_marginal, 0.5, atol=1e-14)


def test_munro_nu_marginal_closed_form():
    for gamma in (0.25, 0.5, 0.75, 1.0):
        marg = xstate_marginals(munro(gamma))
        for nu in range(4):
            expected = 0.5 + (ROOT / 2) * (gamma / 2) * (-1.0) ** nu * np.cos(nu * np.pi / 2)
            assert abs(marg.nu_marginal[nu] - expected) < 1e-12


# reference correlation-signature table: W, marginal product, and difference
# columns for every cell, as functions of the six X-state entries
def _table5(x):
    p = (x.rho11, x.rho22, x.rho33, x.rho44)
    re_p = (x.rho14 + x.rho23).real
    im_m = (x.rho14 - x.rho23).imag
    rows = {}
    for nu, coh in ((0, re_p), (1, im_m), (2, -re_p), (3, -im_m)):
        rows[(0, nu)] = (
            p[0] + (-CM) * coh,
            p[0] + ROOT * p[0] * coh,
            -CM * (1 + np.sqrt(2) * p[0]) * coh,
        )
        rows[(1, nu)] = (
            p[1] + CP * coh,
            p[1] + ROOT * p[1] * coh,
            CP * (1 - (2 - np.sqrt(2)) * p[1]) * coh,
        )
        rows[(2, nu)] = (
            p[2] + CP * coh,
            p[2] + ROOT * p[2] * coh,
            CP * (1 - (2 - np.sqrt(2)) * p[2]) * coh,
        )
        rows[(3, nu)] = (
            p[3] + (-CM) * coh,
            p[3] + ROOT * p[3] * coh,
            -CM * (1 + np.sqrt(2) * p[3]) * coh,
        )
    return rows


def test_delta_matches_reference_table(rng):
    for _ in range(50):
        x = random_xstate(rng)
        grid = xstate_wigner(x, "su4")
        marginals = xstate_marginals(x)
        product = np.outer(marginals.mu_marginal, marginals.nu_marginal)
        delta = xstate_delta(x)
        for (mu, nu), (w_val, qr_val, d_val) in _table5(x).items():
            assert abs(grid[mu, nu] - w_val) < 1e-12
            assert abs(product[mu, nu] - qr_val) < 1e-12
            assert abs(delta[mu, nu] - d_val) < 1e-12


def test_delta_of_coherence_free_state():
    np.testing.assert_allclose(xstate_delta(XState(0.4, 0.3, 0.2, 0.1)), 0.0, atol=1e-14)


def test_munro_populations():
    x = munro(0.5)
    np.testing.assert_allclose(
        [x.rho11, x.rho22, x.rho33, x.rho44], [1 / 3, 1 / 3, 0.0, 1 / 3], atol=1e-15
    )
    assert x.rho14 == 0.25


def test_munro_pure_limit_is_bell_state():
    np.testing.assert_allclose(munro(1.0).matrix(), bell("phi+"), atol=1e-12)


def test_munro_branch_continuity():
    below = munro(2 / 3 - 1e-12)
    above = munro(2 / 3)
    assert abs(below.rho11 - above.rho11) < 1e-9


def test_munro_wigner_closed_form():
    # independent evaluation of the dedicated closed form for this family
    from dwigner.generators import _mu_ratio

    for gamma in (0.0, 0.25, 0.5, 2 / 3, 0.75, 1.0):
        g = gamma / 2 if gamma >= 2 / 3 else 1 / 3
        grid = np.empty((4, 4))
        for mu in range(4):
            d = [float(mu % 4 == k) for k in range(4)]
            base = (
                0.25
                - 0.25 * (d[0] - 3 * d[1] + d[2] + d[3])
                + (d[0] - 2 * d[1] + d[3]) * g
            )
            for nu in range(4):
                grid[mu, nu] = base + (gamma / 4) * _mu_ratio(mu, 1.5) * (-1.0) ** nu * np.cos(
                    nu * np.pi / 2
                )
        np.testing.assert_allclose(xstate_wigner(munro(gamma), "su4"), grid, atol=1e-12)


def test_munro_delta_values():
    expectations = {
        (0.5, 1, 0): 0.26,
        (0.5, 2, 0): 0.33,
        (0.75, 1, 0): 0.42,
        (0.75, 2, 0): 0.49,
        (1.0, 1, 0): 0.65,
        (1.0, 2, 0): 0.65,
    }
    for (gamma, mu, nu), value in expectations.items():
        delta = xstate_delta(munro(gamma))
        assert abs(delta[mu, nu] - value) < 5e-3
        assert abs(delta[mu, 2] + value) < 5e-3  # sign-flipped partner


def test_peres_horodecki_family():
    for x in (0.0, 0.3, 1.0):
        state = peres_horodecki(x)
        assert abs(np.sum(state.populations) - 1.0) < 1e-12
    np.testing.assert_allclose(peres_horodecki(1.0).matrix(), bell("psi-"), atol=1e-12)
    np.testing.assert_allclose(xstate_delta(peres_horodecki(0.0)), 0.0, atol=1e-14)
    delta = xstate_delta(peres_horodecki(1.0))
    np.testing.assert_allclose(
        delta, xstate_delta(xstate_from_matrix(bell("psi-"))), atol=1e-12
    )
    assert abs(np.max(np.abs(delta)) - 0.25 * np.sqrt(2 + np.sqrt(2))) < 1e-12
    with pytest.raises(ValueError):
        peres_horodecki(1.2)


def test_gisin_populations_and_trace(rng):
    for _ in range(20):
        b = rng.uniform(0.0, 0.6)
        a = b + rng.uniform(0.01, 0.4)
        x = rng.uniform(0.0, 1.0)
        if a * a - b * b > 0.5:
            continue
        state = gisin(a, b, x)
        assert abs(np.sum(state.populations) - 1.0) < 1e-12
        assert state.rho23 == pytest.approx(-a * b * x)


def test_gisin_coherence_free_limit():
    np.testing.assert_allclose(xstate_delta(gisin(0.5, 0.2, 0.0)), 0.0, atol=1e-14)


@pytest.mark.parametrize(
    "family, args, message",
    [
        (munro, (1.5,), "purity parameter must lie in"),
        (munro, (-0.1,), "purity parameter must lie in"),
        (peres_horodecki, (1.2,), "parameter must lie in"),
        (gisin_from_combinations, (0.1, 0.1, 2.0), "mixing parameter must lie in"),
    ],
    ids=["munro-above-1", "munro-below-0", "peres-horodecki-above-1", "gisin-x-2"],
)
def test_family_parameters_outside_their_range_are_refused(family, args, message):
    with pytest.raises(ValueError, match=message):
        family(*args)


def test_gisin_rejects_negative_population():
    with pytest.raises(ValueError, match="rho33"):
        gisin_from_combinations(0.7, 0.1, 1.0)
    with pytest.raises(ValueError, match="a > b"):
        gisin(0.2, 0.5, 1.0)


def test_gisin_quoted_maximum():
    state = gisin_from_combinations(np.sqrt(2) / 4, 0.5, 1.0)
    assert abs(np.max(np.abs(xstate_delta(state))) - 0.60) < 5e-3


def test_gisin_quoted_point_is_not_a_state():
    # the README's sentence: the quoted point has the eigenvalue -0.112, so it is no state
    state = gisin_from_combinations(np.sqrt(2) / 4, 0.5, 1.0)
    assert not state.is_physical()
    assert abs(np.linalg.eigvalsh(state.matrix())[0] + 0.1124) <= 1e-4


def test_delta_hierarchy():
    ph = np.max(np.abs(xstate_delta(peres_horodecki(1.0))))
    gs = np.max(np.abs(xstate_delta(gisin_from_combinations(np.sqrt(2) / 4, 0.5, 1.0))))
    phi = np.max(np.abs(xstate_delta(xstate_from_matrix(bell("phi+")))))
    assert ph < gs < phi
    assert abs(ph - 0.46) < 5e-3
    assert abs(gs - 0.60) < 5e-3
    assert abs(phi - 0.65) < 5e-3


def test_bell_delta_bounds():
    psi_bound = 0.25 * np.sqrt(2 + np.sqrt(2))
    phi_bound = 0.5 * CP
    for kind, bound in (("psi+", psi_bound), ("psi-", psi_bound), ("phi+", phi_bound), ("phi-", phi_bound)):
        delta = xstate_delta(xstate_from_matrix(bell(kind)))
        assert np.max(np.abs(delta)) <= bound + 1e-12
        assert abs(np.max(np.abs(delta)) - bound) < 1e-12  # attained on the grid


def test_pair_delta_of_werner_cases():
    cases = {
        1.0: {-0.75, 0.25},
        0.5: {-0.25, round(1 / 12, 12)},
        0.25: {0.0},
        0.0: {round(-1 / 12, 12), 0.25},
    }
    for fraction, expected in cases.items():
        delta = delta_pair(fano_extract(werner(fraction)))
        assert set(np.round(delta.reshape(-1), 12)) == expected


def test_gisin_coherence_bound_is_rho23_squared_against_rho22_rho33():
    # |rho23|^2 <= rho22 rho33 reads p^2 <= 1/4 - s^2 for every mixing x > 0
    s = 0.3
    assert gisin_from_combinations(s, np.sqrt(0.25 - s * s), 0.7).is_physical()
    outside = gisin_from_combinations(s, np.sqrt(0.25 - s * s) + 1e-4, 0.7)
    assert not outside.is_physical()
    assert np.linalg.eigvalsh(outside.matrix())[0] < 0
