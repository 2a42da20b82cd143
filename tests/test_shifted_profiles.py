"""The shifted-profile steps of ``kernel(n)`` above the table, against the DFT-matrix steps and the table.

Every column of the closed form's c is a cyclic shift of one of at most three profiles: at odd n a
delta, so each phase-point operator is a displaced parity (Gross, J. Math. Phys. 47, 122107
(2006)); at even n a delta (xi = 0), a two-point profile (even xi) and a dense one (odd xi).
"""

import numpy as np
import pytest

from dwigner import kernel, reconstruct, wigner_grid
from dwigner.kernel import _TABLE_MAX
from helpers import (
    _cell_coefficients,
    _phase_point_table,
    dft_steps_reconstruct,
    dft_steps_wigner_grid,
    random_density,
    table_einsum_transforms,
)


def _shift(xi, n):
    # c[m, xi] = profile[(m + s) mod n]
    return xi * (n + 1) // 2 % n if n % 2 else xi // 2


def _profile(xi, n, c):
    p = np.zeros(n, dtype=complex)
    if n % 2 or xi == 0:
        p[0] = 1.0
    elif xi % 2 == 0:
        p[0], p[n // 2] = (1 + 1j) / 2, (1 - 1j) / 2
    else:
        p = c[:, 1]
    return p


@pytest.mark.parametrize("n", [*range(_TABLE_MAX + 1, 41), 64, 128])
def test_transforms_match_the_dft_matrix_steps_and_the_table_einsum(rng, n):
    rho = random_density(rng, n)
    w = rng.normal(size=(n, n))
    grid, back = wigner_grid(rho), reconstruct(w)
    np.testing.assert_allclose(grid, dft_steps_wigner_grid(rho), rtol=0, atol=1e-12)
    np.testing.assert_allclose(back, dft_steps_reconstruct(w), rtol=0, atol=1e-12)
    einsum_grid, einsum_back = table_einsum_transforms(n, rho, w)
    np.testing.assert_allclose(grid, einsum_grid, rtol=0, atol=1e-12)
    np.testing.assert_allclose(back, einsum_back, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", (3, 4))
def test_the_row_at_a_time_einsum_is_the_einsum_over_the_table(rng, n):
    rho = random_density(rng, n)
    w = rng.normal(size=(n, n))
    ops = _phase_point_table(n)
    grid, back = table_einsum_transforms(n, rho, w)
    np.testing.assert_allclose(grid, np.einsum("...ij,ij->...", ops.conj(), rho).real, rtol=0, atol=1e-15)
    np.testing.assert_allclose(back, np.einsum("mn,mnij->ij", w, ops) / n, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", range(2, 41))
def test_every_column_of_c_is_its_class_profile_shifted(n):
    c = _cell_coefficients(n)
    m = np.arange(n)
    for xi in range(n):
        expected = _profile(xi, n, c)[(m + _shift(xi, n)) % n]
        np.testing.assert_allclose(c[:, xi], expected, rtol=0, atol=1e-14, err_msg=f"xi = {xi}")


@pytest.mark.parametrize("n", range(2, 41, 2))
def test_the_kernel_correlates_the_dense_columns_with_the_profile_of_c(n):
    # circulant[mu, j] = conj(p[(j - mu) mod n]) for the dense profile p = c[:, 1]
    c = _cell_coefficients(n)
    idx = np.arange(n)
    expected = c[:, 1].conj()[(idx[None, :] - idx[:, None]) % n]
    np.testing.assert_allclose(kernel(n).factors.circulant, expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", range(3, 16, 2))
def test_odd_n_phase_point_operators_are_displaced_parities(n):
    ops = kernel.__wrapped__(n).ops
    assert (np.count_nonzero(np.abs(ops) > 1e-12, axis=(2, 3)) == n).all()
    idx = np.arange(n)
    parity = np.zeros((n, n))
    parity[(-idx) % n, idx] = 1.0  # |k> -> |-k>
    np.testing.assert_allclose(ops[0, 0], parity, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", (4, 6, 8))
def test_even_xi_columns_have_at_most_two_nonzero_entries(n):
    c = _cell_coefficients(n)
    assert (np.count_nonzero(np.abs(c[:, ::2]) > 1e-12, axis=0) <= 2).all()


@pytest.mark.parametrize("n", (2, 3, 12, 13, 64, 65))
def test_factors_are_quadratic_tables_with_no_dft_matrix(n):
    f = kernel(n).factors
    assert set(vars(f)) == {"gather", "scatter", "circulant", "fold", "spread", "unfold"}
    assert all(table.size <= 2 * n * (n + 2) for table in vars(f).values())
