"""Property tests of the phase-point kernel over random states, N = 2..8, and of the pair grid."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dwigner import purity, reconstruct, schwinger_pair, wigner_grid, wigner_pair_from_matrix, wigner_su2
from dwigner.generators import PAULI_X, PAULI_Y, PAULI_Z

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def _density(parts):
    # a a† + I/10, normalized: full rank, so no draw is degenerate
    a = parts[0] + 1j * parts[1]
    h = a @ a.conj().T + np.eye(a.shape[0]) / 10
    return h / np.trace(h).real


def densities(n):
    return hnp.arrays(float, (2, n, n), elements=st.floats(-1.0, 1.0)).map(_density)


DIMS = st.integers(min_value=2, max_value=8)
density_matrices = DIMS.flatmap(densities)
density_pairs = DIMS.flatmap(lambda n: st.tuples(densities(n), densities(n)))


@PROPERTY_SETTINGS
@given(density_matrices)
def test_clock_conjugation_shifts_the_nu_axis(rho):
    u = schwinger_pair(rho.shape[0]).u
    shifted = wigner_grid(u @ rho @ u.conj().T)
    np.testing.assert_allclose(shifted, np.roll(wigner_grid(rho), 1, axis=1), atol=1e-12)


@PROPERTY_SETTINGS
@given(density_matrices)
def test_shift_conjugation_shifts_the_mu_axis(rho):
    v = schwinger_pair(rho.shape[0]).v
    shifted = wigner_grid(v @ rho @ v.conj().T)
    np.testing.assert_allclose(shifted, np.roll(wigner_grid(rho), -1, axis=0), atol=1e-12)


@PROPERTY_SETTINGS
@given(density_matrices)
def test_round_trip(rho):
    np.testing.assert_allclose(reconstruct(wigner_grid(rho)), rho, atol=1e-12)


@PROPERTY_SETTINGS
@given(density_pairs)
def test_parseval(pair):
    rho, sigma = pair
    n = rho.shape[0]
    grid = wigner_grid(rho)
    assert abs(np.sum(grid) / n - 1.0) < 1e-12
    assert abs(np.sum(grid * grid) / n - purity(rho)) < 1e-12
    overlap = np.trace(rho @ sigma).real
    assert abs(np.sum(grid * wigner_grid(sigma)) / n - overlap) < 1e-12


def _hermitian_unit_trace(parts):
    # I/4 plus a traceless Hermitian part with entries of at most 0.1,
    # so both reduced Bloch vectors lie inside the unit ball
    a = parts[0] + 1j * parts[1]
    h = (a + a.conj().T) / 2
    return np.eye(4) / 4 + h - np.trace(h).real / 4 * np.eye(4)


def _reduced_bloch(rho, which):
    t = rho.reshape(2, 2, 2, 2)
    reduced = np.einsum("ijkj->ik", t) if which == 1 else np.einsum("ijil->jl", t)
    return np.array([np.trace(p @ reduced).real for p in (PAULI_X, PAULI_Y, PAULI_Z)])


@PROPERTY_SETTINGS
@given(hnp.arrays(float, (2, 4, 4), elements=st.floats(-0.05, 0.05)).map(_hermitian_unit_trace))
def test_pair_grid_half_sums_are_the_reduced_grids(rho):
    pair = wigner_pair_from_matrix(rho)
    np.testing.assert_allclose(pair.sum(axis=(2, 3)) / 2, wigner_su2(_reduced_bloch(rho, 1)), atol=1e-12)
    np.testing.assert_allclose(pair.sum(axis=(0, 1)) / 2, wigner_su2(_reduced_bloch(rho, 2)), atol=1e-12)
