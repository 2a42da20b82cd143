"""Property tests of the phase-point kernel over random states, N = 2..8."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dwigner import purity, reconstruct, schwinger_pair, wigner_grid

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
