"""Property tests of the phase-point kernel over random states, N = 2..8, of the pair grid, and of
the coefficient-form grids of parameterised four-level states."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dwigner
from dwigner import (
    DensityMatrixError,
    FanoCoefficients,
    XState,
    bloch_vector,
    delta_pair,
    fano_extract,
    fano_matrix,
    hermitian_eigenvalues,
    purity,
    reconstruct,
    reduced_wigner,
    schwinger_pair,
    su4_coefficients,
    validate_density,
    wigner_grid,
    wigner_pair,
    wigner_pair_from_matrix,
    wigner_su2,
    wigner_su4,
    xstate_delta,
    xstate_marginals,
    xstate_reduced_wigner,
    xstate_wigner,
)
from dwigner.generators import PAULI_X, PAULI_Y, PAULI_Z
from dwigner.kernel import _clock_shift_coefficients
from dwigner.states import _xstate_map
from dwigner.twoqubit import _fano_grid, _fano_map, _rep_kernel
from helpers import hermitizing_phase

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


@pytest.mark.parametrize("n", range(2, 17))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_grid_is_a_two_dimensional_dft_of_the_clock_shift_coefficients(n, data):
    # W = Re[F̄ (h * w^(eta xi / 2) * conj(chi)) F̄] for the clock/shift coefficients chi of rho and
    # the hermitizing phase h: an oracle that reads neither kernel(n)'s table nor its factors, on
    # both sides of the table's crossover
    rho = data.draw(densities(n))
    idx = np.arange(n)
    dft = np.exp(-2j * np.pi * (np.outer(idx, idx) % n) / n)
    phases = np.array([[hermitizing_phase(eta, xi, n) for xi in idx] for eta in idx])
    weights = phases * np.exp(1j * np.pi * np.outer(idx, idx) / n)
    expected = (dft @ (weights * _clock_shift_coefficients(rho).conj()) @ dft).real
    np.testing.assert_allclose(wigner_grid(rho), expected, rtol=0, atol=1e-12)


@PROPERTY_SETTINGS
@given(density_matrices)
def test_round_trip(rho):
    np.testing.assert_allclose(reconstruct(wigner_grid(rho)), rho, atol=1e-12)


@PROPERTY_SETTINGS
@given(density_matrices)
def test_every_report_of_a_spectrum_is_the_same(rho):
    # an exactly Hermitian state is its own Hermitian part, so its spectrum is eigvalsh's bit for
    # bit, as are the stored state's and that of the error refusing twice the state
    m = (rho + rho.conj().T) / 2
    spectrum = hermitian_eigenvalues(m)
    np.testing.assert_array_equal(spectrum, np.linalg.eigvalsh(m))
    np.testing.assert_array_equal(spectrum, np.linalg.eigvalsh(validate_density(m).matrix))
    with pytest.raises(DensityMatrixError) as info:
        validate_density(2 * m)
    np.testing.assert_array_equal(info.value.eigenvalues, hermitian_eigenvalues(2 * m))
    np.testing.assert_array_equal(info.value.eigenvalues, np.linalg.eigvalsh(2 * m))


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


def _scaled_hermitian(draw):
    # an exactly Hermitian (a + a†) + I, scaled so that sum |rho_ij|^2 is 10^exponent
    n, seed, exponent = draw
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = a + a.conj().T + np.eye(n)
    return h * math.sqrt(10.0**exponent / np.vdot(h, h).real)


large_hermitian_matrices = st.tuples(
    st.sampled_from([2, 4, 8, 32]), st.integers(0, 2**32 - 1), st.floats(300.0, 307.0)
).map(_scaled_hermitian)


@PROPERTY_SETTINGS
@given(large_hermitian_matrices)
@example(_scaled_hermitian((32, 0, 307.0)))
def test_matrices_the_guard_admits_have_finite_grids_coordinates_and_spectra(rho):
    # sum |rho_ij|^2 up to 1e307, near the guard's bound: nothing the library computes overflows
    n = rho.shape[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = wigner_grid(rho)
        values = [grid, hermitian_eigenvalues(rho), [purity(rho)]]
        if n in (2, 4):
            values.append(bloch_vector(rho))
        if n == 4:
            f = fano_extract(rho)
            values += [wigner_su4(rho), wigner_pair_from_matrix(rho), f.a, f.b, f.c]
        for v in values:
            assert np.isfinite(v).all()
        # the grid's sum of squares is n sum |rho_ij|^2, which overflows for n = 32 near 1e307;
        # reconstruct holds the grid to the rule of the state, so the round trip still holds
        error = np.linalg.norm(reconstruct(grid) - rho)
        assert error <= 1e-12 * np.linalg.norm(rho)


def _scaled_vector(draw):
    # a random vector of the given length, scaled so that its sum of squares is 10^exponent
    length, seed, exponent = draw
    v = np.random.default_rng(seed).normal(size=length)
    return v * math.sqrt(10.0**exponent / np.vdot(v, v))


def _large(length):
    return st.tuples(st.just(length), st.integers(0, 2**32 - 1), st.floats(300.0, 307.0)).map(_scaled_vector)


@PROPERTY_SETTINGS
@given(_large(15), _large(4), hnp.arrays(float, 4, elements=st.floats(0.01, 1.0)))
def test_coordinate_vectors_the_rule_admits_have_finite_grids(fano, coherences, weights):
    # sum t_k^2 up to 1e307, near the rule's bound, held by the Fano vector and by the X vector's
    # coherences (its populations are at most 1): no map of either overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = FanoCoefficients(a=fano[:3], b=fano[3:6], c=fano[6:].reshape(3, 3))
        x = XState(
            *(weights / weights.sum()),
            rho14=complex(coherences[0], coherences[1]),
            rho23=complex(coherences[2], coherences[3]),
        )
        marginals = xstate_marginals(x)
        values = [
            wigner_pair(f),
            _fano_grid(f, "su4"),
            reduced_wigner(f, 1),
            reduced_wigner(f, 2),
            delta_pair(f),
            su4_coefficients(f),
            fano_matrix(f),
            xstate_wigner(x, "su4"),
            xstate_wigner(x, "pair"),
            xstate_reduced_wigner(x, 1),
            xstate_reduced_wigner(x, 2),
            xstate_delta(x),
            marginals.mu_marginal,
            marginals.nu_marginal,
        ]
        for v in values:
            assert np.isfinite(v).all()


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


REPS = ("pair", "su4")

# every Fano vector in the cube [-1, 1]^15, most of them outside the state space
fano_coefficients = hnp.arrays(float, (15,), elements=st.floats(-1.0, 1.0)).map(
    lambda t: FanoCoefficients(a=t[:3], b=t[3:6], c=t[6:].reshape(3, 3))
)


def _xstate(parts):
    # populations from |p| + 1/100, normalized; coherences in the unit square, mostly unphysical
    p = np.abs(parts[:4]) + 0.01
    p /= p.sum()
    return XState(*p, complex(parts[4], parts[5]), complex(parts[6], parts[7]))


xstates = hnp.arrays(float, (8,), elements=st.floats(-1.0, 1.0)).map(_xstate)


@PROPERTY_SETTINGS
@given(fano_coefficients, st.sampled_from(REPS))
def test_fano_coefficient_form_is_the_grid_of_the_composed_matrix(f, rep):
    expected = wigner_grid(fano_matrix(f), _rep_kernel(rep))
    np.testing.assert_allclose(_fano_grid(f, rep), expected, rtol=0, atol=1e-14)
    if rep == "pair":
        np.testing.assert_allclose(wigner_pair(f), expected, rtol=0, atol=1e-14)


@PROPERTY_SETTINGS
@given(xstates, st.sampled_from(REPS))
def test_xstate_coefficient_form_is_the_grid_of_the_composed_matrix(x, rep):
    expected = wigner_grid(x.matrix(), _rep_kernel(rep))
    np.testing.assert_allclose(xstate_wigner(x, rep), expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("rep", REPS)
@pytest.mark.parametrize("coefficient_map, width", [(_fano_map, 16), (_xstate_map, 8)])
def test_coefficient_maps_are_cached_read_only_real_matrices(coefficient_map, width, rep):
    table = coefficient_map(rep)
    assert table is coefficient_map(rep)
    # 16 grid rows, then two blocks of four fixed-axis row sums
    assert table.shape == (24, width) and table.dtype == float
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="representation"):
        coefficient_map("su2")


def test_import_builds_no_coefficient_map():
    code = (
        "import dwigner\n"
        "from dwigner.generators import generators, su4_kernel\n"
        "from dwigner.states import _xstate_map\n"
        "from dwigner.twoqubit import _fano_map, _su4_basis_map, pair_kernel\n"
        "maps = (_fano_map, _xstate_map, _su4_basis_map, su4_kernel, pair_kernel)\n"
        "print(*(f.cache_info().currsize for f in maps))\n"
        "print(generators.cache_info().currsize)\n"
        "generators(2)\n"
        "print(generators.cache_info().currsize)"
    )
    src = str(Path(dwigner.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    maps, cached, with_qubit_set = out.stdout.splitlines()
    assert maps.split() == ["0", "0", "0", "0", "0"]
    # at most the n = 2 set: adding it leaves a single cached set
    assert int(cached) <= 1 and int(with_qubit_set) == 1
