import numpy as np
import pytest

from dwigner import grid_overlap, purity, state_overlap, super_fidelity, validate_density, werner, wigner_grid
from helpers import random_density, random_pure


def test_self_fidelity_is_one(rng):
    for n in (2, 4):
        for _ in range(10):
            rho = random_density(rng, n)
            assert abs(super_fidelity(rho, rho) - 1.0) < 1e-12


def test_orthogonal_pure_states():
    a = np.diag([1.0, 0, 0, 0]).astype(complex)
    b = np.diag([0, 0, 1.0, 0]).astype(complex)
    assert abs(super_fidelity(a, b)) < 1e-12


def test_symmetry(rng):
    a = random_density(rng, 4)
    b = random_density(rng, 4)
    assert abs(super_fidelity(a, b) - super_fidelity(b, a)) < 1e-14


def test_range(rng):
    for _ in range(20):
        a = random_density(rng, 4)
        b = random_density(rng, 4)
        value = super_fidelity(a, b)
        assert -1e-12 <= value <= 1.0 + 1e-12


def test_overlap_two_paths_random_pairs(rng):
    for n in (2, 4):
        for _ in range(25):
            a = random_density(rng, n)
            b = random_density(rng, n)
            direct = state_overlap(a, b)
            via_grids = grid_overlap(wigner_grid(a), wigner_grid(b))
            assert abs(direct - via_grids) < 1e-12


def test_werner_two_path_example():
    rho = werner(0.5)
    direct = state_overlap(rho, rho)
    via_grids = grid_overlap(wigner_grid(rho), wigner_grid(rho))
    assert abs(direct - via_grids) < 1e-12
    assert abs(super_fidelity(rho, rho) - 1.0) < 1e-12


def test_pure_state_overlap_is_squared_amplitude(rng):
    u = random_pure(rng, 4)
    v = random_pure(rng, 4)
    rho = np.outer(u, u.conj())
    sigma = np.outer(v, v.conj())
    assert abs(state_overlap(rho, sigma) - abs(np.vdot(u, v)) ** 2) < 1e-12


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        state_overlap(np.eye(2) / 2, np.eye(4) / 4)


def _trace_form(a, b):
    # the Tr[A B] form the vdot products replaced
    a, b = np.asarray(a), np.asarray(b)
    gap_a = max(0.0, 1.0 - float(np.real(np.trace(a @ a))))
    gap_b = max(0.0, 1.0 - float(np.real(np.trace(b @ b))))
    overlap = float(np.real(np.trace(a @ b)))
    return overlap, float(np.real(np.trace(a @ a))), overlap + np.sqrt(gap_a) * np.sqrt(gap_b)


@pytest.mark.parametrize("n", range(2, 9))
def test_vdot_forms_agree_with_the_trace_form(rng, n):
    for _ in range(10):
        rho = validate_density(random_density(rng, n))
        sigma = validate_density(random_density(rng, n))
        overlap, purity_a, fidelity = _trace_form(rho, sigma)
        assert abs(state_overlap(rho, sigma) - overlap) <= 1e-15
        assert abs(purity(rho) - purity_a) <= 1e-15
        assert abs(super_fidelity(rho, sigma) - fidelity) <= 1e-15
        # a raw Hermitian array gives the same numbers
        assert abs(super_fidelity(rho.matrix.copy(), sigma.matrix.copy()) - fidelity) <= 1e-15


def test_fidelity_refuses_a_raw_non_hermitian_array():
    skewed = np.eye(2, dtype=complex) / 2
    skewed[0, 1] += 0.3j
    for call in (lambda: super_fidelity(skewed, np.eye(2) / 2), lambda: super_fidelity(np.eye(2) / 2, skewed)):
        with pytest.raises(ValueError, match="not Hermitian"):
            call()
    with pytest.raises(ValueError, match="not Hermitian"):
        state_overlap(skewed, skewed)
    with pytest.raises(ValueError, match="not Hermitian"):
        purity(skewed)


def test_dimension_mismatch_message_is_unchanged():
    for measure in (state_overlap, super_fidelity):
        with pytest.raises(ValueError) as info:
            measure(np.eye(2) / 2, np.eye(4) / 4)
        assert str(info.value) == "dimension mismatch: 2 vs 4"
