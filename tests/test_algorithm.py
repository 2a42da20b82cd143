import warnings

import numpy as np
import pytest

from dwigner import (
    fourier4,
    measure_probabilities,
    permutation_pulse,
    run_parity_algorithm,
    wigner_su4,
)
from helpers import TYPED_FOURIER, TYPED_PULSES

PSI1 = 0.5 * np.array([1, 1j, -1, -1j])


def test_fourier_properties():
    f = fourier4()
    np.testing.assert_allclose(np.linalg.matrix_power(f, 4), np.eye(4), atol=1e-12)
    np.testing.assert_allclose(f @ f.conj().T, np.eye(4), atol=1e-12)


def test_fourier_columns():
    f = fourier4()
    np.testing.assert_allclose(f @ np.array([1, 0, 0, 0]), 0.5 * np.ones(4), atol=1e-15)
    np.testing.assert_allclose(f @ np.array([0, 1, 0, 0]), PSI1, atol=1e-15)


def test_computed_fourier_and_pulses_are_the_typed_matrices_bit_for_bit():
    # tobytes, so a signed zero in an imaginary part counts too
    assert fourier4().tobytes() == TYPED_FOURIER.tobytes()
    for k, typed in TYPED_PULSES.items():
        assert permutation_pulse(k).tobytes() == typed.tobytes()


def test_pulses_are_permutations():
    for k in (2, 6):
        u = permutation_pulse(k)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-15)
        assert np.array_equal(np.abs(u) ** 2, np.abs(u))  # entries 0 or 1


def test_pulse_two_is_a_phase_on_prepared_state():
    np.testing.assert_allclose(permutation_pulse(2) @ PSI1, -1j * PSI1, atol=1e-15)


def test_pulse_six_action():
    expected = -0.5 * np.array([1, -1j, -1, 1j])
    np.testing.assert_allclose(permutation_pulse(6) @ PSI1, expected, atol=1e-15)


def test_unsupported_pulse():
    with pytest.raises(ValueError, match="pulse"):
        permutation_pulse(3)


def test_positive_parity_run():
    trace = run_parity_algorithm(2)
    assert trace.outcome_level == 1
    assert trace.parity == "positive"
    assert abs(trace.outcome_probability - 1.0) < 1e-12
    np.testing.assert_allclose(trace.steps[-1].state, -1j * np.array([0, 1, 0, 0]), atol=1e-12)


def test_negative_parity_run():
    trace = run_parity_algorithm(6)
    assert trace.outcome_level == 3
    assert trace.parity == "negative"
    assert abs(trace.outcome_probability - 1.0) < 1e-12
    np.testing.assert_allclose(trace.steps[-1].state, -np.array([0, 0, 0, 1]), atol=1e-12)


def test_trace_structure_and_labels():
    trace = run_parity_algorithm(6)
    assert [s.label for s in trace.steps] == ["initial", "fourier", "pulse", "inverse_fourier"]
    for step in trace.steps:
        assert abs(np.linalg.norm(step.state) - 1.0) < 1e-12


def test_initial_snapshot_matches_closed_form():
    trace = run_parity_algorithm(2)
    level1 = np.zeros((4, 4), dtype=complex)
    level1[1, 1] = 1.0
    np.testing.assert_allclose(trace.steps[0].wigner, wigner_su4(level1), atol=1e-12)


def test_phase_pulse_leaves_snapshot_unchanged():
    trace = run_parity_algorithm(2)
    np.testing.assert_allclose(trace.steps[1].wigner, trace.steps[2].wigner, atol=1e-12)


def test_global_phase_invariance(rng):
    state = rng.normal(size=4) + 1j * rng.normal(size=4)
    state /= np.linalg.norm(state)
    reference = wigner_su4(np.outer(state, state.conj()))
    for _ in range(20):
        phased = np.exp(1j * rng.uniform(0, 2 * np.pi)) * state
        np.testing.assert_allclose(
            wigner_su4(np.outer(phased, phased.conj())), reference, atol=1e-12
        )


def test_noise_mixes_snapshots_toward_flat():
    eps = 0.2
    clean = run_parity_algorithm(6)
    noisy = run_parity_algorithm(6, noise=eps)
    for a, b in zip(clean.steps, noisy.steps):
        np.testing.assert_allclose(b.wigner, (1 - eps) * a.wigner + eps * 0.25, atol=1e-12)
    assert noisy.outcome_level == clean.outcome_level  # trajectory unaffected


def test_noise_range_check():
    with pytest.raises(ValueError):
        run_parity_algorithm(2, noise=-0.1)


def test_measure_probabilities_uniform():
    np.testing.assert_allclose(measure_probabilities(PSI1), 0.25, atol=1e-15)


def test_measure_probabilities_level_state():
    np.testing.assert_allclose(
        measure_probabilities(-1j * np.array([0, 1, 0, 0])), [0, 1, 0, 0], atol=1e-15
    )


def test_measure_probabilities_born_rule(rng):
    state = rng.normal(size=4) + 1j * rng.normal(size=4)
    state /= np.linalg.norm(state)
    expected = np.array([abs(amp) ** 2 for amp in state])
    np.testing.assert_allclose(measure_probabilities(state), expected, atol=1e-14)
    assert abs(np.sum(measure_probabilities(state)) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "state", ([1.0, 0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]]), ids=("three-components", "matrix")
)
def test_measure_probabilities_rejects_a_vector_of_the_wrong_shape(state):
    with pytest.raises(ValueError, match="expected a 4-component state vector"):
        measure_probabilities(state)


def test_measure_probabilities_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        measure_probabilities(np.array([1.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("amplitude", (np.nan, complex(np.nan, 0.0), complex(0.0, np.inf)))
def test_measure_probabilities_rejects_non_finite_amplitudes(amplitude):
    with pytest.raises(ValueError, match="finite"):
        measure_probabilities([amplitude, 0, 0, 0])


@pytest.mark.parametrize("amplitude", (1e308, complex(0.0, 1e308), 1e200))
def test_measure_probabilities_refuses_finite_amplitudes_whose_squares_overflow(amplitude):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="amplitudes are too large: the sum of their squared magnitudes overflows"):
            measure_probabilities([amplitude, 0, 0, 0])


@pytest.mark.parametrize(
    "pulse", [2.0, 6.0, np.float64(2.0), [2], None], ids=["float-2", "float-6", "numpy-float-2", "list", "none"]
)
def test_a_pulse_that_is_not_an_integer_is_refused(pulse):
    for call in (lambda: permutation_pulse(pulse), lambda: run_parity_algorithm(pulse=pulse)):
        with pytest.raises(ValueError, match=r"^pulse must be an integer, got "):
            call()


def test_a_numpy_integer_pulse_is_read_as_its_int():
    assert np.array_equal(permutation_pulse(np.int64(6)), permutation_pulse(6))
    assert run_parity_algorithm(pulse=np.int8(6)).outcome_level == run_parity_algorithm(pulse=6).outcome_level == 3
