"""Single-ququart parity determination.

Simulates the four-stage protocol: prepare level |1>, apply the discrete
Fourier operator, apply one of two oracle permutation pulses, undo the
Fourier transform, and measure the level populations.  Each stage
carries its 4x4 phase-space snapshot.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .generators import wigner_su4
from .linalg import DEFAULT_TOLERANCE, _bounded, _checked_integer, _checked_tolerance

# F[j, k] = i^(jk) / 2, read from the four powers of i
_FOURIER = 0.5 * np.array([1, 1j, -1, -1j], dtype=complex)[np.outer(np.arange(4), np.arange(4)) % 4]
_FOURIER.flags.writeable = False

_PULSES = {
    2: np.eye(4, dtype=complex)[[3, 0, 1, 2]],  # cyclic raise by one level
    6: np.eye(4, dtype=complex)[[2, 1, 0, 3]],  # swap of levels 0 and 2
}
for _m in _PULSES.values():
    _m.flags.writeable = False


def fourier4() -> np.ndarray:
    """The order-4 discrete Fourier operator (unitary, fourth power is identity)."""
    return _FOURIER.copy()


def permutation_pulse(k: int) -> np.ndarray:
    """Oracle pulse k, an integer; only the two pulses used by the protocol exist (2 and 6)."""
    _checked_integer("pulse", k)  # first: 2.0 equals 2, and the lookup would raise TypeError on [2]
    if k not in _PULSES:
        raise ValueError(f"unsupported pulse {k}; available pulses are 2 and 6")
    return _PULSES[k].copy()


def measure_probabilities(state, tol: float = DEFAULT_TOLERANCE) -> np.ndarray:
    """Level populations |amplitude|^2 of a normalized four-level pure state; a non-finite total raises."""
    tol = _checked_tolerance(tol)
    s = np.asarray(state, dtype=complex)
    if s.shape != (4,):
        raise ValueError(f"expected a 4-component state vector, got shape {s.shape}")
    total = float(np.vdot(s, s).real)
    _bounded(s, "amplitudes", total, shown=state)
    probabilities = np.abs(s) ** 2
    if abs(total - 1.0) > tol:
        raise ValueError(f"state is not normalized: total probability {total}")
    return probabilities


@dataclasses.dataclass(frozen=True, eq=False)
class AlgorithmStep:
    label: str
    state: np.ndarray
    wigner: np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class AlgorithmTrace:
    """Four labeled evolution records plus the final measurement outcome."""

    steps: tuple[AlgorithmStep, ...]
    outcome_level: int
    outcome_probability: float
    parity: str


def _snapshot(state: np.ndarray, noise: float) -> np.ndarray:
    rho = np.outer(state, state.conj())
    if noise > 0.0:
        rho = (1.0 - noise) * rho + noise * np.eye(4, dtype=complex) / 4.0
    return wigner_su4(rho)


def run_parity_algorithm(pulse: int = 2, noise: float = 0.0) -> AlgorithmTrace:
    """Run the protocol with oracle pulse 2 or 6.

    Pulse 2 ends in level 1 (positive parity), pulse 6 in level 3
    (negative parity), each with probability one.  ``noise`` mixes the
    snapshot density matrices with the maximally mixed state and affects
    only the recorded grids, not the trajectory.
    """
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise must lie in [0, 1], got {noise}")
    oracle = permutation_pulse(pulse)
    fourier = fourier4()

    initial = np.zeros(4, dtype=complex)
    initial[1] = 1.0
    prepared = fourier @ initial
    pulsed = oracle @ prepared
    final = fourier.conj().T @ pulsed

    labels = ("initial", "fourier", "pulse", "inverse_fourier")
    steps = tuple(
        AlgorithmStep(label=label, state=state, wigner=_snapshot(state, noise))
        for label, state in zip(labels, (initial, prepared, pulsed, final))
    )
    probabilities = measure_probabilities(final)
    level = int(np.argmax(probabilities))
    parity = "positive" if level == 1 else "negative"
    return AlgorithmTrace(
        steps=steps,
        outcome_level=level,
        outcome_probability=float(probabilities[level]),
        parity=parity,
    )
