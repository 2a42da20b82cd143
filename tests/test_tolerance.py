"""Every function that takes a tolerance refuses one that is NaN, infinite or negative.

A NaN tolerance makes every comparison false.  So it used to pass a matrix 0.3 away from
Hermitian (``hermitian_eigenvalues`` returned [0.5, 0.5]), a state of total probability 4
(``measure_probabilities`` returned [4, 0, 0, 0]) and a matrix off the X pattern by 0.25
(``xstate_from_matrix`` returned an ``XState``).
"""

import math

import numpy as np
import pytest

from dwigner import (
    XState,
    generators,
    hermitian_eigenvalues,
    measure_probabilities,
    positivity_inequalities,
    validate_density,
    verify_algebra,
    xstate_from_matrix,
)
from dwigner.linalg import DEFAULT_TOLERANCE

CALLS = {
    "hermitian_eigenvalues": lambda tol: hermitian_eigenvalues(np.array([[0.5, 0.3j], [0.0, 0.5]]), tol),
    "measure_probabilities": lambda tol: measure_probabilities(np.array([2.0, 0.0, 0.0, 0.0]), tol),
    "xstate_from_matrix": lambda tol: xstate_from_matrix(np.full((4, 4), 0.25), tol),
    "positivity_inequalities": lambda tol: positivity_inequalities(np.diag([1.2, -0.2, 0.0, 0.0]), tol),
    "XState.is_physical": lambda tol: XState(0.25, 0.25, 0.25, 0.25, rho14=1.0).is_physical(tol),
    "verify_algebra": lambda tol: verify_algebra(generators(2), tol),
    "validate_density": lambda tol: validate_density(np.diag([3.0, -2.0]), tol),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-5])
@pytest.mark.parametrize("name", CALLS)
def test_every_tolerance_must_be_finite_and_non_negative(name, tol):
    with pytest.raises(ValueError, match=r"tolerance must be finite and >= 0"):
        CALLS[name](tol)


def test_measure_probabilities_defaults_to_the_package_tolerance():
    with pytest.raises(ValueError, match="not normalized"):
        measure_probabilities(np.array([math.sqrt(1.0 + 10 * DEFAULT_TOLERANCE), 0.0, 0.0, 0.0]))
    measure_probabilities(np.array([math.sqrt(1.0 + DEFAULT_TOLERANCE / 10), 0.0, 0.0, 0.0]))
