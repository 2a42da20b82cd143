"""Similarity measures between density matrices."""

from __future__ import annotations

import numpy as np

from .linalg import hermitian_matrix, purity


def state_overlap(a, b) -> float:
    """Tr[rho sigma] for two Hermitian matrices of the same dimension."""
    ma = hermitian_matrix(a)
    mb = hermitian_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError(f"dimension mismatch: {ma.shape[0]} vs {mb.shape[0]}")
    return float(np.real(np.trace(ma @ mb)))


def super_fidelity(a, b) -> float:
    """Tr[rho sigma] + sqrt(1 - Tr rho^2) sqrt(1 - Tr sigma^2).

    Equals 1 when the states coincide and 0 for orthogonal pure states;
    the overlap term may equivalently be computed from phase-space grids
    through ``kernel.grid_overlap``.
    """
    gap_a = max(0.0, 1.0 - purity(a))
    gap_b = max(0.0, 1.0 - purity(b))
    return state_overlap(a, b) + float(np.sqrt(gap_a) * np.sqrt(gap_b))
