"""Similarity measures between density matrices."""

from __future__ import annotations

import math

import numpy as np

from .linalg import hermitian_matrix


def _matrix_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    ma = hermitian_matrix(a)
    mb = hermitian_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError(f"dimension mismatch: {ma.shape[0]} vs {mb.shape[0]}")
    return ma, mb


def state_overlap(a, b) -> float:
    """Tr[rho sigma] for two Hermitian matrices of the same dimension.

    Computed as ``vdot(rho, sigma)``, Tr[rho† sigma], which is Tr[rho sigma] for Hermitian rho.
    """
    ma, mb = _matrix_pair(a, b)
    return float(np.vdot(ma, mb).real)


def super_fidelity(a, b) -> float:
    """Tr[rho sigma] + sqrt(1 - Tr rho^2) sqrt(1 - Tr sigma^2).

    Equals 1 when the states coincide and 0 for orthogonal pure states;
    the overlap term may equivalently be computed from phase-space grids
    through ``kernel.grid_overlap``.  Each input passes the Hermiticity
    guard once, and the three traces are ``vdot`` products (Tr[A† B],
    which is Tr[A B] for Hermitian A).
    """
    ma, mb = _matrix_pair(a, b)
    gap_a = max(0.0, 1.0 - float(np.vdot(ma, ma).real))
    gap_b = max(0.0, 1.0 - float(np.vdot(mb, mb).real))
    return float(np.vdot(ma, mb).real) + math.sqrt(gap_a) * math.sqrt(gap_b)
