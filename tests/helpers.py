"""Shared random-state generators for the test suite."""

import numpy as np

from dwigner import FanoCoefficients, XState


def hermitizing_phase(eta, xi, n):
    """Scalar oracle of ``kernel._hermitizing_phases``: the weight h(eta, xi) of the Fourier sum.

    The plain Fourier sum of the symmetrized basis is Hermitian only for
    n = 2; this unimodular factor restores Hermiticity for every dimension
    while leaving the family trace-orthogonal and complete.  It depends on
    the index residues only, so the weighted sum keeps the window-shift
    invariance provided by the integer-part exponent.  At n = 2 it is
    identically 1.
    """
    eta %= n
    xi %= n
    if n % 2 == 1:
        return -1.0 if (eta % 2 == 1 and xi % 2 == 1) else 1.0
    if eta != 0 and xi != 0 and (eta + xi) % 2 == 1:
        return 1j
    return 1.0


def random_density(rng, n, rank=None):
    """Random full-rank (or fixed-rank) density matrix of dimension n."""
    rank = n if rank is None else rank
    a = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    h = a @ a.conj().T
    return h / np.trace(h)


def random_pure(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_hermitian_unit_trace(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (a + a.conj().T) / 2.0
    return h + (1.0 - np.trace(h).real) / n * np.eye(n)


def random_xstate(rng):
    """Random physical X-form state (block coherences inside the PSD bounds)."""
    p = rng.dirichlet(np.ones(4))
    r14 = np.sqrt(p[0] * p[3]) * rng.uniform(0.0, 0.95) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    r23 = np.sqrt(p[1] * p[2]) * rng.uniform(0.0, 0.95) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return XState(p[0], p[1], p[2], p[3], r14, r23)


def random_product_fano(rng):
    """Coefficients of a product of two random single-qubit states."""
    p1 = rng.uniform(-1, 1, size=3)
    p1 *= rng.uniform(0, 0.99) / max(1.0, np.linalg.norm(p1))
    p2 = rng.uniform(-1, 1, size=3)
    p2 *= rng.uniform(0, 0.99) / max(1.0, np.linalg.norm(p2))
    return FanoCoefficients(a=p1, b=p2, c=np.outer(p1, p2))
