"""Shared random-state generators and reference transforms for the test suite."""

from functools import lru_cache

import numpy as np

from dwigner import FanoCoefficients, XState, generators, kernel
from dwigner.kernel import _real_rows
from dwigner.twoqubit import _pauli_products


def hermitizing_phase(eta, xi, n):
    """Scalar oracle of ``_hermitizing_phases``: the weight h(eta, xi) of the Fourier sum.

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


# The closed form of kernel(n)'s phase-point table, the oracle for the table kernel(n) builds
# from its factors.


def _hermitizing_phases(n: int) -> np.ndarray:
    # the unimodular weights h(eta, xi) that make every phase-point operator Hermitian, over the
    # window, from index parity and zeros: for odd n, -1 where eta and xi are both odd; for even
    # n, i where both are nonzero and eta + xi is odd; 1 elsewhere
    idx = np.arange(n)
    products = np.outer(idx, idx)
    if n % 2 == 1:
        return np.where(products % 2 == 1, -1.0, 1.0)
    return np.where((products != 0) & ((idx[:, None] + idx) % 2 == 1), 1j, 1.0)


def _cell_coefficients(n: int) -> np.ndarray:
    # c[m, xi] = (1/n) sum_eta h(eta, xi) w^(eta xi / 2 + eta m), as one O(n^3) DFT-matrix product
    idx = np.arange(n)
    products = np.outer(idx, idx)
    half = np.exp(1j * np.pi * (products % (2 * n)) / n)  # w^(eta xi / 2)
    dft = np.exp(2j * np.pi * (products % n) / n)  # w^(m eta)
    return dft @ (_hermitizing_phases(n) * half) / n


def _phase_point_table(n: int) -> np.ndarray:
    # G(mu, nu)[j, k] = w^(-nu xi) c[(j - mu) mod n, xi], xi = (k - j) mod n: O(n^4) in time and memory
    c = _cell_coefficients(n)
    idx = np.arange(n)
    diff = (idx[None, :] - idx[:, None]) % n  # diff[a, b] = (b - a) mod n
    shift = np.exp(-2j * np.pi * (np.multiply.outer(idx, diff) % n) / n)  # w^(-nu xi)[nu, j, k]
    ops = c[diff[:, :, None], diff[None, :, :]][:, None] * shift[None]
    ops.flags.writeable = False
    return ops


# The paper's fifteen dimension-4 generators as polynomials in the clock/shift pair, as printed;
# terms are (coefficient, clock power, shift power).
_R3 = np.sqrt(3)
_R6 = np.sqrt(6)
SU4_CLOCK_SHIFT_TERMS = (
    # 0: coupling of levels 0 and 1, real part
    ((0.25, 0, 1), (0.25, 0, 3), (0.25, 1, 1), (0.25, 2, 1), (0.25, 3, 1),
     (-0.25j, 1, 3), (-0.25, 2, 3), (0.25j, 3, 3)),
    # 1: coupling of levels 0 and 1, imaginary part
    ((-0.25j, 0, 1), (0.25j, 0, 3), (-0.25j, 1, 1), (-0.25j, 2, 1), (-0.25j, 3, 1),
     (0.25, 1, 3), (-0.25j, 2, 3), (-0.25, 3, 3)),
    # 2: population difference of levels 0 and 1
    (((1 + 1j) / 4, 1, 0), (0.5, 2, 0), ((1 - 1j) / 4, 3, 0)),
    # 3: coupling of levels 0 and 2, real part
    ((0.5, 0, 2), (0.5, 2, 2)),
    # 4: coupling of levels 0 and 2, imaginary part
    ((-0.5j, 1, 2), (-0.5j, 3, 2)),
    # 5: coupling of levels 1 and 2, real part
    ((0.25, 0, 1), (0.25, 0, 3), (-0.25j, 1, 1), (-0.25, 2, 1), (0.25j, 3, 1),
     (-0.25, 1, 3), (0.25, 2, 3), (-0.25, 3, 3)),
    # 6: coupling of levels 1 and 2, imaginary part
    ((-0.25j, 0, 1), (0.25j, 0, 3), (-0.25, 1, 1), (0.25j, 2, 1), (0.25, 3, 1),
     (-0.25j, 1, 3), (0.25j, 2, 3), (-0.25j, 3, 3)),
    # 7: diagonal on levels 0, 1 against 2
    (((3 - 1j) / (4 * _R3), 1, 0), (-1 / (2 * _R3), 2, 0), ((3 + 1j) / (4 * _R3), 3, 0)),
    # 8: coupling of levels 0 and 3, real part
    ((0.25, 0, 1), (0.25, 0, 3), (0.25j, 1, 1), (-0.25, 2, 1), (-0.25j, 3, 1),
     (0.25, 1, 3), (0.25, 2, 3), (0.25, 3, 3)),
    # 9: coupling of levels 0 and 3, imaginary part
    ((0.25j, 0, 1), (-0.25j, 0, 3), (-0.25, 1, 1), (-0.25j, 2, 1), (0.25, 3, 1),
     (-0.25j, 1, 3), (-0.25j, 2, 3), (-0.25j, 3, 3)),
    # 10: coupling of levels 1 and 3, real part
    ((0.5, 0, 2), (-0.5, 2, 2)),
    # 11: coupling of levels 1 and 3, imaginary part
    ((-0.5, 1, 2), (0.5, 3, 2)),
    # 12: coupling of levels 2 and 3, real part
    ((0.25, 0, 1), (0.25, 0, 3), (-0.25, 1, 1), (0.25, 2, 1), (-0.25, 3, 1),
     (0.25j, 1, 3), (-0.25, 2, 3), (-0.25j, 3, 3)),
    # 13: coupling of levels 2 and 3, imaginary part
    ((-0.25j, 0, 1), (0.25j, 0, 3), (0.25j, 1, 1), (-0.25j, 2, 1), (0.25j, 3, 1),
     (-0.25, 1, 3), (-0.25j, 2, 3), (0.25, 3, 3)),
    # 14: diagonal on levels 0, 1, 2 against 3
    ((-1j / _R6, 1, 0), (1 / _R6, 2, 0), (1j / _R6, 3, 0)),
)


# The parity algorithm's Fourier operator and oracle pulses as typed matrices, the oracle of the
# computed ones.
TYPED_FOURIER = 0.5 * np.array(
    [
        [1, 1, 1, 1],
        [1, 1j, -1, -1j],
        [1, -1, 1, -1],
        [1, -1j, -1, 1j],
    ],
    dtype=complex,
)
TYPED_PULSES = {
    # cyclic raise by one level
    2: np.array([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], dtype=complex),
    # swap of levels 0 and 2
    6: np.array([[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]], dtype=complex),
}


def printed_clock_shift_coefficients(i):
    """Generator i's printed terms as the 4 x 4 coefficient array chi[clock power, shift power]."""
    chi = np.zeros((4, 4), dtype=complex)
    for coeff, eta, xi in SU4_CLOCK_SHIFT_TERMS[i]:
        chi[eta, xi] += coeff
    return chi


def clock_shift_sum(chi):
    """sum chi[eta, xi] u^eta v^xi, the monomials as matrix powers of u = diag(w^k) and v|k> = |k-1>."""
    n = chi.shape[0]
    u = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    v = np.roll(np.eye(n), 1, axis=1)
    power = np.linalg.matrix_power
    return sum(c * power(u, eta) @ power(v, xi) for (eta, xi), c in np.ndenumerate(chi))


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


STATE_GUARD_MESSAGE = (
    "input matrix is not Hermitian: max asymmetry {:.3e} exceeds 1.0e-10, "
    "so its phase-space values would have an imaginary part"
)


def reference_wigner_grid(rho):
    """``wigner_grid(rho)`` over ``kernel(n)`` through the full-matrix guard, as an oracle.

    The guard takes max|a - a†| over every entry, refuses it above 1e-10 with the state readers'
    message, and reads (a + a†)/2 unless it is 0; the factored steps then read the gather of the
    whole guarded matrix.
    """
    a = np.asarray(rho, dtype=complex)
    adjoint = a.conj().T
    defect = float(np.abs(a - adjoint).max())
    if defect > 1e-10:
        raise ValueError(STATE_GUARD_MESSAGE.format(defect))
    if defect:
        a = (a + adjoint) / 2.0
    n = a.shape[0]
    kern = kernel(n)
    if not kern._factored:
        return (kern._rows @ _real_rows(a)[0]).reshape(n, n)
    f = kern.factors
    r = a.take(f.gather)
    q = _dense_block(f)
    if q:
        r[:, :q] = f.circulant @ r[:, :q]
    return r.view(float) @ f.fold


def reference_reconstruct(values):
    """``reconstruct(values)`` over ``kernel(n)`` with the two-``put`` scatter, as an oracle.

    Above the table the half-spectrum R is written into an empty matrix, its conjugate through
    the mirror index first and R itself through the gather index after, so R wins where they meet.
    """
    w = np.ascontiguousarray(values, dtype=float)
    n = w.shape[0]
    kern = kernel(n)
    if not kern._factored:
        return (w.ravel() @ kern._rows).view(complex).reshape(n, n) / n
    f = kern.factors
    r_conj = (w.take(f.spread) @ f.unfold).view(complex)
    q = _dense_block(f)
    if q:
        r_conj[:, :q] = f.circulant.T @ r_conj[:, :q]
    h = r_conj.shape[1]
    mirror = f.gather % n * n + f.gather // n
    rho = np.empty((n, n), dtype=complex)
    rho.put(mirror[:, :h], r_conj)
    rho.put(f.gather[:, :h], r_conj.conj())
    return rho


def _dense_block(f):
    # the width of the gathered block's leading dense-profile columns, from the table shapes: none
    # at odd n, where the circulant is empty; at even n, the h = unfold columns / 2 of the half
    # spectrum less the delta at xi = 0 and the e = gather columns - h two-point ones
    h = f.unfold.shape[1] // 2
    return h - 1 - (f.gather.shape[1] - h) if len(f.circulant) else 0


@lru_cache(maxsize=None)
def _dft_step_tables(n):
    # the DFT-matrix factors of the half-spectrum steps, built from c itself: the DFT matrix F and
    # its conjugate, the spectrum F conj(c) / n of the cyclic correlation and its adjoint over n,
    # the unshifted gather index j n + (j + xi) mod n and its mirror, and the two real ends
    c = _cell_coefficients(n)
    idx = np.arange(n)
    h = n // 2 + 1
    dft = np.exp(2j * np.pi * (np.outer(idx, idx) % n) / n)
    dft_h = dft.conj()
    spectrum = dft @ c[:, :h].conj() / n
    diagonals = (idx[:, None] + idx[:h]) % n
    weights = np.where((idx[:h] == 0) | (2 * idx[:h] == n), 1.0, 2.0)
    fold = np.ascontiguousarray((dft_h[:, :h] * weights).view(float).T)
    gather, mirror = idx[:, None] * n + diagonals, diagonals * n + idx[:, None]
    return dft, dft_h, spectrum, spectrum.conj() / n, gather, mirror, dft_h[:, :h].view(float), fold


def dft_steps_wigner_grid(rho):
    """``wigner_grid`` of a Hermitian rho through two DFT-matrix products and the spectrum of c.

    An oracle independent of ``kernel(n)``'s factors: gather R[j, xi] = rho[j, (j + xi) mod n]
    for xi <= n / 2, correlate with conj(c) along j as F (spectrum * (F̄ R)), and fold the real part
    of the DFT along xi over the half spectrum.
    """
    a = np.asarray(rho, dtype=complex)
    dft, dft_h, spectrum, _, gather, _, _, fold = _dft_step_tables(a.shape[0])
    return (dft @ (spectrum * (dft_h @ a.take(gather)))).view(float) @ fold


def dft_steps_reconstruct(values):
    """``reconstruct`` as the adjoint of ``dft_steps_wigner_grid``, scattered with two ``put``s."""
    w = np.asarray(values, dtype=float)
    n = w.shape[0]
    dft, dft_h, _, adjoint, gather, mirror, half, _ = _dft_step_tables(n)
    r = dft @ (adjoint * (dft_h @ (w @ half).view(complex)))
    rho = np.empty((n, n), dtype=complex)
    rho.put(mirror, r.conj())
    rho.put(gather, r)
    return rho


def table_einsum_transforms(n, rho, values):
    """The einsums of ``wigner_grid`` and ``reconstruct`` over ``kernel(n).ops``, one mu row at a time.

    Each row is built by ``_phase_point_table``'s own expression, so it equals that closed-form
    table's row mu bit for bit (and ``ops[mu]``, built from the factors, within about 1e-15), in
    O(n^3) memory rather than the table's 16 n^4 bytes; the sums may take another order.
    """
    c = _cell_coefficients(n)
    idx = np.arange(n)
    diff = (idx[None, :] - idx[:, None]) % n
    shift = np.exp(-2j * np.pi * (np.multiply.outer(idx, diff) % n) / n)
    w = np.asarray(values, dtype=float)
    grid = np.empty((n, n))
    back = np.zeros((n, n), dtype=complex)
    for mu in range(n):
        ops = c[diff[mu][:, None], diff][None] * shift
        grid[mu] = np.einsum("nij,ij->n", ops.conj(), rho, optimize=True).real
        back += np.einsum("n,nij->ij", w[mu], ops, optimize=True)
    return grid, back / n


def reference_fano_matrix(f):
    """``fano_matrix(f)`` as the einsum over the complex (15, 4, 4) Pauli-product stack, as an oracle."""
    return (np.eye(4, dtype=complex) + np.einsum("k,kij->ij", f._vector[1:], _pauli_products())) / 4.0


def reference_density_from_bloch(components, n):
    """``density_from_bloch(components, n)`` as the einsum over the generator stack, as an oracle."""
    v = np.asarray(components, dtype=float)
    return np.eye(n, dtype=complex) / n + 0.5 * np.einsum("i,iab->ab", v, generators(n).stack())


def reference_xstate_matrix(x):
    """``x.matrix()`` written cell by cell from the fields, as an oracle."""
    m = np.diag(x.populations).astype(complex)
    m[0, 3] = x.rho14
    m[3, 0] = np.conj(x.rho14)
    m[1, 2] = x.rho23
    m[2, 1] = np.conj(x.rho23)
    return m
