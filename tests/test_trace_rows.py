"""The one real trace product: every stack map is Re Tr[S_k† rho], read through ``_real_rows``.

Each output is held to its einsum trace definition for inputs whose memory layout differs from a
C-contiguous complex128 matrix, and the (15, 15) su4 change of basis to the closed-form
combinations of the Fano coefficients.
"""

import numpy as np
import pytest

from dwigner import (
    DensityMatrix,
    FanoCoefficients,
    bloch_vector,
    fano_extract,
    generators,
    su4_coefficients,
    validate_density,
    wigner_pair_from_matrix,
    wigner_su4,
)
from dwigner.generators import su4_kernel
from dwigner.kernel import _real_rows
from dwigner.twoqubit import _pauli_products, _su4_basis_map, pair_kernel
from helpers import random_density


def _fano_vector(rho):
    f = fano_extract(rho)
    return np.concatenate([f.a, f.b, f.c.ravel()])


# each map, with its definition Re Tr[S_k rho] over its Hermitian stack S
MAPS = {
    "wigner_su4": (wigner_su4, lambda m: np.einsum("mnij,ji->mn", su4_kernel().ops, m).real),
    "wigner_pair_from_matrix": (
        wigner_pair_from_matrix,
        lambda m: np.einsum("abcdij,ji->abcd", pair_kernel().ops, m).real,
    ),
    "fano_extract": (_fano_vector, lambda m: np.einsum("kij,ji->k", _pauli_products(), m).real),
    "bloch_vector": (bloch_vector, lambda m: np.einsum("iab,ba->i", generators(4).stack(), m).real),
}


def _layouts(rng):
    rho = validate_density(random_density(rng, 4)).matrix  # exactly Hermitian, C-contiguous
    real = np.ascontiguousarray(rho.real)  # exactly symmetric, unit trace
    return {
        "fortran": np.asfortranarray(rho),
        "transposed view": rho.T,
        "strided view": np.kron(rho, np.ones((2, 2)))[::2, ::2],
        "real dtype": real,
        "DensityMatrix": validate_density(rho),
        "DensityMatrix over a Fortran real matrix": DensityMatrix(np.asfortranarray(real)),
    }


@pytest.mark.parametrize("name", MAPS)
def test_every_layout_gives_the_trace_definition(name, rng):
    f, definition = MAPS[name]
    for layout, m in _layouts(rng).items():
        expected = definition(np.asarray(m))
        np.testing.assert_allclose(f(m), expected, rtol=0, atol=1e-14, err_msg=layout)


def test_real_rows_of_a_c_contiguous_complex_stack_are_a_view():
    stack = su4_kernel().ops
    rows = _real_rows(stack)
    assert rows.shape == (16, 32) and rows.dtype == float
    assert np.shares_memory(rows, stack)


def test_real_rows_dot_product_is_the_real_trace_product(rng):
    a = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    b = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
    expected = np.einsum("kij,lij->kl", a.conj(), b).real
    np.testing.assert_allclose(_real_rows(a) @ _real_rows(b).T, expected, rtol=0, atol=1e-13)


def _su4_closed_form(f):
    # each generator coefficient as the combination of Fano coefficients it is
    a, b, c = f.a, f.b, f.c
    r3, r6 = np.sqrt(3.0), np.sqrt(6.0)
    return np.array([
        b[0] + c[2, 0], b[1] + c[2, 1], b[2] + c[2, 2], a[0] + c[0, 2], a[1] + c[1, 2],
        c[0, 0] + c[1, 1], -c[0, 1] + c[1, 0], (2.0 * a[2] - b[2] + c[2, 2]) / r3,
        c[0, 0] - c[1, 1], c[0, 1] + c[1, 0], a[0] - c[0, 2], a[1] - c[1, 2],
        b[0] - c[2, 0], b[1] - c[2, 1], 2.0 * (a[2] + b[2] - c[2, 2]) / r6,
    ])


def test_su4_change_of_basis_is_the_closed_form(rng):
    for _ in range(50):
        t = rng.uniform(-1.0, 1.0, size=15)
        f = FanoCoefficients(a=t[:3], b=t[3:6], c=t[6:].reshape(3, 3))
        np.testing.assert_allclose(su4_coefficients(f), _su4_closed_form(f), rtol=0, atol=1e-15)


def test_su4_change_of_basis_is_a_cached_read_only_real_matrix():
    table = _su4_basis_map()
    assert table is _su4_basis_map()
    assert table.shape == (15, 15) and table.dtype == float
    assert not table.flags.writeable
