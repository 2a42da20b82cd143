"""The stored state vectors and the stacked maps against the matrix-form compositions.

``FanoCoefficients`` and ``XState`` each store one read-only real vector, and every grid,
half-sum, marginal and signature is one cached stacked map times it.  The oracles here are the
compositions that the maps replace: a matrix-form ``wigner_grid`` over ``pair_kernel()`` or
``su4_kernel()``, then sums along fixed axes.  The states are random validated 4x4 density
matrices, Fano vectors in the cube [-1, 1]^15 and X states with coherences in the unit square,
so most of the last two are not states.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dwigner import (
    FanoCoefficients,
    XState,
    delta_pair,
    fano_extract,
    fano_matrix,
    generators,
    munro,
    reduced_density,
    reduced_wigner,
    su4_coefficients,
    validate_density,
    wigner_grid,
    wigner_pair,
    xstate_delta,
    xstate_from_matrix,
    xstate_marginals,
    xstate_reduced_wigner,
    xstate_wigner,
)
from dwigner.generators import su4_kernel
from dwigner.twoqubit import _fano_grid, _fano_map, _pauli_products, pair_kernel
from helpers import random_density

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)
ATOL = 1e-14


def _close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=0, atol=ATOL)


# the compositions the stacked maps replace


def _half_sums(pair_grid):
    return pair_grid.sum(axis=(2, 3)) / 2.0, pair_grid.sum(axis=(0, 1)) / 2.0


def _marginals(w):
    return w.sum(axis=1) / 2.0, 0.25 + w.sum(axis=0) / 4.0


def _density(parts):
    # a a† + I/10, normalized and validated: full rank, so no draw is degenerate
    a = parts[0] + 1j * parts[1]
    h = a @ a.conj().T + 0.1 * np.eye(4)
    return validate_density(h / np.trace(h).real)


densities = hnp.arrays(float, (2, 4, 4), elements=st.floats(-1.0, 1.0)).map(_density)
fano_vectors = hnp.arrays(float, (15,), elements=st.floats(-1.0, 1.0))


def _xstate(parts):
    p = np.abs(parts[:4]) + 0.01
    p /= p.sum()
    return XState(*p, complex(parts[4], parts[5]), complex(parts[6], parts[7]))


xstates = hnp.arrays(float, (8,), elements=st.floats(-1.0, 1.0)).map(_xstate)


def _check_fano(f):
    pair = wigner_grid(fano_matrix(f), pair_kernel())
    half1, half2 = _half_sums(pair)
    _close(wigner_pair(f), pair)
    _close(reduced_wigner(f, 1), half1)
    _close(reduced_wigner(f, 2), half2)
    _close(delta_pair(f), pair - np.multiply.outer(half1, half2))
    _close(_fano_grid(f, "su4"), wigner_grid(fano_matrix(f), su4_kernel()))
    generator_means = np.einsum("iab,ba->i", generators(4).stack(), fano_matrix(f)).real
    _close(su4_coefficients(f), 2.0 * generator_means)


@SETTINGS
@given(densities)
def test_fano_functions_of_a_state_are_the_matrix_compositions(rho):
    f = fano_extract(rho)
    _close(f._vector, np.concatenate(([1.0], np.einsum("kij,ji->k", _pauli_products(), rho.matrix).real)))
    assert f._vector[0] == 1.0
    _check_fano(f)


@SETTINGS
@given(fano_vectors)
def test_fano_functions_of_any_coefficients_are_the_matrix_compositions(t):
    _check_fano(FanoCoefficients(a=t[:3], b=t[3:6], c=t[6:].reshape(3, 3)))


@SETTINGS
@given(xstates)
def test_xstate_functions_are_the_matrix_compositions(x):
    pair = wigner_grid(x.matrix(), pair_kernel())
    w = wigner_grid(x.matrix(), su4_kernel())
    half1, half2 = _half_sums(pair)
    mu, nu = _marginals(w)
    _close(xstate_wigner(x, "pair"), pair)
    _close(xstate_wigner(x, "su4"), w)
    _close(xstate_reduced_wigner(x, 1), half1)
    _close(xstate_reduced_wigner(x, 2), half2)
    marginals = xstate_marginals(x)
    _close(marginals.mu_marginal, mu)
    _close(marginals.nu_marginal, nu)
    _close(xstate_delta(x), w - np.outer(mu, nu))


@SETTINGS
@given(xstates, st.floats(0.0, 5e-11))
def test_xstate_from_matrix_reads_the_fields_of_the_hermitian_part(x, skew):
    m = x.matrix()
    m[3, 0] += skew * (1 + 1j)  # within the Hermiticity guard of 1e-10
    read = xstate_from_matrix(m)
    expected = XState(
        rho11=float(m[0, 0].real),
        rho22=float(m[1, 1].real),
        rho33=float(m[2, 2].real),
        rho44=float(m[3, 3].real),
        rho14=complex(m[0, 3] + np.conj(m[3, 0])) / 2.0,
        rho23=complex(m[1, 2] + np.conj(m[2, 1])) / 2.0,
    )
    assert read == expected and hash(read) == hash(expected)
    assert np.array_equal(read._vector, expected._vector)
    _close(xstate_wigner(read, "su4"), wigner_grid((m + m.conj().T) / 2.0, su4_kernel()))


def test_xstate_from_matrix_reads_every_layout():
    m = munro(0.8).matrix()
    m[1, 2], m[2, 1] = 0.05j, -0.05j
    expected = xstate_from_matrix(m)
    for layout in (np.asfortranarray(m), m.conj().T, np.kron(m, np.ones((2, 2)))[::2, ::2]):
        read = xstate_from_matrix(layout)
        assert read == expected and np.array_equal(read._vector, expected._vector)
    assert xstate_from_matrix(munro(0.8).matrix().real) == munro(0.8)


def _assert_frozen(vector, views=()):
    assert not vector.flags.writeable
    for array in (vector, *views):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.5


def test_stored_vectors_are_read_only_and_apart_from_the_callers_arrays(rng):
    a, b, c = rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.3, 0.3, (3, 3))
    f = FanoCoefficients(a=a, b=b, c=c)
    before = wigner_pair(f).copy()
    _assert_frozen(f._vector, (f.a, f.b, f.c))
    assert all(np.shares_memory(view, f._vector) for view in (f.a, f.b, f.c))
    for array in (a, b, c):
        array[...] = 7.0
    assert np.array_equal(wigner_pair(f), before) and f._vector[1] != 7.0

    m = random_density(rng, 4)
    extracted = fano_extract(m)
    _assert_frozen(extracted._vector, (extracted.a, extracted.b, extracted.c))
    stored = extracted._vector.copy()
    m[...] = 0.0
    assert np.array_equal(extracted._vector, stored)

    x_matrix = munro(0.8).matrix()
    x = xstate_from_matrix(x_matrix)
    _assert_frozen(x._vector)
    stored = x._vector.copy()
    x_matrix[...] = 0.0
    assert np.array_equal(x._vector, stored) and x == munro(0.8)
    _assert_frozen(munro(0.8)._vector)
    populations = x.populations
    populations[0] = 9.0  # a fresh array, as before
    assert x.rho11 == 0.4 and x._vector[0] == 0.4

    rho11 = np.array(0.25)
    y = XState(rho11, 0.25, 0.25, 0.25, 0.1)
    rho11[...] = 0.5
    assert y.rho11 == 0.25 and y == XState(0.25, 0.25, 0.25, 0.25, 0.1)


def test_copies_and_pickles_keep_the_stored_vector(rng):
    f = fano_extract(random_density(rng, 4))
    x = munro(0.8)
    for copy_of in (copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))):
        g = copy_of(f)
        _assert_frozen(g._vector, (g.a, g.b, g.c))
        assert all(np.shares_memory(view, g._vector) for view in (g.a, g.b, g.c))
        assert np.array_equal(g._vector, f._vector) and np.array_equal(delta_pair(g), delta_pair(f))
        y = copy_of(x)
        _assert_frozen(y._vector)
        assert y == x and np.array_equal(y._vector, x._vector)


def test_repr_equality_and_fields_are_unchanged():
    f = FanoCoefficients(a=[0.1, 0.2, 0.3], b=(0, 0, -0.5), c=np.diag([1.0, -1.0, 0.25]))
    assert repr(f) == (
        "FanoCoefficients(a=array([0.1, 0.2, 0.3]), b=array([ 0. ,  0. , -0.5]), "
        "c=array([[ 1.  ,  0.  ,  0.  ],\n       [ 0.  , -1.  ,  0.  ],\n       [ 0.  ,  0.  ,  0.25]]))"
    )
    assert f == f and f != FanoCoefficients(a=f.a, b=f.b, c=f.c)  # compared by identity
    assert [(d.name, d.type) for d in dataclasses.fields(FanoCoefficients)] == [
        ("a", "np.ndarray"),
        ("b", "np.ndarray"),
        ("c", "np.ndarray"),
    ]
    assert repr(munro(0.8)) == (
        "XState(rho11=0.4, rho22=0.19999999999999996, rho33=0.0, rho44=0.4, rho14=0.4, rho23=0.0)"
    )
    assert repr(XState(0.25, 0.25, 0.25, 0.25, 0.1 - 0.2j, 0)) == (
        "XState(rho11=0.25, rho22=0.25, rho33=0.25, rho44=0.25, rho14=(0.1-0.2j), rho23=0)"
    )
    m = np.diag([0.4, 0.1, 0.1, 0.4]).astype(complex)
    m[0, 3], m[3, 0] = 0.1 + 0.05j, 0.1 - 0.05j
    read = xstate_from_matrix(m)
    assert repr(read) == "XState(rho11=0.4, rho22=0.1, rho33=0.1, rho44=0.4, rho14=(0.1+0.05j), rho23=0j)"
    assert read == XState(0.4, 0.1, 0.1, 0.4, 0.1 + 0.05j) and read != XState(0.4, 0.1, 0.1, 0.4, 0.1)
    assert len({read, XState(0.4, 0.1, 0.1, 0.4, 0.1 + 0.05j)}) == 1
    fields = [(d.name, d.type, d.default) for d in dataclasses.fields(XState)]
    assert fields == [
        ("rho11", "float", dataclasses.MISSING),
        ("rho22", "float", dataclasses.MISSING),
        ("rho33", "float", dataclasses.MISSING),
        ("rho44", "float", dataclasses.MISSING),
        ("rho14", "complex", 0.0),
        ("rho23", "complex", 0.0),
    ]
    assert dataclasses.replace(read, rho14=0.1) == XState(0.4, 0.1, 0.1, 0.4, 0.1)


@SETTINGS
@given(fano_vectors)
def test_fano_su4_rows_below_the_grid_are_the_marginals(t):
    # the nu rows hold the nu-marginal itself: the constant 1/4 is the term Tr rho / 4 of the map
    f = FanoCoefficients(a=t[:3], b=t[3:6], c=t[6:].reshape(3, 3))
    mu, nu = _marginals(wigner_grid(fano_matrix(f), su4_kernel()))
    v = _fano_map("su4") @ f._vector
    _close(v[16:20], mu)
    _close(v[20:24], nu)


@pytest.mark.parametrize(
    "select, state",
    [
        (reduced_density, lambda: fano_extract(np.eye(4) / 4)),
        (reduced_wigner, lambda: fano_extract(np.eye(4) / 4)),
        (xstate_reduced_wigner, lambda: munro(0.8)),
    ],
)
@pytest.mark.parametrize("which", [0, 3, 1.5])
def test_a_qubit_selector_other_than_1_or_2_is_refused(select, state, which):
    with pytest.raises(ValueError, match=f"qubit selector must be 1 or 2, got {which}"):
        select(state(), which)


SELECTORS = pytest.mark.parametrize(
    "select, state",
    [
        (reduced_density, lambda: fano_extract(np.diag([0.4, 0.3, 0.2, 0.1]))),
        (reduced_wigner, lambda: fano_extract(np.diag([0.4, 0.3, 0.2, 0.1]))),
        (xstate_reduced_wigner, lambda: munro(0.8)),
    ],
)


@SELECTORS
@pytest.mark.parametrize(
    "which",
    [1.0, 2.0, True, np.float64(2.0), np.array([1, 2])],
    ids=["float-1", "float-2", "bool", "numpy-float-2", "array"],
)
def test_a_qubit_selector_that_is_not_an_integer_is_refused(select, state, which):
    # 1.0 and True equal 1, so only the integer check tells them from the selector 1
    with pytest.raises(ValueError, match=r"^qubit selector must be an integer, got "):
        select(state(), which)


@SELECTORS
def test_a_numpy_integer_qubit_selector_reads_as_its_int(select, state):
    s = state()
    for which in (1, 2):
        assert np.array_equal(select(s, np.int64(which)), select(s, which))


@pytest.mark.parametrize("read", [fano_extract, xstate_from_matrix])
def test_the_four_level_readers_refuse_a_2x2_matrix(read):
    with pytest.raises(ValueError, match="dimension must be 4, got 2"):
        read(np.eye(2) / 2)
