"""Every coordinate form is composed as the transpose of its read, over the same real rows:
``fano_matrix``, ``density_from_bloch``, ``XState.matrix`` and the table path of ``reconstruct``
against the hand-written compositions they replace."""

import numpy as np
import pytest

from dwigner import (
    BELL_KINDS,
    FanoCoefficients,
    bell,
    bell_fano,
    density_from_bloch,
    fano_matrix,
    gisin,
    gisin_from_combinations,
    munro,
    peres_horodecki,
    reconstruct,
    reduced_density,
    werner,
    xstate_from_matrix,
)
from dwigner.kernel import _TABLE_MAX
from dwigner.states import _werner_fano
from helpers import (
    random_xstate,
    reference_density_from_bloch,
    reference_fano_matrix,
    reference_reconstruct,
    reference_xstate_matrix,
)

SCALES = (1e-3, 1.0, 1e3)


@pytest.mark.parametrize("scale", SCALES)
def test_fano_matrix_is_the_einsum_bit_for_bit(rng, scale):
    for _ in range(200):
        t = scale * rng.normal(size=15)
        f = FanoCoefficients(a=t[:3], b=t[3:6], c=t[6:].reshape(3, 3))
        assert fano_matrix(f).tobytes() == reference_fano_matrix(f).tobytes()


def test_bell_and_werner_matrices_are_the_einsum_bit_for_bit():
    for kind in BELL_KINDS:
        assert bell(kind).tobytes() == reference_fano_matrix(bell_fano(kind)).tobytes()
    for fraction in np.linspace(0.0, 1.0, 101):
        assert werner(fraction).tobytes() == reference_fano_matrix(_werner_fano(fraction)).tobytes()


@pytest.mark.parametrize("n", (2, 4))
@pytest.mark.parametrize("scale", SCALES)
def test_density_from_bloch_is_the_einsum_bit_for_bit(rng, n, scale):
    for _ in range(200):
        v = scale * rng.normal(size=n * n - 1)
        assert density_from_bloch(v, n).tobytes() == reference_density_from_bloch(v, n).tobytes()


def test_reduced_density_is_the_einsum_bit_for_bit(rng):
    for _ in range(50):
        t = rng.normal(size=15)
        f = FanoCoefficients(a=t[:3], b=t[3:6], c=t[6:].reshape(3, 3))
        for which, polarization in ((1, f.a), (2, f.b)):
            assert reduced_density(f, which).tobytes() == reference_density_from_bloch(polarization, 2).tobytes()


@pytest.mark.parametrize("n", range(2, _TABLE_MAX + 1))
@pytest.mark.parametrize("scale", SCALES)
def test_table_path_reconstruct_is_the_inline_view_bit_for_bit(rng, n, scale):
    for _ in range(20):
        w = scale * rng.normal(size=(n, n))
        assert reconstruct(w).tobytes() == reference_reconstruct(w).tobytes()


def _named_xstates():
    yield from (munro(g) for g in (0.0, 0.5, 2.0 / 3.0, 0.8, 1.0))
    yield from (peres_horodecki(x) for x in (0.0, 0.25, 0.5, 1.0))
    yield from (gisin(a, b, x) for a, b, x in ((0.6, 0.2, 0.5), (0.6, 0.0, 0.5), (0.6, 0.2, 0.0), (0.7, 0.1, 1.0)))
    yield from (gisin_from_combinations(s, p, x) for s, p, x in ((0.0, 0.0, 0.5), (0.1, 0.0, 1.0), (0.2, 0.3, 0.7)))


def test_xstate_matrix_equals_the_cell_writes_with_no_negative_zero(rng):
    states = [*_named_xstates(), *(random_xstate(rng) for _ in range(200))]
    states += [xstate_from_matrix(x.matrix()) for x in states]
    for x in states:
        m = x.matrix()
        assert np.array_equal(m, reference_xstate_matrix(x))
        parts = m.view(float)
        assert not np.signbit(parts[parts == 0.0]).any()
