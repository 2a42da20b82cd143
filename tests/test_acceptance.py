"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 3 also relates the four-level closed-form grid to the
invertible kernel (see the README section on the two dimension-4
conventions): the two agree on diagonal states, both return the
populations as mu-marginals, and the closed form's linear part has rank
11 with a null space spanned by four named coherence directions that the
kernel sees in full.  The full-state gap between the two is printed for
information only.
"""

import json

import numpy as np

from dwigner import (
    bell,
    bell_fano,
    bell_wigner_pair,
    bell_wigner_su4,
    bloch_vector,
    delta_pair,
    emit_grid,
    fano_extract,
    fourier4,
    generator_from_schwinger,
    generators,
    gisin_from_combinations,
    grid_overlap,
    kernel,
    measure_probabilities,
    munro,
    parse_grid,
    parse_matrix,
    peres_horodecki,
    permutation_pulse,
    phase_exponent,
    purity,
    reconstruct,
    run_parity_algorithm,
    serialize_matrix,
    state_overlap,
    structure_constants,
    super_fidelity,
    symmetrized_basis,
    werner,
    werner_wigner,
    wigner_grid,
    wigner_pair,
    wigner_pair_from_matrix,
    wigner_su2,
    wigner_su4,
    xstate_delta,
    xstate_from_matrix,
    xstate_marginals,
    xstate_wigner,
)
from dwigner.cli import main
from dwigner.kernel import _clock_shift_coefficients
from helpers import (
    clock_shift_sum,
    hermitizing_phase,
    printed_clock_shift_coefficients,
    random_density,
    random_xstate,
)

CP = np.sqrt((2 + np.sqrt(2)) / 2)
CM = np.sqrt((2 - np.sqrt(2)) / 2)
ROOT = np.sqrt(2 - np.sqrt(2))

SAMPLES = 100
RNG_SEED = 20260809


def _rng():
    return np.random.default_rng(RNG_SEED)


def _report(num, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{verdict}] criterion {num:02d}: {label}{suffix}")
    assert ok, f"criterion {num} failed: {label} {detail}"


def test_criterion_01_qubit_grid_table():
    rng = _rng()
    worst = 0.0
    for _ in range(SAMPLES):
        rho = random_density(rng, 2)
        p = bloch_vector(rho)
        grid = wigner_su2(p)
        r11, r12, r22 = rho[0, 0].real, rho[0, 1], rho[1, 1].real
        vector_form = 0.5 * np.array(
            [
                [1 + p[0] - p[1] + p[2], 1 - p[0] + p[1] + p[2]],
                [1 + p[0] + p[1] - p[2], 1 - p[0] - p[1] - p[2]],
            ]
        )
        element_form = np.array(
            [
                [r11 + r12.real + r12.imag, r11 - r12.real - r12.imag],
                [r22 + r12.real - r12.imag, r22 - r12.real + r12.imag],
            ]
        )
        worst = max(worst, np.max(np.abs(grid - vector_form)))
        worst = max(worst, np.max(np.abs(grid - element_form)))
    _report(1, "qubit grid table in both parameterizations", worst < 1e-12, f"max dev {worst:.2e}")


PAIR_SIGNS = {
    (0, 0, 0, 0): [+1, -1, +1, +1, -1, +1, +1, -1, +1, -1, +1, -1, +1, -1, +1],
    (0, 0, 1, 0): [+1, -1, +1, +1, +1, -1, +1, +1, -1, -1, -1, +1, +1, +1, -1],
    (0, 0, 0, 1): [+1, -1, +1, -1, +1, +1, -1, +1, +1, +1, -1, -1, -1, +1, +1],
    (0, 0, 1, 1): [+1, -1, +1, -1, -1, -1, -1, -1, -1, +1, +1, +1, -1, -1, -1],
    (1, 0, 0, 0): [+1, +1, -1, +1, -1, +1, +1, -1, +1, +1, -1, +1, -1, +1, -1],
    (1, 0, 1, 0): [+1, +1, -1, +1, +1, -1, +1, +1, -1, +1, +1, -1, -1, -1, +1],
    (1, 0, 0, 1): [+1, +1, -1, -1, +1, +1, -1, +1, +1, -1, +1, +1, +1, -1, -1],
    (1, 0, 1, 1): [+1, +1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, +1, +1, +1],
    (0, 1, 0, 0): [-1, +1, +1, +1, -1, +1, -1, +1, -1, +1, -1, +1, +1, -1, +1],
    (0, 1, 1, 0): [-1, +1, +1, +1, +1, -1, -1, -1, +1, +1, +1, -1, +1, +1, -1],
    (0, 1, 0, 1): [-1, +1, +1, -1, +1, +1, +1, -1, -1, -1, +1, +1, -1, +1, +1],
    (0, 1, 1, 1): [-1, +1, +1, -1, -1, -1, +1, +1, +1, -1, -1, -1, -1, -1, -1],
    (1, 1, 0, 0): [-1, -1, -1, +1, -1, +1, -1, +1, -1, -1, +1, -1, -1, +1, -1],
    (1, 1, 1, 0): [-1, -1, -1, +1, +1, -1, -1, -1, +1, -1, -1, +1, -1, -1, +1],
    (1, 1, 0, 1): [-1, -1, -1, -1, +1, +1, +1, -1, -1, +1, -1, -1, +1, -1, -1],
    (1, 1, 1, 1): [-1, -1, -1, -1, -1, -1, +1, +1, +1, +1, +1, +1, +1, +1, +1],
}


def _matrix_cell(r, point):
    R, I = np.real, np.imag
    r11, r22, r33, r44 = r[0, 0].real, r[1, 1].real, r[2, 2].real, r[3, 3].real
    r12, r13, r14, r23, r24, r34 = r[0, 1], r[0, 2], r[0, 3], r[1, 2], r[1, 3], r[2, 3]
    return {
        (0, 0, 0, 0): r11 + R(r12 + r13 + r23) + I(r12 + r13 + r14),
        (0, 0, 1, 0): r22 + R(r12 + r14 + r24) - I(r12 - r23 - r24),
        (0, 0, 0, 1): r11 - R(r12 - r13 + r23) - I(r12 - r13 + r14),
        (0, 0, 1, 1): r22 - R(r12 + r14 - r24) + I(r12 - r23 + r24),
        (1, 0, 0, 0): r33 + R(r13 + r14 + r34) - I(r13 + r23 - r34),
        (1, 0, 1, 0): r44 + R(r23 + r24 + r34) - I(r14 + r24 + r34),
        (1, 0, 0, 1): r33 + R(r13 - r14 - r34) - I(r13 - r23 + r34),
        (1, 0, 1, 1): r44 - R(r23 - r24 + r34) + I(r14 - r24 + r34),
        (0, 1, 0, 0): r11 + R(r12 - r13 - r23) + I(r12 - r13 - r14),
        (0, 1, 1, 0): r22 + R(r12 - r14 - r24) - I(r12 + r23 + r24),
        (0, 1, 0, 1): r11 - R(r12 + r13 - r23) - I(r12 + r13 - r14),
        (0, 1, 1, 1): r22 - R(r12 - r14 + r24) + I(r12 + r23 - r24),
        (1, 1, 0, 0): r33 - R(r13 + r14 - r34) + I(r13 + r23 + r34),
        (1, 1, 1, 0): r44 - R(r23 + r24 - r34) + I(r14 + r24 - r34),
        (1, 1, 0, 1): r33 - R(r13 - r14 + r34) + I(r13 - r23 - r34),
        (1, 1, 1, 1): r44 + R(r23 - r24 - r34) - I(r14 - r24 - r34),
    }[point]


def test_criterion_02_pair_grid_tables():
    rng = _rng()
    k = kernel(2)
    worst = 0.0
    for _ in range(SAMPLES):
        rho = random_density(rng, 4)
        f = fano_extract(rho)
        coeff_grid = wigner_pair(f)
        element_grid = wigner_pair_from_matrix(rho)
        flat = np.concatenate([f.a, f.b, f.c.reshape(-1)])
        for point, signs in PAIR_SIGNS.items():
            table_value = (1.0 + np.dot(signs, flat)) / 4.0
            mu1, nu1, mu2, nu2 = point
            oracle = np.trace(
                np.kron(k[mu1, nu1].conj().T, k[mu2, nu2].conj().T) @ rho
            ).real
            worst = max(worst, abs(coeff_grid[point] - table_value))
            worst = max(worst, abs(element_grid[point] - _matrix_cell(rho, point)))
            worst = max(worst, abs(coeff_grid[point] - element_grid[point]))
            worst = max(worst, abs(coeff_grid[point] - oracle))
    _report(2, "pair grid tables vs both forms and tensor-kernel oracle", worst < 1e-12, f"max dev {worst:.2e}")


def _su4_cells(r):
    R, I = np.real, np.imag
    r11, r22, r33, r44 = r[0, 0].real, r[1, 1].real, r[2, 2].real, r[3, 3].real
    r12, r13, r14, r23, r24, r34 = r[0, 1], r[0, 2], r[0, 3], r[1, 2], r[1, 3], r[2, 3]
    return np.array(
        [
            [
                r11 + CP * R(r12) - CM * R(r14 + r23 - r34),
                r11 - CP * I(r12) - CM * I(r14 - r23 + r34),
                r11 - CP * R(r12) + CM * R(r14 + r23 - r34),
                r11 + CP * I(r12) + CM * I(r14 - r23 + r34),
            ],
            [
                r22 + CP * R(r12 + r14 + r23) + 2 * R(r13) - CM * R(r34),
                r22 - CP * I(r12 - r14 + r23) - 2 * R(r13) + CM * I(r34),
                r22 - CP * R(r12 + r14 + r23) + 2 * R(r13) + CM * R(r34),
                r22 + CP * I(r12 - r14 + r23) - 2 * R(r13) - CM * I(r34),
            ],
            [
                r33 - CM * R(r12) + CP * R(r14 + r23 + r34) + 2 * R(r24),
                r33 + CM * I(r12) + CP * I(r14 - r23 - r34) - 2 * R(r24),
                r33 + CM * R(r12) - CP * R(r14 + r23 + r34) + 2 * R(r24),
                r33 - CM * I(r12) - CP * I(r14 - r23 - r34) - 2 * R(r24),
            ],
            [
                r44 + CM * R(r12 - r14 - r23) + CP * R(r34),
                r44 - CM * I(r12 + r14 - r23) - CP * I(r34),
                r44 - CM * R(r12 - r14 - r23) - CP * R(r34),
                r44 + CM * I(r12 + r14 - r23) + CP * I(r34),
            ],
        ]
    )


def _hermitian_pair(entries):
    """Hermitian matrix with the given upper-triangle entries and their conjugate partners."""
    m = np.zeros((4, 4), dtype=complex)
    for (i, j), value in entries.items():
        m[i, j] = value
        m[j, i] = np.conj(value)
    return m


# The four Hermitian directions the closed form cannot see:
# Im rho[0,2], Im rho[1,3], Re(rho[0,3] - rho[1,2]) and Im(rho[0,3] + rho[1,2]).
BLIND_DIRECTIONS = (
    _hermitian_pair({(0, 2): 1j}),
    _hermitian_pair({(1, 3): 1j}),
    _hermitian_pair({(0, 3): 1.0, (1, 2): -1.0}),
    _hermitian_pair({(0, 3): 1j, (1, 2): 1j}),
)
BLIND_STEP = 0.05


def test_criterion_03_four_level_grid_table():
    from dwigner.generators import _mu_ratio, _representative_table

    rng = _rng()
    k = kernel(4)

    def kernel_trace(r):
        return np.einsum("mnij,ij->mn", k.ops.conj(), r).real

    table_dev = 0.0
    population_dev = 0.0
    marginal_dev = 0.0
    full_gap = 0.0
    for _ in range(SAMPLES):
        rho = random_density(rng, 4)
        grid = wigner_su4(rho)
        traces = kernel_trace(rho)
        table_dev = max(table_dev, np.max(np.abs(grid - _su4_cells(rho))))
        # population sector: on diagonal states the closed form is the kernel trace
        populations = np.diag(np.diag(rho))
        population_dev = max(
            population_dev, np.max(np.abs(wigner_su4(populations) - kernel_trace(populations)))
        )
        # both grids return the populations as mu-marginals (the nu-marginals differ)
        diagonal = np.diag(rho).real
        for w in (grid, traces):
            marginal_dev = max(marginal_dev, np.max(np.abs(0.25 * w.sum(axis=1) - diagonal)))
        full_gap = max(full_gap, np.max(np.abs(grid - traces)))

    surd_dev = max(
        abs(abs(0.5 * _mu_ratio(mu, off)) - target)
        for off, targets in ((0.5, (CP, CP, CM, CM)), (1.5, (CM, CP, CP, CM)), (2.5, (CM, CM, CP, CP)))
        for mu, target in enumerate(targets)
    )

    # non-invertibility: the linear part has rank 11 of 15, its null space is
    # spanned by the four blind directions, and the kernel sees each of them
    # in full (Parseval: (1/4) sum dW^2 = Tr[(eps D)^2])
    rank = int(np.linalg.matrix_rank(_representative_table(4).reshape(15, 16)))
    mixed = np.eye(4) / 4
    blind_dev = 0.0
    parseval_dev = 0.0
    for direction in BLIND_DIRECTIONS:
        step = BLIND_STEP * direction
        shifted = mixed + step
        blind_dev = max(blind_dev, np.max(np.abs(wigner_su4(shifted) - wigner_su4(mixed))))
        kernel_shift = kernel_trace(shifted) - kernel_trace(mixed)
        expected = np.trace(step @ step).real
        parseval_dev = max(parseval_dev, abs(0.25 * np.sum(kernel_shift**2) - expected))
    blind_rank = int(np.linalg.matrix_rank(np.stack(BLIND_DIRECTIONS).reshape(4, 16)))

    ok = (
        table_dev < 1e-12
        and surd_dev < 1e-12
        and population_dev < 1e-12
        and marginal_dev < 1e-12
        and rank == 11
        and blind_rank == 4
        and blind_dev < 1e-12
        and parseval_dev < 1e-12
    )
    _report(
        3,
        "four-level grid: cell table, surds, and relation to the invertible kernel",
        ok,
        f"cell-table dev {table_dev:.2e}; surd dev {surd_dev:.2e}; population dev "
        f"{population_dev:.2e}; mu-marginal dev {marginal_dev:.2e}; table rank {rank}; "
        f"blind-direction dev {blind_dev:.2e} (kernel Parseval dev {parseval_dev:.2e}); "
        f"full-state gap to kernel {full_gap:.2e} (expected: the closed form is not "
        "informationally complete; see README on the two conventions)",
    )


def test_criterion_04_xstate_table():
    rng = _rng()
    worst = 0.0
    for _ in range(SAMPLES):
        x = random_xstate(rng)
        grid = xstate_wigner(x, "su4")
        marginals = xstate_marginals(x)
        product = np.outer(marginals.mu_marginal, marginals.nu_marginal)
        delta = xstate_delta(x)
        p = (x.rho11, x.rho22, x.rho33, x.rho44)
        re_p = (x.rho14 + x.rho23).real
        im_m = (x.rho14 - x.rho23).imag
        for nu, coh in ((0, re_p), (1, im_m), (2, -re_p), (3, -im_m)):
            for mu, w_coef, d_coef in (
                (0, -CM, -CM * (1 + np.sqrt(2) * p[0])),
                (1, CP, CP * (1 - (2 - np.sqrt(2)) * p[1])),
                (2, CP, CP * (1 - (2 - np.sqrt(2)) * p[2])),
                (3, -CM, -CM * (1 + np.sqrt(2) * p[3])),
            ):
                worst = max(worst, abs(grid[mu, nu] - (p[mu] + w_coef * coh)))
                worst = max(worst, abs(product[mu, nu] - (p[mu] + ROOT * p[mu] * coh)))
                worst = max(worst, abs(delta[mu, nu] - d_coef * coh))
    _report(4, "X-state grid, marginal product, and signature columns", worst < 1e-12, f"max dev {worst:.2e}")


def test_criterion_05_generator_algebra():
    exact_dev = 0.0
    law_dev = 0.0
    rng = _rng()
    for n in (2, 4):
        gs = generators(n)
        stack = gs.stack()
        m = len(gs)
        sc = structure_constants(gs)
        f, d = sc.antisymmetric, sc.symmetric
        jt = d + 1j * f
        # basic rules, exact
        exact_dev = max(exact_dev, float(np.max(np.abs(stack - np.conj(np.transpose(stack, (0, 2, 1)))))))
        exact_dev = max(exact_dev, float(np.max(np.abs(np.trace(stack, axis1=1, axis2=2)))))
        exact_dev = max(
            exact_dev,
            float(np.max(np.abs(np.einsum("iab,jba->ij", stack, stack) - 2 * np.eye(m)))),
        )
        # closure, exhaustive
        comms = np.einsum("iab,jbc->ijac", stack, stack) - np.einsum("jab,ibc->ijac", stack, stack)
        antis = np.einsum("iab,jbc->ijac", stack, stack) + np.einsum("jab,ibc->ijac", stack, stack)
        law_dev = max(law_dev, float(np.max(np.abs(comms - 2j * np.einsum("ijk,kab->ijab", f, stack)))))
        law_dev = max(
            law_dev,
            float(
                np.max(
                    np.abs(
                        antis
                        - (4.0 / n) * np.einsum("ij,ab->ijab", np.eye(m), np.eye(n))
                        - 2 * np.einsum("ijk,kab->ijab", d, stack)
                    )
                )
            ),
        )
        # Jacobi identities, exhaustive
        def cyclic(inner):
            term = np.einsum("iab,jkbc->ijkac", stack, inner) - np.einsum(
                "jkab,ibc->ijkac", inner, stack
            )
            return term + np.transpose(term, (1, 2, 0, 3, 4)) + np.transpose(term, (2, 0, 1, 3, 4))

        law_dev = max(law_dev, float(np.max(np.abs(cyclic(comms)))))
        law_dev = max(law_dev, float(np.max(np.abs(cyclic(antis)))))
        # cubic traces, exhaustive, via direct products
        for i in range(m):
            for j in range(m):
                for kk in range(m):
                    direct = np.trace(stack[i] @ stack[j] @ stack[kk])
                    law_dev = max(law_dev, abs(direct - 2 * jt[i, j, kk]))
        # quartic traces: exhaustive for the qubit set, sampled for the rest
        quads = (
            [(i, j, kk, l) for i in range(3) for j in range(3) for kk in range(3) for l in range(3)]
            if n == 2
            else [tuple(rng.integers(0, 15, size=4)) for _ in range(200)]
        )
        for i, j, kk, l in quads:
            direct = np.trace(stack[i] @ stack[j] @ stack[kk] @ stack[l])
            expected = (4.0 / n) * (i == j) * (kk == l) + 2 * np.sum(jt[i, j, :] * jt[:, kk, l])
            law_dev = max(law_dev, abs(direct - expected))
    # the computed polynomials against the matrices, and the paper's printed terms (the oracle)
    # against both the matrices and the computed coefficients
    schwinger_dev = 0.0
    for i, g in enumerate(generators(4)):
        printed = printed_clock_shift_coefficients(i)
        defects = (
            generator_from_schwinger(i) - g,
            clock_shift_sum(printed) - g,
            _clock_shift_coefficients(g) - printed,
        )
        schwinger_dev = max(schwinger_dev, *(float(np.max(np.abs(d))) for d in defects))
    ok = exact_dev < 1e-12 and law_dev < 1e-10 and schwinger_dev < 1e-12
    _report(
        5,
        "generator algebra and clock/shift expression table",
        ok,
        f"basics {exact_dev:.2e}; laws {law_dev:.2e}; expressions {schwinger_dev:.2e}",
    )


def test_criterion_06_bell_values():
    pair_ok = True
    delta_ok = True
    extreme_dev = 0.0
    for kind in ("phi+", "phi-", "psi+", "psi-"):
        grid = bell_wigner_pair(kind)
        values = np.round(grid.reshape(-1), 12)
        pair_ok &= set(values) == {0.5, -0.5}
        pair_ok &= np.max(np.abs(grid - np.where(grid > 0, 0.5, -0.5))) < 1e-12
        delta = delta_pair(bell_fano(kind))
        delta_ok &= set(np.round(delta.reshape(-1), 12)) == {-0.75, 0.25}
    for kind, mx, mn in (
        ("psi+", 1.153, -0.271),
        ("psi-", 1.153, -0.271),
        ("phi+", 0.771, -0.653),
        ("phi-", 0.771, -0.653),
    ):
        grid = bell_wigner_su4(kind)
        extreme_dev = max(extreme_dev, abs(grid.max() - mx), abs(grid.min() - mn))
    ok = pair_ok and delta_ok and extreme_dev < 5e-4
    _report(6, "maximally entangled state values and extremes", ok, f"extreme dev {extreme_dev:.2e}")


def test_criterion_07_werner_family():
    worst = 0.0
    ok = True
    for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
        grid = werner_wigner(fraction, "pair")
        expected = {round(1 / 6 + fraction / 3, 12), round(0.5 - fraction, 12)}
        ok &= set(np.round(grid.reshape(-1), 12)) == expected
        worst = max(worst, abs(purity(werner(fraction)) - (1 - 2 * fraction + 4 * fraction**2) / 3))
    delta_cases = {
        1.0: {-0.75, 0.25},
        0.5: {-0.25, round(1 / 12, 12)},
        0.25: {0.0},
        0.0: {round(-1 / 12, 12), 0.25},
    }
    for fraction, expected in delta_cases.items():
        delta = delta_pair(fano_extract(werner(fraction)))
        ok &= set(np.round(delta.reshape(-1), 12)) == expected
    _report(7, "Werner family grid values, purity, and signatures", ok and worst < 1e-12, f"purity dev {worst:.2e}")


def test_criterion_08_munro_signature_values():
    worst = 0.0
    for gamma, cells in (
        (0.5, ((1, 0, 0.26), (2, 0, 0.33))),
        (0.75, ((1, 0, 0.42), (2, 0, 0.49))),
        (1.0, ((1, 0, 0.65),)),
    ):
        delta = xstate_delta(munro(gamma))
        for mu, nu, value in cells:
            worst = max(worst, abs(delta[mu, nu] - value))
            worst = max(worst, abs(delta[mu, 2] + value))
    _report(8, "maximal-concurrence state signature values", worst < 5e-3, f"max dev {worst:.2e}")


def test_criterion_09_signature_hierarchy():
    ph = np.max(np.abs(xstate_delta(peres_horodecki(1.0))))
    gs = np.max(np.abs(xstate_delta(gisin_from_combinations(np.sqrt(2) / 4, 0.5, 1.0))))
    phi = np.max(np.abs(xstate_delta(xstate_from_matrix(bell("phi+")))))
    ok = (
        ph < gs < phi
        and abs(ph - 0.46) < 5e-3
        and abs(gs - 0.60) < 5e-3
        and abs(phi - 0.65) < 5e-3
    )
    _report(9, "signature hierarchy across the three families", ok, f"{ph:.4f} < {gs:.4f} < {phi:.4f}")


def test_criterion_10_parity_algorithm():
    positive = run_parity_algorithm(2)
    negative = run_parity_algorithm(6)
    psi1 = fourier4() @ np.array([0, 1, 0, 0], dtype=complex)
    ok = (
        positive.outcome_level == 1
        and abs(positive.outcome_probability - 1.0) < 1e-12
        and positive.parity == "positive"
        and negative.outcome_level == 3
        and abs(negative.outcome_probability - 1.0) < 1e-12
        and negative.parity == "negative"
        and np.max(np.abs(np.linalg.matrix_power(fourier4(), 4) - np.eye(4))) < 1e-12
        and np.max(np.abs(permutation_pulse(2) @ psi1 + 1j * psi1)) < 1e-12
        and np.max(np.abs(measure_probabilities(negative.steps[-1].state) - [0, 0, 0, 1])) < 1e-12
    )
    _report(10, "parity algorithm outcomes and operator identities", ok)


def test_criterion_11_structural_properties():
    rng = _rng()
    basis_dev = 0.0
    round_trip_dev = 0.0
    moment_dev = 0.0
    shift_dev = 0.0
    for n in (2, 3, 4, 5):
        k = kernel(n)
        for mu in range(n):
            for nu in range(n):
                basis_dev = max(basis_dev, abs(np.trace(k[mu, nu]) - 1.0))
                for mu2 in range(n):
                    for nu2 in range(n):
                        value = np.sum(k[mu, nu].conj() * k[mu2, nu2])
                        expected = n if (mu, nu) == (mu2, nu2) else 0.0
                        basis_dev = max(basis_dev, abs(value - expected))
        basis_dev = max(basis_dev, float(np.max(np.abs(k.ops.sum(axis=(0, 1)) / n - np.eye(n)))))
        for _ in range(SAMPLES):
            rho = random_density(rng, n)
            grid = wigner_grid(rho)
            round_trip_dev = max(round_trip_dev, float(np.max(np.abs(reconstruct(grid) - rho))))
            moment_dev = max(moment_dev, abs(np.sum(grid) / n - 1.0))
            moment_dev = max(moment_dev, abs(np.sum(grid * grid) / n - purity(rho)))
    # window-shift invariance of the defining sum
    for n in (2, 4):
        w = np.exp(2j * np.pi / n)
        k = kernel(n)
        for mu in range(n):
            for nu in range(n):
                total = np.zeros((n, n), dtype=complex)
                for eta in range(-n, 0):
                    for xi in range(n):
                        total += (
                            w ** (-(mu * eta + nu * xi))
                            * np.exp(1j * np.pi * phase_exponent(eta, xi, n))
                            * hermitizing_phase(eta, xi, n)
                            * symmetrized_basis(eta, xi, n)
                        )
                shift_dev = max(shift_dev, float(np.max(np.abs(total / np.sqrt(n) - k[mu, nu]))))
    ok = basis_dev < 1e-12 and round_trip_dev < 1e-12 and moment_dev < 1e-10 and shift_dev < 1e-12
    _report(
        11,
        "kernel structure, round trips, and window shifts",
        ok,
        f"basis {basis_dev:.2e}; round trip {round_trip_dev:.2e}; "
        f"moments {moment_dev:.2e}; shift {shift_dev:.2e}",
    )


def test_criterion_12_super_fidelity():
    rng = _rng()
    worst = 0.0
    ok = True
    for _ in range(50):
        n = int(rng.choice([2, 4]))
        a = random_density(rng, n)
        b = random_density(rng, n)
        ok &= abs(super_fidelity(a, a) - 1.0) < 1e-12
        ok &= abs(super_fidelity(a, b) - super_fidelity(b, a)) < 1e-12
        direct = state_overlap(a, b)
        via_grids = grid_overlap(wigner_grid(a), wigner_grid(b))
        worst = max(worst, abs(direct - via_grids))
    _report(12, "super-fidelity identities and two-path overlap", ok and worst < 1e-12, f"two-path dev {worst:.2e}")


def test_criterion_13_io_and_cli(tmp_path, capsys):
    rng = _rng()
    ok = True
    # serialization round trips are exact
    for n in (2, 4):
        m = random_density(rng, n)
        ok &= np.array_equal(parse_matrix(serialize_matrix(m)), m)
    grid = wigner_su4(random_density(rng, 4))
    for fmt in ("csv", "json", "gnuplot"):
        ok &= np.array_equal(parse_grid(emit_grid(grid, fmt), fmt), grid)
    # one golden run per subcommand
    werner_path = tmp_path / "werner.json"
    werner_path.write_text(serialize_matrix(werner(1.0)), encoding="utf-8")
    bell_path = tmp_path / "bell.json"
    bell_path.write_text(serialize_matrix(bell("phi+")), encoding="utf-8")

    ok &= main(["state", "--name", "werner:F=1", "--emit", "wigner", "--rep", "pair"]) == 0
    ok &= set(np.round(parse_grid(capsys.readouterr().out).reshape(-1), 12)) == {0.5, -0.5}

    ok &= main(["wigner", "--input", str(werner_path), "--rep", "su4"]) == 0
    ok &= parse_grid(capsys.readouterr().out).shape == (4, 4)

    ok &= main(["delta", "--input", str(werner_path), "--rep", "pair"]) == 0
    ok &= set(np.round(parse_grid(capsys.readouterr().out).reshape(-1), 12)) == {-0.75, 0.25}

    ok &= main(["marginals", "--input", str(bell_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    ok &= np.allclose(doc["mu"], [1.0, 0.0, 0.0, 1.0], atol=1e-12)

    ok &= main(["algorithm", "--pulse", "6"]) == 0
    ok &= capsys.readouterr().out == "level 3, parity negative, p=1.000\n"

    ok &= main(["fidelity", "--a", str(werner_path), "--b", str(werner_path)]) == 0
    ok &= capsys.readouterr().out == "1.0\n"

    ok &= main(["validate", "--input", str(werner_path)]) == 0
    ok &= "verdict: valid density matrix" in capsys.readouterr().out

    bad_path = tmp_path / "bad.json"
    bad_path.write_text(serialize_matrix(np.diag([1.1, -0.1, 0.0, 0.0])), encoding="utf-8")
    ok &= main(["wigner", "--input", str(bad_path)]) == 1
    ok &= "eigenvalues" in capsys.readouterr().err

    with capsys.disabled():
        _report(13, "file formats and one golden run per subcommand", ok)
