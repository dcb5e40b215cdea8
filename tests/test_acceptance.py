"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single pass/fail line (visible with ``pytest -s``); the
pytest verdict per test is the authoritative record.  Everything is seeded
and deterministic.
"""

import time

import numpy as np

from peribessel import (
    GridFunction,
    MultiplierProblem,
    SpaceIndex,
    action,
    analyze,
    constant_field,
    delta_field,
    duality_pair,
    embedding_holds,
    equivalence_report,
    gen_distribution,
    hs_norm,
    lift,
    lp_norm,
    make_lattice,
    multiplier_norm_l2,
    pointwise_product,
    real_part_field,
    strichartz_case,
    synthesize,
)
from peribessel.conditions import conjugate_exponent

from conftest import multiplier_matrix, rectangle_quadrature, rel_err

TWO_PI = 2.0 * np.pi


def _report(number, description, worst, tolerance):
    verdict = "PASS" if worst <= tolerance else "FAIL"
    print(
        f"{verdict} criterion {number}: {description} "
        f"(worst {worst:.3e}, tolerance {tolerance:.1e})"
    )
    assert worst <= tolerance


def test_criterion_01_semigroup_law():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for n in (1, 2):
        lattice = make_lattice(n, 8)
        for j in range(100):
            u = gen_distribution("power-decay", lattice, alpha=0.5, seed=j)
            s, t = rng.uniform(-4.0, 4.0, size=2)
            worst = max(worst, rel_err(lift(s, lift(t, u)).coeffs, lift(s + t, u).coeffs))
    elapsed = time.perf_counter() - started
    assert elapsed <= 10.0, f"semigroup sweep took {elapsed:.1f} s"
    _report(1, "lift semigroup over 200 seeded fields", worst, 1e-13)


def test_criterion_02_eigenrelation():
    worst = 0.0
    for n in (1, 2):
        lattice = make_lattice(n, 4)
        for k in lattice.indices:
            basis = delta_field(lattice, k)
            for s in (-2.0, 0.5, 3.0):
                expected = (1.0 + float(np.dot(k, k))) ** (s / 2.0) * basis.coeffs
                worst = max(worst, rel_err(lift(s, basis).coeffs, expected))
    _report(2, "basis fields are eigenvectors of the lift", worst, 1e-14)


def test_criterion_03_h2_norm_closed_form_vs_quadrature():
    lattice = make_lattice(1, 16)
    worst = 0.0
    for seed in range(100):
        u = gen_distribution("power-decay", lattice, alpha=0.75, seed=seed)
        closed = hs_norm(u, SpaceIndex(1.0, 2.0))
        quadrature = lp_norm(synthesize(lift(1.0, u), 64), 2.0)
        worst = max(worst, abs(closed - quadrature) / closed)
    _report(3, "H^s_2 coefficient form vs grid quadrature (100 fields)", worst, 1e-12)


def test_criterion_04_lifting_isometry():
    lattice = make_lattice(1, 8)
    shifts = (-2.0, -0.5, 0.75, 1.5, 3.0)
    worst = 0.0
    cases = 0
    for seed in range(10):
        u = gen_distribution("power-decay", lattice, alpha=1.0, seed=seed)
        for alpha in shifts[seed % 2 :: 2]:
            for p in (1.5, 2.0, 3.0):
                lifted = hs_norm(lift(alpha, u), SpaceIndex(1.0 - alpha, p))
                original = hs_norm(u, SpaceIndex(1.0, p))
                worst = max(worst, abs(lifted - original) / original)
                cases += 1
    assert cases >= 50
    _report(4, f"lifting isometry across p in {{1.5, 2, 3}} ({cases} cases)", worst, 1e-10)


def test_criterion_05_action_formula_vs_grid_quadrature():
    lattice = make_lattice(1, 8)
    worst = 0.0
    for seed in range(100):
        u = gen_distribution("power-decay", lattice, alpha=1.0, seed=seed)
        f = gen_distribution("random-smooth", lattice, seed=seed + 1000)
        action_value = action(u, f)
        product = synthesize(u, lattice.side).samples * synthesize(f, lattice.side).samples
        quadrature = rectangle_quadrature(product)
        worst = max(worst, abs(action_value - quadrature) / abs(action_value))
    _report(5, "coefficient action vs grid quadrature (100 pairs)", worst, 1e-10)


def test_criterion_06_product_convolution_vs_dealiased_grid():
    worst = 0.0
    for n, radius, count in ((1, 8, 50), (2, 4, 50)):
        lattice = make_lattice(n, radius)
        target = make_lattice(n, 2 * radius)
        grid = 4 * radius + 3
        for seed in range(count):
            f = gen_distribution("random-smooth", lattice, seed=seed)
            u = gen_distribution("power-decay", lattice, alpha=1.0, seed=seed + 500)
            spectral = pointwise_product(f, u, exact=True)
            sampled = GridFunction(
                synthesize(f, grid).samples * synthesize(u, grid).samples
            )
            worst = max(worst, rel_err(spectral.coeffs, analyze(sampled, target).coeffs))
    _report(6, "exact convolution vs dealiased grid product (100 pairs)", worst, 1e-11)


def test_criterion_07_hoelder_duality_bound():
    lattice = make_lattice(1, 8)
    violations = 0
    worst_excess = 0.0
    for seed in range(500):
        u = gen_distribution("power-decay", lattice, alpha=1.0, seed=seed)
        v = gen_distribution("power-decay", lattice, alpha=1.0, seed=seed + 10000)
        for p in (1.5, 2.0, 3.0):
            for s in (0.0, 1.0, 2.5):
                pairing = abs(duality_pair(u, v, s))
                bound = hs_norm(
                    u, SpaceIndex(-s, float(conjugate_exponent(p)))
                ) * hs_norm(v, SpaceIndex(s, p))
                excess = (pairing - bound) / bound
                worst_excess = max(worst_excess, excess)
                violations += excess > 1e-12
    assert violations == 0, f"{violations} pairs violate the duality bound"
    _report(7, "duality pairing bounded by dual norms (500 pairs x 9 indices)", worst_excess, 1e-12)


def test_criterion_08_multiplier_closed_cases():
    lattice = make_lattice(1, 8)
    point = multiplier_norm_l2(MultiplierProblem(delta_field(lattice, (0,)), 1, 1, 2, 2))
    ones = multiplier_norm_l2(MultiplierProblem(constant_field(lattice), 1, 1, 2, 2))
    assert abs(ones - 1.0) <= 1e-10
    _report(8, "closed-form multiplier norms (point mass and all-ones)", abs(point - TWO_PI ** -0.5), 1e-8)


def test_criterion_09_index_symmetry():
    lattice = make_lattice(1, 6)
    worst_entry = 0.0
    worst_gap = 0.0
    for seed in range(50):
        u = real_part_field(gen_distribution("power-decay", lattice, alpha=1.0, seed=seed))
        prob = MultiplierProblem(u, 1.0, 2.0, 2.0, 2.0)
        swapped = MultiplierProblem(u, 2.0, 1.0, 2.0, 2.0)
        worst_entry = max(
            worst_entry,
            float(np.max(np.abs(multiplier_matrix(swapped) - multiplier_matrix(prob).conj().T))),
        )
        worst_gap = max(worst_gap, abs(multiplier_norm_l2(prob) - multiplier_norm_l2(swapped)))
    assert worst_entry <= 1e-14
    _report(9, "swapped multiplier matrix is the adjoint; norms agree (50 fields)", worst_gap, 1e-8)


def test_criterion_10_main_theorem_lower_bound():
    lattice = make_lattice(1, 8)
    ones_norm = hs_norm(constant_field(lattice), SpaceIndex(1.0, 2.0))
    violations = 0
    worst_margin = np.inf
    for seed in range(200):
        u = gen_distribution("power-decay", lattice, alpha=1.0, seed=seed)
        operator_norm = multiplier_norm_l2(MultiplierProblem(u, 1, 1, 2, 2))
        target_norm = hs_norm(u, SpaceIndex(-1.0, 2.0))
        violations += target_norm > ones_norm * operator_norm
        worst_margin = min(worst_margin, ones_norm * operator_norm - target_norm)
    assert violations == 0, f"{violations} fields violate the lower bound"
    print(
        f"PASS criterion 10: target norm <= |ones| * multiplier norm for 200 fields "
        f"(smallest margin {worst_margin:.3e})"
    )


def test_criterion_11_equivalence_refinement():
    started = time.perf_counter()
    lattice = make_lattice(1, 16)
    worst_move = 0.0
    ratios = []
    for seed in range(20):
        u = gen_distribution("power-decay", lattice, alpha=3.0, seed=seed)
        prob = MultiplierProblem(u, 1, 1, 2, 2)
        fine = equivalence_report(prob, radii=[16]).ratio
        coarse = equivalence_report(prob, radii=[8]).ratio
        worst_move = max(worst_move, abs(fine / coarse - 1.0))
        ratios.append(fine)
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0, f"refinement sweep took {elapsed:.1f} s"
    assert all(0.05 <= ratio <= 20.0 for ratio in ratios), ratios
    _report(11, "multiplier/intersection ratio stable from R=8 to R=16", worst_move, 0.05)


def test_criterion_12_index_predicate_truth_table():
    # worked strichartz instances
    balanced = strichartz_case(1, 1, 2, 2, 1)
    assert balanced.holds and balanced.case_tag == "strich-1"
    gated = strichartz_case(0.4, 0.1, 2, 2, 1)
    assert not gated.holds
    mixed = strichartz_case(2, 0, 4, 2, 3)
    assert mixed.holds and mixed.case_tag == "strich-2"
    # worked embedding instances
    assert embedding_holds(1, 1, 2, 2, 1).case_tag == "emb-1"
    assert embedding_holds(1, 0, 2, 6, 2).case_tag == "emb-1"
    assert not embedding_holds(0, 1, 2, 2, 1).holds
    # boundary: s equal to n/p must fail the strict gate
    assert not strichartz_case(0.5, 0.0, 2.0, 2.0, 1).holds
    print("PASS criterion 12: predicate truth table reproduces all worked instances")
