import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from peribessel import (
    ConvergenceError,
    HypothesisError,
    MultiplierProblem,
    SpaceIndex,
    SpectralField,
    constant_field,
    delta_field,
    equivalence_report,
    gen_distribution,
    hs_norm,
    intersection_norm,
    lift,
    make_lattice,
    multiplier_norm_l2,
    multiplier_norm_lp,
    multiplier_operator,
    pointwise_product,
    real_part_field,
    top_singular_value,
)
from peribessel.calculus import bessel_weights
from peribessel import multipliers
from peribessel.multipliers import BOYD_STEPS, _dual

from conftest import best_ratio, multiplier_matrix, rel_err, svd_operator_norm

TWO_PI = 2.0 * np.pi
INV_SQRT_2PI = TWO_PI ** -0.5


def problem(u, s=1.0, t=1.0, p=2.0, q=2.0):
    return MultiplierProblem(u, s, t, p, q)


def random_problem(radius, seed, n=1, alpha=1.0, **kwargs):
    lat = make_lattice(n, radius)
    return problem(gen_distribution("power-decay", lat, alpha=alpha, seed=seed), **kwargs)


def low_family(lat):
    """The constant field and the deltas at |k|_inf <= 2."""
    probe = make_lattice(lat.n, min(2, lat.radius))
    return [constant_field(lat)] + [delta_field(lat, k) for k in probe.indices]


@pytest.mark.parametrize(
    "indices, message",
    [
        ((-0.5, 1.0, 2.0, 2.0), "smoothness indices"),
        ((np.inf, 1.0, 2.0, 2.0), "smoothness indices"),
        ((1.0, np.inf, 2.0, 2.0), "smoothness indices"),
        ((1.0, 1.0, 1.0, 2.0), r"p must lie in \(1, inf\)"),
        ((1.0, 1.0, np.inf, 2.0), r"p must lie in \(1, inf\)"),
        ((1.0, 1.0, 2.0, np.inf), r"q must lie in \(1, inf\)"),
    ],
    ids=["s-negative", "s-inf", "t-inf", "p-one", "p-inf", "q-inf"],
)
def test_problem_rejects_bad_indices(indices, message):
    with pytest.raises(ValueError, match=message):
        problem(constant_field(make_lattice(1, 2)), *indices)


class TestMultiplierMatrix:
    def test_constant_field_gives_bessel_diagonal(self):
        lat = make_lattice(1, 4)
        matrix = multiplier_matrix(problem(constant_field(lat), s=0.7, t=1.3))
        expected = np.diag(bessel_weights(-2.0, lat))
        assert rel_err(matrix, expected) < 1e-14

    def test_delta_zero_diagonal(self):
        lat = make_lattice(1, 3)
        matrix = multiplier_matrix(problem(delta_field(lat, (0,))))
        expected = INV_SQRT_2PI * np.diag(bessel_weights(-2.0, lat))
        assert rel_err(matrix, expected) < 1e-14

    def test_matvec_agrees_with_weighted_product_route(self):
        # applying the matrix to lifted coefficients of f must equal lifting
        # the truncated product f*u by the target weight
        lat = make_lattice(2, 3)
        u = gen_distribution("power-decay", lat, alpha=1.0, seed=3)
        f = gen_distribution("random-smooth", lat, seed=4)
        prob = problem(u, s=0.8, t=1.1)
        matrix = multiplier_matrix(prob)
        x = lift(0.8, f).coeffs
        via_matrix = matrix @ x
        via_product = lift(-1.1, pointwise_product(f, u)).coeffs
        assert rel_err(via_matrix, via_product) < 1e-12

    def test_requires_p_q_two(self):
        with pytest.raises(ValueError, match="p = q = 2"):
            multiplier_matrix(random_problem(3, 0, p=3.0))
        with pytest.raises(ValueError, match="p = q = 2"):
            multiplier_norm_l2(random_problem(3, 0, q=3.0))


class TestMultiplierOperator:
    # the matrix-free operator must reproduce the dense reference matrix and
    # its adjoint, including the window edges where truncation closes the model
    @pytest.mark.parametrize("n, radius", [(1, 6), (2, 4), (3, 3)])
    @pytest.mark.parametrize("kind, alpha", [("dirac", None), ("power-decay", 1.0)])
    def test_matches_dense_matrix(self, n, radius, kind, alpha):
        # seeded phases make the power-decay field complex and not real-valued
        u = gen_distribution(kind, make_lattice(n, radius), alpha=alpha, seed=3)
        prob = problem(u, s=0.8, t=1.1)
        matrix = multiplier_matrix(prob)
        matvec, rmatvec = multiplier_operator(prob)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(u.lattice.size) + 1j * rng.standard_normal(u.lattice.size)
        assert rel_err(matvec(x), matrix @ x) < 1e-13
        assert rel_err(rmatvec(x), matrix.conj().T @ x) < 1e-13
        # a stack of vectors, as verify's swap check applies, maps row by row
        stack = np.stack([x, 2j * x, rng.standard_normal(u.lattice.size)])
        assert rel_err(matvec(stack), stack @ matrix.T) < 1e-13
        assert rel_err(rmatvec(stack), stack @ matrix.conj()) < 1e-13


    def test_independent_of_p_and_q(self):
        u = gen_distribution("power-decay", make_lattice(2, 3), alpha=1.0, seed=3)
        x = np.random.default_rng(7).standard_normal(u.lattice.size)
        two = multiplier_operator(problem(u, s=0.8, t=1.1))
        other = multiplier_operator(problem(u, s=0.8, t=1.1, p=3.0, q=1.5))
        assert all(np.array_equal(a(x), b(x)) for a, b in zip(two, other))


class TestMultiplierNormL2:
    def test_zero_field(self):
        lat = make_lattice(1, 5)
        zero = SpectralField(lat, np.zeros(lat.size))
        assert multiplier_norm_l2(problem(zero)) == 0.0

    def test_constant_field_norm_one(self):
        assert multiplier_norm_l2(problem(constant_field(make_lattice(1, 8)))) == (
            pytest.approx(1.0, abs=1e-10)
        )

    def test_delta_zero_closed_form(self):
        norm = multiplier_norm_l2(problem(delta_field(make_lattice(1, 8), (0,))))
        assert norm == pytest.approx(INV_SQRT_2PI, abs=1e-8)

    def test_lanczos_matches_svd(self):
        for seed in range(5):
            prob = random_problem(6, seed)
            assert multiplier_norm_l2(prob) == pytest.approx(
                svd_operator_norm(multiplier_matrix(prob)), rel=1e-10
            )

    def test_lanczos_reports_residual_on_step_cap(self, monkeypatch):
        # a zero tolerance is never met, so the solver stops at its cap of size steps
        monkeypatch.setattr(multipliers, "GKL_TOLERANCE", 0.0)
        prob = random_problem(4, 1)
        with pytest.raises(ConvergenceError, match="residual") as caught:
            top_singular_value(*multiplier_operator(prob), prob.u.lattice.size)
        assert caught.value.iterations == prob.u.lattice.size == 9
        assert caught.value.residual > 0.0

    @pytest.mark.parametrize(
        "n, radius, alpha, s, t",
        [
            # near-tied top singular values: sigma2 / sigma1 = 0.968
            (2, 16, 0.0, 0.6, 0.6),
            (3, 4, 1.0, 1.0, 1.5),
        ],
    )
    def test_hard_inputs_match_svd(self, n, radius, alpha, s, t):
        u = gen_distribution("power-decay", make_lattice(n, radius), alpha=alpha)
        prob = problem(u, s=s, t=t)
        assert multiplier_norm_l2(prob) == pytest.approx(
            svd_operator_norm(multiplier_matrix(prob)), rel=1e-10
        )

    # float.hex values recorded with list-held Krylov bases and a tree_sum that
    # allocated every level (numpy 2.4, OpenBLAS, x86-64): preallocating either
    # must not move one bit
    @pytest.mark.parametrize(
        "n, radius, kind, alpha, s, t, expected",
        [
            (2, 16, "power-decay", 0.0, 0.6, 0.6, "0x1.8c3c10a6e4d80p+0"),  # near-tied
            (3, 4, "power-decay", 1.0, 1.0, 1.5, "0x1.840719282cb08p-3"),
            (1, 8, "dirac", None, 1.0, 1.0, "0x1.d5637328b29b5p-2"),
        ],
        ids=["near-tied-2-16", "power-decay-3-4", "dirac-1-8"],
    )
    def test_pinned_bits(self, n, radius, kind, alpha, s, t, expected):
        u = gen_distribution(kind, make_lattice(n, radius), alpha=alpha)
        assert multiplier_norm_l2(problem(u, s=s, t=t)).hex() == expected

    def test_memory_grows_with_steps_not_size_squared(self):
        prob = problem(
            gen_distribution("power-decay", make_lattice(3, 8), alpha=0.0), s=0.6, t=0.6
        )
        matvec, rmatvec = multiplier_operator(prob)
        size, steps = prob.u.lattice.size, 0

        def counted(v):
            nonlocal steps
            steps += 1
            return matvec(v)

        tracemalloc.start()
        try:
            top_singular_value(counted, rmatvec, size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        vector_bytes = size * np.dtype(np.complex128).itemsize
        # two bases of at most 2 * steps rows each, plus row-block temporaries
        assert peak <= 8 * steps * vector_bytes
        assert peak < size * vector_bytes / 10  # no size x size buffer

    def test_homogeneity(self):
        prob = random_problem(5, 2)
        base = multiplier_norm_l2(prob)
        scaled = multiplier_norm_l2(problem(SpectralField(prob.u.lattice, 3.5j * prob.u.coeffs)))
        assert scaled == pytest.approx(3.5 * base, rel=1e-10)


# Fixed test fields scored by the ratio Boyd's iteration evaluates (conftest.best_ratio)
class TestBestRatio:
    def test_zero_field_any_family(self):
        lat = make_lattice(1, 4)
        zero = SpectralField(lat, np.zeros(lat.size))
        assert best_ratio(problem(zero), low_family(lat)) == 0.0

    def test_constant_only_family_gives_certificate(self):
        lat = make_lattice(1, 6)
        u = gen_distribution("power-decay", lat, alpha=2.0, seed=7)
        prob = problem(u, s=1.5, t=0.5, p=2.0, q=2.0)
        bound = best_ratio(prob, [constant_field(lat)])
        expected = hs_norm(u, SpaceIndex(-0.5, 2.0)) / hs_norm(
            constant_field(lat), SpaceIndex(1.5, 2.0)
        )
        assert bound == pytest.approx(expected, rel=1e-13)

    def test_growing_family_converges_upward_to_exact(self):
        lat = make_lattice(1, 6)
        u = delta_field(lat, (0,))
        prob = problem(u)
        exact = multiplier_norm_l2(prob)
        small = best_ratio(prob, [constant_field(lat)])
        full = best_ratio(prob, low_family(lat))
        assert small <= full <= exact + 1e-10
        assert full == pytest.approx(exact, rel=1e-6)

    def test_zero_norm_member_rejected(self):
        lat = make_lattice(1, 3)
        zero = SpectralField(lat, np.zeros(lat.size))
        with pytest.raises(ValueError, match="zero"):
            best_ratio(random_problem(3, 0), [constant_field(lat), zero])

    def test_sampled_below_exact_general(self):
        for seed in range(4):
            prob = random_problem(5, seed, alpha=2.0)
            family = low_family(prob.u.lattice)
            assert best_ratio(prob, family) <= multiplier_norm_l2(prob) + 1e-10


class TestMultiplierNormLp:
    # At p = q = 2, Boyd's step is a power-iteration step on A^H A, so its
    # BOYD_STEPS steps give a lower bound of the exact norm, not the norm: the
    # power-decay field with alpha = 0 at s = t = 0.6 has near-tied top
    # singular values and stays visibly below it
    @pytest.mark.parametrize("n, radius", [(1, 8), (2, 4), (3, 4)])
    @pytest.mark.parametrize(
        "kind, alpha, s, t",
        [
            ("power-decay", 0.0, 0.6, 0.6),
            ("power-decay", 1.0, 1.0, 1.5),
            ("random-smooth", None, 2.0, 0.5),
            ("dirac", None, 1.0, 1.0),
        ],
    )
    def test_is_power_iteration_at_p_q_two(self, n, radius, kind, alpha, s, t):
        u = gen_distribution(kind, make_lattice(n, radius), alpha=alpha, seed=3)
        prob = problem(u, s=s, t=t)
        matrix = multiplier_matrix(prob)
        x = lift(s, constant_field(u.lattice)).coeffs
        ratios = [np.linalg.norm(matrix @ x) / np.linalg.norm(x)]
        for _ in range(BOYD_STEPS):
            y = matrix.conj().T @ (matrix @ x)
            x = y / np.linalg.norm(y)
            ratios.append(np.linalg.norm(matrix @ x) / np.linalg.norm(x))
        value = multiplier_norm_lp(prob)
        assert value == pytest.approx(max(ratios), rel=1e-12)
        assert value <= multiplier_norm_l2(prob) * (1 + 1e-12)

    @pytest.mark.parametrize("p, q", [(3.0, 1.5), (1.5, 3.0), (4 / 3, 4 / 3), (2.0, 1.5)])
    @pytest.mark.parametrize("kind, alpha", [("power-decay", 1.0), ("dirac", None)])
    def test_at_least_the_certificate(self, p, q, kind, alpha):
        u = gen_distribution(kind, make_lattice(2, 4), alpha=alpha, seed=5)
        prob = problem(u, s=1.5, t=0.5, p=p, q=q)
        certificate = best_ratio(prob, [constant_field(u.lattice)])
        assert multiplier_norm_lp(prob) >= certificate

    # The iteration itself must gain: against the fixed family it replaced
    # (constant, deltas at |k| <= 2, three seeded decaying fields), with the
    # measured gain rounded down to two digits
    @pytest.mark.parametrize(
        "kind, alpha, s, t, p, q, gain",
        [
            ("dirac", None, 1.5, 0.5, 3.0, 1.5, 1.41),
            ("dirac", None, 1.5, 0.5, 1.5, 3.0, 2.93),
            ("dirac", None, 2.0, 0.5, 4.0, 3.0, 1.17),
            ("dirac", None, 3.0, 0.0, Fraction(21, 20), Fraction(3, 2), 1.41),
            ("power-decay", 0.0, 1.5, 0.5, 3.0, 1.5, 1.01),
            ("power-decay", 0.0, 1.5, 0.5, 1.5, 3.0, 1.54),
            ("power-decay", 0.0, 2.0, 0.5, 4.0, 3.0, 1.01),
            ("power-decay", 0.0, 3.0, 0.0, Fraction(21, 20), Fraction(3, 2), 1.09),
        ],
    )
    def test_beats_the_fixed_family(self, kind, alpha, s, t, p, q, gain):
        lat = make_lattice(2, 4)
        u = gen_distribution(kind, lat, alpha=alpha, seed=5)
        prob = problem(u, s=s, t=t, p=p, q=q)
        family = low_family(lat) + [
            gen_distribution("power-decay", lat, alpha=a, seed=101 * i)
            for i, a in enumerate((1.0, 2.0, 4.0))
        ]
        assert multiplier_norm_lp(prob) > gain * best_ratio(prob, family)

    # The step count is fixed at every (p, q), so the cost of a report does not
    # depend on the field: the start ratio, BOYD_STEPS steps, the 2N check
    @pytest.mark.parametrize("p, q", [(3.0, 1.5), (1.5, 3.0), (2.0, 2.0)])
    def test_step_count_independent_of_field(self, monkeypatch, p, q):
        calls = []

        def counted(*args):
            calls.append(args[-1])
            return ratio(*args)

        ratio = multipliers._ratio
        monkeypatch.setattr(multipliers, "_ratio", counted)
        lat = make_lattice(2, 4)
        for kind, alpha, seed in [("dirac", None, 0), ("power-decay", 2.0, 3), ("power-decay", 2.0, 8)]:
            calls.clear()
            multiplier_norm_lp(problem(gen_distribution(kind, lat, alpha=alpha, seed=seed), p=p, q=q))
            assert calls == [18] * (BOYD_STEPS + 1) + [36]

    @pytest.mark.parametrize("p", [Fraction(21, 20), 1.05], ids=["fraction", "float"])
    def test_dirac_near_p_one_stays_finite(self, p):
        u = gen_distribution("dirac", make_lattice(3, 3))
        prob = problem(u, s=3, t=0, p=p, q=Fraction(3, 2))
        value = multiplier_norm_lp(prob)
        assert np.isfinite(value) and value > 0.0

    def test_zero_field(self):
        lat = make_lattice(2, 3)
        assert multiplier_norm_lp(problem(SpectralField(lat, np.zeros(lat.size)), p=3.0)) == 0.0

    def test_dual_maps_zeros_to_zero(self):
        values = np.array([0.0, 2.0, -1.0j, 0.0, 0.5])
        with np.errstate(all="raise"):
            dual = _dual(values, 1.5)
        w = values / 2.0
        assert dual[0] == 0.0 and dual[3] == 0.0
        np.testing.assert_allclose(dual[[1, 2, 4]], np.abs(w[[1, 2, 4]]) ** -0.5 * w[[1, 2, 4]])


class TestIntersectionNorm:
    def test_delta_zero(self):
        u = delta_field(make_lattice(1, 4), (0,))
        assert intersection_norm(u, 1.0, 2.0, 1.0, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_constant(self):
        u = constant_field(make_lattice(1, 4))
        assert intersection_norm(u, 1.0, 2.0, 1.0, 2.0) == pytest.approx(
            np.sqrt(TWO_PI), rel=1e-14
        )

    def test_direct_summation_oracle(self):
        lat = make_lattice(1, 8)
        u = gen_distribution("power-decay", lat, alpha=1.0, seed=9)
        weights = 1.0 + np.sum(lat.indices.astype(float) ** 2, axis=1)
        direct = max(
            float(np.sqrt(np.sum(weights ** -1.0 * np.abs(u.coeffs) ** 2))),
            float(np.sqrt(np.sum(weights ** -1.0 * np.abs(u.coeffs) ** 2))),
        )
        assert intersection_norm(u, 1.0, 2.0, 1.0, 2.0) == pytest.approx(direct, rel=1e-12)


def both_ways(prob):
    """Exact norms of u: H^s_2 -> H^(-t)_2 and of the swapped u: H^t_2 -> H^(-s)_2."""
    return multiplier_norm_l2(prob), multiplier_norm_l2(problem(prob.u, s=prob.t, t=prob.s))


class TestSymmetry:
    def test_delta_closed_form_both_sides(self):
        u = delta_field(make_lattice(1, 6), (0,))
        forward, swapped = both_ways(problem(u, s=1.0, t=2.0))
        assert forward == pytest.approx(INV_SQRT_2PI, abs=1e-10)
        assert swapped == pytest.approx(INV_SQRT_2PI, abs=1e-10)
        assert abs(forward - swapped) <= 1e-10

    def test_real_fields_have_adjoint_matrices_and_equal_norms(self):
        lat = make_lattice(1, 6)
        for seed in range(6):
            u = real_part_field(gen_distribution("power-decay", lat, alpha=1.0, seed=seed))
            forward = multiplier_matrix(problem(u, s=1.0, t=2.0))
            swapped = multiplier_matrix(problem(u, s=2.0, t=1.0))
            assert np.max(np.abs(swapped - forward.conj().T)) <= 1e-14
            forward_norm, swapped_norm = both_ways(problem(u, s=1.0, t=2.0))
            assert abs(forward_norm - swapped_norm) <= 1e-8

    def test_complex_fields_still_have_equal_norms(self):
        # for complex u the swapped matrix is a transposed permutation of the
        # original rather than its adjoint, but the norms still agree
        for seed in range(4):
            prob = random_problem(6, seed, s=1.0, t=2.0)
            forward, swapped = both_ways(prob)
            assert abs(forward - swapped) <= 1e-8

    def test_zero_field(self):
        lat = make_lattice(1, 3)
        assert both_ways(problem(SpectralField(lat, np.zeros(lat.size)))) == (0.0, 0.0)


class TestEquivalenceReport:
    def test_delta_zero_ratio(self):
        report = equivalence_report(problem(delta_field(make_lattice(1, 8), (0,))))
        assert report.exact
        assert report.multiplier_norm == pytest.approx(INV_SQRT_2PI, abs=1e-8)
        assert report.intersection_norm == pytest.approx(1.0, rel=1e-12)
        assert report.ratio == pytest.approx(0.3989, abs=2e-4)
        assert report.lower_bound_certificate <= report.multiplier_norm * (1 + 1e-12)

    def test_constant_ratio(self):
        report = equivalence_report(problem(constant_field(make_lattice(1, 8))))
        assert report.multiplier_norm == pytest.approx(1.0, abs=1e-10)
        assert report.intersection_norm == pytest.approx(np.sqrt(TWO_PI), rel=1e-12)
        assert report.ratio == pytest.approx(0.3989, abs=2e-4)

    def test_hypothesis_gate(self):
        prob = random_problem(6, 0, s=0.4, t=0.1)
        with pytest.raises(HypothesisError, match="strict"):
            equivalence_report(prob)
        forced = equivalence_report(prob, force=True)
        assert forced.multiplier_norm > 0

    def test_zero_field_rejected(self):
        lat = make_lattice(1, 4)
        with pytest.raises(ValueError, match="zero"):
            equivalence_report(problem(SpectralField(lat, np.zeros(lat.size))))

    def test_refinement_trace(self):
        prob = random_problem(8, 1, alpha=3.0)
        report = equivalence_report(prob, radii=[4, 8])
        assert [radius for radius, _ in report.refinement] == [4, 8]
        assert report.radius == 8
        coarse, fine = (norm for _, norm in report.refinement)
        assert coarse == pytest.approx(fine, rel=0.05)

    def test_radii_validation(self):
        prob = random_problem(4, 0)
        with pytest.raises(ValueError, match="radius"):
            equivalence_report(prob, radii=[9])
        with pytest.raises(ValueError, match="at least one radius"):
            equivalence_report(prob, radii=[])

    @pytest.mark.parametrize(
        "radii", [[2.7, True], [2.0], [np.float64(3.0)], [False, 2], [1, True], [2, 2.0]]
    )
    def test_non_integer_radii_refused(self, radii):
        # [1, True] and [2, 2.0] would pass a check made after deduplication
        with pytest.raises(ValueError, match="radius must be an integer"):
            equivalence_report(random_problem(4, 0), radii=radii)

    def test_numpy_integer_radii_accepted(self):
        prob = random_problem(4, 0)
        report = equivalence_report(prob, radii=[np.int64(4), np.int32(2)])
        assert report.refinement == equivalence_report(prob, radii=[2, 4]).refinement
        assert all(type(radius) is int for radius, _ in report.refinement)

    def test_field_zero_on_top_radius_rejected(self):
        prob = problem(delta_field(make_lattice(1, 4), (4,)))
        with pytest.raises(ValueError, match="restriction to radius 2 is zero"):
            equivalence_report(prob, radii=[2])

    def test_sampled_route_for_general_exponents(self):
        prob = random_problem(4, 2, s=1.5, t=0.5, p=3.0, q=2.0, alpha=2.0)
        report = equivalence_report(prob)
        assert not report.exact
        assert 0 < report.multiplier_norm
        assert report.lower_bound_certificate <= report.multiplier_norm * (1 + 1e-12)

    def test_report_serialization(self):
        report = equivalence_report(problem(delta_field(make_lattice(1, 6), (0,))))
        data = report.as_dict()
        assert set(data) >= {
            "n",
            "radius",
            "multiplier_norm",
            "intersection_norm",
            "ratio",
            "lower_bound_certificate",
            "refinement",
        }
        row = report.csv_row()
        assert len(row) == 11
        assert row[6] == repr(report.multiplier_norm)


class TestCertificateBound:
    def test_ones_norm_times_operator_norm_dominates(self):
        lat = make_lattice(1, 8)
        ones_norm = hs_norm(constant_field(lat), SpaceIndex(1.0, 2.0))
        for seed in range(20):
            u = gen_distribution("power-decay", lat, alpha=1.0, seed=seed)
            norm = multiplier_norm_l2(problem(u))
            assert hs_norm(u, SpaceIndex(-1.0, 2.0)) <= ones_norm * norm
