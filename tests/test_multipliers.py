import hashlib
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import pairwise

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
    lp_norm,
    make_lattice,
    multiplier_norm_l2,
    multiplier_norm_lp,
    multiplier_operator,
    pointwise_product,
    real_part_field,
    restrict_field,
    synthesize,
    top_singular_value,
)
from peribessel.calculus import bessel_weights
from peribessel import calculus, lattice, multipliers
from peribessel.generators import _complex_normals
from peribessel.multipliers import (
    BOYD_STEPS, GKL_TOLERANCE, SingularTriplet, _dual, _half_shift_norm,
)

from conftest import best_ratio, multiplier_matrix, peak_bytes, rel_err, svd_operator_norm

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
        # (1 + |k|^2)^(s/2) at |k|^2 = 4 is not finite: refused at p = q = 2 too
        ((5000.0, 1.0, 2.0, 2.0), r"5000.0 overflows the Bessel weight .* = 4"),
        ((5000.0, 1.0, 3.0, 3.0), r"5000.0 overflows the Bessel weight .* = 4"),
    ],
    ids=["s-negative", "s-inf", "t-inf", "p-one", "p-inf", "q-inf", "s-overflow-2",
         "s-overflow-3"],
)
def test_problem_rejects_bad_indices(indices, message):
    with pytest.raises(ValueError, match=message):
        problem(constant_field(make_lattice(1, 2)), *indices)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_problem_builds_no_bessel_weights(monkeypatch, p):
    def refuse(*args):
        raise AssertionError("bessel_weights called")

    monkeypatch.setattr(calculus, "bessel_weights", refuse)
    monkeypatch.setattr(multipliers, "bessel_weights", refuse)
    u = gen_distribution("power-decay", make_lattice(2, 4), alpha=1.0, seed=0)
    assert problem(u, 1.0, 1.0, p, p).u is u
    message = "smoothness index 5000.0 overflows the Bessel weight (1 + |k|^2)^(s/2) at |k|^2 = 32"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        problem(u, 5000.0, 1.0, p, p)


class TestProblemGrid:
    """The quadrature grid N a problem holds, and the grids it refuses."""

    u = gen_distribution("random-smooth", make_lattice(2, 3), alpha=1.0)
    u4 = gen_distribution("random-smooth", make_lattice(2, 4), alpha=1.0)

    @pytest.mark.parametrize(
        "p, q, points, limit, message",
        [
            (3.0, 3.0, 9000, None, r"quadrature grid 9000\^2 exceeds 67108864 points"),
            (4.0, 4.0, 9000, None, r"quadrature grid 9000\^2 exceeds 67108864 points"),
        ],
        ids=["grid", "grid-even-exponent"],
    )
    def test_refuses_a_grid_its_norms_cannot_build(self, monkeypatch, p, q, points, limit,
                                                   message):
        if limit is not None:
            monkeypatch.setattr(lattice, "MAX_COEFFICIENTS", limit)
        with pytest.raises(ValueError, match=message):
            MultiplierProblem(self.u, 1, 1, p, q, grid_points=points)

    @pytest.mark.parametrize(
        "points, message",
        [(90.5, r"grid_points must be an integer or None, got 90\.5"),
         (True, "grid_points must be an integer or None, got True"),
         (5, "grid too small: need at least 9 points per axis, got 5")],
        ids=["float", "bool", "below-2R+1"],
    )
    def test_refuses_a_grid_that_is_not_enough_nodes(self, points, message):
        with pytest.raises(ValueError, match=message):
            MultiplierProblem(self.u4, 1, 1, 3, 3, grid_points=points)

    def test_grid_is_stored_as_an_int_and_unsized_at_p2(self):
        assert type(MultiplierProblem(self.u4, 1, 1, 3, 3, grid_points=np.int64(9)).points) is int
        # p = q = 2 samples no grid, so only the type is refused there
        assert MultiplierProblem(self.u4, 1, 1, 2, 2, grid_points=5).points == 5
        with pytest.raises(ValueError, match="got True"):
            MultiplierProblem(self.u4, 1, 1, 2, 2, grid_points=True)

    @pytest.mark.parametrize("pq", [2, 4.0], ids=["p2", "p4"])
    def test_accepts_the_grids_it_builds(self, monkeypatch, pq):
        # p = q = 2 samples no grid; at p = q = 4, 4R < 90 nodes are exact, so no 2N re-check
        if pq == 2:
            MultiplierProblem(self.u, 1, 1, pq, pq, grid_points=9000)
        monkeypatch.setattr(lattice, "MAX_COEFFICIENTS", 10000)
        prob = MultiplierProblem(self.u, 1, 1, pq, pq, grid_points=90)
        assert np.isfinite(multiplier_norm_lp(prob))

    # Boyd's re-check synthesizes on the N nodes it shifts, so a grid of N^n points
    # within the limit is the only one its norms build, re-checked or not
    @pytest.mark.parametrize("p, q", [(3.0, 3.0), (4.0, 3.0), (2, Fraction(3, 2))],
                             ids=["recheck-grid", "recheck-grid-q", "recheck-grid-p2"])
    def test_recheck_needs_no_larger_grid(self, monkeypatch, p, q):
        synthesized = count_syntheses(monkeypatch)
        monkeypatch.setattr(lattice, "MAX_COEFFICIENTS", 10000)
        prob = MultiplierProblem(self.u, 1, 1, p, q, grid_points=90)
        assert np.isfinite(multiplier_norm_lp(prob))
        assert synthesized and max(synthesized) ** 2 <= 10000

    def test_restriction_keeps_the_grid(self):
        prob = MultiplierProblem(self.u, 1, 1, 3, 3, grid_points=40)
        sub = replace(prob, u=restrict_field(self.u, 1))
        assert sub.grid_points == sub.points == 40
        # without a grid, each lattice has its own default 2(2R+1)
        default = replace(prob, grid_points=None)
        assert default.points == 14 and replace(default, u=sub.u).points == 6

    @pytest.mark.parametrize(
        "r, points, exact",
        [(2.0, 7, True), (4.0, 13, True), (4.0, 12, False), (Fraction(4), 13, True),
         (3.0, 100, False), (2.5, 100, False)],
    )
    def test_exact_on_grid_is_even_r_with_rR_below_N(self, r, points, exact):
        prob = MultiplierProblem(self.u, 1, 1, 3, 3, grid_points=points)
        assert prob.exact_on_grid(r) is exact


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
    # its adjoint, including the window edges where truncation closes the model;
    # 3R+1 is prime at R = 2, 4, 6, 10, 12, where the operator convolves at the
    # next 7-smooth length (at n = 3 the dense matrix past R = 4 is too large)
    @pytest.mark.parametrize(
        "n, radius", [(n, r) for n in (1, 2) for r in (2, 4, 6, 10, 12)] + [(3, 2), (3, 3), (3, 4)]
    )
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
    # must not move one bit.  The (3, 4) value was recorded again when its
    # operator length 3R+1 = 13 was rounded up to the 7-smooth 14; it moved by
    # 2 ulps from the value pinned at 13.  The other lengths, 49 and 25, are
    # 7-smooth already and kept their bits.  The (2, 16) and (1, 8) values were
    # recorded again when Lanczos on A^H A replaced Golub-Kahan-Lanczos
    # bidiagonalization; they moved by 4 and 2 ulps from GKL's, and (3, 4) kept its bits.
    # The (3, 4) and (1, 8) values were recorded again when the seeded start was drawn
    # from the package's splitmix hash by Box-Muller instead of numpy.random: they moved
    # by 2 and 1 ulps (from 0x1.840719282cb0ap-3 and 0x1.d5637328b29b3p-2), and (2, 16)
    # kept its bits.  Growing the Krylov basis in place, reorthogonalizing in blocks and
    # computing the left vector as A y / sigma moved none of them.
    @pytest.mark.parametrize(
        "n, radius, kind, alpha, s, t, expected",
        [
            (2, 16, "power-decay", 0.0, 0.6, 0.6, "0x1.8c3c10a6e4d7cp+0"),  # near-tied
            (3, 4, "power-decay", 1.0, 1.0, 1.5, "0x1.840719282cb08p-3"),
            (1, 8, "dirac", None, 1.0, 1.0, "0x1.d5637328b29b4p-2"),
        ],
        ids=["near-tied-2-16", "power-decay-3-4", "dirac-1-8"],
    )
    def test_pinned_bits(self, n, radius, kind, alpha, s, t, expected):
        u = gen_distribution(kind, make_lattice(n, radius), alpha=alpha)
        value = multiplier_norm_l2(problem(u, s=s, t=t))
        assert value.hex() == expected
        before = {
            (3, 4): "0x1.840719282cb08p-3", (2, 16): "0x1.8c3c10a6e4d80p+0",
            (1, 8): "0x1.d5637328b29b5p-2",
        }[(n, radius)]
        assert abs(value - float.fromhex(before)) <= 4 * math.ulp(value)

    # A^H A squares A's range, so the solver scales every image by one power of two
    # taken from the first: 2^e u is solved in the same bits as u, and the norm is
    # exactly 2^e times as large, also where 2^e u's squares over- or underflow.  The
    # whole triplet keeps its bits: x = A y times 1 / sigma, 2^e A y times 2^-e / sigma
    @pytest.mark.parametrize("exponent", [-600, 600, 1000])
    @pytest.mark.parametrize(
        "n, radius, kind, alpha, s, t",
        [
            (2, 16, "power-decay", 0.0, 0.6, 0.6),
            (3, 4, "power-decay", 1.0, 1.0, 1.5),
            (1, 8, "dirac", None, 1.0, 1.0),
        ],
        ids=["near-tied-2-16", "power-decay-3-4", "dirac-1-8"],
    )
    def test_power_of_two_homogeneity_is_exact(self, n, radius, kind, alpha, s, t, exponent):
        u = gen_distribution(kind, make_lattice(n, radius), alpha=alpha)
        value = multiplier_norm_l2(problem(u, s=s, t=t))
        scaled = SpectralField(u.lattice, math.ldexp(1.0, exponent) * u.coeffs)
        assert multiplier_norm_l2(problem(scaled, s=s, t=t)) == math.ldexp(value, exponent)
        base, other = (top_singular_value(*multiplier_operator(problem(v, s=s, t=t)),
                                          u.lattice.size) for v in (u, scaled))
        assert other.value == math.ldexp(base.value, exponent)
        assert (other.left.tobytes(), other.right.tobytes(), other.steps, other.residual) == (
            base.left.tobytes(), base.right.tobytes(), base.steps, base.residual)

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

        peak = peak_bytes(lambda: top_singular_value(counted, rmatvec, size))
        vector_bytes = size * np.dtype(np.complex128).itemsize
        # one basis of at most steps + 8 rows, plus block temporaries and the operator's
        assert peak <= 8 * steps * vector_bytes
        assert peak < size * vector_bytes / 10  # no size x size buffer

    def test_one_solve_holds_at_most_40_lattice_vectors(self):
        # 19 steps at size 15625: a basis of 24 rows, grown 8 at a time, and the operator's
        # FFT grids, inverse-transformed in place.  A basis that doubled to 32 rows, copying
        # transforms and a reorthogonalization block held through _combine held 51 vectors
        # here; two bases and whole-basis temporaries before them, 117
        prob = random_problem(12, 1, n=3, alpha=1.0, s=1.0, t=1.0)
        operator, size = multiplier_operator(prob), prob.u.lattice.size
        multipliers._seeded_start.cache_clear()  # the draw is counted too
        triplets = []
        peak = peak_bytes(lambda: triplets.append(top_singular_value(*operator, size)))
        assert triplets[0].steps == 19
        assert peak <= 40 * size * np.dtype(np.complex128).itemsize

    def test_homogeneity(self):
        prob = random_problem(5, 2)
        base = multiplier_norm_l2(prob)
        scaled = multiplier_norm_l2(problem(SpectralField(prob.u.lattice, 3.5j * prob.u.coeffs)))
        assert scaled == pytest.approx(3.5 * base, rel=1e-10)


def counted_operator(prob, calls):
    """``multiplier_operator(prob)`` whose matvec appends to ``calls``."""
    matvec, rmatvec = multiplier_operator(prob)

    def counted(v):
        calls.append(None)
        return matvec(v)

    return counted, rmatvec


def dense_top(prob):
    """The dense oracle's singular values and right singular vectors, as rows."""
    _, sigmas, vh = np.linalg.svd(multiplier_matrix(prob))
    return sigmas, vh.conj()


TRIPLET_PROBLEMS = [
    pytest.param(1, 6, 1.0, 1.0, 1.0, id="n1-R6"),
    pytest.param(1, 8, 0.0, 0.6, 0.6, id="n1-R8-rough"),
    pytest.param(2, 3, 1.0, 1.0, 1.5, id="n2-R3"),
    pytest.param(2, 4, 0.0, 0.6, 0.6, id="n2-R4-rough"),
]


class TestSingularTriplet:
    @pytest.mark.parametrize("n, radius, alpha, s, t", TRIPLET_PROBLEMS)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_seeded_triplet(self, n, radius, alpha, s, t, seed):
        prob = random_problem(radius, seed, n=n, alpha=alpha, s=s, t=t)
        matvec, rmatvec = multiplier_operator(prob)
        calls = []
        triplet = top_singular_value(*counted_operator(prob, calls), prob.u.lattice.size)
        assert isinstance(triplet, SingularTriplet)
        assert triplet.value == multiplier_norm_l2(prob)  # bit for bit
        assert len(calls) == triplet.steps + 1  # one per step, one for x = A y / sigma
        assert 0.0 <= triplet.residual <= GKL_TOLERANCE
        for vector in (triplet.left, triplet.right):
            assert vector.shape == (prob.u.lattice.size,)
            assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-12)
        value = triplet.value
        assert np.linalg.norm(matvec(triplet.right) - value * triplet.left) <= 1e-10 * value
        assert np.linalg.norm(rmatvec(triplet.left) - value * triplet.right) <= 1e-10 * value

    # the reported residual is what the triplet measures: |A^H x - sigma y| / sigma,
    # while A y = sigma x holds to rounding, since x is built from the images A v_k
    @pytest.mark.parametrize("n, radius, alpha, s, t", TRIPLET_PROBLEMS)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_reported_residual_is_measured(self, n, radius, alpha, s, t, seed):
        prob = random_problem(radius, seed, n=n, alpha=alpha, s=s, t=t)
        matvec, rmatvec = multiplier_operator(prob)
        triplet = top_singular_value(matvec, rmatvec, prob.u.lattice.size)
        value, left, right = triplet.value, triplet.left, triplet.right
        measured = np.linalg.norm(rmatvec(left) - value * right) / value
        assert measured <= triplet.residual + 1e-14
        assert np.linalg.norm(matvec(right) - value * left) <= 1e-14 * value

    def test_triplet_is_frozen(self):
        prob = random_problem(4, 1)
        triplet = top_singular_value(*multiplier_operator(prob), prob.u.lattice.size)
        with pytest.raises(AttributeError):
            triplet.value = 0.0

    def test_zero_operator_gives_a_finite_triplet(self):
        lat = make_lattice(2, 3)
        prob = problem(SpectralField(lat, np.zeros(lat.size)))
        triplet = top_singular_value(*multiplier_operator(prob), lat.size)
        assert (triplet.value, triplet.residual, triplet.steps) == (0.0, 0.0, 1)
        assert not np.any(triplet.left)
        assert np.linalg.norm(triplet.right) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n, radius, alpha, s, t", TRIPLET_PROBLEMS)
    def test_start_orthogonal_to_the_top_vector_still_finds_it(self, n, radius, alpha, s, t):
        # the second right singular vector spans an invariant subspace of A^H A
        # without the top one: unmixed, GKL would stop at once on sigma_2
        prob = random_problem(radius, 3, n=n, alpha=alpha, s=s, t=t)
        sigmas, rights = dense_top(prob)
        assert abs(np.vdot(rights[0], rights[1])) < 1e-12
        triplet = top_singular_value(*multiplier_operator(prob), prob.u.lattice.size,
                                     start=rights[1])
        assert triplet.value == pytest.approx(sigmas[0], rel=1e-10)

    @pytest.mark.parametrize("n, radius, alpha, s, t", TRIPLET_PROBLEMS)
    def test_start_at_the_top_vector_takes_fewer_steps(self, n, radius, alpha, s, t):
        prob = random_problem(radius, 3, n=n, alpha=alpha, s=s, t=t)
        sigmas, rights = dense_top(prob)
        size = prob.u.lattice.size
        seeded = top_singular_value(*multiplier_operator(prob), size)
        warm = top_singular_value(*multiplier_operator(prob), size, start=rights[0])
        assert warm.steps < seeded.steps
        assert warm.value == pytest.approx(sigmas[0], rel=1e-10)

    def test_seeded_start_is_drawn_once_per_size_and_read_only(self):
        first = multipliers._seeded_start(13)
        assert multipliers._seeded_start(13) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 0.0
        assert np.linalg.norm(first) == pytest.approx(1.0, abs=1e-15)

    def test_seeded_start_is_the_same_in_two_fresh_processes(self):
        probe = ("import hashlib\nfrom peribessel.multipliers import _seeded_start\n"
                 "print(hashlib.sha256(_seeded_start(1089).tobytes()).hexdigest())\n")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(multipliers.__file__))}
        digests = {subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                  env=env, timeout=120, check=True).stdout for _ in range(2)}
        here = hashlib.sha256(multipliers._seeded_start(1089).tobytes()).hexdigest()
        assert digests == {here + "\n"}

    def test_seeded_start_normalises_standard_complex_gaussians(self):
        # |z|^2 = -log(1 - u) is Exp(1): mean 1, standard deviation 1/sqrt(size) = 0.01
        normals = _complex_normals(multipliers.GKL_SEED, "lanczos-start", 10**4)
        assert np.mean(np.abs(normals) ** 2) == pytest.approx(1.0, rel=0.05)
        seeded = multipliers._seeded_start(10**4)
        assert seeded.tobytes() == (normals / lattice._deterministic_norm(normals)).tobytes()
        assert np.linalg.norm(seeded) == pytest.approx(1.0, abs=1e-15)

    def test_cold_solves_are_byte_identical(self):
        prob = random_problem(4, 2, n=2, alpha=0.0, s=0.6, t=0.6)
        operator, size = multiplier_operator(prob), prob.u.lattice.size
        multipliers._seeded_start.cache_clear()
        first = top_singular_value(*operator, size)
        expected = (first.value, first.left.tobytes(), first.right.tobytes())
        first.left[:], first.right[:] = 0.0, np.nan  # the caller owns the triplet's vectors
        second = top_singular_value(*operator, size)
        assert (second.value, second.left.tobytes(), second.right.tobytes()) == expected

    def test_warm_start_leaves_the_seeded_start_alone(self):
        prob = random_problem(6, 1)
        size = prob.u.lattice.size
        seeded = multipliers._seeded_start(size)
        before = seeded.tobytes()
        top_singular_value(*multiplier_operator(prob), size, start=np.ones(size))
        assert multipliers._seeded_start(size) is seeded and seeded.tobytes() == before

    @pytest.mark.parametrize("start", [np.zeros(13), np.ones(12), np.full(13, np.nan)],
                             ids=["zero", "short", "nan"])
    def test_refuses_a_start_it_cannot_normalise(self, start):
        prob = random_problem(6, 1)
        with pytest.raises(ValueError, match="start must be a finite nonzero vector of length 13"):
            top_singular_value(*multiplier_operator(prob), prob.u.lattice.size, start=start)

    @pytest.mark.parametrize("size", [0, -1, 2.0, True], ids=["zero", "negative", "float", "bool"])
    def test_refuses_a_size_that_is_not_a_positive_integer(self, monkeypatch, size):
        prob = random_problem(6, 1)
        monkeypatch.setattr(multipliers, "_seeded_start", None)  # refused before any draw
        message = f"size must be a positive integer, got {size!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            top_singular_value(*multiplier_operator(prob), size)


def count_syntheses(monkeypatch) -> list:
    """Record the N of every synthesis, ``synthesize``'s and Boyd's on arrays alike: both
    run ``lattice._synthesize``."""
    synthesized = []

    def counted(coeffs, plan, _original=lattice._synthesize):
        synthesized.append(plan.points)
        return _original(coeffs, plan)

    monkeypatch.setattr(lattice, "_synthesize", counted)
    return synthesized


def count_calls(monkeypatch, *functions) -> dict:
    """Replace each ``(module, name)`` function by one that counts its calls, by name."""
    counts = {name: 0 for _, name in functions}
    for module, name in functions:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


# The numpy calls each product and each Lanczos step issues, counted, not timed
class TestHotPathCalls:
    @pytest.mark.parametrize("n", [2, 3])
    def test_a_product_makes_n_forward_and_n_inverse_one_axis_transforms(self, monkeypatch, n):
        prob = random_problem(3, 1, n=n)
        matvec, _ = multiplier_operator(prob)
        names = ("fft", "ifft", "fftn", "ifftn")
        counts = count_calls(monkeypatch, *((np.fft, name) for name in names))
        matvec(prob.u.coeffs)
        assert counts == {"fft": n, "ifft": n, "fftn": 0, "ifftn": 0}

    def test_each_reduction_is_one_block_at_size_1089(self, monkeypatch):
        # the mult-l2 benchmark's lattice: two tree sums a step and one for the right vector
        prob = random_problem(16, 1, n=2, alpha=0.0, s=0.6, t=0.6)
        operator = multiplier_operator(prob)
        counts = count_calls(monkeypatch, (multipliers, "tree_sum"))
        triplet = top_singular_value(*operator, prob.u.lattice.size)
        assert triplet.steps > 16  # past the second growth of the basis
        assert counts == {"tree_sum": 2 * triplet.steps + 1}

    def test_blocks_do_not_move_a_bit(self, monkeypatch):
        # every row's and every column's tree is the same whatever the block
        prob = random_problem(16, 1, n=2, alpha=0.0, s=0.6, t=0.6)
        operator, size = multiplier_operator(prob), prob.u.lattice.size
        whole = top_singular_value(*operator, size)
        monkeypatch.setattr(multipliers, "LANCZOS_BLOCK", 2 * size + 7)  # 2 rows, ragged
        blocked = top_singular_value(*operator, size)
        assert (blocked.value, blocked.residual, blocked.steps, blocked.right.tobytes()) == (
            whole.value, whole.residual, whole.steps, whole.right.tobytes())

    def test_a_matvec_that_keeps_its_inputs_still_sees_them(self):
        # the basis cannot be resized under a live view of it: it is copied instead
        prob = random_problem(16, 1, n=2, alpha=0.0, s=0.6, t=0.6)
        (matvec, rmatvec), size = multiplier_operator(prob), prob.u.lattice.size
        kept = []

        def keeping(v):
            kept.append((v, v.copy()))
            return matvec(v)

        triplet = top_singular_value(keeping, rmatvec, size)
        assert all(np.array_equal(v, copy) for v, copy in kept)
        plain = top_singular_value(matvec, rmatvec, size)
        assert (triplet.value, triplet.steps, triplet.right.tobytes()) == (
            plain.value, plain.steps, plain.right.tobytes())

    # One p != 2 report at (3, 4) synthesizes on N = 18 nodes Boyd's grids and the two
    # intersection terms', none for the certificate: its |E|_{H^s_p} is Boyd's step-0
    # denominator.  The one-axis transforms are those of each grid and each product:
    # 12 for step 0's two grids and product, 27 for each later step's five grids and two
    # products, 3 per re-check and intersection grid
    @pytest.mark.parametrize("p, q, rechecked", [(3.0, 1.5, 2), (4.0, 3.0, 1), (4.0, 4.0, 0)])
    def test_a_p_not_2_report_synthesizes_no_certificate_grid(self, monkeypatch, p, q,
                                                                rechecked):
        prob = random_problem(4, 1, n=3, s=2.0, t=0.5, p=p, q=q)
        synthesized = count_syntheses(monkeypatch)
        names = ("fft", "ifft", "fftn", "ifftn")
        counts = count_calls(monkeypatch, *((np.fft, name) for name in names))
        equivalence_report(prob, force=True)
        assert synthesized == [18] * (2 + 3 * BOYD_STEPS + rechecked + 2)
        assert counts["fft"] + counts["ifft"] == 12 + 27 * BOYD_STEPS + 3 * (rechecked + 2)
        assert (counts["fftn"], counts["ifftn"]) == (2, 0)  # FFT(u) and FFT(conj u), once

    def test_a_lanczos_step_calls_eigh_once_and_diag_never(self, monkeypatch):
        prob = random_problem(4, 2, n=2, alpha=0.0, s=0.6, t=0.6)
        operator = multiplier_operator(prob)
        counts = count_calls(monkeypatch, (np.linalg, "eigh"), (np, "diag"))
        triplet = top_singular_value(*operator, prob.u.lattice.size)
        assert triplet.steps > 8  # past the first doubling of the bases
        assert counts == {"eigh": triplet.steps, "diag": 0}


class TestWarmRefinement:
    @pytest.mark.parametrize(
        "n, alpha, s, t, force",
        [
            (1, 1.0, 1.0, 1.0, False),
            (1, 0.0, 0.6, 0.6, False),
            (2, 1.0, 1.5, 1.0, False),
            (2, 0.0, 0.6, 0.6, True),  # near-tied, below the index gate at n = 2
        ],
        ids=["n1", "n1-rough", "n2", "n2-near-tied"],
    )
    def test_matches_the_dense_oracle(self, n, alpha, s, t, force):
        u = gen_distribution("power-decay", make_lattice(n, 8), alpha=alpha)
        prob = problem(u, s=s, t=t)
        report = equivalence_report(prob, radii=(2, 4, 8), force=force)
        assert [radius for radius, _ in report.refinement] == [2, 4, 8]
        for radius, value in report.refinement:
            sub = replace(prob, u=restrict_field(u, radius))
            assert value == pytest.approx(svd_operator_norm(multiplier_matrix(sub)), rel=1e-10)
            assert value == pytest.approx(multiplier_norm_l2(sub), rel=1e-13)
        first = multiplier_norm_l2(replace(prob, u=restrict_field(u, 2)))
        assert report.refinement[0][1] == first  # bit for bit: a cold start
        single = equivalence_report(replace(prob, u=restrict_field(u, 4)), force=force)
        assert single.multiplier_norm == multiplier_norm_l2(replace(prob, u=restrict_field(u, 4)))

    def test_warm_starts_save_steps_on_the_near_tied_field(self, monkeypatch):
        u = gen_distribution("power-decay", make_lattice(2, 16), alpha=0.0)
        prob = problem(u, s=0.6, t=0.6)
        radii, calls = (4, 8, 16), []
        cold = []
        for radius in radii:
            sub = replace(prob, u=restrict_field(u, radius))
            cold.append(top_singular_value(*multiplier_operator(sub), sub.u.lattice.size).steps)
        monkeypatch.setattr(multipliers, "multiplier_operator",
                            lambda sub: counted_operator(sub, calls))
        equivalence_report(prob, radii=radii, force=True)
        assert 0 < len(calls) < sum(cold)  # one matvec per step: a refinement takes no x
        # Lanczos on A^H A spans GKL's Krylov space step for step.  With the seeded start
        # of numpy.random these were GKL's counts, [22, 26, 28] and 73 warm steps; the
        # start drawn by Box-Muller from the splitmix hash gives [23, 26, 28] and 74
        assert cold == [23, 26, 28] and len(calls) == 74

    # the refinement to the bit on the benchmark's two refinement shapes: mult-l2's
    # near-tied field, warm-started at radii 8 and 16, and mult-lp's Dirac field,
    # whose radius-4 value is test_boyd_pinned_bits' (numpy 2.4, OpenBLAS, x86-64).  The
    # near-tied values at radii 8 and 16 were recorded again when the seeded start was
    # drawn from the splitmix hash by Box-Muller: each moved by 1 ulp, from
    # 0x1.33fb01f51a929p+0 and 0x1.8c3c10a6e4d7bp+0
    @pytest.mark.parametrize(
        "n, radius, kind, alpha, indices, radii, force, expected",
        [
            (2, 16, "power-decay", 0.0, (0.6, 0.6, 2, 2), (4, 8, 16), True,
             ("0x1.c0b61fd9af58fp-1", "0x1.33fb01f51a92ap+0", "0x1.8c3c10a6e4d7cp+0")),
            (3, 4, "dirac", None, (3, 0, Fraction(21, 20), Fraction(3, 2)), (2, 3, 4), False,
             ("0x1.37062f52cccacp-7", "0x1.fa2eaf7e4edb3p-7", "0x1.69e17eb7e8e3fp-6")),
        ],
        ids=["mult-l2-near-tied", "mult-lp-dirac"],
    )
    def test_refinement_pinned_bits(self, n, radius, kind, alpha, indices, radii, force,
                                    expected):
        u = gen_distribution(kind, make_lattice(n, radius), alpha=alpha, seed=0)
        report = equivalence_report(MultiplierProblem(u, *indices), radii=radii, force=force)
        assert [(r, value.hex()) for r, value in report.refinement] == list(zip(radii, expected))

    # _refine_l2 returns one record per radius, with no left vector, and each later solve
    # starts from the previous record's right vector, zero-padded onto its lattice
    def test_refinement_returns_its_records(self):
        u = gen_distribution("power-decay", make_lattice(2, 16), alpha=0.0, seed=0)
        prob, radii = MultiplierProblem(u, 0.6, 0.6, 2, 2), (4, 8, 16)
        restricted = [replace(prob, u=restrict_field(u, radius)) for radius in radii]
        triplets = multipliers._refine_l2(restricted)
        report = equivalence_report(prob, radii=radii, force=True)
        assert report.lower_bound_certificate < report.multiplier_norm  # not floored
        assert [t.value for t in triplets] == [value for _, value in report.refinement]
        assert all(t.left is None for t in triplets)
        for (small, large), (previous, triplet) in zip(pairwise(restricted), pairwise(triplets)):
            before, after = small.u.lattice, large.u.lattice
            start = np.pad(previous.right.reshape(before.shape), after.radius - before.radius)
            again = multipliers._lanczos(*multiplier_operator(large), after.size, start.ravel())
            assert (again.value, again.residual, again.steps, again.right.tobytes()) == (
                triplet.value, triplet.residual, triplet.steps, triplet.right.tobytes())

    def test_a_zero_restriction_passes_its_start_on(self):
        # u vanishes on the radius-2 lattice: that solve has value 0, and the next
        # one starts from its right vector (the seeded start) and still converges
        prob = problem(delta_field(make_lattice(1, 4), (3,)))
        report = equivalence_report(prob, radii=(2, 4))
        assert report.refinement[0] == (2, 0.0)
        assert report.refinement[1][1] == pytest.approx(
            svd_operator_norm(multiplier_matrix(prob)), rel=1e-10
        )


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

    # Boyd's value to the bit on the benchmark's five p, q != 2 shapes at n = 3,
    # R = 4, the field of shape j drawn with seed j
    @pytest.mark.parametrize(
        "seed, kind, alpha, indices, expected",
        [
            (1, "power-decay", 1.0, (2, Fraction(1, 2), 3, Fraction(3, 2)), "0x1.9a7c32289ba07p+0"),
            (2, "power-decay", 2.0, (Fraction(1, 2), Fraction(5, 2), Fraction(3, 2), 3),
             "0x1.910af4ccff08fp-6"),
            (3, "random-smooth", None, (Fraction(3, 2), Fraction(3, 2), 4, 4), "0x1.797e8926ebcdbp-4"),
            (4, "dirac", None, (3, 0, Fraction(21, 20), Fraction(3, 2)), "0x1.69e17eb7e8e3fp-6"),
            (5, "power-decay", 0.0, (1, Fraction(5, 2), 4, 3), "0x1.483e58a6c2609p-1"),
        ],
    )
    def test_boyd_pinned_bits(self, seed, kind, alpha, indices, expected):
        u = gen_distribution(kind, make_lattice(3, 4), alpha=alpha, seed=seed)
        assert multiplier_norm_lp(MultiplierProblem(u, *indices)).hex() == expected

    # The run's record: its step-0 denominator is hs_norm of E on the same N nodes to the
    # bit, which lets a p != 2 report skip that synthesis, and its value is the bound
    @pytest.mark.parametrize("p, q", [(3.0, 1.5), (Fraction(21, 20), Fraction(3, 2)), (4.0, 4.0)])
    @pytest.mark.parametrize("n, radius, points", [(1, 8, None), (2, 4, 19), (3, 2, None)])
    def test_record_starts_at_the_certificate_denominator(self, n, radius, points, p, q):
        u = gen_distribution("power-decay", make_lattice(n, radius), alpha=1.0, seed=2)
        prob = MultiplierProblem(u, 1.5, 0.5, p, q, grid_points=points)
        run = multipliers._boyd(prob)
        source = SpaceIndex(float(prob.s), float(prob.p))
        assert run.start_denominator == hs_norm(constant_field(u.lattice), source, prob.points)
        assert run.value == multiplier_norm_lp(prob) == max(run.start,
                                                            min(run.ratio, run.rechecked))
        assert run.x.lattice == run.image.lattice == u.lattice

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
            ("dirac", None, 3.0, 0.0, Fraction(21, 20), Fraction(3, 2), 1.40),
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
    # depend on the field: the start ratio synthesizes x and its image on N = 18
    # nodes, each of BOYD_STEPS steps the adjoint source, x and its image, and the
    # re-check, on the same 18 nodes shifted, only the norms N nodes do not
    # integrate exactly (an even integer r with 4r < 18): both, one (the image at
    # (4, 3)) or none
    @pytest.mark.parametrize(
        "p, q, rechecked",
        [(3.0, 1.5, 2), (1.5, 3.0, 2), (2.0, 2.0, 0), (4.0, 4.0, 0), (4.0, 3.0, 1), (2.0, 4.0, 0)],
        ids=["3.0-1.5", "1.5-3.0", "2.0-2.0", "4.0-4.0", "4.0-3.0", "2.0-4.0"],
    )
    def test_step_count_independent_of_field(self, monkeypatch, p, q, rechecked):
        synthesized = count_syntheses(monkeypatch)
        lat = make_lattice(2, 4)
        for kind, alpha, seed in [("dirac", None, 0), ("power-decay", 2.0, 3), ("power-decay", 2.0, 8)]:
            synthesized.clear()
            multiplier_norm_lp(problem(gen_distribution(kind, lat, alpha=alpha, seed=seed), p=p, q=q))
            assert synthesized == [18] * (2 + 3 * BOYD_STEPS + rechecked)

    # At p = q = 4 the N-node norms are exact, so a forced re-check could only
    # lower the best N-node ratio by rounding
    @pytest.mark.parametrize(
        "kind, alpha, n, radius",
        [("random-smooth", None, 3, 4), ("power-decay", 1.0, 2, 8), ("dirac", None, 1, 16)],
    )
    def test_even_exponents_need_no_recheck(self, monkeypatch, kind, alpha, n, radius):
        u = gen_distribution(kind, make_lattice(n, radius), alpha=alpha, seed=3)
        prob = problem(u, s=1.5, t=1.5, p=4.0, q=4.0)
        value = multiplier_norm_lp(prob)
        monkeypatch.setattr(MultiplierProblem, "exact_on_grid", lambda self, r: False)
        forced = multiplier_norm_lp(prob)
        assert forced <= value
        assert value - forced <= 1e-15 * value

    def test_recheck_runs_when_the_grid_is_too_coarse(self, monkeypatch):
        # on N = 2R+1 or N = 4R nodes |g|^4 has degree 4R >= N, so the re-check
        # of both norms still runs, one more N-node synthesis each; |g|^2 (degree
        # 2R < 2R+1) needs none
        synthesized = count_syntheses(monkeypatch)
        lat = make_lattice(2, 3)
        u = gen_distribution("power-decay", lat, alpha=1.0, seed=4)
        for points, pq, rechecked in ((lat.side, 4.0, 2), (4 * lat.radius, 4.0, 2), (lat.side, 2.0, 0)):
            synthesized.clear()
            multiplier_norm_lp(MultiplierProblem(u, 1.0, 1.0, pq, pq, grid_points=points))
            assert synthesized == [points] * (2 + 3 * BOYD_STEPS + rechecked)

    # At n = 1 the shifted nodes interleave the N nodes, so the mean of the two
    # rectangle sums is the 2N-node rule; at r = 1000 both rescale to stay finite
    @pytest.mark.parametrize(
        "kind, alpha, r",
        [("dirac", None, 1.05), ("power-decay", 1.0, 3.0), ("random-smooth", None, 1.5),
         ("dirac", None, 1000.0)],
    )
    @pytest.mark.parametrize("points", [17, 34, 35])
    def test_half_shift_mean_is_the_2n_rule_at_n_one(self, kind, alpha, r, points):
        field = gen_distribution(kind, make_lattice(1, 8), alpha=alpha, seed=2)
        plan = lattice._plan(field.lattice, points)
        value = _half_shift_norm(field.coeffs, plan, r, lp_norm(synthesize(field, points), r))
        assert value == pytest.approx(lp_norm(synthesize(field, 2 * points), r), rel=1e-13)

    # On the rough Dirac shapes the best iterate's re-checked ratio lies nearer its
    # 4N-node ratio than the 2N-node ratio that the re-check replaced
    @pytest.mark.parametrize("n", [2, 3])
    def test_recheck_is_nearer_the_4n_rule_than_the_2n_rule(self, monkeypatch, n):
        calls = []

        def recorded(coeffs, plan, r, norm):
            field = SpectralField(plan.lattice, coeffs)
            calls.append((field, plan.points, r, half_shift_norm(coeffs, plan, r, norm)))
            return calls[-1][-1]

        half_shift_norm = multipliers._half_shift_norm
        monkeypatch.setattr(multipliers, "_half_shift_norm", recorded)
        u = gen_distribution("dirac", make_lattice(n, 4))
        multiplier_norm_lp(MultiplierProblem(u, n, 0, Fraction(21, 20), Fraction(3, 2)))
        (image, points, q, numerator), (x, _, p, denominator) = calls

        def ratio(nodes):
            return lp_norm(synthesize(image, nodes), q) / lp_norm(synthesize(x, nodes), p)

        reference = ratio(4 * points)
        assert abs(numerator / denominator - reference) < abs(ratio(2 * points) - reference)

    # The re-check allocates N^n-point grids only: at n = 5 one (2N)^n grid is 48.8 MiB
    def test_recheck_memory_stays_below_one_2n_grid(self):
        u = gen_distribution("dirac", make_lattice(5, 2))
        prob = MultiplierProblem(u, 5, 0, Fraction(3, 2), Fraction(3, 2))
        peak = peak_bytes(lambda: multiplier_norm_lp(prob))
        assert peak < (2 * prob.points) ** 5 * np.dtype(np.complex128).itemsize

    # Each duality map is written over its image's grid and analyzed in place once the
    # modulus is freed; a separate map grid, copying transforms and the live image grid
    # held 5.97 grids here, the lattice's cached arrays included
    def test_one_run_holds_at_most_5_grids(self):
        prob = random_problem(12, 1, n=3, alpha=1.0, s=1.0, t=1.0, p=3.0, q=3.0)
        peak = peak_bytes(lambda: multiplier_norm_lp(prob))
        assert peak <= 5 * prob.points ** 3 * np.dtype(np.complex128).itemsize

    @pytest.mark.parametrize("p", [Fraction(21, 20), 1.05], ids=["fraction", "float"])
    def test_dirac_near_p_one_stays_finite(self, p):
        u = gen_distribution("dirac", make_lattice(3, 3))
        prob = problem(u, s=3, t=0, p=p, q=Fraction(3, 2))
        value = multiplier_norm_lp(prob)
        assert np.isfinite(value) and value > 0.0

    @pytest.mark.parametrize("q", [2.0, 3.0])  # at q = 3 the zero image skips the re-check
    def test_zero_field(self, q):
        lat = make_lattice(2, 3)
        prob = problem(SpectralField(lat, np.zeros(lat.size)), p=3.0, q=q)
        assert multiplier_norm_lp(prob) == 0.0
        assert multipliers._boyd(prob).value == 0.0

    def test_dual_maps_zeros_to_zero(self):
        values = np.array([0.0, 2.0, -1.0j, 0.0, 0.5])
        w = values / 2.0  # taken first: the map is written over values
        with np.errstate(all="raise"):
            dual = _dual(values, np.abs(values), 1.5)
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

    # seeded p = q = 2 reports: the norm is the Lanczos value floored at the certificate,
    # which would otherwise print up to a few ulps above the norm it bounds
    @pytest.mark.parametrize("n, radius", [(1, 0), (1, 8), (2, 0), (2, 8), (3, 0), (3, 2)])
    @pytest.mark.parametrize("kind", ["power-decay", "random-smooth", "dirac"])
    def test_p2_norm_is_floored_at_its_certificate(self, n, radius, kind):
        lat = make_lattice(n, radius)
        for seed in range(5):
            u = gen_distribution(kind, lat, alpha=None if kind == "dirac" else 1.5, seed=seed)
            for s, t in [(0.5, 0.5), (1.0, 1.0), (1.0, 0.5), (2.0, 1.0), (0.25, 1.5)]:
                report = equivalence_report(problem(u, s=s, t=t), force=True)
                assert report.lower_bound_certificate <= report.multiplier_norm
                value = multiplier_norm_l2(problem(u, s=s, t=t))
                assert report.multiplier_norm == max(value, report.lower_bound_certificate)
                assert report.refinement == ((radius, report.multiplier_norm),)

    @pytest.mark.parametrize("n, radius", [(1, 8), (2, 2), (2, 8), (3, 3)])
    def test_constant_field_reports_at_least_one(self, n, radius):
        # its certificate is |E|_{H^(-t)_2} / |E|_{H^s_2} = 1.0 exactly; the Lanczos
        # value alone lands a few ulps below 1 on some of these
        for s, t in [(0.5, 0.5), (1.0, 1.0), (2.0, 1.0), (1.0, 0.5)]:
            prob = problem(constant_field(make_lattice(n, radius)), s, t)
            report = equivalence_report(prob, force=True)
            assert report.lower_bound_certificate == 1.0 <= report.multiplier_norm
            assert report.multiplier_norm == pytest.approx(1.0, rel=1e-15)

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

    @pytest.mark.parametrize("p, q", [(2, 2), (3, Fraction(3, 2))], ids=["l2", "boyd"])
    def test_field_zero_on_top_radius_rejected(self, p, q):
        prob = problem(delta_field(make_lattice(1, 4), (4,)), p=p, q=q)
        with pytest.raises(ValueError, match="restriction to radius 2 is zero"):
            equivalence_report(prob, radii=[2])

    def test_a_zero_restriction_below_the_top_reports_zero_at_p_not_2(self):
        # Boyd does not run on the zero radius-2 field; the top radius's run floors the report
        prob = problem(delta_field(make_lattice(1, 4), (4,)), p=3, q=Fraction(3, 2))
        report = equivalence_report(prob, radii=(2, 4))
        assert report.refinement == ((2, 0.0), (4, 0.1785441237505187))

    # Whole p != 2 reports to the bit: the five mult-lp shapes, shape j drawn with seed j
    # as in test_boyd_pinned_bits, mult-lp's Dirac refinement, and a p = 2, q = 3 report.
    # There the certificate's |E|_{H^s_2} is the coefficient sum, as hs_norm takes it; the
    # N-node quadrature of Boyd's step 0 would give 0x1.15f3e7d3ebf4cp-2, 1 ulp higher.
    # Fields: multiplier norm, certificate, intersection norm, ratio, then the refinement
    @pytest.mark.parametrize(
        "n, radius, seed, kind, alpha, indices, radii, expected",
        [
            (3, 4, 1, "power-decay", 1.0, (2, Fraction(1, 2), 3, Fraction(3, 2)), None,
             ("0x1.9a7c32289ba07p+0", "0x1.988dca85ffe9cp+0", "0x1.40e0a13d914a2p+3",
              "0x1.477d78157e082p-3", ("0x1.9a7c32289ba07p+0",))),
            (3, 4, 2, "power-decay", 2.0, (Fraction(1, 2), Fraction(5, 2), Fraction(3, 2), 3),
             None, ("0x1.910af4ccff08fp-6", "0x1.949fd0ca6e79fp-7", "0x1.c6d34d847ce0ep-1",
                    "0x1.c374e14e17ef4p-6", ("0x1.910af4ccff08fp-6",))),
            (3, 4, 3, "random-smooth", None, (Fraction(3, 2), Fraction(3, 2), 4, 4), None,
             ("0x1.797e8926ebcdbp-4", "0x1.60c7f00c03afap-4", "0x1.2917f6b190cd6p+2",
              "0x1.45479df6c4d01p-6", ("0x1.797e8926ebcdbp-4",))),
            (3, 4, 4, "dirac", None, (3, 0, Fraction(21, 20), Fraction(3, 2)), None,
             ("0x1.69e17eb7e8e3fp-6", "0x1.74d6f5b6d9060p-7", "0x1.15d7411977820p+1",
              "0x1.4d6f062d9e821p-7", ("0x1.69e17eb7e8e3fp-6",))),
            (3, 4, 5, "power-decay", 0.0, (1, Fraction(5, 2), 4, 3), None,
             ("0x1.483e58a6c2609p-1", "0x1.d669b6a59b524p-3", "0x1.a52c7b4326b47p+4",
              "0x1.8f0783e155f5dp-6", ("0x1.483e58a6c2609p-1",))),
            (3, 4, 0, "dirac", None, (3, 0, Fraction(21, 20), Fraction(3, 2)), (2, 3, 4),
             ("0x1.69e17eb7e8e3fp-6", "0x1.74d6f5b6d9060p-7", "0x1.15d7411977820p+1",
              "0x1.4d6f062d9e821p-7",
              ("0x1.37062f52cccacp-7", "0x1.fa2eaf7e4edb3p-7", "0x1.69e17eb7e8e3fp-6"))),
            (1, 8, 0, "dirac", None, (Fraction(3, 2), 1, 2, 3), None,
             ("0x1.86d3905eeab9fp-2", "0x1.15f3e7d3ebf4bp-2", "0x1.5c5cb3d161c9bp-1",
              "0x1.1f34a4926f555p-1", ("0x1.86d3905eeab9fp-2",))),
        ],
        ids=["mult-lp-1", "mult-lp-2", "mult-lp-3", "mult-lp-4", "mult-lp-5",
             "mult-lp-dirac-refinement", "p2-q3-dirac"],
    )
    def test_pinned_reports(self, n, radius, seed, kind, alpha, indices, radii, expected):
        u = gen_distribution(kind, make_lattice(n, radius), alpha=alpha, seed=seed)
        report = equivalence_report(MultiplierProblem(u, *indices), radii=radii)
        values = (report.multiplier_norm, report.lower_bound_certificate,
                  report.intersection_norm, report.ratio)
        assert tuple(value.hex() for value in values) == expected[:4]
        assert [value.hex() for _, value in report.refinement] == list(expected[4])

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
        assert row[6] == report.multiplier_norm


class TestCertificateBound:
    def test_ones_norm_times_operator_norm_dominates(self):
        lat = make_lattice(1, 8)
        ones_norm = hs_norm(constant_field(lat), SpaceIndex(1.0, 2.0))
        for seed in range(20):
            u = gen_distribution("power-decay", lat, alpha=1.0, seed=seed)
            norm = multiplier_norm_l2(problem(u))
            assert hs_norm(u, SpaceIndex(-1.0, 2.0)) <= ones_norm * norm
