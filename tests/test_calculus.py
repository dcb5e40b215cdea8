import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peribessel import (
    GridFunction,
    SpaceIndex,
    SpectralField,
    analyze,
    conj_field,
    constant_field,
    delta_field,
    duality_pair,
    gen_distribution,
    hs_norm,
    lift,
    lp_norm,
    make_lattice,
    pointwise_product,
    synthesize,
)
from peribessel import lattice as lattice_module
from peribessel.conditions import conjugate_exponent
from peribessel.calculus import _convolver, _fast_length, bessel_weights
from peribessel.lattice import tree_sum

from conftest import convolve_direct, rectangle_quadrature, rel_err, seven_smooth

TWO_PI = 2.0 * np.pi


def random_field(lattice, seed, decay=1.0):
    return gen_distribution("power-decay", lattice, alpha=decay, seed=seed)


def bessel_weight(s, k):
    """The weight at one multi-index k, read off the lattice of radius max|k_m|."""
    lattice = make_lattice(len(k), max(abs(c) for c in k))
    return bessel_weights(s, lattice)[lattice.position(k)]


class TestBesselWeight:
    def test_zero_order_is_one(self):
        assert bessel_weight(0.0, (3, -4)) == 1.0

    def test_order_two_diagonal(self):
        assert bessel_weight(2.0, (1, 1)) == pytest.approx(3.0, rel=1e-15)

    def test_negative_order(self):
        assert bessel_weight(-1.0, (2, 0, 0)) == pytest.approx(5 ** -0.5, rel=1e-15)


    def test_refuses_an_order_whose_largest_weight_overflows(self):
        # 19^240 is about 1e307 and 19^250 about 1e320, at k = (3, 3)
        lattice = make_lattice(2, 3)
        assert np.isfinite(bessel_weights(480.0, lattice)).all()
        with pytest.raises(ValueError, match=r"index 500.0 overflows .* at \|k\|\^2 = 18"):
            bessel_weights(500.0, lattice)
        assert bessel_weights(-5000.0, lattice)[-1] == 0.0  # underflow is finite


class TestLift:
    def test_order_zero_is_identity(self):
        u = random_field(make_lattice(1, 6), seed=0)
        assert np.array_equal(lift(0.0, u).coeffs, u.coeffs)

    def test_eigenrelation_on_basis(self):
        lat = make_lattice(2, 3)
        lifted = lift(2.0, delta_field(lat, (1, 0)))
        assert rel_err(lifted.coeffs, 2.0 * delta_field(lat, (1, 0)).coeffs) < 1e-15

    def test_inverse(self):
        u = random_field(make_lattice(2, 4), seed=1)
        assert rel_err(lift(-2.3, lift(2.3, u)).coeffs, u.coeffs) < 1e-13

    @given(
        st.integers(0, 2 ** 32 - 1),
        st.floats(-4, 4, allow_nan=False),
        st.floats(-4, 4, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_semigroup(self, seed, s, t):
        u = random_field(make_lattice(1, 8), seed=seed)
        assert rel_err(lift(s, lift(t, u)).coeffs, lift(s + t, u).coeffs) < 1e-13

    def test_an_overflowing_lift_raises_floating_point_error(self):
        # the weights are finite (at most 2^400), their products with 1e200 are not
        big = SpectralField(make_lattice(1, 1), np.full(3, 1e200))
        with pytest.raises(FloatingPointError, match="overflow encountered"):
            lift(800, big)
        with pytest.raises(ValueError, match="coefficients must be finite"):
            lift(float("nan"), big)


class TestHsNorm:
    def test_single_mode_closed_form(self):
        lat = make_lattice(2, 2)
        value = hs_norm(delta_field(lat, (1, 0)), SpaceIndex(1.0, 2.0))
        assert value == pytest.approx(np.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize("s", [-2.0, 0.0, 1.0, 3.5])
    def test_constant_field_any_smoothness(self, s):
        value = hs_norm(constant_field(make_lattice(1, 5)), SpaceIndex(s, 2.0))
        assert value == pytest.approx(np.sqrt(TWO_PI), rel=1e-15)

    def test_two_paths_agree_for_p2(self):
        for seed in range(10):
            u = random_field(make_lattice(1, 16), seed=seed, decay=0.75)
            closed = hs_norm(u, SpaceIndex(1.2, 2.0))
            quad = lp_norm(synthesize(lift(1.2, u), 64), 2.0)
            assert abs(closed - quad) / closed < 1e-12

    @pytest.mark.parametrize("s", [200.0, 250.0, 300.0])
    @pytest.mark.parametrize("zero_at", [None, 8], ids=["full", "zero-coefficient"])
    def test_p2_norm_past_the_squared_weight_overflow(self, s, zero_at):
        # (1 + |k|^2)^s, the squared weight, overflows at |k| = 8 once s > 170, half
        # the order that bessel_weights refuses; the rescaled coefficient norm still
        # matches the quadrature, and a zero coefficient does not make it NaN
        lat = make_lattice(1, 8)
        coeffs = gen_distribution("power-decay", lat, alpha=0.0, seed=2).coeffs.copy()
        if zero_at is not None:
            coeffs[lat.position((zero_at,))] = 0.0
        u = SpectralField(lat, coeffs)
        closed = hs_norm(u, SpaceIndex(s, 2.0))
        quad = lp_norm(synthesize(lift(s, u), 2 * lat.side), 2.0)
        assert abs(closed - quad) / quad < 1e-12

    @pytest.mark.parametrize("n, radius", [(1, 4), (2, 3), (3, 2)])
    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-300])
    @pytest.mark.parametrize("s", [-300.0, -1.5, 0.0, 1.0, 300.0])
    def test_p2_norm_matches_overflow_safe_hypot(self, n, radius, scale, s):
        # math.hypot of the lifted moduli neither over- nor underflows on the way and
        # sums in its own order: within 2 ulps of it, inf where it is inf
        lat = make_lattice(n, radius)
        weights, index = bessel_weights(s, lat).tolist(), SpaceIndex(s, 2.0)
        for kind, seed in itertools.product(("power-decay", "random-smooth"), range(5)):
            u = SpectralField(lat, scale * gen_distribution(kind, lat, 1.0, seed).coeffs)
            oracle = math.hypot(*(w * abs(c) for w, c in zip(weights, u.coeffs.tolist())))
            value = hs_norm(u, index)
            if oracle in (0.0, math.inf):
                assert value == oracle
            else:
                assert abs(value - oracle) <= 2 * math.ulp(oracle), (kind, seed)
        assert hs_norm(SpectralField(lat, np.zeros(lat.size)), index) == 0.0

    def test_p2_norm_peaks_under_23_bytes_per_coefficient(self):
        # the lifted moduli (8 bytes a coefficient), their squares (8) and tree_sum's
        # two level buffers (4 + 2)
        lat = make_lattice(2, 255)
        u, index = random_field(lat, seed=0), SpaceIndex(1.0, 2.0)
        hs_norm(u, index)  # builds the lattice's cached |k|^2 outside the measurement
        tracemalloc.start()
        try:
            hs_norm(u, index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 23 * lat.size

    def test_p2_norm_that_overflows_is_inf_not_nan(self):
        # the lifted coefficient 2^400 * 1e200 overflows: the norm is inf, though
        # rescaling by the largest modulus, itself inf, would give inf / inf = NaN
        u = SpectralField(make_lattice(1, 1), [1e200, 1e200, 0.0])
        assert hs_norm(u, SpaceIndex(800.0, 2.0)) == np.inf

    def test_p3_grid_refinement_oracle(self):
        # |lift(1.5, u)|^3 is analytic but not band-limited, so the p = 3
        # quadrature needs a genuinely fine grid; at N = 1024 the value is
        # converged and quadrupling the grid moves it by < 1e-10 relative
        lat = make_lattice(1, 8)
        index = SpaceIndex(1.5, 3.0)
        for seed in range(6):
            u = random_field(lat, seed=seed, decay=2.0)
            coarse = hs_norm(u, index, grid_points=1024)
            fine = hs_norm(u, index, grid_points=4096)
            assert abs(coarse - fine) / fine < 1e-10

    def test_lifting_isometry(self):
        lat = make_lattice(1, 8)
        for seed, alpha in ((0, -2.0), (1, 0.5), (2, 1.5)):
            u = random_field(lat, seed=seed, decay=1.0)
            for p in (1.5, 2.0, 3.0):
                shifted = hs_norm(lift(alpha, u), SpaceIndex(1.0 - alpha, p))
                assert shifted == pytest.approx(hs_norm(u, SpaceIndex(1.0, p)), rel=1e-10)

    def test_rejects_bad_inputs(self):
        u = constant_field(make_lattice(1, 4))
        with pytest.raises(ValueError):
            hs_norm(u, SpaceIndex(0.0, 0.9))
        with pytest.raises(ValueError, match="1 <= p < inf"):
            SpaceIndex(0.0, np.inf)
        with pytest.raises(ValueError, match="smoothness index must be finite"):
            SpaceIndex(np.inf, 2.0)
        with pytest.raises(ValueError, match="grid too small"):
            hs_norm(u, SpaceIndex(0.0, 3.0), grid_points=4)


class TestAction:
    def test_basis_pairing_is_reflection(self):
        lat = make_lattice(1, 2)
        for m in range(-2, 3):
            for k in range(-2, 3):
                value = duality_pair(delta_field(lat, (m,)), conj_field(delta_field(lat, (k,))))
                assert value == (1.0 if k == -m else 0.0)

    def test_constant_against_basis_zero(self):
        lat = make_lattice(1, 3)
        assert duality_pair(delta_field(lat, (0,)), conj_field(delta_field(lat, (0,)))) == 1.0

    def test_linearity(self):
        lat = make_lattice(1, 4)
        u, v, f = (random_field(lat, seed=s) for s in (0, 1, 2))
        f_bar = conj_field(f)
        combination = SpectralField(lat, (2.0 - 1j) * u.coeffs + 0.5j * v.coeffs)
        combined = duality_pair(combination, f_bar)
        expected = (2.0 - 1j) * duality_pair(u, f_bar) + 0.5j * duality_pair(v, f_bar)
        assert abs(combined - expected) < 1e-13 * abs(expected)

    def test_grid_quadrature_oracle(self):
        lat = make_lattice(2, 3)
        for seed in range(5):
            u = random_field(lat, seed=seed)
            f = gen_distribution("random-smooth", lat, seed=seed + 50)
            value = duality_pair(u, conj_field(f))
            product = synthesize(u, lat.side).samples * synthesize(f, lat.side).samples
            assert abs(value - rectangle_quadrature(product)) / abs(value) < 1e-10

    def test_lattice_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            duality_pair(
                constant_field(make_lattice(1, 2)), conj_field(constant_field(make_lattice(1, 3)))
            )


class TestDualityPair:
    def test_basis_orthonormality(self):
        lat = make_lattice(1, 2)
        for k in range(-2, 3):
            for m in range(-2, 3):
                value = duality_pair(delta_field(lat, (k,)), delta_field(lat, (m,)))
                assert value == (1.0 if k == m else 0.0)

    def test_representation_through_action(self):
        lat = make_lattice(1, 6)
        u = random_field(lat, seed=4)
        f = gen_distribution("random-smooth", lat, seed=5)
        # the action of u on f, sum_k coeff_k(u) coeff_{-k}(f), summed term by term
        lhs = duality_pair(u, conj_field(f))
        rhs = sum(u.coefficient(k) * f.coefficient(-k) for k in lat.indices)
        assert abs(lhs - rhs) < 1e-14 * abs(rhs)

    def test_weight_cancellation_makes_value_s_independent(self):
        lat = make_lattice(2, 3)
        u, v = random_field(lat, seed=6), random_field(lat, seed=7)
        cancelled = duality_pair(u, v)
        for s in (-2.0, 0.0, 3.0):
            uncancelled = complex(
                tree_sum(lift(-s, u).coeffs * np.conj(lift(s, v).coeffs))
            )
            assert abs(uncancelled - cancelled) <= 1e-13 * abs(cancelled)

    def test_hoelder_bound(self):
        lat = make_lattice(1, 8)
        for seed in range(10):
            u = random_field(lat, seed=seed)
            v = random_field(lat, seed=seed + 100)
            for p in (1.5, 2.0, 3.0):
                for s in (0.0, 1.0, 2.5):
                    pairing = abs(duality_pair(u, v))
                    bound = hs_norm(
                        u, SpaceIndex(-s, float(conjugate_exponent(p)))
                    ) * hs_norm(v, SpaceIndex(s, p))
                    assert pairing <= bound * (1 + 1e-12)


def test_fast_length_is_the_least_7_smooth_integer_at_least_m():
    lengths = range(1, 2001)
    expected = [next(k for k in itertools.count(m) if seven_smooth(k)) for m in lengths]
    assert [_fast_length(m) for m in lengths] == expected


@pytest.mark.parametrize("n, radius", [(1, 0), (1, 4), (2, 1), (2, 4), (3, 2), (3, 4)])
@pytest.mark.parametrize("stack", [(), (3,)])
def test_windowed_convolver_matches_full_inverse_transform_bit_for_bit(n, radius, stack):
    side = 2 * radius + 1
    rng = np.random.default_rng(side ** n)
    a = rng.normal(size=(side,) * n) + 1j * rng.normal(size=(side,) * n)
    b = rng.normal(size=stack + a.shape) + 1j * rng.normal(size=stack + a.shape)
    axes = tuple(range(-n, 0))
    for length in (3 * radius + 1, _fast_length(3 * radius + 1), 2 * side - 1, 2 * side + 2):
        shape = (length,) * n
        full = np.fft.ifftn(np.fft.fftn(a, shape, axes) * np.fft.fftn(b, shape, axes), axes=axes)
        for window in (slice(radius, radius + side), slice(None), slice(1, length - 1)):
            reference = full[(...,) + (window,) * n]
            assert _convolver(a, shape, window)(b).tobytes() == reference.tobytes()


class TestPointwiseProduct:
    def test_exact_product_norm_needs_no_index_table(self):
        # the radius-2R lattice of an exact product is fresh on every call
        lat = make_lattice(2, 4)
        product = pointwise_product(random_field(lat, seed=1), random_field(lat, seed=2), exact=True)
        hs_norm(product, SpaceIndex(1.5, 2.0))
        assert "indices" not in vars(product.lattice)

    def test_exact_product_lattice_is_bounded_before_allocating(self, monkeypatch):
        monkeypatch.setattr(lattice_module, "MAX_COEFFICIENTS", 100)
        f = random_field(make_lattice(2, 3), seed=1)  # 49 coefficients; radius 6 has 169
        assert pointwise_product(f, f).lattice.size == 49
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="n=2, R=6 exceeds 100 coefficients"):
                pointwise_product(f, f, exact=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("n", [33, 40, 64])
    def test_more_axes_than_the_flat_iterator_takes(self, n, exact):
        # radius 0 has one coefficient, held in a cube of n > 32 axes
        lat = make_lattice(n, 0)
        for f0, u0 in ((2.0 - 1.0j, 0.5 + 3.0j), (0.0, 0.5 + 3.0j), (2.0, 0.0), (0.0, 0.0)):
            f, u = SpectralField(lat, [f0]), SpectralField(lat, [u0])
            out = pointwise_product(f, u, exact=exact)
            expected = TWO_PI ** (-n / 2) * f0 * u0
            assert out.lattice == lat
            assert out.coefficient((0,) * n) == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("entries", [(1.0, 0.0), (1.0, 1.0)], ids=["shift", "fft"])
    def test_an_overflowing_product_raises_floating_point_error(self, entries, exact):
        lat = make_lattice(1, 1)
        big = SpectralField(lat, np.full(3, 1e200))
        f = SpectralField(lat, [0.0, *entries])  # one nonzero is shifted exactly, two by FFT
        with pytest.raises(FloatingPointError, match="overflow encountered"):
            pointwise_product(SpectralField(lat, 1e200 * f.coeffs), big, exact=exact)

    def test_multiplying_by_ones_is_identity(self):
        lat = make_lattice(1, 5)
        u = random_field(lat, seed=8)
        ones = constant_field(lat)
        assert rel_err(pointwise_product(ones, u).coeffs, u.coeffs) < 1e-15
        exact = pointwise_product(ones, u, exact=True)
        assert exact.lattice.radius == 10
        assert exact.coefficient((5,)) == pytest.approx(u.coefficient((5,)), rel=1e-15)

    def test_basis_times_basis(self):
        lat = make_lattice(1, 2)
        out = pointwise_product(delta_field(lat, (1,)), delta_field(lat, (2,)), exact=True)
        expected = np.zeros(out.lattice.size, dtype=complex)
        expected[out.lattice.position((3,))] = TWO_PI ** -0.5
        assert rel_err(out.coeffs, expected) < 1e-15

    @pytest.mark.parametrize("n,radius", [(1, 6), (2, 3)])
    def test_exact_mode_matches_dealiased_grid(self, n, radius):
        lat = make_lattice(n, radius)
        big = make_lattice(n, 2 * radius)
        grid = 4 * radius + 3
        for seed in range(5):
            f = gen_distribution("random-smooth", lat, seed=seed)
            u = random_field(lat, seed=seed + 10)
            spectral = pointwise_product(f, u, exact=True)
            grid_route = analyze(
                GridFunction(synthesize(f, grid).samples * synthesize(u, grid).samples),
                big,
            )
            assert rel_err(spectral.coeffs, grid_route.coeffs) < 1e-11

    def test_default_mode_is_central_truncation(self):
        lat = make_lattice(1, 4)
        f = gen_distribution("random-smooth", lat, seed=1)
        u = random_field(lat, seed=2)
        truncated = pointwise_product(f, u)
        exact = pointwise_product(f, u, exact=True)
        assert truncated.lattice == lat
        for k in range(-4, 5):
            assert truncated.coefficient((k,)) == exact.coefficient((k,))

    def test_lattice_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            pointwise_product(
                constant_field(make_lattice(1, 2)), constant_field(make_lattice(1, 3))
            )

    @staticmethod
    def _direct(f, u, exact):
        """Loop-oracle product, full or centre-truncated like pointwise_product."""
        lat = f.lattice
        full = TWO_PI ** (-lat.n / 2.0) * convolve_direct(f.cube(), u.cube())
        if exact:
            return full.ravel()
        return full[(slice(lat.radius, lat.radius + lat.side),) * lat.n].ravel()

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("n,radius", [(1, 6), (2, 3), (3, 2)])
    def test_dense_factors_match_direct_convolution(self, n, radius, exact):
        lat = make_lattice(n, radius)
        u = random_field(lat, seed=4)
        two = np.zeros(lat.size, dtype=complex)
        two[[0, lat.size // 2 + 1]] = [0.5 - 2.0j, 1.25]
        factors = [
            gen_distribution("random-smooth", lat, seed=3),
            gen_distribution("power-decay", lat, alpha=1.5, seed=7),
            SpectralField(lat, two),
        ]
        assert np.any(factors[1].coeffs.imag != 0)
        for f in factors:
            for left, right in ((f, u), (u, f)):
                out = pointwise_product(left, right, exact=exact).coeffs
                assert rel_err(out, self._direct(left, right, exact)) <= 1e-13

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("n,radius", [(1, 6), (2, 3), (3, 2)])
    def test_basis_factors_are_bitwise_direct(self, n, radius, exact):
        lat = make_lattice(n, radius)
        u = random_field(lat, seed=5)
        corner = (radius,) + (-radius,) * (n - 1)
        for basis in (constant_field(lat), delta_field(lat, corner)):
            for left, right in ((basis, u), (u, basis)):
                out = pointwise_product(left, right, exact=exact).coeffs
                assert out.tobytes() == self._direct(left, right, exact).tobytes()
