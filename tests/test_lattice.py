import math

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
    hs_norm,
    intersection_norm,
    lp_norm,
    make_lattice,
    real_part_field,
    restrict_field,
    synthesize,
    tree_sum,
)
from peribessel import lattice
from peribessel.lattice import grid_nodes

from conftest import (
    analyze_reference,
    grid_scatter_reference,
    is_real_valued,
    peak_bytes,
    rel_err,
    synthesize_direct,
    synthesize_reference,
    tree_sum_reference,
)

TWO_PI = 2.0 * np.pi


class TestMakeLattice:
    def test_1d_radius_2(self):
        lat = make_lattice(1, 2)
        assert lat.size == 5
        assert [tuple(k) for k in lat.indices] == [(-2,), (-1,), (0,), (1,), (2,)]

    def test_2d_radius_1_cardinality(self):
        assert make_lattice(2, 1).size == 9

    def test_3d_radius_0_degenerate(self):
        lat = make_lattice(3, 0)
        assert lat.size == 1
        assert tuple(lat.indices[0]) == (0, 0, 0)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            make_lattice(0, 3)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            make_lattice(1, -1)

    def test_rejects_cardinality_overflow(self):
        with pytest.raises(ValueError, match="exceeds"):
            make_lattice(64, 2)

    def test_rejects_dimension_beyond_numpy_axis_limit(self):
        # radius 0 has one coefficient in any dimension, but a cube of n axes
        assert make_lattice(64, 0).size == 1
        with pytest.raises(ValueError, match="dimension must be <= 64"):
            make_lattice(65, 0)

    @pytest.mark.parametrize("value", [2.5, 1.5, 2.0, True])
    def test_rejects_non_integer_dimension_or_radius(self, value):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            make_lattice(value, 2)
        with pytest.raises(ValueError, match="radius must be an integer"):
            make_lattice(2, value)

    def test_numpy_integers_are_stored_as_int(self):
        lat = make_lattice(np.int64(2), np.int32(3))
        assert type(lat.n) is int and type(lat.radius) is int
        assert lat == make_lattice(2, 3) and hash(lat) == hash(make_lattice(2, 3))

    def test_huge_dimension_rejected_without_computing_the_power(self):
        # 3^(10^9) would take minutes to compute as an exact integer
        with pytest.raises(ValueError, match="dimension must be <= 64"):
            make_lattice(10**9, 1)

    @pytest.mark.parametrize(
        "n, radius, message",
        [
            # (2R+1)^64 has more digits than str() converts
            (64, 10**68, "n=64, R >= 67108864 exceeds 67108864 coefficients"),
            (1, 10**5000, "n=1, R >= 67108864 exceeds 67108864 coefficients"),
            (3, 300, "n=3, R=300 exceeds 67108864 coefficients"),
        ],
        ids=["size-too-long-to-print", "radius-too-long-to-print", "just-over"],
    )
    def test_oversized_lattice_message_names_n_and_radius(self, n, radius, message):
        with pytest.raises(ValueError) as info:
            make_lattice(n, radius)
        assert str(info.value) == f"lattice (2R+1)^n with {message}"

    def test_symmetric_and_contains_zero(self):
        lat = make_lattice(2, 3)
        index_set = {tuple(k) for k in lat.indices}
        assert (0, 0) in index_set
        assert all(tuple(-np.asarray(k)) in index_set for k in lat.indices)

    def test_enumeration_is_lexicographic(self):
        lat = make_lattice(2, 2)
        listed = [tuple(k) for k in lat.indices]
        assert listed == sorted(listed)

    def test_position_roundtrip(self):
        lat = make_lattice(3, 2)
        for ordinal in (0, 17, lat.size - 1):
            assert lat.position(lat.indices[ordinal]) == ordinal

    @pytest.mark.parametrize("n, radius", [(1, 0), (1, 5), (2, 3), (3, 4), (4, 2)])
    def test_norms_sq_match_index_table(self, n, radius):
        lat = make_lattice(n, radius)
        norms_sq = lat.norms_sq
        assert "indices" not in vars(lat)  # built without the index table
        k = lat.indices.astype(np.float64)
        assert norms_sq.tobytes() == np.sum(k * k, axis=1).tobytes()
        assert not norms_sq.flags.writeable

    def test_position_rejects_outside(self):
        with pytest.raises(ValueError):
            make_lattice(1, 2).position((3,))

    def test_position_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="multi-index of length 2"):
            make_lattice(2, 2).position((1,))

    def test_int64_minimum_is_outside(self):
        # abs of the int64 minimum is itself, negative: |k| <= R would admit it
        lat = make_lattice(1, 2)
        with pytest.raises(ValueError, match="outside lattice of radius 2"):
            lat.position((-2**63,))

    @pytest.mark.parametrize("k", [(10**29,), (-10**29,)])
    def test_index_beyond_int64_is_outside(self, k):
        lat = make_lattice(1, 2)
        with pytest.raises(ValueError, match=rf"index \({k[0]},\) outside lattice of radius 2"):
            lat.position(k)

    def test_refusal_prints_plain_ints(self):
        with pytest.raises(ValueError, match=r"index \(3,\) outside"):
            make_lattice(1, 2).position(np.array([3]))

    @pytest.mark.parametrize("k", [(1.5,), 3, ((1,),)], ids=["float", "scalar", "nested"])
    def test_non_integer_index_is_not_contained(self, k):
        lat = make_lattice(1, 2)
        with pytest.raises(ValueError, match="multi-index of length 1"):
            lat.position(k)


class TestFieldConstructors:
    def test_delta_field(self):
        lat = make_lattice(1, 2)
        u = delta_field(lat, (1,))
        expected = np.zeros(5)
        expected[3] = 1.0
        assert np.array_equal(u.coeffs, expected)

    def test_delta_outside_lattice(self):
        with pytest.raises(ValueError):
            delta_field(make_lattice(1, 2), (5,))

    def test_delta_at_zero_synthesizes_constant(self):
        u = delta_field(make_lattice(1, 3), (0,))
        samples = synthesize(u, 12).samples
        assert np.allclose(samples, TWO_PI ** -0.5, rtol=0, atol=1e-15)

    def test_constant_field_coefficient(self):
        u = constant_field(make_lattice(1, 4))
        assert u.coefficient((0,)) == pytest.approx(2.5066282746, abs=1e-9)
        assert np.count_nonzero(u.coeffs) == 1

    def test_constant_field_synthesizes_ones(self):
        samples = synthesize(constant_field(make_lattice(2, 2)), 7).samples
        assert np.allclose(samples, 1.0, rtol=0, atol=1e-14)

    def test_rejects_wrong_coefficient_count(self):
        with pytest.raises(ValueError, match="expected 5 coefficients"):
            SpectralField(make_lattice(1, 2), np.ones(4))

    def test_rejects_nonfinite_coefficients(self):
        lat = make_lattice(1, 1)
        with pytest.raises(ValueError):
            SpectralField(lat, np.array([1.0, np.nan, 0.0]))
        with pytest.raises(ValueError):
            SpectralField(lat, np.array([1.0, np.inf * 1j, 0.0]))

    def test_coefficients_are_immutable(self):
        u = delta_field(make_lattice(1, 1), (0,))
        with pytest.raises(ValueError):
            u.coeffs[0] = 5.0

    def test_callers_array_stays_writable_and_detached(self):
        a = np.zeros(5, dtype=np.complex128)
        u = SpectralField(make_lattice(1, 2), a)
        a[0] = 1.0
        assert u.coeffs[0] == 0.0 and not u.coeffs.flags.writeable

    def test_view_of_callers_array_is_detached(self):
        base = np.zeros(5, dtype=np.complex128)
        u = SpectralField(make_lattice(1, 2), base[:])
        base[2] = 3.0
        assert hs_norm(u, SpaceIndex(0.0, 2.0)) == 0.0


class TestConjAndCombine:
    def test_conj_of_delta_moves_index(self):
        lat = make_lattice(1, 3)
        assert np.array_equal(
            conj_field(delta_field(lat, (2,))).coeffs, delta_field(lat, (-2,)).coeffs
        )

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_conj_is_involution(self, seed):
        rng = np.random.default_rng(seed)
        lat = make_lattice(2, 2)
        u = SpectralField(lat, rng.normal(size=lat.size) + 1j * rng.normal(size=lat.size))
        assert np.array_equal(conj_field(conj_field(u)).coeffs, u.coeffs)

    def test_real_field_is_conj_fixed_point(self):
        lat = make_lattice(1, 4)
        rng = np.random.default_rng(5)
        u = real_part_field(
            SpectralField(lat, rng.normal(size=lat.size) + 1j * rng.normal(size=lat.size))
        )
        assert is_real_valued(u)
        assert np.allclose(conj_field(u).coeffs, u.coeffs, rtol=0, atol=1e-15)


class TestTransforms:
    def test_cosine_synthesis(self):
        lat = make_lattice(1, 2)
        coeffs = np.zeros(lat.size, dtype=complex)
        coeffs[lat.position((1,))] = np.sqrt(TWO_PI) / 2
        coeffs[lat.position((-1,))] = np.sqrt(TWO_PI) / 2
        samples = synthesize(SpectralField(lat, coeffs), 16).samples
        assert np.allclose(samples, np.cos(grid_nodes(16)), rtol=0, atol=1e-14)

    def test_synthesize_rejects_small_grid(self):
        with pytest.raises(ValueError, match="grid too small"):
            synthesize(constant_field(make_lattice(1, 4)), 8)

    # on a radius-0 lattice any positive count is enough nodes, so only the type refuses
    @pytest.mark.parametrize("points", [18.0, 20.5, True, np.float64(18)],
                             ids=["float", "fraction", "bool", "numpy-float"])
    def test_synthesize_refuses_a_grid_size_that_is_not_an_integer(self, points):
        u = constant_field(make_lattice(2, 0))
        with pytest.raises(ValueError, match="points_per_axis must be an integer"):
            synthesize(u, points)
        with pytest.raises(ValueError, match="points_per_axis must be an integer"):
            hs_norm(u, SpaceIndex(0.0, 3.0), points)
        with pytest.raises(ValueError, match="points_per_axis must be an integer"):
            intersection_norm(u, 1.0, 3.0, 1.0, 3.0, grid_points=points)

    def test_synthesize_accepts_a_numpy_integer_grid_size(self):
        u = constant_field(make_lattice(2, 3))
        grid = synthesize(u, np.int64(18))
        assert np.array_equal(grid.samples, synthesize(u, 18).samples)
        assert hs_norm(u, SpaceIndex(0.0, 3.0), np.int64(18)) == hs_norm(u, SpaceIndex(0.0, 3.0), 18)

    # Each spread is inverse-transformed in place once the stage it was spread from is
    # freed; a new output per transform, with its input alive, held 2.63 grids here
    def test_synthesize_holds_at_most_2_grids(self):
        lat = make_lattice(2, 255)
        u, N = SpectralField(lat, np.ones(lat.size)), 2 * lat.side
        lat.signs  # cached outside the measurement
        assert peak_bytes(lambda: synthesize(u, N)) <= 2 * N ** 2 * np.dtype(np.complex128).itemsize

    # A one-coefficient field at n = 30 asks hs_norm for 2^30 grid points (16 GiB);
    # at n = 64, for 2^64.  Both are refused before the grid is allocated.
    @pytest.mark.parametrize("n", [30, 64])
    def test_synthesize_refuses_oversized_grid_before_allocating(self, n):
        u = constant_field(make_lattice(n, 0))

        def refused():
            with pytest.raises(ValueError, match=f"quadrature grid 2\\^{n} exceeds"):
                synthesize(u, 2)
            with pytest.raises(ValueError, match=f"quadrature grid 2\\^{n} exceeds"):
                hs_norm(u, SpaceIndex(0.0, 3.0))

        assert peak_bytes(refused) < 2**20

    def test_analyze_all_ones_gives_constant_field(self):
        lat = make_lattice(1, 3)
        field = analyze(GridFunction(np.ones(11, dtype=complex)), lat)
        assert rel_err(field.coeffs, constant_field(lat).coeffs) < 1e-15

    def test_analyze_pure_exponential(self):
        lat = make_lattice(1, 2)
        field = analyze(GridFunction(np.exp(1j * grid_nodes(12))), lat)
        expected = np.zeros(lat.size, dtype=complex)
        expected[lat.position((1,))] = np.sqrt(TWO_PI)
        assert rel_err(field.coeffs, expected) < 1e-14

    def test_analyze_rejects_small_grid(self):
        g = GridFunction(np.ones(4, dtype=complex))
        with pytest.raises(ValueError, match="grid too small"):
            analyze(g, make_lattice(1, 2))

    # A grid of more than MAX_COEFFICIENTS points is refused before analyze copies it,
    # as synthesize refuses one; analyze once accepted it and copied it
    def test_analyze_refuses_oversized_grid_before_copying(self, monkeypatch):
        monkeypatch.setattr(lattice, "MAX_COEFFICIENTS", 100)
        g, refusals = GridFunction(np.zeros((11, 11))), []

        def refused():
            try:
                analyze(g, make_lattice(2, 1))
            except ValueError as exc:  # not pytest.raises, which allocates more than g
                refusals.append(str(exc))

        assert peak_bytes(refused) < g.samples.nbytes
        assert refusals == ["quadrature grid 11^2 exceeds 100 points"]

    @pytest.mark.parametrize(
        "samples, message",
        [
            (np.array(1.0), "at least one axis"),
            (np.ones((4, 5)), "square per axis"),
            (np.ones(0), "nonempty"),
            (np.array([1.0, np.nan]), "finite"),
        ],
        ids=["0-d", "non-square", "empty", "nan"],
    )
    def test_grid_function_rejects_bad_samples(self, samples, message):
        with pytest.raises(ValueError, match=message):
            GridFunction(samples)

    def test_grid_functions_array_stays_writable_and_detached(self):
        samples = np.ones((4, 4), dtype=np.complex128)
        g = GridFunction(samples)
        samples[0, 0] = 5.0
        assert g.samples[0, 0] == 1.0 and not g.samples.flags.writeable

    def test_grid_function_view_of_callers_array_is_detached(self):
        base = np.ones(8, dtype=np.complex128)
        g = GridFunction(base[:])
        base[:] = 2.0
        assert lp_norm(g, 2.0) == lp_norm(GridFunction(np.ones(8)), 2.0)

    def test_analyze_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            analyze(GridFunction(np.ones((5, 5), dtype=complex)), make_lattice(1, 2))

    @pytest.mark.parametrize("n, radius", [(1, 8), (2, 16), (3, 4), (3, 8), (2, 0), (1, 0)])
    def test_signs_match_index_table_reference(self, n, radius):
        signs = make_lattice(n, radius).signs
        ref_signs = grid_scatter_reference(make_lattice(n, radius), 2 * (2 * radius + 1))[1]
        assert signs.dtype == ref_signs.dtype and signs.tobytes() == ref_signs.tobytes()
        assert not signs.flags.writeable

    # (n, R, N) with N in {side, side + 1, 2 side, 4 side}; (4, 8, 68) is left
    # out, as its 68^4 grid takes 340 MB per array
    @pytest.mark.parametrize(
        "n, radius, points",
        [
            (n, radius, points)
            for n in (1, 2, 3, 4)
            for radius in (0, 1, 4, 8)
            for points in (2 * radius + 1, 2 * radius + 2, 4 * radius + 2, 8 * radius + 4)
            if points ** n <= 2**21
        ],
    )
    def test_transforms_match_full_grid_reference_bit_for_bit(self, n, radius, points):
        lat = make_lattice(n, radius)
        rng = np.random.default_rng(points ** n + radius)
        coeffs = rng.normal(size=lat.size) + 1j * rng.normal(size=lat.size)
        coeffs[rng.random(lat.size) < 0.3] = -0.0  # signed zeros, as sparse fields hold
        u = SpectralField(lat, coeffs)
        samples = synthesize(u, points).samples
        assert samples.tobytes() == synthesize_reference(u, points).tobytes()
        assert analyze(GridFunction(samples), lat).coeffs.tobytes() == (
            analyze_reference(samples, lat).tobytes()
        )
        noise = rng.normal(size=samples.shape) + 1j * rng.normal(size=samples.shape)
        assert analyze(GridFunction(noise), lat).coeffs.tobytes() == (
            analyze_reference(noise, lat).tobytes()
        )

    def test_transform_results_are_frozen_without_losing_the_finite_check(self):
        lat = make_lattice(2, 1)
        g = synthesize(SpectralField(lat, np.arange(lat.size) + 1j), 6)
        u = analyze(g, lat)
        for array in (g.samples, u.coeffs):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
        # finite inputs whose transforms overflow
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="finite"):
                synthesize(SpectralField(lat, np.full(lat.size, 1e308)), 6)
            with pytest.raises(ValueError, match="finite"):
                analyze(GridFunction(np.full((6, 6), 1e308)), lat)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 2), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_against_direct_summation(self, seed, n, radius):
        rng = np.random.default_rng(seed)
        lat = make_lattice(n, radius)
        u = SpectralField(lat, rng.normal(size=lat.size) + 1j * rng.normal(size=lat.size))
        grid = lat.side + int(rng.integers(0, 4))
        fast = synthesize(u, grid)
        assert rel_err(fast.samples, synthesize_direct(u, grid)) < 1e-12
        assert rel_err(analyze(fast, lat).coeffs, u.coeffs) < 1e-12


class TestLpNorm:
    def test_constant_p3(self):
        g = synthesize(constant_field(make_lattice(1, 1)), 10)
        assert lp_norm(g, 3.0) == pytest.approx(TWO_PI ** (1 / 3), rel=1e-14)

    def test_cosine_p2(self):
        assert lp_norm(GridFunction(np.cos(grid_nodes(32))), 2.0) == pytest.approx(
            math.sqrt(math.pi), rel=1e-14
        )

    def test_basis_function_is_normalized(self):
        g = synthesize(delta_field(make_lattice(1, 3), (2,)), 16)
        assert lp_norm(g, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_rejects_p_below_one(self):
        for p in (0.5, np.inf, np.nan):
            with pytest.raises(ValueError, match="1 <= p < inf"):
                lp_norm(GridFunction(np.ones(4, dtype=complex)), p)

    # c^p overflows (c = 10) or underflows (c = 0.1), or at c = 1e154 the sum of
    # the c^p overflows; the norm is c (2 pi)^(n/p) all the same, with no
    # overflow warning (an error in tier-1)
    @pytest.mark.parametrize("c, p", [(10.0, 400.0), (10.0, 1000.0), (0.1, 400.0),
                                      (0.1, 1000.0), (1e154, 2.0001)])
    @pytest.mark.parametrize("n", [1, 2])
    def test_large_p_of_a_constant_is_finite_and_exact(self, c, p, n):
        g = GridFunction(np.full((8,) * n, c))
        assert lp_norm(g, p) == pytest.approx(c * TWO_PI ** (n / p), rel=1e-14)

    # lp_norm raises |samples| to the power p in place; numpy's scalar fast
    # paths (p = 2 squares) apply there too, so the value keeps every bit of
    # the out-of-place expression
    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0, 3.0, 4.0, 21.0])
    @pytest.mark.parametrize("n, radius", [(1, 8), (2, 4), (3, 3)])
    def test_bitwise_equal_to_out_of_place_power(self, n, radius, p):
        rng = np.random.default_rng(100 * n + radius)
        lat = make_lattice(n, radius)
        u = SpectralField(lat, rng.normal(size=lat.size) + 1j * rng.normal(size=lat.size))
        for points in (lat.side, 2 * (lat.side + 1)):
            g = synthesize(u, points)
            total = float(np.real(tree_sum(np.abs(g.samples) ** p)))
            expected = ((TWO_PI / points) ** n * total) ** (1.0 / p)
            assert lp_norm(g, p) == expected

    def test_parseval(self):
        rng = np.random.default_rng(11)
        lat = make_lattice(2, 3)
        u = SpectralField(lat, rng.normal(size=lat.size) + 1j * rng.normal(size=lat.size))
        energy = float(np.sum(np.abs(u.coeffs) ** 2))
        assert lp_norm(synthesize(u, lat.side), 2.0) ** 2 == pytest.approx(energy, rel=1e-12)

    def test_quadrature_spectral_decay(self):
        # fixed smooth non-band-limited integrand: successive grid doublings
        # must shrink the error faster than N^-6 until the noise floor
        reference = lp_norm(GridFunction(np.exp(np.sin(grid_nodes(1024)))), 3.0)
        errors = [
            abs(lp_norm(GridFunction(np.exp(np.sin(grid_nodes(n)))), 3.0) - reference)
            for n in (4, 8, 16)
        ]
        for coarse, fine in zip(errors, errors[1:]):
            if coarse > 1e-13 * reference:
                assert fine / coarse < 2.0 ** -6


class TestDeterminismAndReality:
    def test_repeated_pipeline_is_bitwise_identical(self):
        def run():
            rng = np.random.default_rng(42)
            lat = make_lattice(2, 4)
            u = SpectralField(
                lat, rng.normal(size=lat.size) + 1j * rng.normal(size=lat.size)
            )
            g = synthesize(u, 2 * lat.side)
            return (
                g.samples.tobytes(),
                analyze(g, lat).coeffs.tobytes(),
                lp_norm(g, 2.7),
                complex(tree_sum(u.coeffs)),
            )

        assert run() == run()

    def test_real_samples_iff_hermitian_coefficients(self):
        rng = np.random.default_rng(3)
        lat = make_lattice(1, 5)
        raw = SpectralField(lat, rng.normal(size=lat.size) + 1j * rng.normal(size=lat.size))
        hermitian = real_part_field(raw)
        assert np.max(np.abs(synthesize(hermitian, 2 * lat.side).samples.imag)) < 1e-12
        assert not is_real_valued(raw)
        assert np.max(np.abs(synthesize(raw, 2 * lat.side).samples.imag)) > 1e-3


class TestTreeSum:
    def test_matches_fsum(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=1003) * 10.0 ** rng.integers(-8, 8, size=1003)
        assert float(tree_sum(values)) == pytest.approx(math.fsum(values), rel=1e-12)

    def test_empty_and_singleton(self):
        assert tree_sum(np.array([], dtype=float)) == 0.0
        assert tree_sum(np.array([7.25])) == 7.25

    @staticmethod
    def assert_same_bits(values, axis=None):
        result, reference = tree_sum(values, axis), tree_sum_reference(values, axis)
        assert np.asarray(result).dtype == np.asarray(reference).dtype
        assert np.shape(result) == np.shape(reference)
        assert np.asarray(result).tobytes() == np.asarray(reference).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("length", [*range(71), 1089, 5832, 46656])
    def test_same_tree_as_reference(self, length, dtype):
        rng = np.random.default_rng(length)
        values = rng.normal(size=length) * 10.0 ** rng.integers(-8, 8, size=length)
        if dtype is np.complex128:
            values = values + 1j * rng.normal(size=length)
        self.assert_same_bits(values.astype(dtype))

    @pytest.mark.parametrize("shape", [(7, 5), (12, 33), (1, 9), (5, 6, 3), (9, 1, 4)])
    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_same_tree_along_axes(self, shape, axis):
        rng = np.random.default_rng(sum(shape))
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        self.assert_same_bits(values, axis)
        self.assert_same_bits(values.real, axis)

    @pytest.mark.parametrize(
        "values",
        [
            [-0.0],
            [-0.0, -0.0, -0.0],
            [-0.0] * 7,
            [1.5, -0.0, -2.0, 0.0, -0.0],
            [-0.0, 3.0, -3.0, -0.0, -0.0],
            [np.inf, 1.0, -0.0],
            [1.0, 2.0, np.inf, -1.0, 4.0],
            [-np.inf, -0.0, -1.0],
        ],
    )
    def test_signed_zeros_and_infinities(self, values):
        real = np.array(values)
        self.assert_same_bits(real)
        both = np.empty(len(real), dtype=np.complex128)
        both.real, both.imag = real, real[::-1]
        self.assert_same_bits(both)
        column = real[:, None] * np.ones(3)
        self.assert_same_bits(column, 0)
        self.assert_same_bits(column.T, 1)


class TestRestrict:
    def test_restriction_picks_center_block(self):
        lat = make_lattice(1, 4)
        u = SpectralField(lat, np.arange(lat.size, dtype=complex))
        small = restrict_field(u, 2)
        assert [small.coefficient((k,)) for k in range(-2, 3)] == [
            u.coefficient((k,)) for k in range(-2, 3)
        ]

    def test_restriction_to_its_own_radius_is_the_field(self):
        # its lattice's cached arrays are kept, not rebuilt for a new lattice
        u = constant_field(make_lattice(2, 3))
        assert restrict_field(u, 3) is u and restrict_field(u, np.int64(3)) is u

    def test_restriction_rejects_growth(self):
        with pytest.raises(ValueError):
            restrict_field(constant_field(make_lattice(1, 2)), 3)
