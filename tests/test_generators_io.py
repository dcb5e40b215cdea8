import json

import numpy as np
import pytest

from peribessel import (
    CoeffFileError,
    SpaceIndex,
    SpectralField,
    analyze,
    conj_field,
    constant_field,
    delta_field,
    duality_pair,
    gen_distribution,
    hs_norm,
    make_lattice,
    parse_coeff_file,
    pointwise_product,
    restrict_field,
    synthesize,
    write_coeff_file,
)
from peribessel import coeffio, lattice
from peribessel.generators import _index_phases

from conftest import field_to_dict_reference, index_phases_reference, peak_bytes

TWO_PI = 2.0 * np.pi


class TestGenerators:
    def test_power_decay_zero_exponent_has_unit_magnitudes(self):
        u = gen_distribution("power-decay", make_lattice(2, 2), alpha=0.0, seed=5)
        assert np.allclose(np.abs(u.coeffs), 1.0, rtol=0, atol=1e-15)

    def test_power_decay_magnitude_law(self):
        lat = make_lattice(1, 4)
        u = gen_distribution("power-decay", lat, alpha=3.0, seed=1)
        k = lat.indices[:, 0].astype(float)
        assert np.allclose(np.abs(u.coeffs), (1.0 + k ** 2) ** -1.5, rtol=1e-14)

    def test_random_smooth_magnitude_law(self):
        lat = make_lattice(2, 3)
        u = gen_distribution("random-smooth", lat, seed=2)
        norms = np.sqrt(np.sum(lat.indices.astype(float) ** 2, axis=1))
        assert np.allclose(np.abs(u.coeffs), np.exp(-norms), rtol=1e-14)

    def test_dirac_constant_coefficients(self):
        u = gen_distribution("dirac", make_lattice(2, 3), seed=0)
        assert np.allclose(u.coeffs, 1.0 / TWO_PI, rtol=0, atol=1e-16)

    def test_dirac_acts_as_point_evaluation(self):
        # pairing the point-mass field with a smooth f recovers f at the grid
        # origin (up to lattice truncation, exact for band-limited f)
        lat = make_lattice(1, 6)
        point_mass = gen_distribution("dirac", lat)
        f = gen_distribution("random-smooth", lat, seed=11)
        grid = synthesize(f, 16)
        value_at_origin = grid.samples[8]
        assert abs(duality_pair(point_mass, conj_field(f)) - value_at_origin) < 1e-12

    def test_same_seed_reproduces(self):
        lat = make_lattice(2, 4)
        a = gen_distribution("power-decay", lat, alpha=1.0, seed=9)
        b = gen_distribution("power-decay", lat, alpha=1.0, seed=9)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_different_seeds_differ(self):
        lat = make_lattice(1, 8)
        a = gen_distribution("random-smooth", lat, seed=0)
        b = gen_distribution("random-smooth", lat, seed=1)
        assert not np.array_equal(a.coeffs, b.coeffs)

    def test_phases_are_per_index(self):
        # generating at a big radius and restricting equals generating small:
        # the refinement studies rely on this
        small = gen_distribution("power-decay", make_lattice(1, 8), alpha=2.0, seed=3)
        big = gen_distribution("power-decay", make_lattice(1, 16), alpha=2.0, seed=3)
        assert np.array_equal(restrict_field(big, 8).coeffs, small.coeffs)

    @pytest.mark.parametrize("n, radius", [(1, 8), (2, 16), (3, 4), (3, 8), (2, 0), (1, 0)])
    @pytest.mark.parametrize("seed", [0, 12345, 2**63 + 7])
    def test_phases_match_index_table_reference(self, n, radius, seed):
        phases = _index_phases(make_lattice(n, radius), seed)
        assert phases.tobytes() == index_phases_reference(make_lattice(n, radius), seed).tobytes()

    @pytest.mark.parametrize("kind", ["power-decay", "random-smooth"])
    def test_numpy_integer_seed_gives_the_same_field(self, kind):
        lat = make_lattice(2, 3)
        expected = gen_distribution(kind, lat, alpha=1.0, seed=3).coeffs.tobytes()
        for seed in (np.int64(3), np.uint64(3), np.int32(3)):
            assert gen_distribution(kind, lat, alpha=1.0, seed=seed).coeffs.tobytes() == expected

    def test_power_decay_requires_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            gen_distribution("power-decay", make_lattice(1, 2))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            gen_distribution("white-noise", make_lattice(1, 2))


def test_library_paths_build_no_index_table(tmp_path):
    lat = make_lattice(2, 5)
    u = gen_distribution("power-decay", lat, alpha=1.0, seed=3)
    hs_norm(u, SpaceIndex(1.0, 3.0))
    analyze(synthesize(u, 2 * lat.side + 1), lat)
    write_coeff_file(tmp_path / "u.json", u)
    # the transforms read the lattice's own signs, not the index table
    assert "signs" in vars(lat) and "indices" not in vars(lat)


class TestCoeffFiles:
    def test_document_matches_index_table_reference(self):
        lat = make_lattice(2, 3)
        dense = gen_distribution("power-decay", lat, alpha=1.0, seed=4)
        coeffs = np.zeros(lat.size, dtype=complex)
        coeffs[[0, 5, 24, lat.size - 1]] = [complex(1.5, -0.0), complex(-0.0, 2.0), -0.0, 0.25j]
        signed_zeros = SpectralField(lat, coeffs)
        exact = pointwise_product(dense, signed_zeros, exact=True)
        for u in (dense, delta_field(lat, (1, -3)), signed_zeros, exact, constant_field(lat)):
            expected = json.dumps(field_to_dict_reference(u))
            assert json.dumps(coeffio.field_to_dict(u)) == expected

    # chunks of 7 and 1 split the 49 dense entries at every boundary; 1 << 14 writes one chunk
    @pytest.mark.parametrize("chunk", [1 << 14, 7, 1])
    def test_file_is_the_dumped_document(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(coeffio, "WRITE_CHUNK", chunk)
        lat = make_lattice(2, 3)
        empty = SpectralField(lat, np.zeros(lat.size))
        dense = gen_distribution("power-decay", lat, alpha=1.0, seed=4)
        for u in (empty, delta_field(lat, (1, -3)), dense):
            write_coeff_file(tmp_path / "u.json", u)
            expected = json.dumps(coeffio.field_to_dict(u)) + "\n"
            assert (tmp_path / "u.json").read_bytes() == expected.encode("utf-8")

    # The whole document in memory peaked at 85.7 MiB for this 14.4 MiB file
    def test_writer_holds_less_than_the_file(self, tmp_path):
        u = gen_distribution("power-decay", make_lattice(2, 255), alpha=1.0, seed=1)
        path = tmp_path / "u.json"
        peak = peak_bytes(lambda: write_coeff_file(path, u))
        assert peak < path.stat().st_size

    def test_round_trip_is_exact(self, tmp_path):
        u = gen_distribution("power-decay", make_lattice(2, 3), alpha=1.0, seed=4)
        path = tmp_path / "u.json"
        write_coeff_file(path, u)
        v = parse_coeff_file(path)
        assert v.lattice == u.lattice
        assert np.array_equal(v.coeffs, u.coeffs)

    def test_constant_field_example(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"n": 1, "radius": 2, "entries": [[0, 2.5066282746, 0]]}')
        u = parse_coeff_file(path)
        assert u.lattice.radius == 2
        assert np.allclose(u.coeffs, constant_field(u.lattice).coeffs, atol=1e-9)

    def test_missing_entries_are_zero(self, tmp_path):
        path = tmp_path / "sparse.json"
        path.write_text('{"n": 1, "radius": 3, "entries": [[2, 1.0, -1.0]]}')
        u = parse_coeff_file(path)
        assert u.coefficient((2,)) == 1.0 - 1.0j
        assert np.count_nonzero(u.coeffs) == 1

    def test_duplicate_index_names_the_index(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"n": 1, "radius": 2, "entries": [[1, 1, 0], [1, 2, 0]]}')
        with pytest.raises(CoeffFileError, match=r"duplicate index \(1,\)"):
            parse_coeff_file(path)

    def test_index_outside_radius(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text('{"n": 2, "radius": 1, "entries": [[2, 0, 1, 0]]}')
        with pytest.raises(CoeffFileError, match="outside"):
            parse_coeff_file(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"n": 1, "radius": 1, "entries": [[0, NaN, 0]]}')
        with pytest.raises(CoeffFileError, match="finite"):
            parse_coeff_file(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 1, "radius": ')
        with pytest.raises(CoeffFileError, match="malformed"):
            parse_coeff_file(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "nokey.json"
        path.write_text('{"n": 1, "entries": []}')
        with pytest.raises(CoeffFileError, match="radius"):
            parse_coeff_file(path)

    def test_wrong_entry_arity(self, tmp_path):
        path = tmp_path / "arity.json"
        path.write_text('{"n": 2, "radius": 1, "entries": [[0, 1.0, 0]]}')
        with pytest.raises(CoeffFileError, match="entry"):
            parse_coeff_file(path)

    @pytest.mark.parametrize(
        "document",
        [
            '{"n": 1, "radius": 1, "entries": 5}',
            '{"n": 1, "radius": 1, "entries": [[0, [1.0], 0]]}',
            '{"n": 1, "radius": 1, "entries": [[0, "abc", 0]]}',
            '{"n": 1, "radius": 1, "entries": [[0, "1.5", 0]]}',
            '{"n": 1, "radius": 1, "entries": [[0, 1.0, true]]}',
            '{"n": 1, "radius": 1, "entries": [[0, 1%s, 0]]}' % ("0" * 400),
            '{"n": true, "radius": 1, "entries": []}',
            '{"n": 1, "radius": false, "entries": []}',
            '{"n": 1, "radius": 1, "entries": [[true, 1.0, 0]]}',
        ],
        ids=["entries-int", "re-list", "re-text", "re-numeric-text", "im-bool",
             "re-overflow", "n-bool", "radius-bool", "index-bool"],
    )
    def test_wrongly_typed_values_rejected(self, tmp_path, document):
        path = tmp_path / "typed.json"
        path.write_text(document)
        with pytest.raises(CoeffFileError):
            parse_coeff_file(path)

    @pytest.mark.parametrize(
        "document, message",
        [
            ('{"n": 0, "radius": 1, "entries": []}', "dimension must be >= 1"),
            ('{"n": 1, "radius": -2, "entries": []}', "radius must be >= 0"),
            ('{"n": 1, "radius": 1000000000, "entries": []}', "exceeds 67108864 coefficients"),
            ('{"n": 2, "radius": 4096, "entries": []}', "exceeds 67108864 coefficients"),
            ('{"n": 100000000, "radius": 1, "entries": []}', "dimension must be <= 64"),
            ('{"n": 100, "radius": 0, "entries": []}', "dimension must be <= 64"),
        ],
        ids=["n-zero", "radius-negative", "radius-huge", "just-over-limit", "n-huge",
             "n-over-axis-limit"],
    )
    def test_bad_lattice_header_rejected(self, tmp_path, document, message):
        path = tmp_path / "header.json"
        path.write_text(document)
        with pytest.raises(CoeffFileError, match=message):
            parse_coeff_file(path)

    def test_coefficient_limit_is_inclusive(self, monkeypatch):
        assert lattice.MAX_COEFFICIENTS == 2**26
        monkeypatch.setattr(lattice, "MAX_COEFFICIENTS", 25)
        u = coeffio.field_from_dict({"n": 2, "radius": 2, "entries": [[0, 0, 1.0, 0.0]]})
        assert u.lattice.size == 25 and u.coefficient((0, 0)) == 1.0
        with pytest.raises(CoeffFileError, match="n=2, R=3 exceeds 25 coefficients"):
            coeffio.field_from_dict({"n": 2, "radius": 3, "entries": []})

    def test_non_object_rejected(self):
        with pytest.raises(CoeffFileError, match="JSON object"):
            coeffio.field_from_dict([1, 2, []])

    def test_delta_round_trip_sparsity(self, tmp_path):
        u = delta_field(make_lattice(1, 5), (-3,))
        path = tmp_path / "d.json"
        write_coeff_file(path, u)
        data = json.loads(path.read_text())
        assert data["entries"] == [[-3, 1.0, 0.0]]
