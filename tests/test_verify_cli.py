import copy
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from peribessel import (
    MultiplierProblem,
    SpectralField,
    cli,
    equivalence_report,
    gen_distribution,
    hs_norm,
    make_lattice,
    parse_coeff_file,
    run_suite,
    verify,
    write_coeff_file,
)
from peribessel import calculus, coeffio, generators, lattice, multipliers
from peribessel.calculus import SpaceIndex, bessel_weights
from peribessel.multipliers import CSV_COLUMNS
from peribessel.verify import REGISTRY, SUITES, VerifyContext, format_report

from conftest import peak_bytes, seven_smooth

CLI = [sys.executable, "-m", "peribessel.cli"]
# CLI child processes import the package from this checkout, as pytest does
SRC = str(Path(__file__).resolve().parents[1] / "src")
# and, as pyproject.toml does in-process, fail on a RuntimeWarning
CHILD_ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
    PYTHONWARNINGS="error::RuntimeWarning",
)

# every library invariant must be wired to a named check
REQUIRED_CHECKS = {
    "round-trip",
    "parseval",
    "conjugation-reality",
    "quadrature-spectral-decay",
    "even-power-exact",
    "determinism",
    "lift-semigroup",
    "lift-isometry",
    "h2-two-paths",
    "pairing-s-independent",
    "hoelder-duality-bound",
    "product-convolution-theorem",
    "embedding-monotone-p2",
    "conjugate-involution",
    "strichartz-swap-symmetry",
    "embedding-monotone-predicate",
    "swap-adjoint-identity",
    "certificate-lower-bound",
    "boyd-below-lanczos",
    "refinement-stability",
    "scaling-homogeneity",
}


def record_grids(monkeypatch) -> list:
    """The point count N^n of every grid ``synthesize`` builds from now on, wherever
    it is imported: each is planned by ``lattice._plan``, which this patches."""
    grids, plan = [], lattice._plan

    def recorded(lat, N):
        grids.append(N ** lat.n)
        return plan(lat, N)

    monkeypatch.setattr(lattice, "_plan", recorded)
    return grids


def report_cells(report: dict) -> list:
    """A report's CSV cells by the cell rule, from its ``as_dict()``: ``str`` of each int,
    ``repr`` of each float and ``exact`` as "1" or "0"."""
    values = [report[key] for key in ("n", "radius", "s", "t", "p", "q", "multiplier_norm",
                                      "exact", "intersection_norm", "ratio",
                                      "lower_bound_certificate")]
    assert [type(value) for value in values] == [int] * 2 + [float] * 5 + [bool] + [float] * 3
    return [str(int(value)) if type(value) in (int, bool) else repr(value) for value in values]


def run_cli(*args, cwd=None):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, cwd=cwd, timeout=300, env=CHILD_ENV
    )


# product bugs the convolution-theorem check must catch
def _dropped_normalization(monkeypatch):
    monkeypatch.setattr(calculus, "TWO_PI", 1.0)


def _window_shifted_by_one(monkeypatch):
    original = calculus._convolver

    def shifted(a, shape, window):
        convolve = original(a, shape, window)
        return lambda b: np.roll(convolve(b), 1, axis=tuple(range(-a.ndim, 0)))

    monkeypatch.setattr(calculus, "_convolver", shifted)


def _truncation_window_shifted_by_one(monkeypatch):
    original = calculus._linear_convolve

    def shifted(a, b, window):
        if window != slice(None):  # the default product's radius-R window
            window = slice(window.start + 1, window.stop + 1)
        return original(a, b, window)

    monkeypatch.setattr(calculus, "_linear_convolve", shifted)


def _basis_factor_left_unshifted(monkeypatch):
    original = calculus._linear_convolve

    def unshifted(a, b, window):
        if np.count_nonzero(b) == 1:  # the basis field moved to index 0
            b, value = np.zeros_like(b), b.ravel()[np.flatnonzero(b)[0]]
            b[(b.shape[0] // 2,) * b.ndim] = value
        return original(a, b, window)

    monkeypatch.setattr(calculus, "_linear_convolve", unshifted)


class TestVerifySuites:
    def test_registry_covers_every_invariant(self):
        ids = {spec.check_id for spec in REGISTRY}
        assert REQUIRED_CHECKS <= ids
        assert {spec.suite for spec in REGISTRY} == set(SUITES)
        assert all(spec.law for spec in REGISTRY)

    def test_every_check_function_is_registered_once(self):
        runners = [spec.runner for spec in REGISTRY]
        checks = [
            value
            for name, value in vars(verify).items()
            if name.startswith("_check_") and callable(value)
        ]
        assert len(checks) == len(REGISTRY) == len({spec.check_id for spec in REGISTRY})
        assert all(runners.count(check) == 1 for check in checks)

    def test_run_suite_reads_the_registry_when_called(self, monkeypatch):
        # Swapping one entry's runner, as a profiler timing a single check does,
        # must reach run_suite without touching the check function itself.
        calls = []
        index = next(i for i, spec in enumerate(REGISTRY) if spec.check_id == "lift-semigroup")

        def counting_runner(ctx):
            calls.append(ctx)
            return REGISTRY[index].runner(ctx)

        swapped = dataclasses.replace(REGISTRY[index], runner=counting_runner)
        monkeypatch.setattr(
            verify, "REGISTRY", REGISTRY[:index] + (swapped,) + REGISTRY[index + 1 :]
        )
        ctx = VerifyContext(radius=4)
        results = run_suite("bessel", ctx)
        assert calls == [ctx]
        assert [r.check_id for r in results] == [
            spec.check_id for spec in REGISTRY if spec.suite == "bessel"
        ]
        assert all(result.passed for result in results)

    def test_swap_check_catches_an_operator_that_is_not_adjoint_consistent(self, monkeypatch):
        # the check probes multiplier_operator itself: a matvec that skips its
        # target weight breaks the adjoint identity the solvers rely on
        spec = next(spec for spec in REGISTRY if spec.check_id == "swap-adjoint-identity")
        ctx = VerifyContext(radius=4, s=1.0, t=2.0)
        assert spec.runner(ctx) <= spec.tolerance

        def skipping_target_weight(prob):
            matvec, rmatvec = multipliers.multiplier_operator(prob)
            weight = bessel_weights(-float(prob.t), prob.u.lattice)
            return (lambda v: matvec(v) / weight), rmatvec

        monkeypatch.setattr(verify, "multiplier_operator", skipping_target_weight)
        assert spec.runner(ctx) > 1e3 * spec.tolerance

    @pytest.mark.parametrize("n, radius", [(1, 8), (2, 8), (3, 8), (1, 0), (3, 0)])
    def test_convolution_theorem_check_passes(self, n, radius):
        spec = next(s for s in REGISTRY if s.check_id == "product-convolution-theorem")
        assert spec.runner(VerifyContext(n=n, radius=radius)) <= spec.tolerance

    @pytest.mark.parametrize(
        "bug",
        [_dropped_normalization, _window_shifted_by_one, _truncation_window_shifted_by_one,
         _basis_factor_left_unshifted],
        ids=["normalization-dropped", "window-shifted", "truncation-window-shifted",
             "exact-shift-wrong"],
    )
    @pytest.mark.parametrize("n", [1, 2])
    def test_convolution_theorem_check_catches_a_product_bug(self, monkeypatch, bug, n):
        # each bug breaks one of pointwise_product's parts: the (2*pi)^(-n/2)
        # factor, the FFT path's cyclic result, the default product's radius-R
        # window, the exact shift of a basis factor
        spec = next(s for s in REGISTRY if s.check_id == "product-convolution-theorem")
        ctx = VerifyContext(n=n, radius=4)
        bug(monkeypatch)
        assert spec.runner(ctx) > 1e3 * spec.tolerance

    @pytest.mark.parametrize("n, radius", [(1, 8), (2, 4), (3, 4), (3, 0)])
    def test_even_power_check_passes(self, n, radius):
        spec = next(s for s in REGISTRY if s.check_id == "even-power-exact")
        assert spec.runner(VerifyContext(n=n, radius=radius)) <= spec.tolerance

    @pytest.mark.parametrize("n", [2, 3])
    def test_even_power_check_catches_a_weight_without_its_power(self, monkeypatch, n):
        # a rectangle-rule weight 2*pi/N in place of (2*pi/N)^n scales the N-
        # and 2N-node norms apart by 2^((n-1)/r)
        def lp_norm(g, p):
            total = float(np.real(lattice.tree_sum(np.abs(g.samples) ** p)))
            return (2.0 * np.pi / g.points_per_axis * total) ** (1.0 / p)

        spec = next(s for s in REGISTRY if s.check_id == "even-power-exact")
        monkeypatch.setattr(verify, "lp_norm", lp_norm)
        assert spec.runner(VerifyContext(n=n, radius=4)) > 1e3 * spec.tolerance

    @pytest.mark.parametrize("n, ctx_radius", [(1, 2), (1, 8), (1, 12), (2, 2)])
    def test_no_check_allocates_a_grid_beyond_the_context_bound(self, monkeypatch, n, ctx_radius):
        # VerifyContext refuses a context whose largest grid, _largest_grid(ctx)
        # points per axis, make_lattice would refuse; a check that built a larger
        # lattice, synthesis grid or convolution grid would escape that refusal.
        # Every convolution length is 7-smooth: numpy's FFT is several times
        # slower at a large prime length such as a product's 4R+1 = 33 at R = 8
        points, lengths = [], set()
        original_lattice, original_convolver = verify.make_lattice, calculus._convolver
        original_synthesize = lattice._synthesize  # every synthesis, Boyd's included

        def recording_lattice(n, radius):
            points.append((2 * radius + 1) ** n)
            return original_lattice(n, radius)

        def recording_convolver(a, shape, window):
            points.append(int(np.prod(shape)))
            lengths.update(shape)
            return original_convolver(a, shape, window)

        def recording_synthesize(coeffs, plan):
            points.append(plan.points ** plan.lattice.n)
            return original_synthesize(coeffs, plan)

        ctx = VerifyContext(n=n, radius=ctx_radius)
        for module in (lattice, calculus, verify):
            monkeypatch.setattr(module, "make_lattice", recording_lattice)
        for module in (calculus, multipliers):
            monkeypatch.setattr(module, "_convolver", recording_convolver)
        monkeypatch.setattr(lattice, "_synthesize", recording_synthesize)
        results = run_suite("all", ctx)
        assert all(result.passed for result in results), format_report(results)
        assert points and max(points) <= verify._largest_grid(ctx) ** n
        assert verify._largest_grid(ctx) >= 6 * max(ctx.radius, 8) + 1
        assert lengths and all(map(seven_smooth, lengths)), sorted(lengths)

    def test_cli_multiplier_convolutions_have_7_smooth_lengths(self, tmp_path, capsys, monkeypatch):
        # the operator's 3R+1 is 13 at R = 4 and 19 at R = 6, rounded up to 14 and 20
        lengths = set()
        original = calculus._convolver

        def recording_convolver(a, shape, window):
            lengths.update(shape)
            return original(a, shape, window)

        monkeypatch.setattr(multipliers, "_convolver", recording_convolver)
        path = tmp_path / "u.json"
        write_coeff_file(path, gen_distribution("power-decay", make_lattice(2, 4), alpha=1.0))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["mult-norm", "--input", str(path), "--s", "2", "--p", "3",
                         "--q", "3/2", "--radii", "2,4"]) == 0
        assert cli.main(["sweep", "--s-grid", "2", "--t-grid", "1", "--p-grid", "2,3",
                         "--q-grid", "2", "--radius-grid", "6", "--n", "2",
                         "--out", "sweep.csv"]) == 0
        capsys.readouterr()
        assert {14, 20} <= lengths and all(map(seven_smooth, lengths)), sorted(lengths)

    def test_nan_sample_fails_its_check(self, monkeypatch):
        # max(0.0, nan) is 0.0: a check that kept its own running maximum would
        # report a NaN sample as error 0 and pass
        monkeypatch.setattr(verify, "REGISTRY", REGISTRY)

        @verify._check("nan-sample", "fourier", 1.0, "a NaN sample is a failure")
        def _nan_sample(ctx):
            yield 0.5
            yield float("nan")
            yield 0.25

        assert verify.REGISTRY[:-1] == REGISTRY
        [result] = [r for r in run_suite("fourier", VerifyContext(radius=2))
                    if r.check_id == "nan-sample"]
        assert result.passed is False and np.isnan(result.error)
        assert np.isnan(_nan_sample(VerifyContext(radius=2)))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: run_suite("all", VerifyContext(n=5)), "verify"),
            (lambda: VerifyContext(radius=-1), "verify"),
            (lambda: run_suite("fourier", VerifyContext(radius=2.5)), "integer radius"),
            (lambda: run_suite("fourier", VerifyContext(n=1.0)), "integer n"),
            (lambda: run_suite("fourier", VerifyContext(seed=1.5)), "integer seed"),
            (lambda: run_suite("fourier", VerifyContext(seed=True)), "integer seed"),
        ],
        ids=["dimension-huge", "radius-negative", "radius-float", "n-float", "seed-float",
             "seed-bool"],
    )
    def test_library_refuses_bad_context_before_any_check(self, monkeypatch, build, message):
        def never(ctx):
            raise AssertionError("a check ran")

        monkeypatch.setattr(verify, "REGISTRY", tuple(
            dataclasses.replace(spec, runner=never) for spec in REGISTRY
        ))

        def refused():
            with pytest.raises(ValueError, match=message):
                build()

        assert peak_bytes(refused) < 2**20

    def test_context_stores_numpy_integers_as_ints(self):
        ctx = VerifyContext(radius=np.int64(2), n=np.int32(1), seed=np.uint8(3))
        assert all(type(value) is int for value in (ctx.radius, ctx.n, ctx.seed))
        assert run_suite("fourier", ctx) == run_suite("fourier", VerifyContext(2, 1, 3))

    def test_context_stores_indices_as_floats(self):
        ctx = VerifyContext(s=Fraction(1, 2), t=1)
        assert (ctx.s, ctx.t) == (0.5, 1.0)
        assert all(type(value) is float for value in (ctx.s, ctx.t))

    def test_all_suites_pass(self):
        results = run_suite("all", VerifyContext(radius=6, n=1, seed=0))
        assert all(result.passed for result in results), format_report(results)
        assert {result.suite for result in results} == set(SUITES)

    def test_single_suite_selection(self):
        results = run_suite("bessel", VerifyContext(radius=6))
        assert results and all(result.suite == "bessel" for result in results)

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("spectral")

    def test_two_dimensional_context(self):
        results = run_suite("fourier", VerifyContext(radius=3, n=2, seed=1))
        assert all(result.passed for result in results)


class TestCliBasics:
    def test_gen_then_norm_matches_library(self, tmp_path):
        out = tmp_path / "u.json"
        assert run_cli("gen", "--kind", "power-decay", "--radius", "6", "--alpha", "2",
                       "--seed", "3", "--out", str(out)).returncode == 0
        result = run_cli("norm", "--input", str(out), "--s", "1", "--p", "2")
        assert result.returncode == 0
        reported = json.loads(result.stdout)
        expected = hs_norm(parse_coeff_file(out), SpaceIndex(1.0, 2.0))
        assert reported["norm"] == pytest.approx(expected, rel=1e-15)

    def test_apply_j_then_invert(self, tmp_path):
        u_path, v_path, w_path = (tmp_path / name for name in ("u.json", "v.json", "w.json"))
        run_cli("gen", "--kind", "random-smooth", "--radius", "5", "--out", str(u_path))
        run_cli("apply-j", "--input", str(u_path), "--s", "1.5", "--out", str(v_path))
        run_cli("apply-j", "--input", str(v_path), "--s", "-1.5", "--out", str(w_path))
        u, w = parse_coeff_file(u_path), parse_coeff_file(w_path)
        assert np.allclose(u.coeffs, w.coeffs, rtol=1e-13)

    def test_pair_output(self, tmp_path):
        u_path = tmp_path / "u.json"
        run_cli("gen", "--kind", "power-decay", "--radius", "4", "--alpha", "1",
                "--seed", "0", "--out", str(u_path))
        result = run_cli("pair", "--input", str(u_path), "--input2", str(u_path), "--s", "2")
        record = json.loads(result.stdout)
        assert record["re"] == pytest.approx(
            float(np.sum(np.abs(parse_coeff_file(u_path).coeffs) ** 2)), rel=1e-13
        )
        assert record["im"] == pytest.approx(0.0, abs=1e-13)

    def test_product_exact_flag_doubles_radius(self, tmp_path):
        u_path, out_path = tmp_path / "u.json", tmp_path / "w.json"
        run_cli("gen", "--kind", "random-smooth", "--radius", "4", "--out", str(u_path))
        run_cli("product", "--input", str(u_path), "--input2", str(u_path),
                "--exact-product", "--out", str(out_path))
        assert parse_coeff_file(out_path).lattice.radius == 8
        run_cli("product", "--input", str(u_path), "--input2", str(u_path),
                "--out", str(out_path))
        assert parse_coeff_file(out_path).lattice.radius == 4

    @pytest.mark.parametrize("flags", [[], ["--exact-product"]])
    def test_product_of_forty_axes(self, tmp_path, capsys, flags):
        u_path, out_path = tmp_path / "u.json", tmp_path / "w.json"
        write_coeff_file(u_path, SpectralField(make_lattice(40, 0), [2.0 - 1.0j]))
        code = cli.main(["product", "--input", str(u_path), "--input2", str(u_path),
                         "--out", str(out_path)] + flags)
        assert code == 0 and capsys.readouterr().err == ""
        product = parse_coeff_file(out_path)
        assert product.lattice == make_lattice(40, 0)
        assert product.coefficient((0,) * 40) == pytest.approx(
            (2.0 * np.pi) ** -20 * (2.0 - 1.0j) ** 2, rel=1e-15, abs=0.0
        )

    def test_mult_norm_json_fields(self, tmp_path):
        u_path = tmp_path / "u.json"
        run_cli("gen", "--kind", "power-decay", "--radius", "6", "--alpha", "3",
                "--out", str(u_path))
        result = run_cli("mult-norm", "--input", str(u_path), "--radii", "3,6")
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["exact"] is True
        assert [entry[0] for entry in report["refinement"]] == [3, 6]
        assert report["lower_bound_certificate"] <= report["multiplier_norm"] * (1 + 1e-12)

    @pytest.mark.parametrize(
        "flags, radii, p, q",
        [(["--radii", "2,4,8"], [2, 4, 8], 2, 2),
         (["--p", "3", "--q", "3/2"], None, 3, Fraction(3, 2))],
        ids=["p2-radii", "p3-q3/2"],
    )
    def test_mult_norm_csv_is_the_report_row(self, tmp_path, capsys, flags, radii, p, q):
        path = tmp_path / "u.json"
        write_coeff_file(path, gen_distribution("power-decay", make_lattice(2, 8), alpha=2.0))
        argv = ["mult-norm", "--input", str(path), "--force", "--format", "csv", *flags]
        assert cli.main(argv) == 0
        header, row = csv.reader(io.StringIO(capsys.readouterr().out))
        prob = MultiplierProblem(parse_coeff_file(path), 1, 1, p, q)
        assert header == list(CSV_COLUMNS)
        assert row == list(map(str, equivalence_report(prob, radii=radii, force=True).csv_row()))

    @pytest.mark.parametrize(
        "flags, radii, p, q, flag",
        [(["--radii", "2,4,8"], [2, 4, 8], 2, 2, "1"),
         (["--p", "3", "--q", "3/2"], None, 3, Fraction(3, 2), "0")],
        ids=["p2-radii", "p3-q3/2"],
    )
    def test_mult_norm_csv_cells_follow_the_cell_rule(
        self, tmp_path, capsys, flags, radii, p, q, flag
    ):
        path = tmp_path / "u.json"
        write_coeff_file(path, gen_distribution("power-decay", make_lattice(2, 8), alpha=2.0))
        argv = ["mult-norm", "--input", str(path), "--force", "--format", "csv", *flags]
        assert cli.main(argv) == 0
        header, row = csv.reader(io.StringIO(capsys.readouterr().out))
        prob = MultiplierProblem(parse_coeff_file(path), 1, 1, p, q)
        assert header == list(CSV_COLUMNS)
        assert row == report_cells(equivalence_report(prob, radii=radii, force=True).as_dict())
        assert row[7] == flag

    # |g|^p overflows at p = 1000 and underflows at p = 400, s = -3, which made
    # these Infinity, 0.0 and a NaN ratio with an overflow warning
    def test_norms_at_large_p_are_finite(self, tmp_path, capsys):
        path = tmp_path / "dirac.json"
        assert cli.main(["gen", "--kind", "dirac", "--n", "3", "--radius", "4",
                         "--out", str(path)]) == 0
        for argv, key, expected in (
            (["norm", "--p", "1000"], "norm", 2.929656),
            (["norm", "--p", "400", "--s", "-3"], "norm", 0.07162986),
            (["mult-norm", "--s", "3", "--t", "0", "--p", "1000", "--q", "1000", "--force"],
             "ratio", 0.9945015),
        ):
            assert cli.main([*argv, "--input", str(path)]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            assert json.loads(captured.out)[key] == pytest.approx(expected, rel=1e-6)

    # Boyd's step-0 ratio and the certificate are one quotient by two routes, which
    # differed in the last bits here: the certificate is now the bound's floor
    def test_bound_is_never_below_its_certificate(self, tmp_path, capsys):
        path = tmp_path / "dirac.json"
        assert cli.main(["gen", "--kind", "dirac", "--n", "3", "--radius", "4",
                         "--out", str(path)]) == 0
        assert cli.main(["mult-norm", "--s", "3", "--t", "0", "--p", "1000", "--q", "1000",
                         "--force", "--input", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["multiplier_norm"] >= report["lower_bound_certificate"]
        assert report["refinement"] == [[4, report["multiplier_norm"]]]

    # |coefficient|^2 overflows at 1e200, so the p = 2 norms rescale by the largest
    # modulus; they are 1e200 times the unit file's, and the ratio is the same
    def test_p2_norms_of_huge_coefficients_are_finite(self, tmp_path, capsys):
        records = []
        for scale in (1.0, 1e200):
            path = tmp_path / f"u{scale}.json"
            path.write_text(json.dumps(
                {"n": 1, "radius": 1, "entries": [[0, scale, 0.0], [1, scale, 0.0]]}))
            for argv in (["norm", "--p", "2"], ["mult-norm", "--p", "2", "--q", "2", "--force"]):
                assert cli.main([*argv, "--input", str(path)]) == 0
                captured = capsys.readouterr()
                assert captured.err == ""
                records.append(json.loads(captured.out))
        (norm, report), (big_norm, big_report) = records[:2], records[2:]
        assert big_norm["norm"] == pytest.approx(1e200 * norm["norm"], rel=1e-12)
        for key in ("multiplier_norm", "intersection_norm", "lower_bound_certificate"):
            assert big_report[key] == pytest.approx(1e200 * report[key], rel=1e-12)
        assert big_report["ratio"] == pytest.approx(report["ratio"], rel=1e-12)

    def test_fraction_arguments_hit_exact_boundary(self, tmp_path):
        u_path = tmp_path / "u.json"
        run_cli("gen", "--kind", "power-decay", "--radius", "4", "--alpha", "2",
                "--out", str(u_path))
        gated = run_cli("mult-norm", "--input", str(u_path), "--s", "1/2", "--t", "0",
                        "--p", "2", "--q", "2")
        assert gated.returncode == 1
        assert "strict" in gated.stderr
        forced = run_cli("mult-norm", "--input", str(u_path), "--s", "1/2", "--t", "0",
                         "--p", "2", "--q", "2", "--force")
        assert forced.returncode == 0


class TestCliExitCodes:
    def test_unknown_suite_is_usage_error(self):
        assert run_cli("verify", "bogus").returncode == 2

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run_cli("norm", "--input", str(tmp_path / "nope.json")).returncode == 2

    @pytest.mark.parametrize("contents", [b"{not json", b"\xff\xfe"], ids=["not-json", "not-utf8"])
    def test_malformed_file_is_usage_error(self, tmp_path, contents):
        bad = tmp_path / "bad.json"
        bad.write_bytes(contents)
        result = run_cli("norm", "--input", str(bad))
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith(f"error: malformed JSON in {bad}:")
        assert len(result.stderr.splitlines()) == 1

    @pytest.mark.parametrize("index", [10**29, -2**63], ids=["beyond-int64", "int64-minimum"])
    def test_index_outside_int64_is_usage_error(self, tmp_path, index):
        path = tmp_path / "index.json"
        path.write_text(json.dumps({"n": 1, "radius": 2, "entries": [[index, 1.0, 0.0]]}))
        result = run_cli("norm", "--input", str(path))
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr == f"error: index ({index},) outside declared radius 2\n"

    # the norm (a finite weight 2^400 times 1e200) or every product overflows: JSON
    # has no Infinity or NaN, so no record; a weight that overflows is refused, exit 2.
    # A lift or a product that overflows is refused where it is computed: no file
    @pytest.mark.parametrize(
        "command",
        [
            ["norm", "--p", "2", "--s", "800"],
            ["pair", "--input2", "big.json"],
            ["apply-j", "--s", "800", "--out", "out.json"],
            ["norm", "--p", "3", "--s", "800"],
            ["product", "--input2", "big.json", "--out", "out.json"],
            ["product", "--input2", "big.json", "--exact-product", "--out", "out.json"],
        ],
        ids=["norm", "pair", "apply-j", "norm-p3", "product", "exact-product"],
    )
    def test_non_finite_json_result_is_an_error(self, tmp_path, command):
        (tmp_path / "big.json").write_text(
            '{"n": 1, "radius": 1, "entries": [[0, 1e200, 0.0], [1, 1e200, 0.0]]}'
        )
        result = run_cli(command[0], "--input", "big.json", *command[1:], cwd=tmp_path)
        assert result.returncode == 1 and result.stdout == ""
        errors = [line for line in result.stderr.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and result.stderr.endswith(errors[0] + "\n")
        assert not (tmp_path / "out.json").exists()

    def test_infinite_exponent_is_rejected(self, tmp_path):
        u_path = tmp_path / "u.json"
        run_cli("gen", "--kind", "power-decay", "--radius", "4", "--alpha", "1",
                "--out", str(u_path))
        result = run_cli("norm", "--input", str(u_path), "--p", "inf")
        assert result.returncode == 2 and result.stdout == ""
        assert "1 <= p < inf" in result.stderr and "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["norm", "--input", "u.json", "--p", "1/2"],
             "integrability index must satisfy 1 <= p < inf, got 0.5"),
            (["norm", "--input", "u.json", "--p", "inf"],
             "integrability index must satisfy 1 <= p < inf, got inf"),
            (["norm", "--input", "u.json", "--s", "nan"],
             "smoothness index must be finite, got nan"),
            (["norm", "--input", "u2.json", "--p", "3", "--grid-size", "9000"],
             "quadrature grid 9000^2 exceeds 67108864 points"),
            (["norm", "--input", "u.json", "--p", "3", "--grid-size", str(2**63)],
             f"quadrature grid {2**63}^1 exceeds 67108864 points"),
            (["apply-j", "--input", "u.json", "--s", "nan", "--out", "out.json"],
             "coefficients must be finite (no NaN/Inf)"),
            (["pair", "--input", "u.json", "--input2", "u5.json"],
             "lattice mismatch: (n=1, R=4) vs (n=1, R=5)"),
            (["pair", "--input", "u.json", "--input2", "u.json", "--s", "nan"],
             "smoothness index must be finite, got nan"),
            (["pair", "--input", "u.json", "--input2", "u.json", "--s", "inf"],
             "smoothness index must be finite, got inf"),
            (["product", "--input", "u.json", "--input2", "u5.json", "--out", "out.json"],
             "lattice mismatch: (n=1, R=4) vs (n=1, R=5)"),
            (["product", "--input", "u2.json", "--input2", "u2.json", "--exact-product",
              "--out", "out.json"],
             "lattice (2R+1)^n with n=2, R=6 exceeds 100 coefficients"),
            (["gen", "--kind", "power-decay", "--alpha", "-1", "--out", "out.json"],
             "power-decay requires a decay exponent alpha >= 0, got -1.0"),
            (["gen", "--kind", "power-decay", "--alpha", "nan", "--out", "out.json"],
             "power-decay requires a decay exponent alpha >= 0, got nan"),
            (["gen", "--kind", "power-decay", "--alpha", "inf", "--out", "out.json"],
             "power-decay requires a finite decay exponent alpha, got inf"),
            (["gen", "--kind", "power-decay", "--out", "out.json"],
             "--kind power-decay requires --alpha"),
            (["sweep", "--s-grid", ",", "--t-grid", "1", "--p-grid", "2", "--q-grid", "2",
              "--radius-grid", "4", "--out", "out.csv"],
             "sweep grids must be nonempty"),
            (["sweep", "--s-grid", "1", "--t-grid", "1", "--p-grid", "2", "--q-grid", "2",
              "--radius-grid", "4", "--u-kind", "power-decay", "--alpha", "-1",
              "--out", "out.csv"],
             "power-decay requires a decay exponent alpha >= 0, got -1.0"),
            (["sweep", "--s-grid", "1", "--t-grid", "1", "--p-grid", "2", "--q-grid", "2",
              "--radius-grid", "4", "--alpha", "nan", "--out", "out.csv"],
             "power-decay requires a decay exponent alpha >= 0, got nan"),
            (["sweep", "--s-grid", "1", "--t-grid", "1", "--p-grid", "2", "--q-grid", "2",
              "--radius-grid", "4", "--alpha", "inf", "--out", "out.csv"],
             "power-decay requires a finite decay exponent alpha, got inf"),
            (["mult-norm", "--input", "u2.json", "--p", "3", "--q", "3", "--grid-size", "9000"],
             "quadrature grid 9000^2 exceeds 67108864 points"),
            (["sweep", "--s-grid", "1", "--t-grid", "1", "--p-grid", "3", "--q-grid", "3",
              "--radius-grid", "3", "--n", "2", "--grid-size", "9000", "--out", "out.csv"],
             "quadrature grid 9000^2 exceeds 67108864 points"),
        ],
        ids=["norm-p-below-one", "norm-p-inf", "norm-s-nan", "norm-grid-too-large",
             "norm-grid-beyond-int64", "apply-j-s-nan", "pair-lattice-mismatch", "pair-s-nan",
             "pair-s-inf", "product-lattice-mismatch", "exact-product-lattice-too-large",
             "gen-alpha-negative", "gen-alpha-nan", "gen-alpha-inf", "gen-alpha-missing",
             "sweep-grid-empty", "sweep-alpha-negative", "sweep-alpha-nan", "sweep-alpha-inf",
             "mult-norm-grid-too-large", "sweep-grid-too-large"],
    )
    def test_refused_input_is_usage_error(self, tmp_path, capsys, monkeypatch, argv, message):
        for name, kind, n, radius in (("u.json", "power-decay", 1, 4),
                                      ("u5.json", "random-smooth", 1, 5),
                                      ("u2.json", "random-smooth", 2, 3)):
            field = gen_distribution(kind, make_lattice(n, radius), alpha=1.0)
            write_coeff_file(tmp_path / name, field)
        written = set(tmp_path.iterdir())
        monkeypatch.chdir(tmp_path)
        if "--exact-product" in argv:  # 49 coefficients pass; radius 6 has 169
            monkeypatch.setattr(lattice, "MAX_COEFFICIENTS", 100)
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert set(tmp_path.iterdir()) == written

    @pytest.mark.parametrize(
        "document",
        ['{"n": 0, "radius": 1, "entries": []}', '{"n": 1, "radius": 1000000000, "entries": []}',
         '{"n": 100, "radius": 0, "entries": []}'],
        ids=["n-zero", "radius-huge", "n-over-axis-limit"],
    )
    def test_bad_lattice_header_is_usage_error(self, tmp_path, document):
        path = tmp_path / "header.json"
        path.write_text(document)
        result = run_cli("norm", "--input", str(path))
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith("error:") and len(result.stderr.splitlines()) == 1

    def test_lattice_too_large_to_print_is_named_by_n_and_radius(self, tmp_path):
        path = tmp_path / "header.json"
        path.write_text(json.dumps({"n": 64, "radius": 10**68, "entries": []}))
        result = run_cli("norm", "--input", str(path))
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr == (
            "error: bad lattice: lattice (2R+1)^n with n=64, R >= 67108864 exceeds "
            "67108864 coefficients\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen", "--kind", "random-smooth", "--radius", "100000000"], "exceeds"),
            (["gen", "--kind", "dirac", "--n", "100", "--radius", "0"], "<= 64"),
            (["sweep", "--s-grid", "1", "--t-grid", "1", "--p-grid", "2", "--q-grid", "2",
              "--radius-grid", "4,100000000"], "exceeds"),
        ],
        ids=["gen-radius", "gen-dimension", "sweep-radius"],
    )
    def test_oversized_lattice_is_refused_before_allocation(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        def never(*args, **kwargs):
            raise AssertionError("a field was generated")

        monkeypatch.setattr(generators, "gen_distribution", never)
        out, codes = tmp_path / "out", []
        peak = peak_bytes(lambda: codes.append(cli.main(argv + ["--out", str(out)])))
        err = capsys.readouterr().err
        assert codes == [2] and not out.exists()
        assert err.startswith("error:") and len(err.splitlines()) == 1 and message in err
        assert peak < 2**20

    @pytest.mark.parametrize(
        "flags, message",
        [
            # refinement-stability's convolution grid reaches 6 max(R, 8) + 1 points per axis
            (["--radius", "100000000"], "exceeds"),
            (["--radius", "1" + "0" * 400], "exceeds"),  # refused before it is rounded up
            (["--n", "5"], "exceeds"),
            (["--n", "0"], "dimension must be >= 1"),
            (["--n", "70"], "dimension must be <= 64"),
            (["--radius", "-1"], "radius=-1"),
            (["--s", "-1"], "s=-1"),
            (["--t", "nan"], "t=nan"),
            (["--seed", "-1"], "seed=-1"),
            # the largest order a check lifts by overflows a Bessel weight on its lattice:
            # s + 2 on the (n, R) lattice, s on refinement-stability's radius 2 max(R, 8)
            # and t on the multiplier lattice
            (["--s", "5000"], "s + 2 at radius 8: smoothness index 5002.0 overflows"),
            (["--s", "300"], "s at radius 16: smoothness index 300.0 overflows"),
            (["--t", "345"], "t at radius 8: smoothness index 345.0 overflows"),
        ],
        ids=["radius-huge", "radius-400-digits", "dimension-huge", "n-zero", "n-overflow",
             "radius-negative", "s-negative", "t-nan", "seed-negative", "s-weight-overflow",
             "s-weight-overflow-on-refinement-lattice", "t-weight-overflow"],
    )
    def test_bad_verify_input_is_refused_before_any_check(self, capsys, monkeypatch, flags,
                                                          message):
        def never(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(verify, "run_suite", never)
        codes = []
        peak = peak_bytes(lambda: codes.append(cli.main(["verify", "fourier"] + flags)))
        captured = capsys.readouterr()
        assert codes == [2] and captured.out == ""
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
        assert message in captured.err
        assert peak < 2**20

    @pytest.mark.parametrize("flags", [["--t", "340"], ["--s", "250"]], ids=["t-340", "s-250"])
    def test_orders_below_the_weight_overflow_pass_every_check(self, capsys, flags):
        # t = 340 is just below the refused 345 on the multiplier lattice; at s = 250
        # the squared Bessel weights of the p = 2 norms overflow, but not the weights
        assert cli.main(["verify", "all"] + flags) == 0
        assert capsys.readouterr().out.endswith("\n24/24 checks passed\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["norm", "--p", "3", "--grid-size", "12"], "--grid-size 12 is below 2R+1 = 13"),
            (["mult-norm", "--grid-size", "4"], "--grid-size 4 is below 2R+1 = 13"),
            (["mult-norm", "--radii", "2", "--grid-size", "4"], "below 2R+1 = 5"),
            (["mult-norm", "--radii", "3,7"], "--radii must list radii in [0, 6]; got [3, 7]"),
            (["mult-norm", "--radii", "-1"], "in [0, 6]; got [-1]"),
            (["sweep", "--s-grid", "1", "--t-grid", "1", "--p-grid", "3", "--q-grid", "3",
              "--radius-grid", "2,4", "--grid-size", "4", "--out", "sweep.csv"],
             "--grid-size 4 is below 2R+1 = 9"),
        ],
        ids=["norm-grid", "mult-norm-grid", "mult-norm-grid-radii", "mult-norm-radius-over",
             "mult-norm-radius-negative", "sweep-grid"],
    )
    def test_bad_grid_size_or_radii_is_refused_before_any_work(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        path = tmp_path / "u.json"
        write_coeff_file(path, gen_distribution("power-decay", make_lattice(1, 6), alpha=2.0))

        def never(*args, **kwargs):
            raise AssertionError("work began")

        monkeypatch.setattr(calculus, "hs_norm", never)
        monkeypatch.setattr(generators, "gen_distribution", never)
        monkeypatch.setattr(multipliers, "equivalence_report", never)
        monkeypatch.chdir(tmp_path)
        inputs = [] if argv[0] == "sweep" else ["--input", str(path)]
        code = cli.main(argv + inputs)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not (tmp_path / "sweep.csv").exists()
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
        assert message in captured.err

    # a field that is zero, or zero within the largest of --radii, is a refused
    # input, whatever the index hypotheses say
    @pytest.mark.parametrize(
        "entries, flags",
        [([], []), ([[2, 1.0, 0.0]], ["--radii", "1"]), ([], ["--s", "1/2", "--t", "0"])],
        ids=["empty", "zero-within-radii", "empty-gated"],
    )
    def test_zero_multiplier_field_is_refused(self, tmp_path, capsys, entries, flags):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"n": 1, "radius": 2, "entries": entries}))
        code = cli.main(["mult-norm", "--input", str(path)] + flags)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: multiplier field is identically zero\n"

    @pytest.mark.parametrize(
        "argv, limit",
        [
            (["mult-norm", "--grid-size", "9000"], None),
            (["mult-norm"], 2000),
            (["sweep", "--s-grid", "1", "--t-grid", "1", "--p-grid", "3", "--q-grid", "3",
              "--radius-grid", "2,13", "--n", "2", "--out", "sweep.csv"], 2000),
        ],
        ids=["mult-norm-grid", "mult-norm-default-grid", "sweep-default-grid"],
    )
    def test_oversized_quadrature_grid_is_refused_before_any_solve(
        self, tmp_path, capsys, monkeypatch, argv, limit
    ):
        # on the radius-13 plane the default grid is 54^2 = 2916 points
        path = tmp_path / "u.json"
        write_coeff_file(path, gen_distribution("power-decay", make_lattice(2, 13), alpha=2.0))

        def never(*args, **kwargs):
            raise AssertionError("a solve began")

        for module, name in ((multipliers, "multiplier_norm_l2"),
                             (multipliers, "multiplier_norm_lp"), (lattice, "_synthesize")):
            monkeypatch.setattr(module, name, never)
        if limit is not None:
            monkeypatch.setattr(lattice, "MAX_COEFFICIENTS", limit)
        monkeypatch.chdir(tmp_path)
        inputs = [] if argv[0] == "sweep" else ["--input", str(path), "--p", "3", "--q", "3"]
        code = cli.main(argv + inputs + ["--force"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not (tmp_path / "sweep.csv").exists()
        assert captured.err.startswith("error:") and "grid" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_radii_that_fit_the_grid_limit_are_accepted(self, tmp_path, capsys, monkeypatch):
        # radius 5's grid is 22^2 and the file's radius 13's 54^2: both within the limit,
        # and Boyd's re-check synthesizes on those same nodes
        path = tmp_path / "u.json"
        write_coeff_file(path, gen_distribution("power-decay", make_lattice(2, 13), alpha=2.0))
        argv = ["mult-norm", "--input", str(path), "--p", "3", "--q", "3", "--radii", "2,5"]
        assert cli.main(argv) == 0
        unlimited = capsys.readouterr().out
        monkeypatch.setattr(lattice, "MAX_COEFFICIENTS", 10000)
        grids = record_grids(monkeypatch)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == unlimited
        assert cli.main(argv[:-2]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["radius"] == 13 and math.isfinite(report["multiplier_norm"])
        assert grids and max(grids) <= 10000

    # these inputs were refused for Boyd's former 2N re-check grid of (2N)^2 > 10000
    # points; the re-check now synthesizes on the N nodes, whose N^2 grid fits
    @pytest.mark.parametrize(
        "argv",
        [
            ["mult-norm", "--input", "u2.json", "--p", "3", "--q", "3", "--grid-size", "90"],
            ["sweep", "--s-grid", "1", "--t-grid", "1", "--p-grid", "3", "--q-grid", "3",
             "--radius-grid", "3", "--n", "2", "--grid-size", "90", "--out", "out.csv"],
            ["mult-norm", "--input", "u13.json", "--p", "3", "--q", "3", "--grid-size", "90"],
            ["mult-norm", "--input", "u13.json", "--p", "3", "--q", "3"],
            ["sweep", "--s-grid", "1", "--t-grid", "1", "--p-grid", "3", "--q-grid", "3",
             "--radius-grid", "2,13", "--n", "2", "--out", "out.csv"],
        ],
        ids=["mult-norm-recheck-grid-too-large", "sweep-recheck-grid-too-large",
             "mult-norm-recheck-grid", "mult-norm-default-recheck-grid",
             "sweep-default-recheck-grid"],
    )
    def test_grids_the_2n_recheck_refused_now_run(self, tmp_path, capsys, monkeypatch, argv):
        write_coeff_file(tmp_path / "u2.json",
                         gen_distribution("random-smooth", make_lattice(2, 3), alpha=1.0))
        write_coeff_file(tmp_path / "u13.json",
                         gen_distribution("power-decay", make_lattice(2, 13), alpha=2.0))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(lattice, "MAX_COEFFICIENTS", 10000)
        grids = record_grids(monkeypatch)
        assert cli.main(argv + ["--force"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if argv[0] == "sweep":
            rows = list(csv.DictReader((tmp_path / "out.csv").read_text().splitlines()))
            assert rows and all(math.isfinite(float(row["mult_norm"])) for row in rows)
        else:
            assert math.isfinite(json.loads(captured.out)["multiplier_norm"])
        assert grids and max(grids) <= 10000

    @pytest.mark.parametrize(
        "argv",
        [
            ["norm", "--input", "u.json", "--s", "BIG"],
            ["norm", "--input", "u.json", "--p", "BIG/1"],
            ["apply-j", "--input", "u.json", "--s", "BIG", "--out", "out.json"],
            ["pair", "--input", "u.json", "--input2", "u.json", "--s", "BIG"],
            ["mult-norm", "--input", "u.json", "--s", "BIG"],
            ["verify", "embedding", "--s", "BIG"],
            ["sweep", "--s-grid", "1,BIG", "--t-grid", "1", "--p-grid", "2", "--q-grid", "2",
             "--radius-grid", "2", "--out", "out.csv"],
            ["--config", "conf.json", "norm", "--input", "u.json"],
        ],
        ids=["norm-s", "norm-p-fraction", "apply-j-s", "pair-s", "mult-norm-s", "verify-s",
             "sweep-s-grid", "config-s"],
    )
    def test_number_too_large_for_a_float_is_usage_error(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        big = str(10**400)
        write_coeff_file(tmp_path / "u.json", gen_distribution("dirac", make_lattice(1, 2)))
        (tmp_path / "conf.json").write_text(json.dumps({"s": 10**400}))
        written = set(tmp_path.iterdir())
        monkeypatch.chdir(tmp_path)
        try:
            code = cli.main([arg.replace("BIG", big) for arg in argv])
        except SystemExit as refused:  # argparse refuses the flag
            code = refused.code
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and set(tmp_path.iterdir()) == written
        refusal = "error: config value s=" if "--config" in argv else "invalid _numeric"
        assert refusal in captured.err

    def test_infinite_smoothness_index_is_refused_before_any_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        path = tmp_path / "u.json"
        write_coeff_file(path, gen_distribution("power-decay", make_lattice(1, 6), alpha=2.0))
        calls = []
        solve = multipliers.top_singular_value

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(multipliers, "top_singular_value", counted)
        code = cli.main(["mult-norm", "--input", str(path), "--s", "inf", "--radii", "2,4,6"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and calls == []
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
        assert "got inf, 1" in captured.err

    # (1 + |k|^2)^(s/2) at s = 5000 is not finite at |k| = 1, and inf times the zero
    # coefficient at k = -1 was NaN: these calls exited 1 or 2 with numpy warnings
    @pytest.mark.parametrize(
        "argv",
        [
            ["norm", "--p", "2", "--s", "5000"],
            ["norm", "--p", "3", "--s", "5000"],
            ["apply-j", "--s", "5000", "--out", "OUT"],
            ["mult-norm", "--p", "2", "--q", "2", "--s", "5000", "--t", "0", "--force"],
        ],
        ids=["norm-p2", "norm-p3", "apply-j", "mult-norm"],
    )
    def test_overflowing_bessel_weight_is_refused_before_any_work(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        path, out = tmp_path / "u.json", tmp_path / "out.json"
        entries = [[0, 1.0, 0.0], [1, 1.0, 0.0]]
        path.write_text(json.dumps({"n": 1, "radius": 1, "entries": entries}))
        calls = []
        for module, name in ((calculus, "tree_sum"), (calculus, "synthesize"),
                             (multipliers, "top_singular_value")):
            monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
        code = cli.main([arg.replace("OUT", str(out)) for arg in argv] + ["--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and calls == [] and not out.exists()
        assert captured.err.startswith("error: smoothness index 5000")
        assert len(captured.err.splitlines()) == 1

    def test_grid_size_of_2r_plus_1_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "u.json"
        field = gen_distribution("power-decay", make_lattice(1, 6), alpha=2.0)
        write_coeff_file(path, field)
        assert cli.main(["norm", "--input", str(path), "--p", "3", "--grid-size", "13"]) == 0
        reported = json.loads(capsys.readouterr().out)["norm"]
        assert reported == hs_norm(field, SpaceIndex(0.0, 3.0), 13)

    def test_verify_has_no_q_flag(self, capsys):
        with pytest.raises(SystemExit) as caught:
            cli.main(["verify", "embedding", "--q", "3"])
        assert caught.value.code == 2
        assert "--q" in capsys.readouterr().err

    def test_verify_has_no_p_flag(self, capsys):
        # no check reads an integrability index, so verify takes none
        with pytest.raises(SystemExit) as caught:
            cli.main(["verify", "embedding", "--p", "3"])
        assert caught.value.code == 2
        assert "unrecognized arguments: --p 3" in capsys.readouterr().err

    def test_out_of_memory_is_one_error_line(self, tmp_path):
        # 2^26 quadrature points (1 GiB), the most synthesize allows, for a
        # one-coefficient field; the child's address space is capped at 1 GiB so
        # the allocation fails at once
        resource = pytest.importorskip("resource")
        path = tmp_path / "wide.json"
        path.write_text('{"n": 26, "radius": 0, "entries": []}')

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        result = subprocess.run(
            CLI + ["norm", "--input", str(path), "--p", "3"], capture_output=True, text=True,
            timeout=120, env=dict(CHILD_ENV, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
            preexec_fn=cap_address_space,
        )
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr.startswith("error: out of memory")
        assert len(result.stderr.splitlines()) == 1

    def test_zero_denominator_flag_is_usage_error(self, tmp_path):
        result = run_cli("norm", "--input", str(tmp_path / "u.json"), "--p", "1/0")
        assert result.returncode == 2
        assert "error:" in result.stderr and "Traceback" not in result.stderr

    def test_verify_suite_passes(self):
        result = run_cli("verify", "embedding", "--radius", "4")
        assert result.returncode == 0
        assert "checks passed" in result.stdout

    def test_verify_json_format(self):
        result = run_cli("verify", "embedding", "--format", "json")
        records = json.loads(result.stdout)
        assert all(record["passed"] for record in records)
        fields = {"check_id", "suite", "law", "error", "tolerance", "passed"}
        assert all(record.keys() == fields for record in records)


class TestCliConfig:
    def test_config_supplies_defaults_but_flags_win(self, tmp_path):
        u_path = tmp_path / "u.json"
        run_cli("gen", "--kind", "power-decay", "--radius", "4", "--alpha", "1",
                "--out", str(u_path))
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"s": "2", "p": "3/2"}))
        from_config = run_cli("--config", str(config), "norm", "--input", str(u_path))
        assert json.loads(from_config.stdout)["s"] == 2.0
        assert json.loads(from_config.stdout)["p"] == 1.5
        overridden = run_cli("--config", str(config), "norm", "--input", str(u_path),
                             "--s", "0")
        assert json.loads(overridden.stdout)["s"] == 0.0

    def test_config_value_stands_in_for_a_required_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"kind": "dirac", "out": "x.json"}))
        assert cli.main(["--config", str(config), "gen"]) == 0
        assert parse_coeff_file(tmp_path / "x.json").lattice.radius == 8
        assert cli.main(["--config", str(config), "gen", "--out", "y.json", "--radius", "2"]) == 0
        assert parse_coeff_file(tmp_path / "y.json").lattice.radius == 2
        # a required flag the file does not supply stays required, and so does
        # verify's positional suite, which no config key can supply
        config.write_text(json.dumps({"kind": "dirac"}))
        for argv, missing in ((["gen"], "--out"), (["verify"], "suite")):
            with pytest.raises(SystemExit) as caught:
                cli.main(["--config", str(config)] + argv)
            assert caught.value.code == 2
            assert f"the following arguments are required: {missing}" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        config = tmp_path / "conf.json"
        config.write_text('{"galaxy": 7}')
        assert run_cli("--config", str(config), "verify", "embedding").returncode == 2

    @pytest.mark.parametrize(
        "contents, message",
        [
            (b"[1]", "error: config file must hold a JSON object\n"),
            (b"\xff\xfe", "error: 'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["not-an-object", "not-utf8"],
    )
    def test_config_that_is_not_a_json_object_is_usage_error(self, tmp_path, contents, message):
        config = tmp_path / "conf.json"
        config.write_bytes(contents)
        result = run_cli("--config", str(config), "gen")
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith(message)
        assert len(result.stderr.splitlines()) == 1

    def test_positional_suite_is_not_a_config_key(self, tmp_path):
        # the positional always wins, so a "suite" key could never take effect
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"suite": "fourier"}))
        result = run_cli("--config", str(config), "verify", "embedding")
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr == "error: unknown config keys: ['suite']\n"

    @pytest.mark.parametrize(
        "config",
        [
            {"s": "1/0"},
            {"radius": "abc"},
            {"radius": [8]},
            {"n": None},
            {"radius": 2.9},
            {"n": True},
            {"format": "xml"},
            {"seed": {"value": 1}},
        ],
        ids=["zero-denominator", "int-text", "int-list", "int-null", "int-from-float",
             "int-bool", "bad-choice", "int-object"],
    )
    def test_unconvertible_config_value_is_usage_error(self, tmp_path, config):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(config))
        result = run_cli("--config", str(path), "verify", "embedding")
        assert result.returncode == 2
        assert result.stderr.startswith("error: config value")
        assert len(result.stderr.splitlines()) == 1

    # argv cannot carry a NUL character, so only a config value can; open()
    # would refuse such a path with a ValueError that is no usage error
    @pytest.mark.parametrize(
        "command, config",
        [
            (["norm"], {"input": "a\u0000b"}),
            (["gen", "--kind", "dirac"], {"out": "a\u0000b"}),
            (["sweep", "--s-grid", "1", "--t-grid", "1", "--p-grid", "2", "--q-grid", "2",
              "--radius-grid", "2"], {"out": "a\u0000b"}),
        ],
        ids=["norm-input", "gen-out", "sweep-out"],
    )
    def test_nul_in_config_value_is_usage_error(self, tmp_path, command, config):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(config))
        result = run_cli("--config", str(path), *command, cwd=tmp_path)
        assert result.returncode == 2 and result.stdout == ""
        key = next(iter(config))
        assert result.stderr == f"error: config value {key}='a\\x00b': embedded null character\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_refused_config_value_is_reported_after_argv_parses(self, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"radius": "abc"}))
        helped = run_cli("--config", str(path), "verify", "--help")
        assert helped.returncode == 0 and helped.stdout.startswith("usage: peribessel verify")
        unparsed = run_cli("--config", str(path), "verify", "embedding", "--bogus")
        assert unparsed.returncode == 2
        assert "unrecognized arguments: --bogus" in unparsed.stderr

    @pytest.mark.parametrize(
        "command, config",
        [
            (["mult-norm", "--input", "u.json"], {"force": "no"}),
            (["mult-norm", "--input", "u.json"], {"force": 1}),
            (["product", "--input", "f.json", "--input2", "u.json", "--out", "w.json"],
             {"exact_product": "true"}),
        ],
        ids=["force-text", "force-int", "exact-product-text"],
    )
    def test_switch_config_value_must_be_boolean(self, tmp_path, command, config):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(config))
        result = run_cli("--config", str(path), *command, cwd=tmp_path)
        assert result.returncode == 2
        assert result.stderr.startswith("error: config value")
        assert len(result.stderr.splitlines()) == 1

    def test_switch_config_value_true_sets_the_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_coeff_file("f.json", gen_distribution("random-smooth", make_lattice(1, 3), seed=1))
        write_coeff_file("u.json", gen_distribution("power-decay", make_lattice(1, 3), alpha=1.0))
        Path("conf.json").write_text(json.dumps({"exact_product": True}))
        product = ["product", "--input", "f.json", "--input2", "u.json", "--out"]
        assert cli.main(["--config", "conf.json", *product, "config.json"]) == 0
        assert cli.main([*product, "flag.json", "--exact-product"]) == 0
        assert capsys.readouterr().err == ""
        assert Path("config.json").read_bytes() == Path("flag.json").read_bytes()
        assert parse_coeff_file("config.json").lattice.radius == 6

    @pytest.mark.parametrize("key", ["q", "p"])
    def test_q_config_key_is_ignored_by_verify(self, tmp_path, key):
        # q and p belong to norm and mult-norm; verify reads neither
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({key: "3"}))
        result = run_cli("--config", str(config), "verify", "embedding")
        assert result.returncode == 0
        assert result.stdout == run_cli("verify", "embedding").stdout

    def test_config_choices_are_checked_per_subcommand(self, tmp_path):
        # "csv" is a --format choice of norm but not of verify
        u_path = tmp_path / "u.json"
        run_cli("gen", "--kind", "power-decay", "--radius", "3", "--alpha", "1",
                "--out", str(u_path))
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"format": "csv", "force": True}))
        norm = run_cli("--config", str(config), "norm", "--input", str(u_path))
        assert norm.returncode == 0 and norm.stdout.startswith("s,p,norm\n")
        refused = run_cli("--config", str(config), "verify", "embedding")
        assert refused.returncode == 2 and "config value format='csv'" in refused.stderr

    def test_build_parser_leaves_no_module_state(self):
        def module_containers():
            return {
                name: copy.deepcopy(value)
                for name, value in vars(cli).items()
                if isinstance(value, (dict, list, set)) and not name.startswith("__")
            }

        before = module_containers()
        first, second = cli.build_parser(), cli.build_parser()
        assert module_containers() == before
        # a config clears ``required`` on an action, so no action may be shared

        def action_ids(parser):
            parsers = [parser, *parser.subcommand_registry.values()]
            return {id(action) for each in parsers for action in each._actions}

        assert not action_ids(first) & action_ids(second)

    @pytest.mark.parametrize("command, dest", [("gen", "kind"), ("sweep", "u_kind")])
    def test_field_kind_choices_are_the_generator_kinds(self, command, dest):
        subparser = cli.build_parser().subcommand_registry[command]
        assert cli._config_actions(subparser)[dest].choices == generators.KINDS


# Runs the CLI as ``python -m peribessel.cli`` does and appends to stderr the
# peribessel modules the call loaded, and numpy if it was loaded.
MODULE_PROBE = """
import runpy, sys
try:
    runpy.run_module("peribessel.cli", run_name="__main__", alter_sys=True)
finally:
    loaded = " ".join(
        name for name in sys.modules if name.startswith("peribessel.") or name == "numpy"
    )
    sys.stderr.write("\\nloaded: " + loaded + "\\n")
"""


class TestCliLoadsOnlyWhatItRuns:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-modules")
        write_coeff_file(path / "u.json", gen_distribution("power-decay", make_lattice(1, 4),
                                                           alpha=2.0, seed=1))
        return path

    @staticmethod
    def loaded(workdir, *args, code=0) -> set:
        result = subprocess.run(
            [sys.executable, "-c", MODULE_PROBE, *args], capture_output=True, text=True,
            cwd=workdir, timeout=120, env=CHILD_ENV,
        )
        assert result.returncode == code, result.stderr
        return set(result.stderr.rsplit("loaded:", 1)[1].split())

    @pytest.mark.parametrize(
        "args",
        [
            ("gen", "--kind", "dirac", "--radius", "4", "--out", "d.json"),
            ("norm", "--input", "u.json", "--p", "3/2"),
            ("apply-j", "--input", "u.json", "--s", "1", "--out", "v.json"),
            ("pair", "--input", "u.json", "--input2", "u.json", "--s", "1"),
            ("product", "--input", "u.json", "--input2", "u.json", "--exact-product",
             "--out", "w.json"),
        ],
        ids=["gen", "norm", "apply-j", "pair", "product"],
    )
    def test_field_commands_load_no_multiplier_or_verify_code(self, workdir, args):
        loaded = self.loaded(workdir, *args)
        assert {"numpy", "peribessel.lattice"} <= loaded
        assert not loaded & {"peribessel.multipliers", "peribessel.verify"}

    def test_gen_loads_no_calculus(self, workdir):
        loaded = self.loaded(workdir, "gen", "--kind", "dirac", "--radius", "4", "--out", "d.json")
        assert "peribessel.generators" in loaded and "peribessel.calculus" not in loaded

    @pytest.mark.parametrize(
        "args, code",
        [
            (("--help",), 0),
            (("verify", "--help"), 0),
            (("gen", "--help"), 0),
            (("gen", "--out", "d.json"), 2),
            (("--config", "unknown-key.json", "verify", "embedding"), 2),
            (("--config", "not-utf8.json", "gen"), 2),
        ],
        ids=["help", "verify-help", "gen-help", "gen-without-kind", "config-unknown-key",
             "config-not-utf8"],
    )
    def test_calls_that_compute_nothing_load_no_numpy(self, workdir, args, code):
        (workdir / "unknown-key.json").write_text('{"galaxy": 7}')
        (workdir / "not-utf8.json").write_bytes(b"\xff\xfe")
        # the probe runs peribessel.cli as __main__, so no submodule of the package is loaded
        assert self.loaded(workdir, *args, code=code) == set()

    @pytest.mark.parametrize(
        "args",
        [
            ("mult-norm", "--input", "u.json", "--radii", "2,4"),
            ("sweep", "--s-grid", "1", "--t-grid", "1", "--p-grid", "2,3", "--q-grid", "2",
             "--radius-grid", "4", "--out", "s.csv"),
        ],
        ids=["mult-norm", "sweep"],
    )
    def test_multiplier_commands_load_no_verify_code(self, workdir, args):
        loaded = self.loaded(workdir, *args)
        assert "peribessel.multipliers" in loaded and "peribessel.verify" not in loaded


class TestCliDeterminism:
    def test_identical_invocations_are_byte_identical(self, tmp_path):
        args = ("gen", "--kind", "power-decay", "--radius", "6", "--alpha", "2",
                "--seed", "11", "--out")
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(*args, str(first))
        run_cli(*args, str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_files_carry_the_bytes_of_the_pure_python_encoder(self, tmp_path, capsys):
        # write_coeff_file encodes with json.dumps, which takes json's C encoder;
        # json.dump, which wrote these files before, always takes the pure-Python one
        u, w, product = (tmp_path / name for name in ("u.json", "w.json", "uw.json"))
        for kind, path in (("power-decay", u), ("random-smooth", w)):
            assert cli.main(["gen", "--kind", kind, "--n", "2", "--radius", "8", "--alpha",
                             "1.5", "--seed", "3", "--out", str(path)]) == 0
        assert cli.main(["product", "--input", str(u), "--input2", str(w),
                         "--exact-product", "--out", str(product)]) == 0
        capsys.readouterr()
        for path in (u, w, product):
            expected = io.StringIO()
            json.dump(coeffio.field_to_dict(parse_coeff_file(path)), expected)
            assert path.read_text(encoding="utf-8") == expected.getvalue() + "\n"

    def test_sweep_is_deterministic_and_flags_refusals(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("sweep", "--s-grid", "1,0.4", "--t-grid", "0.1", "--p-grid", "2",
                "--q-grid", "2", "--radius-grid", "4,8", "--seed", "2", "--out")
        result_a = run_cli(*args, str(out_a))
        result_b = run_cli(*args, str(out_b))
        assert result_a.returncode == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().strip().splitlines()
        assert lines[0].endswith("status")
        assert sum(line.endswith(",refused") for line in lines[1:]) == 2
        assert sum(line.endswith(",ok") for line in lines[1:]) == 2
        assert "refused" in result_a.stderr

    def test_sweep_ratio_stable_under_radius_doubling(self, tmp_path):
        out = tmp_path / "s.csv"
        run_cli("sweep", "--s-grid", "1", "--t-grid", "1", "--p-grid", "2",
                "--q-grid", "2", "--radius-grid", "8,16", "--u-kind", "power-decay",
                "--alpha", "3", "--out", str(out))
        rows = out.read_text().strip().splitlines()[1:]
        ratios = [float(row.split(",")[9]) for row in rows]
        assert abs(ratios[1] / ratios[0] - 1.0) <= 0.05

    def test_results_independent_of_thread_count(self, tmp_path):
        # transforms, norms, products and the multiplier solver use FFTs and
        # fixed-order reductions only, so BLAS/OpenMP thread pools must not
        # influence a single bit
        u_path, prod_path = tmp_path / "u.json", tmp_path / "w.json"
        big_path = tmp_path / "big.json"
        smooth_path, decay_path = tmp_path / "f2.json", tmp_path / "u2.json"
        prod2_path = tmp_path / "w2.json"
        run_cli("gen", "--kind", "power-decay", "--radius", "8", "--alpha", "1",
                "--seed", "5", "--out", str(u_path))
        # n = 2, R = 8: a dense exact product, FFT convolution in two axes
        run_cli("gen", "--kind", "random-smooth", "--n", "2", "--radius", "8",
                "--seed", "5", "--out", str(smooth_path))
        run_cli("gen", "--kind", "power-decay", "--n", "2", "--radius", "8",
                "--alpha", "1", "--seed", "6", "--out", str(decay_path))
        # n = 2, R = 16: 1089 lattice points, a multi-step Lanczos solve
        run_cli("gen", "--kind", "power-decay", "--n", "2", "--radius", "16",
                "--alpha", "1", "--seed", "5", "--out", str(big_path))
        outputs = []
        for threads in ("1", "8"):
            env = dict(CHILD_ENV, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
            norm = subprocess.run(
                CLI + ["norm", "--input", str(u_path), "--s", "1.5", "--p", "3"],
                capture_output=True, text=True, env=env, timeout=120,
            )
            subprocess.run(
                CLI + ["product", "--input", str(u_path), "--input2", str(u_path),
                       "--exact-product", "--out", str(prod_path)],
                capture_output=True, env=env, timeout=120,
            )
            product_2d = subprocess.run(
                CLI + ["product", "--input", str(smooth_path), "--input2",
                       str(decay_path), "--exact-product", "--out", str(prod2_path)],
                capture_output=True, env=env, timeout=120,
            )
            assert product_2d.returncode == 0, product_2d.stderr
            mult = subprocess.run(
                CLI + ["mult-norm", "--input", str(big_path), "--s", "1.5", "--t", "1.5",
                       "--radii", "8,16"],
                capture_output=True, env=env, timeout=120,
            )
            assert mult.returncode == 0, mult.stderr
            # p != 2: Boyd's power method on the same operator, with quadrature
            mult_lp = subprocess.run(
                CLI + ["mult-norm", "--input", str(decay_path), "--s", "2", "--t", "1/2",
                       "--p", "3", "--q", "3/2"],
                capture_output=True, env=env, timeout=120,
            )
            assert mult_lp.returncode == 0, mult_lp.stderr
            outputs.append((norm.stdout, prod_path.read_bytes(), prod2_path.read_bytes(),
                            mult.stdout, mult_lp.stdout))
        assert outputs[0] == outputs[1]


class TestSweep:
    # s = 1 passes the index gate at every radius; s = 0.4 is refused
    GRID = ("--s-grid", "1,0.4", "--t-grid", "0.1", "--p-grid", "2", "--q-grid", "2",
            "--radius-grid", "4,8", "--seed", "2")

    def sweep(self, tmp_path, *extra):
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", *self.GRID, *extra, "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as handle:
            header, *rows = csv.reader(handle)
        assert header == list(CSV_COLUMNS) + ["status"]
        return rows

    @staticmethod
    def report_row(s, radius):
        field = gen_distribution("power-decay", make_lattice(1, radius), alpha=3.0, seed=2)
        prob = MultiplierProblem(field, s, 0.1, 2, 2)
        return [*map(str, equivalence_report(prob, force=True, family_seed=2).csv_row()), "ok"]

    def test_rows_match_in_process_reports(self, tmp_path, capsys):
        refused = [[*map(str, (1, radius, 0.4, 0.1, 2.0, 2.0)), *[""] * 5, "refused"]
                   for radius in (4, 8)]
        expected = [self.report_row(1, 4), self.report_row(1, 8)] + refused
        assert self.sweep(tmp_path) == expected
        assert capsys.readouterr().err.count("index hypotheses fail") == 2

    def test_cells_follow_the_cell_rule(self, tmp_path):
        def cells(s, radius):
            field = gen_distribution("power-decay", make_lattice(1, radius), alpha=3.0, seed=2)
            prob = MultiplierProblem(field, s, 0.1, 2, 2)
            return report_cells(equivalence_report(prob, force=True).as_dict()) + ["ok"]

        refused = [[str(1), str(radius), *map(repr, (0.4, 0.1, 2.0, 2.0)), *[""] * 5, "refused"]
                   for radius in (4, 8)]
        rows = self.sweep(tmp_path)
        assert rows == [cells(1, 4), cells(1, 8)] + refused
        assert [row[7] for row in rows] == ["1", "1", "", ""]

    def test_force_reports_refused_points(self, tmp_path):
        expected = [self.report_row(s, radius) for s in (1, 0.4) for radius in (4, 8)]
        assert self.sweep(tmp_path, "--force") == expected

    def test_bad_grid_point_is_refused_before_the_first_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("a grid point was solved")

        monkeypatch.setattr(multipliers, "equivalence_report", never)
        out = tmp_path / "sweep.csv"
        argv = ["sweep", *self.GRID, "--out", str(out)]
        argv[argv.index("--s-grid") + 1] = "2,inf"
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not out.exists()
        assert captured.err.startswith("error: smoothness indices must be finite")
        assert len(captured.err.splitlines()) == 1

    def test_field_generated_once_per_distinct_radius(self, tmp_path, monkeypatch):
        radii = []

        def counting(kind, lattice, **kwargs):
            radii.append(lattice.radius)
            return gen_distribution(kind, lattice, **kwargs)

        monkeypatch.setattr(generators, "gen_distribution", counting)
        self.sweep(tmp_path)
        assert sorted(radii) == [4, 8]
