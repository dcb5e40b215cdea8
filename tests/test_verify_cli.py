import copy
import csv
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
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
from peribessel import multipliers
from peribessel.calculus import SpaceIndex, bessel_weights
from peribessel.multipliers import CSV_COLUMNS, index_cells
from peribessel.verify import REGISTRY, SUITES, VerifyContext, format_report

CLI = [sys.executable, "-m", "peribessel.cli"]
# CLI child processes import the package from this checkout, as pytest does
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
)

# every library invariant must be wired to a named check
REQUIRED_CHECKS = {
    "round-trip",
    "parseval",
    "conjugation-reality",
    "quadrature-spectral-decay",
    "determinism",
    "lift-semigroup",
    "lift-isometry",
    "h2-two-paths",
    "pairing-s-independent",
    "hoelder-duality-bound",
    "product-norm-bounded",
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


def run_cli(*args, cwd=None):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, cwd=cwd, timeout=300, env=CHILD_ENV
    )


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
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_context_stores_numpy_integers_as_ints(self):
        ctx = VerifyContext(radius=np.int64(2), n=np.int32(1), seed=np.uint8(3))
        assert all(type(value) is int for value in (ctx.radius, ctx.n, ctx.seed))
        assert run_suite("fourier", ctx) == run_suite("fourier", VerifyContext(2, 1, 3))

    def test_context_stores_indices_as_floats(self):
        ctx = VerifyContext(s=Fraction(1, 2), t=1, p=Fraction(4, 3))
        assert (ctx.s, ctx.t, ctx.p) == (0.5, 1.0, 4 / 3)
        assert all(type(value) is float for value in (ctx.s, ctx.t, ctx.p))

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

    def test_malformed_file_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("norm", "--input", str(bad)).returncode == 2

    def test_infinite_exponent_is_rejected(self, tmp_path):
        u_path = tmp_path / "u.json"
        run_cli("gen", "--kind", "power-decay", "--radius", "4", "--alpha", "1",
                "--out", str(u_path))
        result = run_cli("norm", "--input", str(u_path), "--p", "inf")
        assert result.returncode != 0 and result.stdout == ""
        assert "1 <= p < inf" in result.stderr and "Traceback" not in result.stderr

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

        monkeypatch.setattr(cli, "gen_distribution", never)
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = cli.main(argv + ["--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert err.startswith("error:") and len(err.splitlines()) == 1 and message in err
        assert peak < 2**20

    @pytest.mark.parametrize(
        "flags, message",
        [
            # refinement-stability and the exact products reach radius 4 max(R, 8)
            (["--radius", "100000000"], "exceeds"),
            (["--n", "5"], "exceeds"),
            (["--n", "0"], "dimension must be >= 1"),
            (["--n", "70"], "dimension must be <= 64"),
            (["--radius", "-1"], "radius=-1"),
            (["--s", "-1"], "s=-1"),
            (["--t", "nan"], "t=nan"),
            (["--p", "1/2"], "p=1/2"),
            (["--seed", "-1"], "seed=-1"),
        ],
        ids=["radius-huge", "dimension-huge", "n-zero", "n-overflow", "radius-negative",
             "s-negative", "t-nan", "p-below-one", "seed-negative"],
    )
    def test_bad_verify_input_is_refused_before_any_check(self, capsys, monkeypatch, flags,
                                                          message):
        def never(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(cli, "run_suite", never)
        tracemalloc.start()
        try:
            code = cli.main(["verify", "fourier"] + flags)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
        assert message in captured.err
        assert peak < 2**20

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

        for name in ("hs_norm", "equivalence_report", "gen_distribution"):
            monkeypatch.setattr(cli, name, never)
        monkeypatch.chdir(tmp_path)
        inputs = [] if argv[0] == "sweep" else ["--input", str(path)]
        code = cli.main(argv + inputs)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not (tmp_path / "sweep.csv").exists()
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
        assert message in captured.err

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
            {"p": "1/0"},
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

    def test_q_config_key_is_ignored_by_verify(self, tmp_path):
        # q belongs to mult-norm; verify reads no q
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"q": "3"}))
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
        # converters live on each parser, so the two parsers share none
        for name, subparser in first.subcommand_registry.items():
            twin = second.subcommand_registry[name]
            assert subparser.config_converters == twin.config_converters
            assert subparser.config_converters is not twin.config_converters


class TestCliDeterminism:
    def test_identical_invocations_are_byte_identical(self, tmp_path):
        args = ("gen", "--kind", "power-decay", "--radius", "6", "--alpha", "2",
                "--seed", "11", "--out")
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(*args, str(first))
        run_cli(*args, str(second))
        assert first.read_bytes() == second.read_bytes()

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
        return equivalence_report(prob, force=True, family_seed=2).csv_row() + ["ok"]

    def test_rows_match_in_process_reports(self, tmp_path, capsys):
        refused = [index_cells(1, radius, 0.4, 0.1, 2, 2) + [""] * 5 + ["refused"]
                   for radius in (4, 8)]
        expected = [self.report_row(1, 4), self.report_row(1, 8)] + refused
        assert self.sweep(tmp_path) == expected
        assert capsys.readouterr().err.count("index hypotheses fail") == 2

    def test_force_reports_refused_points(self, tmp_path):
        expected = [self.report_row(s, radius) for s in (1, 0.4) for radius in (4, 8)]
        assert self.sweep(tmp_path, "--force") == expected

    def test_bad_grid_point_is_refused_before_the_first_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("a grid point was solved")

        monkeypatch.setattr(cli, "equivalence_report", never)
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

        monkeypatch.setattr(cli, "gen_distribution", counting)
        self.sweep(tmp_path)
        assert sorted(radii) == [4, 8]
