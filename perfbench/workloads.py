"""The three workloads: inputs made from the seed, jobs, and references.

Each workload is a closed loop with one client: a cycle of jobs that the
worker runs one after another, whole cycles at a time.  Inputs are a pure
function of the workload seed; the package sees only those inputs.

References are computed after the timed window and never by the code under
test: dense multiplier matrices are built here and handed to LAPACK's SVD,
certificates are recomputed by direct summation and rectangle quadrature, and
CLI sessions are compared byte for byte against a reference session.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import peribessel as pb
import tracer as tracing

TWO_PI = 2.0 * np.pi
HERE = Path(__file__).resolve().parent

# Power iteration against SVD, as the repository's tests compare them.
L2_REL_TOL = 1e-8
# Slack of the reported p != 2 bound below the recomputed certificate; the
# library's own certificate check allows the same.
CERT_REL_TOL = 1e-12


def _derive(seed: int, index: int) -> int:
    """Per-input seed: a non-negative int that fits CLI flags and uint64."""
    return (seed * 1009 + index * 7919) % (2**31)


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    collect: Callable[[Any], Any] = lambda output: output


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def _index_grid(n: int, radius: int) -> np.ndarray:
    """Lattice indices in lexicographic order, first coordinate most significant."""
    side = 2 * radius + 1
    return np.indices((side,) * n).reshape(n, -1).T - radius


def _cube(field) -> np.ndarray:
    lattice = field.lattice
    return np.asarray(field.coeffs).reshape((2 * lattice.radius + 1,) * lattice.n)


def oracle_matrix(cube: np.ndarray, s: float, t: float) -> np.ndarray:
    """Dense matrix of f -> f*u in lifted l2 coordinates, built from the
    coefficient cube: entry (l, k) = (2 pi)^(-n/2) (1+|l|^2)^(-t/2)
    u_(l-k) (1+|k|^2)^(-s/2), zero where l-k leaves the lattice."""
    n, side = cube.ndim, cube.shape[0]
    radius = (side - 1) // 2
    idx = _index_grid(n, radius)
    norms = (idx * idx).sum(axis=1).astype(np.float64)
    diff = idx[:, None, :] - idx[None, :, :] + radius
    inside = np.all((diff >= 0) & (diff < side), axis=2)
    clipped = np.clip(diff, 0, side - 1)
    values = np.where(inside, cube[tuple(clipped[..., a] for a in range(n))], 0.0)
    row = (1.0 + norms) ** (-t / 2.0)
    col = (1.0 + norms) ** (-s / 2.0)
    return TWO_PI ** (-n / 2.0) * row[:, None] * values * col[None, :]


def oracle_norm_l2(cube: np.ndarray, s: float, t: float) -> float:
    return float(np.linalg.svd(oracle_matrix(cube, s, t), compute_uv=False)[0])


def window(cube: np.ndarray, radius: int) -> np.ndarray:
    offset = (cube.shape[0] - 1) // 2 - radius
    return cube[(slice(offset, offset + 2 * radius + 1),) * cube.ndim]


def direct_hs_norm(cube: np.ndarray, smoothness: float, p: float, points: int) -> float:
    """|u|_{H^smoothness_p}: lift, synthesize by direct summation of the
    exponentials on the grid x_j = -pi + 2 pi j / N (no FFT), and take the
    plain rectangle-rule L_p norm."""
    n, side = cube.ndim, cube.shape[0]
    radius = (side - 1) // 2
    idx = _index_grid(n, radius)
    weights = (1.0 + (idx * idx).sum(axis=1)) ** (smoothness / 2.0)
    values = (weights * cube.ravel()).reshape(cube.shape)
    nodes = -np.pi + TWO_PI * np.arange(points) / points
    basis = np.exp(1j * np.outer(nodes, np.arange(-radius, radius + 1)))
    for axis in range(n):
        values = np.moveaxis(np.tensordot(basis, values, axes=([1], [axis])), 0, axis)
    values = TWO_PI ** (-n / 2.0) * values
    total = (TWO_PI / points) ** n * np.sum(np.abs(values) ** p)
    return float(total ** (1.0 / p))


# ---------------------------------------------------------------------------
# mult-l2
# ---------------------------------------------------------------------------


class MultL2:
    """equivalence_report at p = q = 2 on an n = 2, R = 16 field with
    refinement radii (4, 8, 16): dense matrix + SVD at R <= 8 and power
    iteration at R = 16.  The fields cycle through power-decay with alpha in
    {0, 1, 2}, random-smooth and dirac, and the (s, t) pairs cycle with them.

    The first job is the near-tied case (alpha = 0, s = t = 0.6), which lies
    below the index gate at n = 2 and is therefore forced.  Its phases are
    pinned to the generator's default seed 0, where sigma2/sigma1 = 0.968 at
    R = 16: with seeded phases the ratio ranges from 0.83 to 0.97 and the
    power-iteration count from about 60 to 430, so some seeds would hold no
    near-tied case at all.  Every other field takes its phases from the seed,
    two draws per seeded kind, so that one draw does not set the median."""

    N, R, RADII = 2, 16, (4, 8, 16)
    NEAR_TIED_SEED = 0
    # The dirac job: no phases, so its cost does not depend on the seed.
    WARM_UP = 4
    JOBS = (
        (("power-decay", 0.0), (0.6, 0.6)),
        (("power-decay", 1.0), (1.5, 1.0)),
        (("power-decay", 2.0), (1.0, 1.5)),
        (("random-smooth", None), (2.0, 2.0)),
        (("dirac", None), (1.5, 1.5)),
        (("power-decay", 1.0), (1.0, 1.5)),
        (("power-decay", 2.0), (2.0, 2.0)),
        (("random-smooth", None), (1.5, 1.0)),
    )

    def __init__(self, seed: int, workdir: Path):
        del workdir
        lattice = pb.make_lattice(self.N, self.R)
        self.problems = []
        self.cycle = []
        for j, ((kind, alpha), (s, t)) in enumerate(self.JOBS):
            phase_seed = self.NEAR_TIED_SEED if j == 0 else _derive(seed, j)
            u = pb.gen_distribution(kind, lattice, alpha=alpha, seed=phase_seed)
            force = not pb.strichartz_case(s, t, 2, 2, self.N).holds
            prob = pb.MultiplierProblem(u, s, t, 2, 2)
            self.problems.append(prob)
            self.cycle.append(Job(f"{kind}-{alpha}-s{s}-t{t}", self._runner(prob, force)))
        self._refs = {}

    def _runner(self, prob, force):
        def run():
            return pb.equivalence_report(prob, radii=self.RADII, force=force).refinement

        return run

    def warm_up(self):
        self.cycle[self.WARM_UP].run()

    def check(self, index: int, output) -> tuple[bool, float]:
        if index not in self._refs:
            prob = self.problems[index]
            cube = _cube(prob.u)
            self._refs[index] = [
                oracle_norm_l2(window(cube, r), prob.s, prob.t) for r in self.RADII
            ]
        reference = self._refs[index]
        radii = [radius for radius, _ in output]
        if radii != list(self.RADII):
            return False, float("inf")
        errors = [abs(norm - ref) / ref for (_, norm), ref in zip(output, reference)]
        worst = max(errors)
        return worst <= L2_REL_TOL, worst


# ---------------------------------------------------------------------------
# mult-lp
# ---------------------------------------------------------------------------


class MultLp:
    """equivalence_report with p, q != 2 on an n = 3, R = 4 field: the
    129-member test family, FFT quadrature and truncated products whose smooth
    factor is almost always a delta.  Every tuple is admitted by
    strichartz_case.  The dirac field meets p = 21/20 and also runs the
    radius refinement (2, 3, 4), which makes it the slowest job of the cycle,
    so job_ms.p90 rests on one named job rather than on timing noise."""

    N, R = 3, 4
    # Without refinement every job costs the same whatever the seed.
    WARM_UP = 0
    JOBS = (
        (("power-decay", 1.0), (2, Fraction(1, 2), 3, Fraction(3, 2)), None),
        (("power-decay", 2.0), (Fraction(1, 2), Fraction(5, 2), Fraction(3, 2), 3), None),
        (("random-smooth", None), (Fraction(3, 2), Fraction(3, 2), 4, 4), None),
        (("dirac", None), (3, 0, Fraction(21, 20), Fraction(3, 2)), (2, 3, 4)),
        (("power-decay", 0.0), (1, Fraction(5, 2), 4, 3), None),
    )

    def __init__(self, seed: int, workdir: Path):
        del workdir
        lattice = pb.make_lattice(self.N, self.R)
        self.family_seed = _derive(seed, 99)
        self.problems = []
        self.cycle = []
        for j, ((kind, alpha), (s, t, p, q), radii) in enumerate(self.JOBS):
            verdict = pb.strichartz_case(s, t, p, q, self.N)
            if not verdict.holds:
                raise ValueError(f"mult-lp tuple {(s, t, p, q)} is not admitted: {verdict.detail}")
            u = pb.gen_distribution(kind, lattice, alpha=alpha, seed=_derive(seed, j))
            prob = pb.MultiplierProblem(u, s, t, p, q)
            self.problems.append(prob)
            self.cycle.append(Job(f"{kind}-{alpha}-p{p}-q{q}", self._runner(prob, radii)))
        self._refs = {}

    def _runner(self, prob, radii):
        def run():
            report = pb.equivalence_report(prob, radii=radii, family_seed=self.family_seed)
            return report.multiplier_norm, report.lower_bound_certificate

        return run

    def warm_up(self):
        self.cycle[self.WARM_UP].run()

    def check(self, index: int, output) -> tuple[bool, float]:
        if index not in self._refs:
            prob = self.problems[index]
            cube = _cube(prob.u)
            points = 2 * (2 * self.R + 1)
            ones = np.zeros_like(cube)
            ones[(self.R,) * self.N] = TWO_PI ** (self.N / 2.0)
            self._refs[index] = direct_hs_norm(
                cube, -float(prob.t), float(prob.q), points
            ) / direct_hs_norm(ones, float(prob.s), float(prob.p), points)
        certificate = self._refs[index]
        bound, reported_certificate = output
        error = abs(reported_certificate - certificate) / certificate
        return bound >= certificate * (1.0 - CERT_REL_TOL), error


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------


class CliSession:
    """One fixed user session through the peribessel CLI, one subprocess at a
    time.  A job is one CLI call; the session is the cycle.  Every call is
    expected to exit with code 0."""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir / "session"
        self.stats_dir = workdir / "stats"
        s = [str(_derive(seed, i)) for i in range(4)]
        # (name, argv, files the call writes)
        self.steps = (
            ("gen-u", ["gen", "--kind", "power-decay", "--n", "2", "--radius", "8",
                       "--alpha", "1", "--seed", s[0], "--out", "u.json"], ["u.json"]),
            ("gen-f", ["gen", "--kind", "random-smooth", "--n", "2", "--radius", "8",
                       "--seed", s[1], "--out", "f.json"], ["f.json"]),
            ("norm", ["norm", "--input", "u.json", "--s", "1", "--p", "3/2"], []),
            ("apply-j", ["apply-j", "--input", "u.json", "--s", "2", "--out", "v.json"],
             ["v.json"]),
            ("pair", ["pair", "--input", "u.json", "--input2", "v.json", "--s", "1"], []),
            ("product", ["product", "--input", "f.json", "--input2", "u.json",
                         "--exact-product", "--out", "w.json"], ["w.json"]),
            ("mult-norm", ["mult-norm", "--input", "u.json", "--s", "3/2", "--t", "1",
                           "--p", "2", "--q", "2", "--radii", "2,4,8"], []),
            # p = 2 points, p != 2 points and points refused by the gate.
            ("sweep", ["sweep", "--s-grid", "1,2", "--t-grid", "1", "--p-grid", "2,3",
                       "--q-grid", "2,3/2", "--radius-grid", "4", "--n", "2",
                       "--u-kind", "power-decay", "--alpha", "2", "--seed", s[2],
                       "--out", "sweep.csv"], ["sweep.csv"]),
            ("verify", ["verify", "all", "--n", "2", "--seed", s[3]], []),
        )
        self.snapshot = None  # set to a tracer snapshot to trace child calls
        self.alloc = False
        self._calls = 0
        self.cycle = [self._job(*step) for step in self.steps]
        self.reference = None
        self.sweep_mix_ok = False
        self.mult_norm_error = 0.0

    def _command(self, argv):
        if self.snapshot is None:
            return [sys.executable, "-m", "peribessel.cli", *argv], None
        self._calls += 1
        stats = self.stats_dir / f"{self._calls}.json"
        mode = "alloc" if self.alloc else "spans"
        return [sys.executable, str(HERE / "clichild.py"), mode, str(stats), *argv], stats

    def _job(self, name, argv, outputs):
        def run():
            command, stats = self._command(argv)
            done = subprocess.run(
                command, cwd=self.workdir, capture_output=True, timeout=120, check=False
            )
            return done.returncode, done.stdout, stats

        def collect(result):
            code, stdout, stats = result
            if stats is not None:
                with open(stats, encoding="utf-8") as handle:
                    tracing.merge(self.snapshot, json.load(handle))
                os.unlink(stats)
            files = {}
            for out in outputs:
                path = self.workdir / out
                files[out] = path.read_bytes() if path.exists() else None
            return code, stdout, files

        return Job(name, run, collect)

    def _reset(self):
        for directory in (self.workdir, self.stats_dir):
            shutil.rmtree(directory, ignore_errors=True)
            directory.mkdir(parents=True)

    def warm_up(self):
        self._reset()
        subprocess.run(
            [sys.executable, "-m", "peribessel.cli", "--help"],
            cwd=self.workdir, capture_output=True, timeout=120, check=True,
        )

    def run_reference(self):
        """One untimed session whose outputs every timed session must match;
        it must also show the mix of sweep points the plan asks for."""
        self.reference = [job.collect(job.run()) for job in self.cycle]
        names = [job.name for job in self.cycle]
        sweep = self.reference[names.index("sweep")][2]["sweep.csv"] or b""
        rows = [line.split(",") for line in sweep.decode().splitlines()[1:]]
        rows = [row for row in rows if len(row) == 12]
        self.sweep_mix_ok = any(row[-1] == "refused" for row in rows) and {"0", "1"} <= {
            row[7] for row in rows if row[-1] == "ok"
        }
        try:
            self.mult_norm_error = self._mult_norm_error(names.index("mult-norm"))
        except (ValueError, KeyError, TypeError):  # no usable mult-norm output
            self.mult_norm_error = float("inf")

    def _mult_norm_error(self, index: int) -> float:
        """Relative error of the reference session's mult-norm refinement
        against the SVD oracle on the generated field."""
        report = json.loads(self.reference[index][1])
        data = json.loads(self.reference[0][2]["u.json"])
        side = 2 * data["radius"] + 1
        cube = np.zeros((side,) * data["n"], dtype=np.complex128)
        for entry in data["entries"]:
            cube[tuple(c + data["radius"] for c in entry[: data["n"]])] = complex(
                entry[-2], entry[-1]
            )
        errors = []
        for radius, norm in report["refinement"]:
            reference = oracle_norm_l2(window(cube, radius), 1.5, 1.0)
            errors.append(abs(norm - reference) / reference)
        return max(errors)

    def run_alloc(self, snapshot):
        """Re-run the calls that reach equivalence_report under tracemalloc."""
        self.snapshot, self.alloc = snapshot, True
        try:
            for job in self.cycle:
                if job.name in ("mult-norm", "sweep"):
                    job.collect(job.run())
        finally:
            self.snapshot, self.alloc = None, False

    def check(self, index: int, output) -> tuple[bool, float]:
        code, stdout, files = output
        ref_code, ref_stdout, ref_files = self.reference[index]
        name = self.cycle[index].name
        ok = (
            code == ref_code == 0
            and stdout == ref_stdout
            and files == ref_files
            and None not in files.values()
            and (self.sweep_mix_ok or name != "sweep")
        )
        error = self.mult_norm_error if name == "mult-norm" else 0.0
        return ok and error <= L2_REL_TOL, error


WORKLOADS = {"mult-l2": MultL2, "mult-lp": MultLp, "cli-session": CliSession}
