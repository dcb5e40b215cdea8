"""Self-verification suites: one check per library invariant.

A check is one generator decorated with ``@_check(check_id, suite, tolerance,
law)``: it yields an error per seeded sample, and the decorator appends to
:data:`REGISTRY`, in definition order, a runner that scores the samples with
:func:`_score`, naming the law the check exercises and the fixed tolerance the
score is compared against.  Suites group the checks by theme (fourier, bessel,
duality, embedding, multiplier); ``run_suite("all", ...)`` runs the whole
registry.  All randomness is a pure function of the seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .calculus import (
    SpaceIndex,
    duality_pair,
    hs_norm,
    lift,
    pointwise_product,
)
from .conditions import conjugate_exponent, embedding_holds, strichartz_case
from .generators import gen_distribution
from .lattice import (
    GridFunction,
    SpectralField,
    TWO_PI,
    analyze,
    constant_field,
    delta_field,
    grid_nodes,
    lp_norm,
    make_lattice,
    real_part_field,
    synthesize,
    tree_sum,
)
from .multipliers import (
    MultiplierProblem,
    equivalence_report,
    multiplier_norm_l2,
    multiplier_norm_lp,
    multiplier_operator,
)

SUITES = ("fourier", "bessel", "duality", "embedding", "multiplier")


@dataclass(frozen=True)
class VerifyContext:
    """Inputs of a verification run, with radius, n and seed stored as ints and s, t
    and p as floats.  A radius, n or seed that is not an integer, values out of
    range, or a check lattice that ``make_lattice`` refuses raise ValueError."""

    radius: int = 8
    n: int = 1
    seed: int = 0
    s: float = 1.0
    t: float = 1.0
    p: float = 2.0

    def __post_init__(self):
        for name in ("radius", "n", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"verify needs an integer {name}; got {name}={value!r}")
            object.__setattr__(self, name, int(value))
        if not (self.radius >= 0 and self.seed >= 0 and 0 <= self.s < math.inf
                and 0 <= self.t < math.inf and 1 <= self.p < math.inf):
            raise ValueError(
                f"verify needs radius, seed >= 0, finite s, t >= 0 and 1 <= p < inf; got "
                f"radius={self.radius}, seed={self.seed}, s={self.s}, t={self.t}, p={self.p}"
            )
        # The largest lattice any check builds: product-norm-bounded's exact
        # products of radius-2R fields, and refinement-stability at 2 max(R, 8).
        largest = 4 * max(self.radius, 8)
        try:
            make_lattice(self.n, largest)
        except ValueError as exc:
            raise ValueError(f"verify builds lattices up to radius {largest}: {exc}") from None
        for name in ("s", "t", "p"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    suite: str
    law: str
    error: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    suite: str
    law: str
    tolerance: float
    runner: Callable


REGISTRY: tuple = ()


def _check(check_id: str, suite: str, tolerance: float, law: str):
    """Register the decorated generator ``ctx -> sample errors`` as a check;
    returns the registered runner ``ctx -> error``, which scores every sample."""

    def register(samples):
        @functools.wraps(samples)
        def runner(ctx):
            return _score(samples(ctx))

        global REGISTRY
        REGISTRY += (CheckSpec(check_id, suite, law, tolerance, runner),)
        return runner

    return register


def _score(errors) -> float:
    """The largest of 0.0 and the sample errors; a NaN sample makes it NaN, which
    no tolerance passes."""
    scores = [0.0, *map(float, errors)]
    return math.nan if any(map(math.isnan, scores)) else max(scores)


def _rel(value, reference) -> float:
    value = np.asarray(value)
    reference = np.asarray(reference)
    scale = max(float(np.max(np.abs(reference))), np.finfo(float).tiny)
    return float(np.max(np.abs(value - reference))) / scale


def _sample_fields(ctx: VerifyContext, count: int, kind: str = "power-decay", alpha=1.0):
    lattice = make_lattice(ctx.n, ctx.radius)
    return [
        gen_distribution(kind, lattice, alpha=alpha, seed=ctx.seed + 7919 * j)
        for j in range(count)
    ]


# --------------------------------------------------------------------------
# fourier suite: transforms and quadrature
# --------------------------------------------------------------------------


@_check("round-trip", "fourier", 1e-12, "analyze(synthesize(u, N)) = u for every N >= 2R+1")
def _check_round_trip(ctx):
    for j, u in enumerate(_sample_fields(ctx, 8, alpha=0.5)):
        grid = u.lattice.side + (0 if j % 2 == 0 else 5)
        yield _rel(analyze(synthesize(u, grid), u.lattice).coeffs, u.coeffs)


@_check("parseval", "fourier", 1e-12, "lp_norm(synthesize(u, N), 2)^2 = sum_k |coeff_k|^2")
def _check_parseval(ctx):
    for u in _sample_fields(ctx, 8, alpha=0.5):
        energy = float(np.real(tree_sum(np.abs(u.coeffs) ** 2)))
        quad = lp_norm(synthesize(u, 2 * u.lattice.side), 2.0) ** 2
        yield abs(quad - energy) / max(energy, np.finfo(float).tiny)


@_check("conjugation-reality", "fourier", 1e-12, "samples are real iff coeff(-k) = conj(coeff(k))")
def _check_reality(ctx):
    for u in _sample_fields(ctx, 6, alpha=0.5):
        samples = synthesize(real_part_field(u), 2 * u.lattice.side).samples
        scale = max(float(np.max(np.abs(samples))), np.finfo(float).tiny)
        yield float(np.max(np.abs(samples.imag))) / scale


@_check("quadrature-spectral-decay", "fourier", 2.0 ** -6,
        "rectangle-rule error decays faster than any fixed power of 1/N")
def _check_quadrature_decay(ctx):
    del ctx
    nodes = 1024
    reference = lp_norm(GridFunction(np.exp(np.sin(grid_nodes(nodes)))), 3.0)
    errors = [
        abs(lp_norm(GridFunction(np.exp(np.sin(grid_nodes(n)))), 3.0) - reference)
        for n in (4, 8, 16, 32)
    ]
    for coarse, fine in zip(errors, errors[1:]):
        if coarse > 1e-13 * reference:
            yield fine / coarse


@_check("determinism", "fourier", 0.0, "repeated evaluation is bitwise identical")
def _check_determinism(ctx):
    def run():
        u = gen_distribution("power-decay", make_lattice(ctx.n, ctx.radius), 1.0, ctx.seed)
        g = synthesize(u, 2 * u.lattice.side)
        v = analyze(g, u.lattice)
        return u.coeffs.tobytes(), g.samples.tobytes(), v.coeffs.tobytes(), lp_norm(g, 2.5)

    yield float(run() != run())


# --------------------------------------------------------------------------
# bessel suite: the lifting operator and the space norms
# --------------------------------------------------------------------------


@_check("lift-semigroup", "bessel", 1e-13, "lift(s, lift(t, u)) = lift(s+t, u)")
def _check_semigroup(ctx):
    rng = np.random.default_rng(ctx.seed)
    for u in _sample_fields(ctx, 10, alpha=0.5):
        s, t = rng.uniform(-4.0, 4.0, size=2)
        yield _rel(lift(s, lift(t, u)).coeffs, lift(s + t, u).coeffs)


@_check("lift-isometry", "bessel", 1e-10, "|lift(a, u)|_{H^(s-a)_p} = |u|_{H^s_p}")
def _check_lift_isometry(ctx):
    for j, u in enumerate(_sample_fields(ctx, 6, alpha=1.0)):
        for p in (1.5, 2.0, 3.0):
            alpha = (-2.0, 0.75, 1.5)[j % 3]
            shifted = hs_norm(lift(alpha, u), SpaceIndex(ctx.s - alpha, p))
            original = hs_norm(u, SpaceIndex(ctx.s, p))
            yield abs(shifted - original) / max(original, 1e-300)


@_check("h2-two-paths", "bessel", 1e-12, "closed-form and quadrature H^s_2 norms agree")
def _check_h2_two_paths(ctx):
    for u in _sample_fields(ctx, 8, alpha=0.75):
        closed = hs_norm(u, SpaceIndex(ctx.s, 2.0))
        quad = lp_norm(synthesize(lift(ctx.s, u), 2 * u.lattice.side), 2.0)
        yield abs(closed - quad) / max(closed, 1e-300)


@_check("lift-eigenrelation", "bessel", 1e-14, "lift(s, basis_k) = (1+|k|^2)^(s/2) * basis_k")
def _check_eigenrelation(ctx):
    lattice = make_lattice(ctx.n, ctx.radius)
    probe = make_lattice(ctx.n, min(4, ctx.radius))
    for k in probe.indices:
        basis = delta_field(lattice, k)
        weight = float((1.0 + float(np.dot(k, k))) ** 0.5)
        for s in (-2.0, 0.5, 3.0):
            yield _rel(lift(s, basis).coeffs, weight ** s * basis.coeffs)


# --------------------------------------------------------------------------
# duality suite: pairings and product estimates
# --------------------------------------------------------------------------


@_check("pairing-s-independent", "duality", 1e-13,
        "<lift(-s, u), lift(s, v)>_{L2} is independent of s")
def _check_pairing_s_independent(ctx):
    fields = _sample_fields(ctx, 6, alpha=0.75)
    for u, v in zip(fields[:3], fields[3:]):
        cancelled = duality_pair(u, v)
        for s in (-2.0, 0.0, 3.0):
            lifted = complex(
                tree_sum(lift(-s, u).coeffs * np.conj(lift(s, v).coeffs))
            )
            yield abs(lifted - cancelled) / max(abs(cancelled), 1e-300)


@_check("hoelder-duality-bound", "duality", 1e-12, "|<u; v>_s| <= |u|_{H^(-s)_p'} * |v|_{H^s_p}")
def _check_hoelder_bound(ctx):
    fields = _sample_fields(ctx, 24, alpha=1.0)
    for u, v in zip(fields[:12], fields[12:]):
        for p in (1.5, 2.0, 3.0):
            for s in (0.0, 1.0, 2.5):
                pairing = abs(duality_pair(u, v, s))
                bound = hs_norm(u, SpaceIndex(-s, float(conjugate_exponent(p)))) * hs_norm(
                    v, SpaceIndex(s, p)
                )
                yield (pairing - bound) / max(bound, 1e-300)


@_check("product-norm-bounded", "duality", 20.0,
        "|f*g|_{H^t_q} / (|f|_{H^s_p} |g|_{H^t_q}) stays bounded under refinement")
def _check_product_norm_bounded(ctx):
    # p = q with s > n/p: the largest product norm ratio over 250 seeded
    # random-smooth pairs at the refined radius 2R must stay below the tolerance.
    s, t, p = max(ctx.s, ctx.n / ctx.p + 0.5), min(ctx.t, ctx.s) * 0.5, ctx.p
    lattice = make_lattice(ctx.n, 2 * ctx.radius)
    for j in range(250):
        f = gen_distribution("random-smooth", lattice, seed=ctx.seed + 2 * j)
        g = gen_distribution("random-smooth", lattice, seed=ctx.seed + 2 * j + 1)
        product = pointwise_product(f, g, exact=True)
        yield hs_norm(product, SpaceIndex(t, p)) / (
            hs_norm(f, SpaceIndex(s, p)) * hs_norm(g, SpaceIndex(t, p))
        )


# --------------------------------------------------------------------------
# embedding suite: index predicates and monotone norms
# --------------------------------------------------------------------------


@_check("embedding-monotone-p2", "embedding", 1e-14, "t <= s implies |u|_{H^t_2} <= |u|_{H^s_2}")
def _check_embedding_monotone_p2(ctx):
    for u in _sample_fields(ctx, 6, alpha=0.75):
        for low, high in ((-1.5, 0.0), (0.0, 1.0), (0.5, 2.5)):
            smaller = hs_norm(u, SpaceIndex(low, 2.0))
            larger = hs_norm(u, SpaceIndex(high, 2.0))
            yield (smaller - larger) / max(larger, 1e-300)


@_check("conjugate-involution", "embedding", 1e-14,
        "conjugate_exponent is an involution on (1, inf)")
def _check_conjugate_involution(ctx):
    rng = np.random.default_rng(ctx.seed)
    for p in rng.uniform(1.0 + 1e-6, 100.0, size=64):
        yield abs(float(conjugate_exponent(conjugate_exponent(p))) - p) / p
    yield float(conjugate_exponent(conjugate_exponent(Fraction(4, 3))) != Fraction(4, 3))


@_check("strichartz-swap-symmetry", "embedding", 0.0,
        "hypotheses hold for (s,t,p,q) iff they hold for (t,s,q',p')")
def _check_strichartz_symmetry(ctx):
    rng = np.random.default_rng(ctx.seed)
    mismatches = 0
    for _ in range(200):
        s = Fraction(int(rng.integers(0, 9)), 2)
        t = Fraction(int(rng.integers(0, 9)), 2)
        p = Fraction(int(rng.integers(5, 17)), 4)
        q = Fraction(int(rng.integers(5, 17)), 4)
        n = int(rng.integers(1, 4))
        direct = strichartz_case(s, t, p, q, n).holds
        swapped = strichartz_case(
            t, s, conjugate_exponent(q), conjugate_exponent(p), n
        ).holds
        mismatches += direct != swapped
    yield mismatches


@_check("embedding-monotone-predicate", "embedding", 0.0,
        "raising s or lowering t never breaks an embedding")
def _check_embedding_monotone_predicate(ctx):
    rng = np.random.default_rng(ctx.seed)
    violations = 0
    for _ in range(200):
        s = Fraction(int(rng.integers(-6, 7)), 2)
        t = Fraction(int(rng.integers(-6, 7)), 2)
        p = Fraction(int(rng.integers(5, 17)), 4)
        q = Fraction(int(rng.integers(5, 17)), 4)
        n = int(rng.integers(1, 4))
        before = embedding_holds(s, t, p, q, n).holds
        larger_s = embedding_holds(s + 1, t, p, q, n).holds
        smaller_t = embedding_holds(s, t - 1, p, q, n).holds
        violations += int(before and not larger_s) + int(before and not smaller_t)
    yield violations


# --------------------------------------------------------------------------
# multiplier suite: operator norms and the description theorem
# --------------------------------------------------------------------------


def _multiplier_radius(ctx) -> int:
    return min(ctx.radius, 8 if ctx.n == 1 else 4)


@_check("swap-adjoint-identity", "multiplier", 1e-14,
        "swapped-problem matrix is the conjugate transpose (real-valued u)")
def _check_swap_adjoint(ctx):
    # matrices of the solvers' operator, its matvec applied to the identity
    # columns; for real u the swapped matvec is the forward rmatvec that GKL
    # and Boyd apply
    lattice = make_lattice(ctx.n, _multiplier_radius(ctx))

    def matrix(u, s, t):
        matvec = multiplier_operator(MultiplierProblem(u, s, t, 2.0, 2.0))[0]
        return matvec(np.eye(lattice.size)).T  # row k of the stack is column k

    for j in range(6):
        u = real_part_field(
            gen_distribution("power-decay", lattice, alpha=1.0, seed=ctx.seed + 37 * j)
        )
        forward, swapped = matrix(u, ctx.s, ctx.t), matrix(u, ctx.t, ctx.s)
        yield float(np.max(np.abs(swapped - forward.conj().T)))


@_check("certificate-lower-bound", "multiplier", 1e-12,
        "|u|_{H^(-t)_2} <= |E|_{H^s_2} * multiplier norm")
def _check_certificate(ctx):
    lattice = make_lattice(ctx.n, _multiplier_radius(ctx))
    ones_norm = hs_norm(constant_field(lattice), SpaceIndex(ctx.s, 2.0))
    for j in range(12):
        u = gen_distribution("power-decay", lattice, alpha=1.0, seed=ctx.seed + 13 * j)
        norm = multiplier_norm_l2(MultiplierProblem(u, ctx.s, ctx.t, 2.0, 2.0))
        certificate = hs_norm(u, SpaceIndex(-ctx.t, 2.0))
        bound = ones_norm * norm
        yield (certificate - bound) / max(bound, 1e-300)


@_check("boyd-below-lanczos", "multiplier", 1e-10,
        "Boyd's lower bound never exceeds the Lanczos norm at p = q = 2")
def _check_boyd_below_lanczos(ctx):
    lattice = make_lattice(ctx.n, _multiplier_radius(ctx))
    for j in range(4):
        u = gen_distribution("power-decay", lattice, alpha=2.0, seed=ctx.seed + 11 * j)
        prob = MultiplierProblem(u, ctx.s, ctx.t, 2.0, 2.0)
        yield multiplier_norm_lp(prob) - multiplier_norm_l2(prob)


@_check("refinement-stability", "multiplier", 0.05,
        "multiplier/intersection ratio moves <= 5% from R to 2R")
def _check_refinement_stability(ctx):
    coarse = max(ctx.radius, 8)
    lattice = make_lattice(ctx.n, 2 * coarse)
    u = gen_distribution("power-decay", lattice, alpha=ctx.t + 2.0, seed=ctx.seed)
    prob = MultiplierProblem(u, ctx.s, ctx.t, 2.0, 2.0)
    ratios = {}
    for radius in (coarse, 2 * coarse):
        report = equivalence_report(prob, radii=[radius], force=True)
        ratios[radius] = report.ratio
    yield abs(ratios[2 * coarse] / ratios[coarse] - 1.0)


@_check("scaling-homogeneity", "multiplier", 1e-10,
        "multiplier norm of c*u equals |c| times that of u")
def _check_homogeneity(ctx):
    lattice = make_lattice(ctx.n, _multiplier_radius(ctx))
    for j, scale in enumerate((0.1, 3.0, -2.5j)):
        u = gen_distribution("power-decay", lattice, alpha=1.0, seed=ctx.seed + 23 * j)
        base = multiplier_norm_l2(MultiplierProblem(u, ctx.s, ctx.t, 2.0, 2.0))
        scaled_field = SpectralField(lattice, scale * u.coeffs)
        scaled = multiplier_norm_l2(MultiplierProblem(scaled_field, ctx.s, ctx.t, 2.0, 2.0))
        yield abs(scaled - abs(scale) * base) / max(abs(scale) * base, 1e-300)


@_check("delta-closed-form", "multiplier", 1e-8,
        "basis field at 0 has multiplier norm (2*pi)^(-1/2) at s=t=1")
def _check_delta_closed_form(ctx):
    lattice = make_lattice(1, _multiplier_radius(ctx))
    norm = multiplier_norm_l2(MultiplierProblem(delta_field(lattice, (0,)), 1.0, 1.0, 2.0, 2.0))
    yield abs(norm - TWO_PI ** -0.5)


@_check("constant-closed-form", "multiplier", 1e-10,
        "all-ones field has multiplier norm exactly 1")
def _check_constant_closed_form(ctx):
    lattice = make_lattice(1, _multiplier_radius(ctx))
    norm = multiplier_norm_l2(MultiplierProblem(constant_field(lattice), 1.0, 1.0, 2.0, 2.0))
    yield abs(norm - 1.0)


def run_suite(suite: str, ctx: VerifyContext | None = None) -> list:
    """Run one named suite (or 'all'); returns a CheckResult per check."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES + ('all',)}")
    ctx = ctx or VerifyContext()
    results = []
    for spec in REGISTRY:
        if suite != "all" and spec.suite != suite:
            continue
        error = float(spec.runner(ctx))
        results.append(
            CheckResult(
                check_id=spec.check_id,
                suite=spec.suite,
                law=spec.law,
                error=error,
                tolerance=spec.tolerance,
                passed=error <= spec.tolerance,
            )
        )
    return results


def format_report(results) -> str:
    lines = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        lines.append(
            f"{status} [{result.suite}] {result.check_id}: {result.law} "
            f"(error {result.error:.3e}, tolerance {result.tolerance:.3e})"
        )
    failed = sum(not r.passed for r in results)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines)
