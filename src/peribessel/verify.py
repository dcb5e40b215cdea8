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
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from . import SUITES
from .calculus import (
    SpaceIndex,
    _fast_length,
    _refuse_overflowing_order,
    duality_pair,
    hs_norm,
    lift,
    pointwise_product,
)
from .conditions import conjugate_exponent, embedding_holds, strichartz_case
from .generators import _uniforms, gen_distribution
from .lattice import (
    GridFunction,
    SpectralField,
    TWO_PI,
    _integer,
    analyze,
    constant_field,
    delta_field,
    grid_nodes,
    lp_norm,
    make_lattice,
    real_part_field,
    restrict_field,
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


@dataclass(frozen=True)
class VerifyContext:
    """Inputs of a verification run, with radius, n and seed stored as ints and s
    and t as floats.  A radius, n or seed that is not an integer, values out of
    range, a check lattice that ``make_lattice`` refuses, or an s or t that
    :func:`bessel_weights` refuses on a lattice a check lifts by it raise ValueError."""

    radius: int = 8
    n: int = 1
    seed: int = 0
    s: float = 1.0
    t: float = 1.0

    def __post_init__(self):
        for name in ("radius", "n", "seed"):
            refusal = f"verify needs an integer {name}; got {name}={{!r}}"
            object.__setattr__(self, name, _integer(getattr(self, name), refusal))
        if not (self.radius >= 0 and self.seed >= 0 and 0 <= self.s < math.inf
                and 0 <= self.t < math.inf):
            raise ValueError(
                f"verify needs radius, seed >= 0 and finite s, t >= 0; got "
                f"radius={self.radius}, seed={self.seed}, s={self.s}, t={self.t}"
            )
        # unrounded first: rounding a length of hundreds of digits takes minutes
        for rounded in (False, True):
            largest = _largest_grid(self, rounded)
            try:  # a lattice of side largest, or largest + 1 if it is even
                make_lattice(self.n, largest // 2)
            except ValueError as exc:
                raise ValueError(
                    f"verify builds grids of at least {largest} points per axis: {exc}"
                ) from None
        for name in ("s", "t"):
            object.__setattr__(self, name, float(getattr(self, name)))
        # the largest order each check lattice is lifted by, as the checks compute it
        for what, order, radius in (("s + 2", self.s + 2.0, self.radius),
                                    ("s", self.s, 2 * max(self.radius, 8)),
                                    ("t", self.t, _multiplier_radius(self))):
            try:
                _refuse_overflowing_order(order, self.n, radius)
            except ValueError as exc:
                raise ValueError(f"verify lifts by {what} at radius {radius}: {exc}") from None


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


def _index_draws(seed: int, stream: str, low: int, high: int) -> list:
    """200 seeded tuples (2s, 2t, 4p, 4q, n), each entry uniform: 2s and 2t in [low,
    high], 4p and 4q in [5, 16], n in [1, 3]."""
    lows, highs = np.array([low, low, 5, 5, 1]), np.array([high, high, 16, 16, 3])
    unit = _uniforms(seed, stream, 5 * 200).reshape(200, 5)
    return (lows + np.floor(unit * (highs - lows + 1))).astype(int).tolist()


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


@_check("even-power-exact", "fourier", 1e-13,
        "lp_norm(synthesize(u, N), r) is exact for even r with rR < N: N = 4R+2 and 2N agree")
def _check_even_power_exact(ctx):
    for u in _sample_fields(replace(ctx, radius=min(ctx.radius, 4)), 4, alpha=0.5):  # 2N <= 36
        N = 4 * u.lattice.radius + 2
        for r in (2.0, 4.0):
            yield _rel(lp_norm(synthesize(u, N), r), lp_norm(synthesize(u, 2 * N), r))


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
    orders = -4.0 + 8.0 * _uniforms(ctx.seed, "lift-semigroup", 20).reshape(10, 2)
    for u, (s, t) in zip(_sample_fields(ctx, 10, alpha=0.5), orders):
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
            lifted = complex(tree_sum(lift(-s, u).coeffs * np.conj(lift(s, v).coeffs)))
            yield abs(lifted - cancelled) / max(abs(cancelled), 1e-300)


@_check("hoelder-duality-bound", "duality", 1e-12, "|<u; v>_s| <= |u|_{H^(-s)_p'} * |v|_{H^s_p}")
def _check_hoelder_bound(ctx):
    fields = _sample_fields(ctx, 24, alpha=1.0)
    for u, v in zip(fields[:12], fields[12:]):
        pairing = abs(duality_pair(u, v))
        for p in (1.5, 2.0, 3.0):
            for s in (0.0, 1.0, 2.5):
                dual = hs_norm(u, SpaceIndex(-s, float(conjugate_exponent(p))))
                bound = dual * hs_norm(v, SpaceIndex(s, p))
                yield (pairing - bound) / max(bound, 1e-300)


@_check("product-convolution-theorem", "duality", 1e-12,
        "synthesize(f*g, N) = synthesize(f, N) * synthesize(g, N) for N >= 4R+1")
def _check_product_convolution_theorem(ctx):
    # random-smooth pairs take the product's FFT path, a basis second factor
    # its exact shift; N = 4R+1 is the side of the exact product's lattice.
    # The default truncated product is the exact one's radius-R window.
    fields = _sample_fields(ctx, 4, "random-smooth")
    basis = delta_field(fields[0].lattice, (min(1, ctx.radius),) * ctx.n)
    for f, g in (fields[:2], fields[2:], (fields[0], basis)):
        product = pointwise_product(f, g, exact=True)
        N = product.lattice.side
        yield _rel(synthesize(product, N).samples,
                   synthesize(f, N).samples * synthesize(g, N).samples)
        yield _rel(pointwise_product(f, g).coeffs, restrict_field(product, ctx.radius).coeffs)


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
    low = 1.0 + 1e-6
    for p in low + (100.0 - low) * _uniforms(ctx.seed, "conjugate-involution", 64):
        yield abs(float(conjugate_exponent(conjugate_exponent(p))) - p) / p
    yield float(conjugate_exponent(conjugate_exponent(Fraction(4, 3))) != Fraction(4, 3))


@_check("strichartz-swap-symmetry", "embedding", 0.0,
        "hypotheses hold for (s,t,p,q) iff they hold for (t,s,q',p')")
def _check_strichartz_symmetry(ctx):
    mismatches = 0
    for s2, t2, p4, q4, n in _index_draws(ctx.seed, "strichartz-swap-symmetry", 0, 8):
        s, t, p, q = Fraction(s2, 2), Fraction(t2, 2), Fraction(p4, 4), Fraction(q4, 4)
        direct = strichartz_case(s, t, p, q, n).holds
        swapped = strichartz_case(t, s, conjugate_exponent(q), conjugate_exponent(p), n).holds
        mismatches += direct != swapped
    yield mismatches


@_check("embedding-monotone-predicate", "embedding", 0.0,
        "raising s or lowering t never breaks an embedding")
def _check_embedding_monotone_predicate(ctx):
    violations = 0
    for s2, t2, p4, q4, n in _index_draws(ctx.seed, "embedding-monotone-predicate", -6, 6):
        s, t, p, q = Fraction(s2, 2), Fraction(t2, 2), Fraction(p4, 4), Fraction(q4, 4)
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


def _largest_grid(ctx, rounded: bool = True) -> int:
    """Points per axis of the largest lattice, synthesis or convolution grid the
    checks build for ctx: the operator's length on refinement-stability's field
    of radius 2 max(R, 8), or unless ``rounded`` the 6 max(R, 8) + 1 it rounds up."""
    length = 6 * max(ctx.radius, 8) + 1
    return _fast_length(length) if rounded else length


@_check("swap-adjoint-identity", "multiplier", 1e-14,
        "swapped-problem matrix is the conjugate transpose (real-valued u)")
def _check_swap_adjoint(ctx):
    # matrices of the solvers' operator, its matvec applied to the identity
    # columns; for real u the swapped matvec is the forward rmatvec that Boyd and
    # top_singular_value's Lanczos on A^H A apply
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
    ratios = [equivalence_report(prob, radii=[r], force=True).ratio for r in (coarse, 2 * coarse)]
    yield abs(ratios[1] / ratios[0] - 1.0)


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
        results.append(CheckResult(spec.check_id, spec.suite, spec.law, error, spec.tolerance,
                                   passed=error <= spec.tolerance))
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
