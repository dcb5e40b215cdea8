"""Multiplier norms between H^s_p and H^(-t)_q on the truncated model.

The multiplication operator ``f -> f*u`` is a weighted convolution in lifted
coefficients, applied matrix-free through zero-padded FFTs.  For p = q = 2 its
norm is the top singular value, the square root of the top eigenvalue of A^H A
by Lanczos with full reorthogonalization: the Krylov space of Golub-Kahan-Lanczos
(GKL) bidiagonalization at one reorthogonalized basis per step, not two.  It stops
once the Ritz residual |A^H x - sigma y| is at most 1e-12 sigma.  Each image is
scaled by one power of two taken from the first, as A^H A squares A's range; the
solver returns the whole triplet, and a refinement warm-starts each radius from
the previous radius's right vector.  For general (p, q) a lower bound is
reported: the best norm ratio along a fixed number of steps of Boyd's power
method (Boyd, LAA 9, 1974; Higham, Numer. Math. 62, 1992), started from the
all-ones field, so the classical ``|u|_{H^(-t)_q} / |E|_{H^s_p}`` certificate
is its first step.  The best iterate's norms are re-checked on its N
nodes per axis and on those shifted by half a node, unless N nodes integrate them
exactly; none is at p, q in {2, 4}.
``MultiplierProblem(..., grid_points=None)`` sets N, by default 2(2R+1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from . import lattice as _lattice
from .calculus import (
    SpaceIndex, _convolver, _fast_length, bessel_weights, default_grid_points, hs_norm, lift,
)
from .conditions import conjugate_exponent, strichartz_case
from .lattice import (
    GridFunction,
    SpectralField,
    TWO_PI,
    _deterministic_norm,
    analyze,
    conj_field,
    constant_field,
    lp_norm,
    restrict_field,
    synthesize,
    tree_sum,
)

# the GKL names stay: Lanczos on A^H A spans GKL's Krylov space with GKL's stop test
GKL_TOLERANCE = 1e-12
GKL_SEED = 0
GKL_WARM_MIX = 1e-3  # weight of the seeded vector in a warm start
BOYD_STEPS = 8  # a fixed count at every (p, q): the cost depends on the lattice, not on u

CSV_COLUMNS = (
    "n",
    "R",
    "s",
    "t",
    "p",
    "q",
    "mult_norm",
    "exact_flag",
    "inter_norm",
    "ratio",
    "cert",
)


def index_cells(n: int, radius: int, s, t, p, q) -> list:
    """The first six :data:`CSV_COLUMNS` cells of a report row: n, R, s, t, p, q."""
    return [str(n), str(radius), *(repr(float(x)) for x in (s, t, p, q))]


class ConvergenceError(RuntimeError):
    """The singular-value solver hit its step cap before its residual test."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"Lanczos on A^H A did not converge in {iterations} steps "
            f"(achieved relative residual {residual:.3e})"
        )


class HypothesisError(ValueError):
    """The Strichartz-type index hypotheses are not satisfied."""


@dataclass(frozen=True)
class MultiplierProblem:
    """One multiplier-norm instance: u acting from H^s_p into H^(-t)_q.

    The target smoothness is -t with t >= 0 stored explicitly; u's lattice is
    fixed for the whole problem.  ``grid_points`` is the quadrature grid N per
    axis of every p != 2 norm: an int, or None for 2(2R+1).  Unless p = q = 2, an N
    that ``synthesize`` refuses is refused too, in its words; Boyd's re-check
    synthesizes on the same N nodes, so no other grid is refused.  An s that
    :func:`bessel_weights` refuses on u's lattice is refused, in its words.
    """

    u: SpectralField
    s: float
    t: float
    p: float
    q: float
    grid_points: int | None = None

    def __post_init__(self):
        if not (0 <= self.s < np.inf and 0 <= self.t < np.inf):
            raise ValueError(f"smoothness indices must be finite and >= 0, got {self.s}, {self.t}")
        for name, value in (("p", self.p), ("q", self.q)):
            if not 1 < value < np.inf:
                raise ValueError(f"{name} must lie in (1, inf), got {value}")
        if self.grid_points is not None:
            refusal = "grid_points must be an integer or None, got {!r}"
            object.__setattr__(self, "grid_points", _lattice._integer(self.grid_points, refusal))
        bessel_weights(self.s, self.u.lattice)  # the certificate's H^s_p weights, or refused
        if self.p == 2 and self.q == 2:
            return
        _lattice._grid_bins(self.u.lattice, self.points)  # the grids synthesize refuses

    @property
    def n(self) -> int:
        return self.u.lattice.n

    @property
    def points(self) -> int:
        return default_grid_points(self.u.lattice) if self.grid_points is None else self.grid_points

    def exact_on_grid(self, r) -> bool:
        """Whether N nodes integrate L^r norms on u's lattice exactly: r even, rR < N."""
        return float(r) % 2 == 0 and float(r) * self.u.lattice.radius < self.points


@dataclass(frozen=True)
class MultiplierReport:
    """Computed multiplier norm vs intersection norm for one instance."""

    n: int
    radius: int
    s: float
    t: float
    p: float
    q: float
    multiplier_norm: float
    exact: bool
    intersection_norm: float
    ratio: float
    lower_bound_certificate: float
    refinement: tuple

    def as_dict(self) -> dict:
        return {**asdict(self), "refinement": [list(step) for step in self.refinement]}

    def csv_row(self) -> list:
        return index_cells(self.n, self.radius, self.s, self.t, self.p, self.q) + [
            repr(self.multiplier_norm),
            "1" if self.exact else "0",
            repr(self.intersection_norm),
            repr(self.ratio),
            repr(self.lower_bound_certificate),
        ]


def multiplier_operator(prob: MultiplierProblem) -> tuple:
    """Matrix-free ``(matvec, rmatvec)`` of ``f -> f*u`` in lifted l2 coordinates,
    for any (p, q); differences of indices outside u's lattice contribute zero.

    ``matvec`` maps ``lift(s, f)`` to ``lift(-t, f*u)``: ``(2*pi)^(-n/2) W_{-t}
    window_R(u conv (W_{-s} v))``, W_a the Bessel weights, cyclic of length
    ``_fast_length(3R+1)`` per axis (3R+1 is the least at which nothing wraps into
    the window; a longer one changes only rounding), FFT(u) taken once.
    ``rmatvec`` is the adjoint: the same for conj(u), s and t swapped.  Either also
    maps a stack of vectors, shape ``(..., size)``, one vector at a time.
    """
    lattice = prob.u.lattice
    padded = (_fast_length(3 * lattice.radius + 1),) * lattice.n
    # Cube positions are index + R, so the product's index l sits at l + 2R.
    window = slice(lattice.radius, lattice.radius + lattice.side)

    def side(u: SpectralField, s: float, t: float):
        convolve = _convolver(u.cube(), padded, window)
        source = bessel_weights(-float(s), lattice)
        target = TWO_PI ** (-lattice.n / 2.0) * bessel_weights(-float(t), lattice)
        target = target.reshape(lattice.shape)  # the window's shape: multiplied uncopied

        def apply(v: np.ndarray) -> np.ndarray:
            cubes = (source * v).reshape(v.shape[:-1] + lattice.shape)
            return (target * convolve(cubes)).reshape(v.shape)

        return apply

    return side(prob.u, prob.s, prob.t), side(conj_field(prob.u), prob.t, prob.s)


def _doubled(right: np.ndarray, left: np.ndarray, tridiagonal: np.ndarray) -> tuple:
    """The two bases with twice their rows, and T zero-padded to twice its order."""
    grown = [np.concatenate([rows, np.empty_like(rows)]) for rows in (right, left)]
    return *grown, np.pad(tridiagonal, (0, len(tridiagonal)))


@functools.lru_cache(maxsize=8)
def _seeded_start(size: int) -> np.ndarray:
    """The unit seeded start of length ``size``, drawn once per size; read-only."""
    rng = np.random.default_rng(GKL_SEED)
    seeded = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return _lattice._freeze(seeded / _deterministic_norm(seeded))


@dataclass(frozen=True)
class SingularTriplet:
    """What :func:`top_singular_value` found: the Ritz value sigma, its unit left
    and right Ritz vectors x and y (A y = sigma x to rounding), the relative Ritz
    residual |A^H x - sigma y| / sigma and the Lanczos step count, one ``matvec``
    call per step."""

    value: float
    left: np.ndarray
    right: np.ndarray
    residual: float
    steps: int


def _combine(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_j weights[j] rows[j]`` by one tree sum; scales ``rows`` in place."""
    rows *= weights[:, None]
    return tree_sum(rows, axis=0)


@np.errstate(over="ignore")  # once per solve, not per step: _deterministic_norm rescales
def top_singular_value(matvec, rmatvec, size: int,
                       start: np.ndarray | None = None) -> SingularTriplet:
    """Top singular triplet by Lanczos on A^H A with full reorthogonalization.

    Step k keeps z = A v_k as row k of Z, alpha_k = |z|^2, and orthogonalizes A^H z -
    alpha_k v_k - beta_(k-1) v_(k-1) = beta_k v_(k+1) against V: GKL's Krylov space,
    T_k = B_k^H B_k, at one reorthogonalization per step (Parlett, The Symmetric
    Eigenvalue Problem, ch. 13).  T_k's top eigenpair (theta, s) gives sigma =
    sqrt(theta), right y = V s and left x = Z s / sigma, A y = sigma x and |A^H x -
    sigma y| = beta_k |s_k| / sigma; it is returned once beta_k |s_k| <= GKL_TOLERANCE
    * theta, else ConvergenceError at step ``size``.  A^H A squares A's range (sigma =
    1e200 is theta = 1e400), so z and A^H z are scaled by 2^-e, 2^e the power of two
    above z_1's largest real or imaginary part, and sigma 2^e is returned: exactly 2^m
    times as large for 2^m A.  v_1 is seeded (Kuczynski & Wozniakowski, SIMAX 13, 1992)
    or a normalised ``start`` plus GKL_WARM_MIX times the seeded one, which still finds
    a top right vector orthogonal to ``start``.  Tree-summed reductions, so the result
    does not depend on the thread count."""
    first = _seeded_start(size)
    if start is not None:
        start = np.asarray(start, dtype=np.complex128)
        scale = _deterministic_norm(start) if start.shape == (size,) else 0.0
        if not 0.0 < scale < np.inf:
            raise ValueError(f"start must be a finite nonzero vector of length {size}")
        first = start / scale + GKL_WARM_MIX * first
        first /= _deterministic_norm(first)
    (right, left), tridiagonal = np.empty((2, 8, size), dtype=np.complex128), np.zeros((8, 8))
    right[0] = first
    beta = theta = residual = 0.0
    for k in range(size):
        left[k] = matvec(right[k])
        if not k:  # capped at 2^1023, so that the scale of a subnormal image is finite
            exponent = max(math.frexp(float(np.max(np.abs(left[0].view(float)))))[1], -1023)
            scale = math.ldexp(1.0, -exponent)
        left[k] *= scale
        alpha = tridiagonal[k, k] = _deterministic_norm(left[k]) ** 2
        w = rmatvec(left[k])  # scale * A^H z - alpha v_k - beta v_(k-1), in place, in order
        np.subtract(np.multiply(scale, w, out=w), alpha * right[k], out=w)
        if k:
            np.subtract(w, beta * right[k - 1], out=w)
        coefficients = tree_sum(np.conj(right[: k + 1]) * w, axis=1)  # against V, in place
        w -= tree_sum(coefficients[:, None] * right[: k + 1], axis=0)
        beta = _deterministic_norm(w)
        thetas, vectors = np.linalg.eigh(tridiagonal[: k + 1, : k + 1])  # lower triangle
        theta, top = float(thetas[-1]), vectors[:, -1]
        if (residual := beta * abs(float(top[-1]))) <= GKL_TOLERANCE * theta:
            sigma = math.sqrt(theta)  # Z = 0 where sigma = 0: any divisor keeps x = 0
            return SingularTriplet(
                math.ldexp(sigma, exponent), _combine(left[: k + 1], top / (sigma or 1.0)),
                _combine(right[: k + 1], top), residual / theta if theta > 0.0 else 0.0, k + 1,
            )
        if k + 1 == len(right):
            right, left, tridiagonal = _doubled(right, left, tridiagonal)
        tridiagonal[k + 1, k] = beta
        np.divide(w, beta, out=right[k + 1])
    raise ConvergenceError(size, residual / theta if theta > 0.0 else np.inf)


def multiplier_norm_l2(prob: MultiplierProblem) -> float:
    """Exact multiplier norm for p = q = 2: the top singular value of
    :func:`multiplier_operator`: the one-radius :func:`_refine_l2`, seeded start."""
    if not (prob.p == 2 and prob.q == 2):
        raise ValueError("the exact multiplier norm requires p = q = 2")
    return _refine_l2([prob])[0]


def _refine_l2(problems: list) -> list:
    """The p = q = 2 norm of each problem, on lattices of ascending radius, by the
    library's one :func:`top_singular_value` call: the first from the seeded start,
    each later one from the previous top right vector, zero-padded onto its lattice."""
    values, start = [], None
    for prob in problems:
        lattice = prob.u.lattice
        if start is not None:
            start = np.pad(start.reshape(previous.shape), lattice.radius - previous.radius).ravel()
        triplet = top_singular_value(*multiplier_operator(prob), lattice.size, start=start)
        values.append(triplet.value)
        start, previous = triplet.right, lattice
    return values


def _dual(values: np.ndarray, r: float) -> np.ndarray:
    """Duality map |w|^(r-2) w, w = values / max|values|, as (|values| / max)^(r-2)
    / max * values, from one |values| scaled in place; zeros stay 0 (0.0 ** (r-2) = inf)."""
    magnitude = np.abs(values)
    scale = np.max(magnitude)
    magnitude /= scale
    np.power(magnitude, r - 2.0, out=magnitude, where=magnitude > 0.0)
    magnitude /= scale
    return magnitude * values


def multiplier_norm_lp(prob: MultiplierProblem) -> float:
    """Lower bound of the multiplier norm for any (p, q) by Boyd's power method.

    One loop: step 0 is x = lift(s, E), E the all-ones field (the classical
    certificate), and each of BOYD_STEPS more is ``x <- analyze(dual_p'(synthesize(
    rmatvec(analyze(dual_q(A x))))))``, at p = q = 2 power iteration on A^H A.  Each
    x = lift(s, f) is scored by |f*u|_{H^(-t)_q} / |f|_{H^s_p} on N = ``prob.points``
    nodes per axis, and the best x and A x are kept; those of their two norms that
    ``prob.exact_on_grid`` does not clear are redone by :func:`_half_shift_norm`.
    Returns max(start ratio, the smaller of the best's N-node and re-checked ratios).
    """
    lattice, points = prob.u.lattice, prob.points
    if not np.any(prob.u.coeffs):
        return 0.0
    p, q, p_conj = float(prob.p), float(prob.q), float(conjugate_exponent(prob.p))
    matvec, rmatvec = multiplier_operator(prob)
    x, best = lift(float(prob.s), constant_field(lattice)), -1.0
    for step in range(BOYD_STEPS + 1):
        if step:
            dual = analyze(GridFunction._owned(_dual(samples.samples, q)), lattice)
            source = synthesize(SpectralField._owned(lattice, rmatvec(dual.coeffs)), points)
            x = analyze(GridFunction._owned(_dual(source.samples, p_conj)), lattice)
        # u != 0 and each x pairs positively with the adjoint image it came from: no zero norm
        denominator = lp_norm(synthesize(x, points), p)
        image = SpectralField._owned(lattice, matvec(x.coeffs))
        samples = synthesize(image, points)
        numerator = lp_norm(samples, q)
        ratio = numerator / denominator
        start = ratio if step == 0 else start
        if ratio > best:
            best, best_x, best_image, norms = ratio, x, image, (numerator, denominator)
    numerator, denominator = norms
    if not prob.exact_on_grid(q):  # the re-check
        numerator = _half_shift_norm(best_image, points, q, numerator)
    if not prob.exact_on_grid(p):
        denominator = _half_shift_norm(best_x, points, p, denominator)
    return max(start, min(best, numerator / denominator))


def _half_shift_norm(field: SpectralField, points: int, r: float, norm: float) -> float:
    """L^r norm of ``field`` by the mean of its N-node rectangle sum, of norm ``norm`` > 0,
    and the sum on nodes shifted by pi/N per axis, coefficient k times exp(i pi sum(k)/N):
    the shift flips the sign of the leading alias terms (Trefethen & Weideman, SIAM Rev.
    56, 2014), and at n = 1 the mean is the 2N rule.  Combined relative to the larger norm."""
    shift = np.exp(1j * np.pi / points * field.lattice.indices.sum(axis=1)) * field.coeffs
    shifted = lp_norm(synthesize(SpectralField._owned(field.lattice, shift), points), r)
    large = max(norm, shifted)
    return large * ((1.0 + (min(norm, shifted) / large) ** r) / 2.0) ** (1.0 / r)


def intersection_norm(
    u: SpectralField,
    s: float,
    p: float,
    t: float,
    q: float,
    grid_points: int | None = None,
) -> float:
    """max(|u|_{H^(-t)_q}, |u|_{H^(-s)_p'}) with p' the conjugate of p."""
    return max(_intersection_terms(u, s, p, t, q, grid_points))


def _intersection_terms(u, s, p, t, q, grid_points) -> tuple:
    p_conj = float(conjugate_exponent(p))
    return (
        hs_norm(u, SpaceIndex(-float(t), float(q)), grid_points),
        hs_norm(u, SpaceIndex(-float(s), p_conj), grid_points),
    )


def equivalence_report(
    prob: MultiplierProblem,
    radii: Sequence[int] | None = None,
    force: bool = False,
    family_seed: int = 0,
) -> MultiplierReport:
    """Multiplier norm vs intersection norm, with a radius-refinement trace.

    Refuses instances whose index hypotheses fail unless ``force`` is given.
    ``radii`` lists truncation radii, each a lattice radius at most u's, at
    which the multiplier norm is recomputed on the restricted field; all are
    checked before any solve, and headline figures come from the largest.  The
    norm is :func:`multiplier_norm_l2` at p = q = 2 and Boyd's lower bound
    :func:`multiplier_norm_lp` otherwise.  At p = q = 2 each radius after the
    smallest starts Lanczos on A^H A (:func:`top_singular_value`) from the previous
    radius's top right vector, zero-padded, so its value
    may differ from an isolated :func:`multiplier_norm_l2` in the last bits; the
    smallest radius, and so a single-radius report, does not.
    The classical lower-bound certificate ``|u|_{H^(-t)_q} / |E|_{H^s_p}`` is
    checked against the reported norm, and unless p = q = 2 it is the floor of the
    largest radius's bound.  ``family_seed`` is ignored.
    """
    del family_seed
    verdict = strichartz_case(prob.s, prob.t, prob.p, prob.q, prob.n)
    if not verdict.holds and not force:
        raise HypothesisError(f"index hypotheses fail: {verdict.detail}")
    if not np.any(prob.u.coeffs):
        raise ValueError("multiplier field is identically zero")

    radii = (prob.u.lattice.radius,) if radii is None else radii
    fields = {u.lattice.radius: u for u in (restrict_field(prob.u, r) for r in radii)}
    if not fields:
        raise ValueError("at least one radius is required")

    exact = float(prob.p) == 2.0 and float(prob.q) == 2.0
    restricted = [replace(prob, u=fields[r]) for r in sorted(fields)]
    norms = _refine_l2(restricted) if exact else list(map(multiplier_norm_lp, restricted))
    top_radius, norm, top = max(fields), norms[-1], restricted[-1]

    target_norm, dual_norm = _intersection_terms(top.u, top.s, top.p, top.t, top.q, top.points)
    inter = max(target_norm, dual_norm)
    if inter == 0.0:
        raise ValueError(f"restriction to radius {top_radius} is zero; ratio undefined")
    source = SpaceIndex(float(prob.s), float(prob.p))
    certificate = target_norm / hs_norm(constant_field(top.u.lattice), source, top.points)
    if certificate > norm * (1.0 + 1e-12):
        raise RuntimeError(f"lower-bound certificate {certificate} exceeds multiplier norm {norm}")
    if not exact:  # the constant field's ratio bounds the norm too: the bound's floor
        norms[-1] = norm = max(norm, certificate)

    return MultiplierReport(
        n=prob.n,
        radius=top_radius,
        s=float(prob.s),
        t=float(prob.t),
        p=float(prob.p),
        q=float(prob.q),
        multiplier_norm=norm,
        exact=exact,
        intersection_norm=inter,
        ratio=norm / inter,
        lower_bound_certificate=certificate,
        refinement=tuple(zip(sorted(fields), norms)),
    )
