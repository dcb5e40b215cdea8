"""Multiplier norms between H^s_p and H^(-t)_q on the truncated model.

The multiplication operator ``f -> f*u`` is a weighted convolution in lifted
coefficients, applied matrix-free through zero-padded FFTs.  For p = q = 2 its
norm is the top singular value from Golub-Kahan-Lanczos bidiagonalization,
stopped once the Ritz residual is at most 1e-12 of the Ritz value; the solver
returns the whole triplet, and a refinement warm-starts each radius from the
previous radius's right vector.  For general
(p, q) a lower bound is reported: the best norm ratio along a fixed number of
steps of Boyd's power method (Boyd, LAA 9, 1974; Higham, Numer. Math. 62, 1992),
started from the all-ones field, so the classical ``|u|_{H^(-t)_q} / |E|_{H^s_p}``
certificate is its first step.  The best iterate's norms are re-checked on 2N
nodes per axis unless N nodes integrate them exactly; none is at p, q in {2, 4}.
``MultiplierProblem(..., grid_points=None)`` sets N, by default 2(2R+1).
"""

from __future__ import annotations

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
    analyze,
    conj_field,
    constant_field,
    lp_norm,
    restrict_field,
    synthesize,
    tree_sum,
)

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
            f"Golub-Kahan-Lanczos did not converge in {iterations} steps "
            f"(achieved relative residual {residual:.3e})"
        )


class HypothesisError(ValueError):
    """The Strichartz-type index hypotheses are not satisfied."""


@dataclass(frozen=True)
class MultiplierProblem:
    """One multiplier-norm instance: u acting from H^s_p into H^(-t)_q.

    The target smoothness is -t with t >= 0 stored explicitly; u's lattice is
    fixed for the whole problem.  ``grid_points`` is the quadrature grid N per
    axis of every p != 2 norm: an int, or None for 2(2R+1).  Unless p = q = 2, an
    N below 2R+1 or a largest grid (2N where Boyd's re-check runs, else N) over
    ``lattice.MAX_COEFFICIENTS`` points is refused too.
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
        N = self.grid_points
        if N is not None:
            if isinstance(N, bool) or not isinstance(N, (int, np.integer)):
                raise ValueError(f"grid_points must be an integer or None, got {N!r}")
            object.__setattr__(self, "grid_points", int(N))
        if self.p == 2 and self.q == 2:
            return
        N, n, limit, side = self.points, self.n, _lattice.MAX_COEFFICIENTS, self.u.lattice.side
        if N < side:
            raise ValueError(f"grid too small: need at least {side} points per axis, got {N}")
        if N**n > limit:
            raise ValueError(f"quadrature grid {N}^{n} exceeds {limit} points")
        if not (self.exact_on_grid(self.p) and self.exact_on_grid(self.q)) and (2 * N) ** n > limit:
            raise ValueError(f"Boyd's 2N re-check grid {2 * N}^{n} exceeds {limit} points")

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


def _deterministic_norm(vector: np.ndarray) -> float:
    return float(np.sqrt(np.real(tree_sum(np.abs(vector) ** 2))))


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

        def apply(v: np.ndarray) -> np.ndarray:
            cubes = (source * v).reshape(v.shape[:-1] + lattice.shape)
            return target * convolve(cubes).reshape(v.shape)

        return apply

    return side(prob.u, prob.s, prob.t), side(conj_field(prob.u), prob.t, prob.s)


def _orthogonalize(vector: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Remove the components along the orthonormal rows of ``rows``."""
    if not len(rows):
        return vector
    coefficients = tree_sum(np.conj(rows) * vector, axis=1)
    return vector - tree_sum(coefficients[:, None] * rows, axis=0)


def _store(rows: np.ndarray, k: int, vector: np.ndarray) -> np.ndarray:
    """Write ``vector`` as row k of ``rows``, doubling the row count when full."""
    if k == len(rows):
        rows = np.concatenate([rows, np.empty_like(rows)])
    rows[k] = vector
    return rows


@dataclass(frozen=True)
class SingularTriplet:
    """What :func:`top_singular_value` found: the Ritz value, its unit left and
    right Ritz vectors, the relative Ritz residual and the GKL step count."""

    value: float
    left: np.ndarray
    right: np.ndarray
    residual: float
    steps: int


def _combine(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_j weights[j] rows[j]`` by one tree sum; scales ``rows`` in place."""
    rows *= weights[:, None]
    return tree_sum(rows, axis=0)


def top_singular_value(matvec, rmatvec, size: int,
                       start: np.ndarray | None = None) -> SingularTriplet:
    """Top singular triplet by Golub-Kahan-Lanczos bidiagonalization.

    Seeded random start (Kuczynski & Wozniakowski, SIMAX 13, 1992), full
    reorthogonalization.  After k steps A V_k = U_k B_k; for the top triplet
    (sigma, x, y) of B_k, A^H U_k x - sigma V_k y = beta_k x_k v_{k+1}, so the
    Ritz value sigma (a lower bound) is returned once |beta_k x_k| <=
    GKL_TOLERANCE * sigma, as a :class:`SingularTriplet` with U_k x and V_k y.
    That holds within ``size`` steps in exact arithmetic; failing it at step
    ``size`` raises ConvergenceError.  A ``start`` vector (a warm start) is
    normalised and mixed with GKL_WARM_MIX times the seeded one, so a start
    orthogonal to the top right vector still finds it.  All reductions are
    fixed-order tree sums, so the result does not depend on the thread count.
    """
    rng = np.random.default_rng(GKL_SEED)
    seeded = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    first = seeded / _deterministic_norm(seeded)
    if start is not None:
        start = np.asarray(start, dtype=np.complex128)
        scale = _deterministic_norm(start) if start.shape == (size,) else 0.0
        if not 0.0 < scale < np.inf:
            raise ValueError(f"start must be a finite nonzero vector of length {size}")
        first = start / scale + GKL_WARM_MIX * first
        first /= _deterministic_norm(first)
    right, left = np.empty((2, 8, size), dtype=np.complex128)  # row blocks, see _store
    right[0] = first
    alphas, betas = [], []
    beta = sigma = residual = 0.0
    for k in range(size):
        w = matvec(right[k]) - (beta * left[k - 1] if k else 0.0)
        w = _orthogonalize(w, left[:k])
        alphas.append(_deterministic_norm(w))
        beta = 0.0
        # an exact zero w is stored as it is, so U_k x stays finite
        left = _store(left, k, w / alphas[-1] if alphas[-1] > 0.0 else w)
        if alphas[-1] > 0.0:
            w = _orthogonalize(rmatvec(left[k]) - alphas[-1] * right[k], right[: k + 1])
            beta = _deterministic_norm(w)
        x, sigmas, vh = np.linalg.svd(np.diag(alphas) + np.diag(betas, 1))
        sigma, residual = float(sigmas[0]), beta * abs(float(x[-1, 0]))
        if residual <= GKL_TOLERANCE * sigma:
            return SingularTriplet(
                value=sigma,
                left=_combine(left[: k + 1], x[:, 0]),
                right=_combine(right[: k + 1], np.conj(vh[0])),
                residual=residual / sigma if sigma > 0.0 else 0.0,
                steps=k + 1,
            )
        betas.append(beta)
        right = _store(right, k + 1, w / beta)
    raise ConvergenceError(size, residual / sigma if sigma > 0.0 else np.inf)


def multiplier_norm_l2(prob: MultiplierProblem) -> float:
    """Exact multiplier norm for p = q = 2: the top singular value of
    :func:`multiplier_operator`, by :func:`top_singular_value` from its seeded start."""
    if not (prob.p == 2 and prob.q == 2):
        raise ValueError("the exact multiplier norm requires p = q = 2")
    return top_singular_value(*multiplier_operator(prob), prob.u.lattice.size).value


def _zero_pad(vector: np.ndarray, lattice: _lattice.Lattice, target: _lattice.Lattice):
    """A coefficient vector on ``lattice``, zero-padded onto the larger ``target``."""
    offset = target.radius - lattice.radius
    padded = np.zeros(target.shape, dtype=np.complex128)
    padded[(slice(offset, offset + lattice.side),) * target.n] = vector.reshape(lattice.shape)
    return padded.ravel()


def _refine_l2(problems: list) -> list:
    """The p = q = 2 norm of each problem, on lattices of ascending radius: the
    first from the seeded start, each later one warm-started from the previous
    top right vector, zero-padded onto its larger lattice."""
    values, start = [], None
    for prob in problems:
        lattice = prob.u.lattice
        if start is not None:
            start = _zero_pad(start, previous, lattice)
        triplet = top_singular_value(*multiplier_operator(prob), lattice.size, start=start)
        values.append(triplet.value)
        start, previous = triplet.right, lattice
    return values


def _ratio(prob: MultiplierProblem, matvec, x: SpectralField, points: int, *,
           image: SpectralField | None = None, norms=(None, None)) -> tuple:
    """Ratio |f*u|_{H^(-t)_q} / |f|_{H^s_p} on ``points`` nodes per axis for the test
    field f with ``x = lift(s, f)``, the samples (or None) and coefficients ``image`` of
    lift(-t, f*u), and the ``norms`` (numerator, denominator); given ones are reused."""
    (numerator, denominator), samples = norms, None
    if denominator is None:
        denominator = lp_norm(synthesize(x, points), float(prob.p))
    if denominator == 0.0:
        raise ValueError("test field has zero source-space norm")
    image = SpectralField._owned(x.lattice, matvec(x.coeffs)) if image is None else image
    if numerator is None:
        samples = synthesize(image, points)
        numerator = lp_norm(samples, float(prob.q))
    return numerator / denominator, samples, image, (numerator, denominator)


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

    From x = lift(s, E), E the all-ones field (the classical certificate), take
    BOYD_STEPS steps ``x <- analyze(dual_p'(synthesize(rmatvec(analyze(dual_q(A x))))))``;
    at p = q = 2 that is power iteration on A^H A.  Returns max(start ratio, best
    iterate's smaller ratio on N = ``prob.points`` and 2N nodes per axis).  The 2N
    ratio redoes only the norms that ``prob.exact_on_grid`` does not clear.
    """
    lattice, points = prob.u.lattice, prob.points
    if not np.any(prob.u.coeffs):
        return 0.0
    q, p_conj = float(prob.q), float(conjugate_exponent(prob.p))
    matvec, rmatvec = multiplier_operator(prob)
    step = _ratio(prob, matvec, lift(float(prob.s), constant_field(lattice)), points)
    start, best = step[0], (-1.0,)
    for _ in range(BOYD_STEPS):
        dual = analyze(GridFunction._owned(_dual(step[1].samples, q)), lattice)
        source = synthesize(SpectralField._owned(lattice, rmatvec(dual.coeffs)), points)
        x = analyze(GridFunction._owned(_dual(source.samples, p_conj)), lattice)
        step = _ratio(prob, matvec, x, points)
        if step[0] > best[0]:
            best, best_x = step, x
    ratio, _, image, norms = best
    norms = [norm if prob.exact_on_grid(r) else None for norm, r in zip(norms, (q, prob.p))]
    if None in norms:  # the 2N re-check
        ratio = min(ratio, _ratio(prob, matvec, best_x, 2 * points, image=image, norms=norms)[0])
    return max(start, ratio)


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
    smallest starts GKL from the previous radius's top right vector, so its value
    may differ from an isolated :func:`multiplier_norm_l2` in the last bits; the
    smallest radius, and so a single-radius report, does not.
    The classical lower-bound certificate ``|u|_{H^(-t)_q} / |E|_{H^s_p}`` is
    checked against the reported norm.  ``family_seed`` is ignored.
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
    norms = _refine_l2(restricted) if exact else map(multiplier_norm_lp, restricted)
    refinement = tuple(zip(sorted(fields), norms))
    (top_radius, norm), top = refinement[-1], restricted[-1]

    target_norm, dual_norm = _intersection_terms(top.u, top.s, top.p, top.t, top.q, top.points)
    inter = max(target_norm, dual_norm)
    if inter == 0.0:
        raise ValueError(f"restriction to radius {top_radius} is zero; ratio undefined")
    source = SpaceIndex(float(prob.s), float(prob.p))
    certificate = target_norm / hs_norm(constant_field(top.u.lattice), source, top.points)
    if certificate > norm * (1.0 + 1e-12):
        raise RuntimeError(f"lower-bound certificate {certificate} exceeds multiplier norm {norm}")

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
        refinement=refinement,
    )
