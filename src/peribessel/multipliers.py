"""Multiplier norms between H^s_p and H^(-t)_q on the truncated model.

The multiplication operator ``f -> f*u`` is a weighted convolution in lifted
coefficients, applied matrix-free through zero-padded FFTs.  For p = q = 2 its
norm is the top singular value from Golub-Kahan-Lanczos bidiagonalization,
stopped once the Ritz residual is at most 1e-12 of the Ritz value.  For general
(p, q) a lower bound is reported: the best norm ratio along a fixed number of
steps of Boyd's power method (Boyd, LAA 9, 1974; Higham, Numer. Math. 62, 1992),
started from the all-ones field, so the classical ``|u|_{H^(-t)_q} / |E|_{H^s_p}``
certificate is its first step.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from .calculus import SpaceIndex, _convolver, bessel_weights, default_grid_points, hs_norm, lift
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
    fixed for the whole problem.
    """

    u: SpectralField
    s: float
    t: float
    p: float
    q: float

    def __post_init__(self):
        if not (0 <= self.s < np.inf and 0 <= self.t < np.inf):
            raise ValueError(f"smoothness indices must be finite and >= 0, got {self.s}, {self.t}")
        for name, value in (("p", self.p), ("q", self.q)):
            if not 1 < value < np.inf:
                raise ValueError(f"{name} must lie in (1, inf), got {value}")

    @property
    def n(self) -> int:
        return self.u.lattice.n


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
    window_R(u conv (W_{-s} v))``, W_a the Bessel weights, cyclic of length 3R+1
    per axis (the least at which nothing wraps into the window), FFT(u) taken
    once.  ``rmatvec`` is the adjoint: the same for conj(u), s and t swapped.
    Either also maps a stack of vectors, shape ``(..., size)``, one vector at a time.
    """
    lattice = prob.u.lattice
    padded = (3 * lattice.radius + 1,) * lattice.n
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


def top_singular_value(matvec, rmatvec, size: int) -> float:
    """Largest singular value by Golub-Kahan-Lanczos bidiagonalization.

    Seeded random start (Kuczynski & Wozniakowski, SIMAX 13, 1992), full
    reorthogonalization.  After k steps A V_k = U_k B_k; for the top triplet
    (sigma, x, y) of B_k, A^H U_k x - sigma V_k y = beta_k x_k v_{k+1}, so the
    Ritz value sigma (a lower bound) is returned once |beta_k x_k| <=
    GKL_TOLERANCE * sigma.  That holds within ``size`` steps in exact arithmetic;
    failing it at step ``size`` raises ConvergenceError.  All reductions are
    fixed-order tree sums, so the result does not depend on the thread count.
    """
    rng = np.random.default_rng(GKL_SEED)
    start = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    right, left = np.empty((2, 8, size), dtype=np.complex128)  # row blocks, see _store
    right[0] = start / _deterministic_norm(start)
    alphas, betas = [], []
    beta = sigma = residual = 0.0
    for k in range(size):
        w = matvec(right[k]) - (beta * left[k - 1] if k else 0.0)
        w = _orthogonalize(w, left[:k])
        alphas.append(_deterministic_norm(w))
        beta = 0.0
        if alphas[-1] > 0.0:
            left = _store(left, k, w / alphas[-1])
            w = _orthogonalize(rmatvec(left[k]) - alphas[-1] * right[k], right[: k + 1])
            beta = _deterministic_norm(w)
        x, sigmas, _ = np.linalg.svd(np.diag(alphas) + np.diag(betas, 1))
        sigma, residual = float(sigmas[0]), beta * abs(float(x[-1, 0]))
        if residual <= GKL_TOLERANCE * sigma:
            return sigma
        betas.append(beta)
        right = _store(right, k + 1, w / beta)
    raise ConvergenceError(size, residual / sigma if sigma > 0.0 else np.inf)


def multiplier_norm_l2(prob: MultiplierProblem) -> float:
    """Exact multiplier norm for p = q = 2: the top singular value of
    :func:`multiplier_operator`, by :func:`top_singular_value`."""
    if not (prob.p == 2 and prob.q == 2):
        raise ValueError("the exact multiplier norm requires p = q = 2")
    return top_singular_value(*multiplier_operator(prob), prob.u.lattice.size)


def _ratio(prob: MultiplierProblem, matvec, x: SpectralField, points: int) -> tuple:
    """Ratio |f*u|_{H^(-t)_q} / |f|_{H^s_p} on ``points`` nodes per axis for the
    test field f with ``x = lift(s, f)``, and the samples of lift(-t, f*u)."""
    denominator = lp_norm(synthesize(x, points), float(prob.p))
    if denominator == 0.0:
        raise ValueError("test field has zero source-space norm")
    image = synthesize(SpectralField._owned(x.lattice, matvec(x.coeffs)), points)
    return lp_norm(image, float(prob.q)) / denominator, image


def _dual(values: np.ndarray, r: float) -> np.ndarray:
    """Duality map |w|^(r-2) w, w = values / max|values|; zeros stay 0 (0.0 ** (r-2) = inf)."""
    w = values / np.max(np.abs(values))
    magnitude = np.abs(w)
    return np.power(magnitude, r - 2.0, out=np.zeros_like(magnitude), where=magnitude > 0.0) * w


def multiplier_norm_lp(prob: MultiplierProblem, grid_points: int | None = None) -> float:
    """Lower bound of the multiplier norm for any (p, q) by Boyd's power method.

    From x = lift(s, E), E the all-ones field (the classical certificate), take
    BOYD_STEPS steps ``x <- analyze(dual_p'(synthesize(rmatvec(analyze(dual_q(A x))))))``;
    at p = q = 2 that is power iteration on A^H A.  Returns max(start ratio, best
    iterate's smaller ratio on N and 2N nodes per axis), N = ``grid_points`` or 2(2R+1).
    """
    lattice = prob.u.lattice
    if not np.any(prob.u.coeffs):
        return 0.0
    points = default_grid_points(lattice) if grid_points is None else grid_points
    q, p_conj = float(prob.q), float(conjugate_exponent(prob.p))
    matvec, rmatvec = multiplier_operator(prob)
    start, image = _ratio(prob, matvec, lift(float(prob.s), constant_field(lattice)), points)
    best, best_x = -1.0, None
    for _ in range(BOYD_STEPS):
        dual = analyze(GridFunction._owned(_dual(image.samples, q)), lattice)
        source = synthesize(SpectralField._owned(lattice, rmatvec(dual.coeffs)), points)
        x = analyze(GridFunction._owned(_dual(source.samples, p_conj)), lattice)
        ratio, image = _ratio(prob, matvec, x, points)
        if ratio > best:
            best, best_x = ratio, x
    return max(start, min(best, _ratio(prob, matvec, best_x, 2 * points)[0]))


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
    grid_points: int | None = None,
    family_seed: int = 0,
) -> MultiplierReport:
    """Multiplier norm vs intersection norm, with a radius-refinement trace.

    Refuses instances whose index hypotheses fail unless ``force`` is given.
    ``radii`` lists truncation radii, each a lattice radius at most u's, at
    which the multiplier norm is recomputed on the restricted field; all are
    checked before any solve, and headline figures come from the largest.  The
    norm is :func:`multiplier_norm_l2` at p = q = 2 and Boyd's lower bound
    :func:`multiplier_norm_lp` otherwise.
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
    solve = multiplier_norm_l2 if exact else partial(multiplier_norm_lp, grid_points=grid_points)
    restricted = [replace(prob, u=fields[r]) for r in sorted(fields)]
    refinement = tuple((sub.u.lattice.radius, solve(sub)) for sub in restricted)
    (top_radius, norm), top = refinement[-1], restricted[-1].u

    target_norm, dual_norm = _intersection_terms(top, prob.s, prob.p, prob.t, prob.q, grid_points)
    inter = max(target_norm, dual_norm)
    if inter == 0.0:
        raise ValueError(f"restriction to radius {top_radius} is zero; ratio undefined")
    source = SpaceIndex(float(prob.s), float(prob.p))
    certificate = target_norm / hs_norm(constant_field(top.lattice), source, grid_points)
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
