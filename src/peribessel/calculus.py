"""Lifting operator, H^s_p norms, the duality pairing, and products.

The lifting operator multiplies coefficients by the Bessel weight
``(1 + |k|^2)^(s/2)`` (|k| Euclidean).  It is an exact bijection on truncated
fields, forms a semigroup in s, and carries H^s_p isometrically onto
H^(s-a)_p.  Norms for p = 2 are the l2 norm of the lifted coefficients; other p
go through synthesis and grid quadrature.  Products convolve by zero-padded FFT,
or by an exact shift when one factor is a scaled basis field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (
    Lattice,
    SpectralField,
    TWO_PI,
    _deterministic_norm,
    _require_same_lattice,
    lp_norm,
    make_lattice,
    synthesize,
    tree_sum,
)


@dataclass(frozen=True)
class SpaceIndex:
    """Names the space H^s_p: smoothness s and integrability p."""

    s: float
    p: float

    def __post_init__(self):
        if not np.isfinite(self.s):
            raise ValueError(f"smoothness index must be finite, got {self.s}")
        if not 1.0 <= self.p < np.inf:
            raise ValueError(f"integrability index must satisfy 1 <= p < inf, got {self.p}")


def _refuse_overflowing_order(s: float, n: int, radius: int):
    """Refuse (ValueError) an s whose Bessel weight at k = (R, ..., R), the largest on the
    (n, R) lattice if s > 0, overflows: an inf weight on a zero coefficient is NaN."""
    with np.errstate(over="ignore"):
        corner = (1.0 + np.full(1, float(n * radius**2))) ** (s / 2.0)
    if corner[0] == np.inf:
        raise ValueError(
            f"smoothness index {s} overflows the Bessel weight (1 + |k|^2)^(s/2) "
            f"at |k|^2 = {n * radius ** 2}"
        )


def bessel_weights(s: float, lattice: Lattice) -> np.ndarray:
    """Bessel weights (1 + |k|^2)^(s/2), |k| the Euclidean norm, for every
    lattice index, in enumeration order; :func:`_refuse_overflowing_order` refuses
    an s whose largest one overflows.  A NaN s gives NaN weights, which callers refuse."""
    _refuse_overflowing_order(s, lattice.n, lattice.radius)
    return (1.0 + lattice.norms_sq) ** (s / 2.0)


def lift(s: float, u: SpectralField) -> SpectralField:
    """Apply the lifting operator of order s: multiply coefficient k by the
    Bessel weight (1 + |k|^2)^(s/2).

    Every basis field is an eigenvector with that weight as eigenvalue;
    lift(0, .) is the identity and lift(-s, .) inverts lift(s, .).  An overflow
    raises FloatingPointError; a NaN s gives NaN coefficients, which are refused.
    """
    with np.errstate(over="raise"):
        return SpectralField._owned(u.lattice, bessel_weights(s, u.lattice) * u.coeffs)


def default_grid_points(lattice: Lattice) -> int:
    return 2 * lattice.side


def hs_norm(u: SpectralField, index: SpaceIndex, grid_points: int | None = None) -> float:
    """Norm of u in H^s_p: the L_p norm of the order-s lift of u.

    For p = 2 this is the l2 norm of the lifted coefficients, sqrt(sum_k (1 + |k|^2)^s
    |coeff_k|^2), taken relative to their largest modulus if the sum over- or underflows,
    and inf if a lifted coefficient does; for other p the lifted field is synthesized on a
    uniform grid (default 2*(2R+1) points per axis) and the rectangle-rule L_p norm is taken.
    """
    p = float(index.p)
    if p == 2.0:
        with np.errstate(over="ignore"):
            return _deterministic_norm(bessel_weights(float(index.s), u.lattice) * np.abs(u.coeffs))
    N = default_grid_points(u.lattice) if grid_points is None else grid_points
    return lp_norm(synthesize(lift(float(index.s), u), N), p)


def duality_pair(u: SpectralField, v: SpectralField) -> complex:
    """Duality pairing of u in H^(-s)_p' against v in H^s_p, for every s.

    The L_2 pairing of lift(-s, u) with lift(s, v): the real weights cancel, so it is
    sum_k coeff_k(u) * conj(coeff_k(v)) at every s, inf or NaN (no warning) if that
    overflows.  The action of u on a test function f, sum_k coeff_k(u) coeff_{-k}(f),
    is ``duality_pair(u, conj_field(f))``.
    """
    _require_same_lattice(u, v)
    with np.errstate(over="ignore", invalid="ignore"):
        return complex(tree_sum(u.coeffs * np.conj(v.coeffs)))


def _fast_length(m: int) -> int:
    """The least 7-smooth integer >= m: numpy's FFT is several times slower at a
    length with a large prime factor.  Each odd 7-smooth part is doubled up to m."""
    best, odd7 = 1 << max(m - 1, 0).bit_length(), 1
    while odd7 < best:
        odd5 = odd7
        while odd5 < best:
            odd3 = odd5
            while odd3 < best:
                best = min(best, odd3 << (-(-m // odd3) - 1).bit_length())
                odd3 *= 3
            odd5 *= 5
        odd7 *= 7
    return best


def _convolver(a: np.ndarray, shape: tuple, window: slice):
    """Cyclic convolution with ``a`` at length ``shape``: the map ``b ->
    ifftn(FFT(a) * fftn(b, shape))``, with FFT(a) taken once, over the trailing
    ``a.ndim`` axes of b, cut to ``window`` on each.  b is transformed by ``fftn``'s
    one-axis calls, last axis first, and multiplied in place, FFT(a) the first operand
    (with FMA, complex a*b and b*a can differ in the last bit).  Each axis is cut right
    after its inverse transform, in ``ifftn``'s order, so later axes transform only the
    kept lines, bit for bit.  A length of at least the two extents summed minus one per
    axis wraps nothing; callers round it up by :func:`_fast_length`: only rounding changes."""
    axes = tuple(range(-a.ndim, 0))
    spectrum = np.fft.fftn(a, shape, axes)

    def convolve(b: np.ndarray) -> np.ndarray:
        for axis in reversed(axes):
            b = np.fft.fft(b, shape[axis], axis)
        out = np.multiply(spectrum, b, out=b)
        for axis in reversed(axes):
            out = np.fft.ifft(out, axis=axis)[(..., window) + (slice(None),) * (-1 - axis)]
        return out

    return convolve


def _linear_convolve(a: np.ndarray, b: np.ndarray, window: slice) -> np.ndarray:
    """Linear convolution of two equal-shape coefficient cubes, cut to ``window``
    on each axis of the full ``(2*side-1,)*n`` result: the other cube shifted and
    scaled, exactly, when one cube has a single nonzero (a scaled basis field);
    otherwise :func:`_convolver` at length ``_fast_length(2*side-1)``, the same
    for every window, so a truncated product is the exact one's centre bit for bit."""
    side = a.shape[0]
    full = 2 * side - 1
    start, stop, _ = window.indices(full)
    nonzero_a, nonzero_b = np.flatnonzero(a), np.flatnonzero(b)
    if len(nonzero_a) != 1 and len(nonzero_b) != 1:
        return _convolver(a, (_fast_length(full),) * a.ndim, slice(start, stop))(b)
    if len(nonzero_a) == 1:  # ravel, not flat: the flat iterator takes at most 32 axes
        position, product = nonzero_a[0], a.ravel()[nonzero_a[0]] * b
    else:
        position, product = nonzero_b[0], a * b.ravel()[nonzero_b[0]]
    width = stop - start
    out = np.zeros((width,) * a.ndim, dtype=np.complex128)
    shifts = [o - start for o in np.unravel_index(position, a.shape)]
    out[tuple(slice(max(d, 0), min(d + side, width)) for d in shifts)] += product[
        tuple(slice(max(-d, 0), min(side, width - d)) for d in shifts)
    ]
    return out


def pointwise_product(
    f: SpectralField, u: SpectralField, exact: bool = False
) -> SpectralField:
    """Product f * u of a smooth factor f with the distribution u.

    In coefficients this is the discrete convolution
    ``coeff_l(f*u) = (2*pi)^(-n/2) * sum_k coeff_k(f) * coeff_{l-k}(u)``.
    By default the result is truncated back to the input radius (closing the
    model); with ``exact=True`` the full convolution is kept on a lattice of
    radius 2R, where it matches dealiased grid multiplication.  A factor with
    one nonzero coefficient shifts the other exactly; other pairs use an FFT of
    the least 7-smooth length >= 4R+1 per axis, the same in either mode.  An
    overflow raises FloatingPointError.
    """
    _require_same_lattice(f, u)
    lattice = f.lattice
    if exact:
        lattice, window = make_lattice(lattice.n, 2 * lattice.radius), slice(None)
    else:
        window = slice(lattice.radius, lattice.radius + lattice.side)
    with np.errstate(over="raise"):
        product = _linear_convolve(f.cube(), u.cube(), window)
    return SpectralField._owned(lattice, (TWO_PI ** (-lattice.n / 2.0) * product).ravel())
