"""Lifting operator, H^s_p norms, distribution action, duality, and products.

The lifting operator multiplies coefficients by the Bessel weight
``(1 + |k|^2)^(s/2)`` (|k| Euclidean).  It is an exact bijection on truncated
fields, forms a semigroup in s, and carries H^s_p isometrically onto
H^(s-a)_p.  Norms for p = 2 use the closed coefficient form; other p go
through synthesis and grid quadrature.  Products convolve by zero-padded FFT,
or by an exact shift when one factor is a scaled basis field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (
    Lattice,
    SpectralField,
    TWO_PI,
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


def bessel_weights(s: float, lattice: Lattice) -> np.ndarray:
    """Bessel weights (1 + |k|^2)^(s/2), |k| the Euclidean norm, for every
    lattice index, in enumeration order."""
    return (1.0 + lattice.norms_sq) ** (s / 2.0)


def lift(s: float, u: SpectralField) -> SpectralField:
    """Apply the lifting operator of order s: multiply coefficient k by the
    Bessel weight (1 + |k|^2)^(s/2).

    Every basis field is an eigenvector with that weight as eigenvalue;
    lift(0, .) is the identity and lift(-s, .) inverts lift(s, .).
    """
    return SpectralField._owned(u.lattice, bessel_weights(s, u.lattice) * u.coeffs)


def default_grid_points(lattice: Lattice) -> int:
    return 2 * lattice.side


def hs_norm(u: SpectralField, index: SpaceIndex, grid_points: int | None = None) -> float:
    """Norm of u in H^s_p: the L_p norm of the order-s lift of u.

    For p = 2 this is computed in the closed coefficient form
    sqrt(sum_k (1 + |k|^2)^s |coeff_k|^2); for other p the lifted field is
    synthesized on a uniform grid (default 2*(2R+1) points per axis) and the
    rectangle-rule L_p norm is taken.
    """
    p = float(index.p)
    if p == 2.0:
        weights = bessel_weights(float(index.s), u.lattice)
        total = tree_sum(weights * weights * np.abs(u.coeffs) ** 2)
        return float(np.sqrt(total))
    N = default_grid_points(u.lattice) if grid_points is None else grid_points
    return lp_norm(synthesize(lift(float(index.s), u), N), p)


def action(u: SpectralField, f: SpectralField) -> complex:
    """Value of the distribution u on the smooth test function f.

    Equals sum_k coeff_k(u) * coeff_{-k}(f); index negation reverses the
    lattice enumeration, so the pairing is a reversed dot product.
    """
    _require_same_lattice(u, f)
    return complex(tree_sum(u.coeffs * f.coeffs[::-1]))


def duality_pair(u: SpectralField, v: SpectralField, s: float = 0.0) -> complex:
    """Duality pairing of u in H^(-s)_p' against v in H^s_p.

    Defined as the L_2 pairing of the order(-s) lift of u with the order-s
    lift of v; the two real weights cancel coefficientwise, so the value is
    computed in the cancelled form sum_k coeff_k(u) * conj(coeff_k(v)) and is
    exactly independent of s.  The argument is kept for interface clarity.
    """
    del s
    _require_same_lattice(u, v)
    return complex(tree_sum(u.coeffs * np.conj(v.coeffs)))


def _convolver(a: np.ndarray, shape: tuple, window: slice):
    """Cyclic convolution with ``a`` at length ``shape``: the map ``b ->
    ifftn(FFT(a) * fftn(b, shape))``, with FFT(a) taken once, over the trailing
    ``a.ndim`` axes of b, cut to ``window`` on each.  Each axis is cut right after
    its inverse transform, in ``ifftn``'s order, so later axes transform only the
    kept lines, bit for bit.  A length of at least the two extents summed minus
    one per axis wraps nothing."""
    axes = tuple(range(-a.ndim, 0))
    spectrum = np.fft.fftn(a, shape, axes)

    def convolve(b: np.ndarray) -> np.ndarray:
        out = spectrum * np.fft.fftn(b, shape, axes)
        for axis in reversed(axes):
            out = np.fft.ifft(out, axis=axis)[(..., window) + (slice(None),) * (-1 - axis)]
        return out

    return convolve


def _linear_convolve(a: np.ndarray, b: np.ndarray, window: slice) -> np.ndarray:
    """Linear convolution of two equal-shape coefficient cubes, cut to ``window``
    on each axis of the full ``(2*side-1,)*n`` result: the other cube shifted and
    scaled, exactly, when one cube has a single nonzero (a scaled basis field);
    otherwise :func:`_convolver` at length 2*side-1."""
    side = a.shape[0]
    full = (2 * side - 1,) * a.ndim
    nonzero_a, nonzero_b = np.flatnonzero(a), np.flatnonzero(b)
    if len(nonzero_a) != 1 and len(nonzero_b) != 1:
        return _convolver(a, full, window)(b)
    if len(nonzero_a) == 1:  # ravel, not flat: the flat iterator takes at most 32 axes
        position, product = nonzero_a[0], a.ravel()[nonzero_a[0]] * b
    else:
        position, product = nonzero_b[0], a * b.ravel()[nonzero_b[0]]
    start, stop, _ = window.indices(full[0])
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
    one nonzero coefficient shifts the other exactly; other pairs use an FFT.
    """
    _require_same_lattice(f, u)
    lattice = f.lattice
    if exact:
        lattice, window = make_lattice(lattice.n, 2 * lattice.radius), slice(None)
    else:
        window = slice(lattice.radius, lattice.radius + lattice.side)
    product = _linear_convolve(f.cube(), u.cube(), window)
    return SpectralField._owned(lattice, (TWO_PI ** (-lattice.n / 2.0) * product).ravel())
