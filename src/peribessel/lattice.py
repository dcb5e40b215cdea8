"""Finite spectral model of periodic distributions on the n-torus.

A distribution is represented by its complex coefficients with respect to the
orthonormal exponential basis, truncated to the symmetric box of multi-indices
``{k in Z^n : max_m |k_m| <= R}``.  The basis function with index k takes the
value ``(2*pi)^(-n/2) * exp(i<k, x>)`` on ``[-pi, pi)^n``.  The
``(2*pi)^(n/2)`` factors this normalization brings live in the
synthesis/analysis transforms, in :func:`constant_field` (the all-ones
function), in the product of two fields (``calculus.pointwise_product`` and
the multiplier operator in ``multipliers``) and in the ``dirac`` generator;
nowhere else.

Values are immutable after construction and every operation is a pure
function.  All scalar reductions go through :func:`tree_sum`, a fixed-order
pairwise reduction, so results do not depend on thread count or chunking.
:class:`Lattice` states what a lattice may be, for every lattice the library
builds, an exact product's radius-2R lattice included: at most
:data:`MAX_COEFFICIENTS` coefficients, refused before anything is allocated.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

TWO_PI = 2.0 * np.pi

# Largest lattice or quadrature grid the library allocates: 1 GiB of complex128.
MAX_COEFFICIENTS = 2**26


def tree_sum(values: np.ndarray, axis: int | None = None):
    """Sum an array with a fixed adjacent-pair reduction tree.

    Pairs element 2i with 2i+1 at every level; an odd trailing element is
    copied to the next level unchanged, never added.  The reduction order is
    a pure function of the input length, hence bitwise reproducible regardless
    of parallelism in the surrounding code.  ``axis=None`` sums the flattened
    array; otherwise every line along ``axis`` is reduced by the same tree.
    The levels alternate between two buffers allocated once per call.
    """
    a = np.asarray(values).ravel() if axis is None else np.asarray(values)
    if axis:  # for 2-D arrays swapaxes is moveaxis, at a fraction of its cost
        a = a.swapaxes(0, axis) if a.ndim == 2 else np.moveaxis(a, axis, 0)
    length = len(a)
    if length <= 1:
        return a[0] if length else np.zeros(a.shape[1:], dtype=a.dtype)[()]
    first, dtype = (length + 1) // 2, a.dtype.newbyteorder("=")  # as np.add returns
    out = np.empty((first,) + a.shape[1:], dtype)
    spare = np.empty(((first + 1) // 2,) + a.shape[1:], dtype)
    while length > 1:
        half, odd = divmod(length, 2)
        np.add(a[0 : 2 * half : 2], a[1 : 2 * half : 2], out[:half])
        if odd:
            out[half] = a[length - 1]
        a, out, spare, length = out, spare, out, half + odd
    return a[0].copy()  # a view would keep both buffers alive


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _freeze_finite(array: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(array.view(np.float64))):
        raise ValueError(f"{what} must be finite (no NaN/Inf)")
    return _freeze(array)


@dataclass(frozen=True)
class Lattice:
    """Symmetric box of frequencies ``max_m |k_m| <= radius`` in Z^n.

    ``indices`` enumerates the box lexicographically (first coordinate most
    significant), which makes the enumeration identical across runs and is
    exactly the C-order raveling of the ``(2R+1,)*n`` coefficient cube.
    ``n`` and ``radius`` are integers (numpy integers are stored as ``int``),
    ``1 <= n <= 64`` (numpy's axis limit), ``radius >= 0`` and the box holds at
    most :data:`MAX_COEFFICIENTS` indices; anything else raises ValueError.
    """

    n: int
    radius: int

    def __post_init__(self):
        for name, what in (("n", "dimension"), ("radius", "radius")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{what} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")
        if self.n > 64:  # checked first, so a huge n never reaches the power below
            raise ValueError(f"dimension must be <= 64, numpy's axis limit, got {self.n}")
        # The message names n and R, not the size, which str() refuses past 4300
        # digits; a radius that alone passes the limit is given as a bound.
        if self.radius >= MAX_COEFFICIENTS or self.size > MAX_COEFFICIENTS:
            r = f"={self.radius}" if self.radius < MAX_COEFFICIENTS else f" >= {MAX_COEFFICIENTS}"
            raise ValueError(
                f"lattice (2R+1)^n with n={self.n}, R{r} exceeds {MAX_COEFFICIENTS} coefficients"
            )

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    @property
    def size(self) -> int:
        return self.side ** self.n

    @property
    def shape(self) -> tuple:
        return (self.side,) * self.n

    @cached_property
    def indices(self) -> np.ndarray:
        """All multi-indices as an int64 array of shape (size, n)."""
        axes = np.meshgrid(
            *(np.arange(-self.radius, self.radius + 1, dtype=np.int64),) * self.n,
            indexing="ij",
        )
        return _freeze(np.stack([ax.ravel() for ax in axes], axis=1))

    @cached_property
    def norms_sq(self) -> np.ndarray:
        """``|k|^2`` per index in enumeration order, as float64 (exact integers)."""
        squares = np.arange(-self.radius, self.radius + 1, dtype=np.float64) ** 2
        return _freeze(reduce(np.add.outer, [squares] * self.n).ravel())

    @cached_property
    def signs(self) -> np.ndarray:
        """``(-1)^(sum k)`` per index, as float64: ``exp(i<k, x_j>)`` at ``x_j =
        -pi + 2*pi*j/N`` is this sign times the DFT phase ``exp(2*pi*i <k, j>/N)``."""
        parity = 1.0 - 2.0 * (np.arange(-self.radius, self.radius + 1) % 2)
        return _freeze(reduce(np.multiply.outer, [parity] * self.n).ravel())

    def position(self, k) -> int:
        """Ordinal of multi-index k in the lexicographic enumeration.

        The components are taken as Python ints, so one outside int64 is simply
        outside the lattice; a k that is not n integers raises ValueError too.
        """
        try:
            components = tuple(operator.index(c) for c in k)
        except TypeError:
            components = None
        if components is None or len(components) != self.n:
            raise ValueError(f"expected a multi-index of length {self.n}, got {k!r}")
        if not all(-self.radius <= c <= self.radius for c in components):
            raise ValueError(f"index {components} outside lattice of radius {self.radius}")
        pos = 0
        for c in components:
            pos = pos * self.side + c + self.radius
        return pos

    def contains(self, k) -> bool:
        try:
            self.position(k)
        except ValueError:
            return False
        return True


def make_lattice(n: int, radius: int) -> Lattice:
    """Build the symmetric box lattice of the given dimension and radius."""
    return Lattice(n=n, radius=radius)


@dataclass(frozen=True)
class SpectralField:
    """A truncated periodic distribution: one complex coefficient per index.

    ``coeffs[i]`` is the distributional coefficient at ``lattice.indices[i]``.
    The field represents a real-valued distribution iff the coefficient at -k
    is the conjugate of the one at k, that is, iff ``coeffs`` equals
    ``conj(coeffs[::-1])``; this is a checkable predicate, not an enforced invariant.
    """

    lattice: Lattice
    coeffs: np.ndarray

    def __post_init__(self):
        # a fresh array: freezing it leaves the caller's array, or its base, alone
        coeffs = np.array(self.coeffs, dtype=np.complex128, order="C", ndmin=1)
        if coeffs.shape != (self.lattice.size,):
            raise ValueError(
                f"expected {self.lattice.size} coefficients, got shape {coeffs.shape}"
            )
        object.__setattr__(self, "coeffs", _freeze_finite(coeffs, "coefficients"))

    @classmethod
    def _owned(cls, lattice: Lattice, coeffs: np.ndarray) -> "SpectralField":
        """The field over ``coeffs``, a C-order complex128 vector the library
        has just allocated: checked finite and frozen in place, not copied."""
        field = object.__new__(cls)
        object.__setattr__(field, "lattice", lattice)
        object.__setattr__(field, "coeffs", _freeze_finite(coeffs, "coefficients"))
        return field

    def cube(self) -> np.ndarray:
        """Coefficients reshaped to the (2R+1,)*n cube (lexicographic order)."""
        return self.coeffs.reshape(self.lattice.shape)

    def coefficient(self, k) -> complex:
        return complex(self.coeffs[self.lattice.position(k)])


@dataclass(frozen=True)
class GridFunction:
    """Complex samples of a band-limited function on the uniform tensor grid.

    Node j (per axis) sits at ``x_j = -pi + 2*pi*j/N``, j = 0..N-1.
    """

    samples: np.ndarray

    def __post_init__(self):
        # a fresh array, as in SpectralField; a 0-d input stays 0-d
        samples = np.array(self.samples, dtype=np.complex128, order="C")
        if samples.ndim < 1:
            raise ValueError("samples must have at least one axis")
        if any(length != samples.shape[0] for length in samples.shape):
            raise ValueError(f"grid must be square per axis, got shape {samples.shape}")
        if samples.shape[0] < 1:
            raise ValueError("grid must be nonempty")
        object.__setattr__(self, "samples", _freeze_finite(samples, "samples"))

    @classmethod
    def _owned(cls, samples: np.ndarray) -> "GridFunction":
        """As :meth:`SpectralField._owned`, for square C-order complex128 samples."""
        grid = object.__new__(cls)
        object.__setattr__(grid, "samples", _freeze_finite(samples, "samples"))
        return grid

    @property
    def n(self) -> int:
        return self.samples.ndim

    @property
    def points_per_axis(self) -> int:
        return self.samples.shape[0]


def grid_nodes(points_per_axis: int) -> np.ndarray:
    """1-D sample abscissae x_j = -pi + 2*pi*j/N."""
    return -np.pi + TWO_PI * np.arange(points_per_axis) / points_per_axis


def delta_field(lattice: Lattice, k) -> SpectralField:
    """Field with coefficient 1 at k and 0 elsewhere (one basis distribution)."""
    coeffs = np.zeros(lattice.size, dtype=np.complex128)
    coeffs[lattice.position(k)] = 1.0
    return SpectralField(lattice, coeffs)


def constant_field(lattice: Lattice) -> SpectralField:
    """The regular distribution of the all-ones function.

    Its only nonzero coefficient is ``(2*pi)^(n/2)`` at k = 0, since the
    all-ones function is ``(2*pi)^(n/2)`` times the index-0 basis function.
    """
    coeffs = np.zeros(lattice.size, dtype=np.complex128)
    coeffs[lattice.position((0,) * lattice.n)] = TWO_PI ** (lattice.n / 2.0)
    return SpectralField(lattice, coeffs)


def conj_field(u: SpectralField) -> SpectralField:
    """Field of the complex-conjugate distribution: coeff at k = conj(coeff at -k).

    Negating a multi-index reverses the lexicographic enumeration, so this is
    a conjugated reversal of the coefficient vector.
    """
    return SpectralField(u.lattice, np.conj(u.coeffs[::-1]))


def linear_combine(a, u: SpectralField, b, v: SpectralField) -> SpectralField:
    """Coefficientwise a*u + b*v on a shared lattice."""
    _require_same_lattice(u, v)
    return SpectralField(u.lattice, a * u.coeffs + b * v.coeffs)


def real_part_field(u: SpectralField) -> SpectralField:
    """Projection onto real-valued distributions: (u + conj(u)) / 2."""
    return linear_combine(0.5, u, 0.5, conj_field(u))


def restrict_field(u: SpectralField, radius: int) -> SpectralField:
    """Restriction of the coefficient field to a smaller (or equal) radius."""
    if radius > u.lattice.radius:
        raise ValueError(
            f"cannot restrict radius {u.lattice.radius} field to larger radius {radius}"
        )
    target = make_lattice(u.lattice.n, radius)
    offset = u.lattice.radius - radius
    window = tuple(slice(offset, offset + target.side) for _ in range(u.lattice.n))
    return SpectralField(target, u.cube()[window].ravel())


def _require_same_lattice(u: SpectralField, v: SpectralField):
    if u.lattice != v.lattice:
        raise ValueError(
            f"lattice mismatch: (n={u.lattice.n}, R={u.lattice.radius}) vs "
            f"(n={v.lattice.n}, R={v.lattice.radius})"
        )


def _dft_bins(lattice: Lattice, N: int) -> np.ndarray:
    """DFT bin ``k mod N`` of each lattice frequency along one axis, for N >= 2R+1."""
    if N < lattice.side:
        raise ValueError(f"grid too small: need at least {lattice.side} points per axis, got {N}")
    return np.arange(-lattice.radius, lattice.radius + 1) % N


def synthesize(u: SpectralField, points_per_axis: int) -> GridFunction:
    """Evaluate the field on the uniform grid via inverse FFT.

    samples(x_j) = sum_k coeff_k * (2*pi)^(-n/2) * exp(i<k, x_j>); requires
    points_per_axis >= 2R+1 so every lattice frequency has its own DFT bin.
    Axes go in ``ifftn``'s order, last first, each spread into its bins just
    before its transform, so only lines that carry lattice data are transformed;
    numpy transforms each line on its own, so this is ``ifftn`` bit for bit.
    A grid of more than :data:`MAX_COEFFICIENTS` points, or a ``points_per_axis``
    that is not an integer (a bool included), raises ValueError first.
    """
    N = points_per_axis
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)):
        raise ValueError(f"points_per_axis must be an integer, got {N!r}")
    lattice, N = u.lattice, int(N)
    if N ** lattice.n > MAX_COEFFICIENTS:  # first: numpy cannot take N % beyond int64
        raise ValueError(f"quadrature grid {N}^{lattice.n} exceeds {MAX_COEFFICIENTS} points")
    bins = _dft_bins(lattice, N)
    samples = (u.coeffs * lattice.signs).reshape(lattice.shape)
    for axis in reversed(range(lattice.n)):
        spread = np.zeros(samples.shape[:axis] + (N,) + samples.shape[axis + 1 :], np.complex128)
        spread[(slice(None),) * axis + (bins,)] = samples
        samples = np.fft.ifft(spread, axis=axis)
    samples *= N ** lattice.n
    samples *= TWO_PI ** (-lattice.n / 2.0)
    return GridFunction._owned(samples)


def analyze(g: GridFunction, lattice: Lattice) -> SpectralField:
    """Recover lattice coefficients from grid samples (trapezoidal rule).

    coeff_k = (2*pi)^(n/2) / N^n * sum_j samples(x_j) * exp(-i<k, x_j>); exact
    for inputs band-limited to the lattice when N >= 2R+1.  As in
    :func:`synthesize`, in ``fftn``'s order, each axis cut to its bins after
    its transform: ``fftn`` bit for bit.
    """
    if g.n != lattice.n:
        raise ValueError(f"grid dimension {g.n} != lattice dimension {lattice.n}")
    N = g.points_per_axis
    bins = _dft_bins(lattice, N)
    spectrum = g.samples
    for axis in reversed(range(lattice.n)):
        spectrum = np.fft.fft(spectrum, axis=axis).take(bins, axis)
    scale = TWO_PI ** (lattice.n / 2.0) / (N ** lattice.n)
    return SpectralField._owned(lattice, scale * lattice.signs * spectrum.ravel())


def lp_norm(g: GridFunction, p: float) -> float:
    """Uniform-grid rectangle-rule L_p norm over [-pi, pi)^n.

    Exact in the limit of grid refinement for smooth integrands; for p = 2 and
    band-limited input it reproduces the l2 coefficient norm (Parseval).
    """
    if not 1.0 <= p < np.inf:
        raise ValueError(f"integrability index must satisfy 1 <= p < inf, got {p}")
    weight = (TWO_PI / g.points_per_axis) ** g.n
    magnitude = np.abs(g.samples)
    magnitude **= p  # in place: one grid-sized temporary fewer, the same bits
    total = float(np.real(tree_sum(magnitude)))
    return (weight * total) ** (1.0 / p)
