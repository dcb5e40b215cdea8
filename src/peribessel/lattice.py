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

import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * np.pi

# Largest lattice or quadrature grid the library allocates: 1 GiB of complex128.
MAX_COEFFICIENTS = 2**26
_TINY = np.finfo(float).tiny


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


def _deterministic_norm(vector: np.ndarray) -> float:
    """Tree-summed l2 norm, m |vector / m| (m = max |vector|, if finite) if the sum over- or
    underflows.  It sets no ``np.errstate``: a caller that expects an overflow holds one."""
    total = float(np.real(tree_sum(np.abs(vector) ** 2)))
    if (total == math.inf or total < _TINY) and np.any(vector):  # NaN is kept as it is
        scale = float(np.max(np.abs(vector)))
        return scale * _deterministic_norm(vector / scale) if scale < math.inf else scale
    return math.sqrt(total)  # the bits of np.sqrt, without its scalar overhead


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _finite(array: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(array.view(np.float64)).all():  # ndarray.all: np.all adds a dispatch
        raise ValueError(f"{what} must be finite (no NaN/Inf)")
    return array


def _freeze_finite(array: np.ndarray, what: str) -> np.ndarray:
    return _freeze(_finite(array, what))


def _integer(value, refusal: str) -> int:
    """``value`` as an int if it is a Python or numpy integer but not a bool; else
    ValueError(refusal.format(value)), formatted only then (str() refuses huge ints)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(refusal.format(value))
    return int(value)


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
            value = _integer(getattr(self, name), what + " must be an integer, got {!r}")
            object.__setattr__(self, name, value)
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


def real_part_field(u: SpectralField) -> SpectralField:
    """Projection onto real-valued distributions: u/2 + conj(u)/2, which cannot overflow."""
    return SpectralField._owned(u.lattice, 0.5 * u.coeffs + 0.5 * conj_field(u).coeffs)


def restrict_field(u: SpectralField, radius: int) -> SpectralField:
    """Restriction of the coefficient field to a smaller (or equal) radius; at u's own
    radius, u itself."""
    if radius > u.lattice.radius:
        raise ValueError(
            f"cannot restrict radius {u.lattice.radius} field to larger radius {radius}"
        )
    target = make_lattice(u.lattice.n, radius)
    if target == u.lattice:  # u itself: fields are immutable, and its lattice keeps its caches
        return u
    offset = u.lattice.radius - radius
    window = tuple(slice(offset, offset + target.side) for _ in range(u.lattice.n))
    return SpectralField(target, u.cube()[window].ravel())


def _require_same_lattice(u: SpectralField, v: SpectralField):
    if u.lattice != v.lattice:
        raise ValueError(
            f"lattice mismatch: (n={u.lattice.n}, R={u.lattice.radius}) vs "
            f"(n={v.lattice.n}, R={v.lattice.radius})"
        )


class _Plan(NamedTuple):
    """The per-(lattice, N) constants of :func:`_synthesize` and :func:`_analyze`: the
    DFT bins, each axis's spread shape and the two slice pairs that copy the lattice
    into its bins, last axis first, and ``scale * signs``, the analysis weights."""

    lattice: Lattice
    points: int
    bins: np.ndarray
    spreads: tuple
    weights: np.ndarray


def _plan(lattice: Lattice, points: int) -> _Plan:
    """The :class:`_Plan` of ``lattice`` on ``points`` nodes per axis.  It refuses a grid
    of more than MAX_COEFFICIENTS points, then one of fewer than 2R+1 points per axis."""
    n, R, N = lattice.n, lattice.radius, points
    if N ** n > MAX_COEFFICIENTS:  # first: numpy cannot take N % beyond int64
        raise ValueError(f"quadrature grid {N}^{n} exceeds {MAX_COEFFICIENTS} points")
    if N < lattice.side:
        raise ValueError(f"grid too small: need at least {lattice.side} points per axis, got {N}")
    spreads = []
    for axis in reversed(range(n)):
        lead = (slice(None),) * axis  # k = 0..R go to bins 0..R, k = -R..-1 to N-R..N-1
        cuts = ((lead + (slice(0, R + 1),), lead + (slice(R, None),)),
                (lead + (slice(N - R, N),), lead + (slice(0, R),)))
        spreads.append((axis, (lattice.side,) * axis + (N,) * (n - axis), cuts))
    weights = TWO_PI ** (n / 2.0) / (N ** n) * lattice.signs
    return _Plan(lattice, N, np.arange(-R, R + 1) % N, tuple(spreads), weights)


def _synthesize(coeffs: np.ndarray, plan: _Plan) -> np.ndarray:
    """:func:`synthesize` on arrays: lattice coefficients in, a new grid of samples out.
    Each stage is freed once spread, and each spread is transformed in place."""
    lattice = plan.lattice
    samples = (coeffs * lattice.signs).reshape(lattice.shape)
    for axis, shape, cuts in plan.spreads:
        spread = np.zeros(shape, np.complex128)
        for into, source in cuts:  # two slices: the bits of spreading by bins, faster
            spread[into] = samples[source]
        samples = spread
        np.fft.ifft(samples, axis=axis, out=samples)
    samples *= plan.points ** lattice.n
    samples *= TWO_PI ** (-lattice.n / 2.0)
    return samples


def _analyze(samples: np.ndarray, plan: _Plan) -> np.ndarray:
    """:func:`analyze` on arrays: grid samples in, new lattice coefficients out.  It
    consumes ``samples``, a writable grid: the first axis is transformed in place in it,
    and each later one in place in the previous axis's cut."""
    spectrum = samples
    for axis in reversed(range(plan.lattice.n)):
        spectrum = np.fft.fft(spectrum, axis=axis, out=spectrum).take(plan.bins, axis)
    return plan.weights * spectrum.ravel()


def synthesize(u: SpectralField, points_per_axis: int) -> GridFunction:
    """Evaluate the field on the uniform grid via inverse FFT.

    samples(x_j) = sum_k coeff_k * (2*pi)^(-n/2) * exp(i<k, x_j>); requires
    points_per_axis >= 2R+1 so every lattice frequency has its own DFT bin.
    Axes go in ``ifftn``'s order, last first, each spread into its bins just
    before its transform, so only lines that carry lattice data are transformed;
    numpy transforms each line on its own, so this is ``ifftn`` bit for bit.  Each
    spread is transformed in place, once the stage it was spread from is freed.
    A grid of more than :data:`MAX_COEFFICIENTS` points, or a ``points_per_axis``
    that is not an integer (a bool included), raises ValueError first.
    """
    N = _integer(points_per_axis, "points_per_axis must be an integer, got {!r}")
    return GridFunction._owned(_synthesize(u.coeffs, _plan(u.lattice, N)))


def analyze(g: GridFunction, lattice: Lattice) -> SpectralField:
    """Recover lattice coefficients from grid samples (trapezoidal rule).

    coeff_k = (2*pi)^(n/2) / N^n * sum_j samples(x_j) * exp(-i<k, x_j>); exact
    for inputs band-limited to the lattice when N >= 2R+1.  As in
    :func:`synthesize`, in ``fftn``'s order, each axis cut to its bins after
    its transform: ``fftn`` bit for bit.  The transforms run in place in one copy
    of the samples.  A grid of more than :data:`MAX_COEFFICIENTS` points raises
    ValueError before that copy, as :func:`synthesize` refuses it.
    """
    if g.n != lattice.n:
        raise ValueError(f"grid dimension {g.n} != lattice dimension {lattice.n}")
    plan = _plan(lattice, g.points_per_axis)
    return SpectralField._owned(lattice, _analyze(g.samples.copy(), plan))


def lp_norm(g: GridFunction, p: float) -> float:
    """Uniform-grid rectangle-rule L_p norm over [-pi, pi)^n.

    Exact in the limit of grid refinement for smooth integrands; for p = 2 and
    band-limited input it reproduces the l2 coefficient norm (Parseval).  If the sum
    of ``|samples|^p`` over- or underflows, it is m |samples / m|_p, m = max |samples|.
    """
    if not 1.0 <= p < np.inf:
        raise ValueError(f"integrability index must satisfy 1 <= p < inf, got {p}")
    return _lp_norm(g.samples, np.abs(g.samples), p)


def _lp_norm(samples: np.ndarray, magnitude: np.ndarray, p: float) -> float:
    """:func:`lp_norm` of ``samples`` from ``magnitude``, their ``np.abs``, which it
    raises to the power p in place: one grid-sized temporary fewer, the same bits."""
    weight = (TWO_PI / samples.shape[0]) ** samples.ndim
    with np.errstate(over="ignore"):  # an overflow, of a power or of the sum, is redone below
        magnitude **= p
        integral = weight * float(np.real(tree_sum(magnitude)))
    if _TINY <= integral < np.inf or not np.any(samples):
        return integral ** (1.0 / p)
    scale = float(np.max(np.abs(samples)))  # then 1 <= sum |samples / scale|^p <= N^n
    return scale * _lp_norm(rescaled := samples / scale, np.abs(rescaled), p)
