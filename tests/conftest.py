"""Shared independent oracles for the test suite.

These deliberately avoid the library's FFT/convolution code paths: synthesis
by direct summation, quadrature by plain rectangle sums, and operator norms by
LAPACK SVD of a dense multiplier matrix built entry by entry, so the fast
implementations are checked against something slower but obviously correct.
``best_ratio`` scores fixed test fields through the library's public operator,
transforms and norms instead, in the order Boyd's iteration evaluates them, so
that tests can compare those fields with the solvers to the last bit.
``peak_bytes`` is the memory probe of the tests that bound an allocation peak.
"""

import tracemalloc

import numpy as np

from peribessel import (
    MultiplierProblem, SpectralField, bessel_weights, lift, lp_norm, multiplier_operator, synthesize,
)
from peribessel.calculus import default_grid_points
from peribessel.generators import _splitmix
from peribessel.lattice import grid_nodes

TWO_PI = 2.0 * np.pi


def rel_err(value, reference) -> float:
    value = np.asarray(value)
    reference = np.asarray(reference)
    scale = max(float(np.max(np.abs(reference))), np.finfo(float).tiny)
    return float(np.max(np.abs(value - reference))) / scale


def peak_bytes(fn) -> int:
    """tracemalloc's peak over one call of ``fn()``, in bytes; what ``fn`` raises propagates."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def seven_smooth(k: int) -> bool:
    """Whether k has no prime factor above 7, by trial division."""
    for prime in (2, 3, 5, 7):
        while k % prime == 0:
            k //= prime
    return k == 1


def synthesize_direct(u: SpectralField, points_per_axis: int) -> np.ndarray:
    """Direct O(N^n * |lattice|) evaluation of the coefficient sum."""
    lattice = u.lattice
    nodes = grid_nodes(points_per_axis)
    meshes = np.meshgrid(*(nodes,) * lattice.n, indexing="ij")
    total = np.zeros((points_per_axis,) * lattice.n, dtype=np.complex128)
    for k, coeff in zip(lattice.indices, u.coeffs):
        phase = np.zeros_like(total, dtype=np.float64)
        for axis in range(lattice.n):
            phase = phase + k[axis] * meshes[axis]
        total = total + coeff * np.exp(1j * phase)
    return TWO_PI ** (-lattice.n / 2.0) * total


def rectangle_quadrature(values: np.ndarray) -> complex:
    """Plain rectangle-rule integral of grid samples over [-pi, pi)^n."""
    n = values.ndim
    points = values.shape[0]
    return complex((TWO_PI / points) ** n * np.sum(values))


def convolve_direct(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two equal-shape cubes, one offset of ``a``
    at a time (zero entries skipped)."""
    side = a.shape[0]
    out = np.zeros((2 * side - 1,) * a.ndim, dtype=np.complex128)
    flat_a = a.ravel()
    for flat_pos, offset in enumerate(np.ndindex(*a.shape)):
        value = flat_a[flat_pos]
        if value == 0:
            continue
        window = tuple(slice(o, o + side) for o in offset)
        out[window] += value * b
    return out


def is_real_valued(u: SpectralField, tol: float = 1e-12) -> bool:
    """Whether the field satisfies the reality criterion coeff(-k) = conj(coeff(k))."""
    residual = u.coeffs - np.conj(u.coeffs[::-1])
    scale = max(float(np.max(np.abs(u.coeffs))), 1.0)
    return float(np.max(np.abs(residual))) <= tol * scale


def tree_sum_reference(values, axis=None):
    """Adjacent-pair tree sum, one fresh array per level: element 2i plus
    2i+1, an odd trailing element concatenated on unchanged."""
    a = np.asarray(values)
    a = a.ravel() if axis is None else np.moveaxis(a, axis, 0)
    if len(a) == 0:
        return np.zeros(a.shape[1:], dtype=a.dtype)[()]
    while len(a) > 1:
        even = a[: len(a) - (len(a) % 2)]
        paired = even[0::2] + even[1::2]
        if len(a) % 2:
            paired = np.concatenate([paired, a[-1:]])
        a = paired
    return a[0]


def multiplier_matrix(prob: MultiplierProblem) -> np.ndarray:
    """Dense matrix of the multiplication operator in lifted l2 coordinates.

    Entry (l, k) is ``(2*pi)^(-n/2) * (1+|l|^2)^(-t/2) * coeff_{l-k}(u)
    * (1+|k|^2)^(-s/2)``; differences l-k outside u's lattice contribute zero
    (truncation closure).  Its l2 operator norm is the multiplier norm of the
    truncated model for p = q = 2.
    """
    if not (prob.p == 2 and prob.q == 2):
        raise ValueError("the exact multiplier matrix requires p = q = 2")
    lattice = prob.u.lattice
    idx = lattice.indices
    diff = idx[:, None, :] - idx[None, :, :]
    within = np.all(np.abs(diff) <= lattice.radius, axis=2)
    flat = np.zeros(diff.shape[:2], dtype=np.int64)
    for axis in range(lattice.n):
        flat = flat * lattice.side + (diff[:, :, axis] + lattice.radius)
    flat = np.where(within, flat, 0)
    conv = np.where(within, prob.u.coeffs[flat], 0.0)
    row_weights = bessel_weights(-float(prob.t), lattice)
    col_weights = bessel_weights(-float(prob.s), lattice)
    return TWO_PI ** (-lattice.n / 2.0) * row_weights[:, None] * conv * col_weights[None, :]


def grid_scatter_reference(lattice, points_per_axis: int) -> tuple:
    """DFT-cube positions and (-1)^(sum k) signs, read off the (size, n) index table."""
    N = points_per_axis
    flat = np.ravel_multi_index(
        tuple((lattice.indices[:, axis] % N) for axis in range(lattice.n)),
        (N,) * lattice.n,
    )
    parity = np.sum(lattice.indices, axis=1) % 2
    return flat, 1.0 - 2.0 * parity


def synthesize_reference(u: SpectralField, points_per_axis: int) -> np.ndarray:
    """Samples by the full-grid transform: every lattice coefficient scattered
    into an ``(N,)*n`` zero cube at its DFT bin, then one ``ifftn`` of the cube."""
    lattice, N = u.lattice, points_per_axis
    spectrum = np.zeros((N,) * lattice.n, dtype=np.complex128)
    flat, signs = grid_scatter_reference(lattice, N)
    spectrum.ravel()[flat] = u.coeffs * signs
    return (N ** lattice.n) * np.fft.ifftn(spectrum) * TWO_PI ** (-lattice.n / 2.0)


def analyze_reference(samples: np.ndarray, lattice) -> np.ndarray:
    """Coefficients by the full-grid transform: one ``fftn`` of the samples,
    then the lattice's DFT bins gathered."""
    N = samples.shape[0]
    flat, signs = grid_scatter_reference(lattice, N)
    spectrum = np.fft.fftn(samples)
    return TWO_PI ** (lattice.n / 2.0) / (N ** lattice.n) * signs * spectrum.ravel()[flat]


def index_phases_reference(lattice, seed: int) -> np.ndarray:
    """Seeded phases hashed over all n components of every row of the index table."""
    with np.errstate(over="ignore"):
        state = np.full(lattice.size, np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
        state = _splitmix(state)
        for axis in range(lattice.n):
            component = lattice.indices[:, axis].astype(np.int64).view(np.uint64)
            state = _splitmix(state ^ component)
    unit = (state >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    return TWO_PI * unit


def field_to_dict_reference(u: SpectralField) -> dict:
    """Coefficient-file document from a walk over every row of the index table."""
    entries = []
    for k, value in zip(u.lattice.indices, u.coeffs):
        if value != 0:
            entries.append([*(int(c) for c in k), float(value.real), float(value.imag)])
    return {"n": u.lattice.n, "radius": u.lattice.radius, "entries": entries}


def svd_operator_norm(matrix: np.ndarray) -> float:
    return float(np.linalg.svd(matrix, compute_uv=False)[0])


def best_ratio(prob: MultiplierProblem, family) -> float:
    """Lower bound of the multiplier norm: the best ratio
    ``|f*u|_{H^(-t)_q} / |f|_{H^s_p}`` over the test fields f of ``family``, each
    on u's lattice, on the default grid; a member of zero norm is refused."""
    matvec, _ = multiplier_operator(prob)
    lattice = prob.u.lattice
    points = default_grid_points(lattice)
    ratios = []
    for f in family:
        x = lift(float(prob.s), f)
        denominator = lp_norm(synthesize(x, points), float(prob.p))
        if denominator == 0.0:
            raise ValueError("test field has zero source-space norm")
        image = SpectralField(lattice, matvec(x.coeffs))
        ratios.append(lp_norm(synthesize(image, points), float(prob.q)) / denominator)
    return max(ratios)
