"""Shared independent oracles for the test suite.

These deliberately avoid the library's FFT/convolution code paths: synthesis
by direct summation, quadrature by plain rectangle sums, and operator norms by
LAPACK SVD, so the fast implementations are checked against something slower
but obviously correct.
"""

import numpy as np

from peribessel import SpectralField
from peribessel.lattice import grid_nodes

TWO_PI = 2.0 * np.pi


def rel_err(value, reference) -> float:
    value = np.asarray(value)
    reference = np.asarray(reference)
    scale = max(float(np.max(np.abs(reference))), np.finfo(float).tiny)
    return float(np.max(np.abs(value - reference))) / scale


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


def svd_operator_norm(matrix: np.ndarray) -> float:
    return float(np.linalg.svd(matrix, compute_uv=False)[0])
