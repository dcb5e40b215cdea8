"""Seeded generators for coefficient fields used in experiments and sweeps.

Random phases are derived per multi-index with a splitmix64-style hash of
(seed, k), not from a sequential stream.  Two consequences matter for the
refinement studies: the same seed always produces the same field, and
restricting a field generated at a large radius equals generating it directly
at the smaller radius.
"""

from __future__ import annotations

import numpy as np

from .lattice import Lattice, SpectralField, TWO_PI

KINDS = ("power-decay", "random-smooth", "dirac")

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix(x: np.ndarray) -> np.ndarray:
    x = (x + _GAMMA) & np.uint64(0xFFFFFFFFFFFFFFFF)
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


def _index_phases(lattice: Lattice, seed: int) -> np.ndarray:
    """Uniform [0, 2*pi) phase per lattice index, a pure function of (seed, k)."""
    component = np.arange(-lattice.radius, lattice.radius + 1, dtype=np.int64).view(np.uint64)
    with np.errstate(over="ignore"):
        state = _splitmix(np.full(1, np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)))
        for _ in range(lattice.n):  # axis by axis: the state of each index prefix
            state = _splitmix(np.bitwise_xor.outer(state, component).ravel())
    unit = (state >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    return TWO_PI * unit


def gen_distribution(
    kind: str, lattice: Lattice, alpha: float | None = None, seed: int = 0
) -> SpectralField:
    """Generate a named coefficient field on the lattice.

    power-decay:   |coeff_k| = (1 + |k|^2)^(-alpha/2), seeded random phases
                   (alpha >= 0 required); alpha = 0 gives unit magnitudes,
                   i.e. at most polynomial growth with exponent zero.
    random-smooth: |coeff_k| = exp(-|k|), seeded random phases; the magnitudes
                   decay faster than any fixed power of |k|.
    dirac:         coeff_k = (2*pi)^(-n/2) for every k, the periodic point
                   evaluation at the grid origin; seed is ignored.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown distribution kind {kind!r}; expected one of {KINDS}")
    if kind == "dirac":
        coeffs = np.full(lattice.size, TWO_PI ** (-lattice.n / 2.0), dtype=np.complex128)
        return SpectralField(lattice, coeffs)

    if kind == "power-decay":
        if alpha is None or alpha < 0:
            raise ValueError(f"power-decay requires a decay exponent alpha >= 0, got {alpha}")
        magnitudes = (1.0 + lattice.norms_sq) ** (-alpha / 2.0)
    else:
        magnitudes = np.exp(-np.sqrt(lattice.norms_sq))

    phases = _index_phases(lattice, seed)
    return SpectralField(lattice, magnitudes * np.exp(1j * phases))
