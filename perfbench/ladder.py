"""Layer ladder: median ms per call of single functions on fixed (n, R) rungs.

Rungs and the workload each feeds: (2, 16) feeds mult-l2, (3, 4) feeds
mult-lp, and (2, 8) and (2, 16) with the exact product feed cli-session.  The
other rungs extend the size range.  Forced SVD and n = 3, R >= 12 are left
out: the dense path does not fit in memory there.

Inputs: u is power-decay (alpha = 1, seed 1), f is random-smooth (seed 2),
grids have 2(2R+1) points per axis (the quadrature default), and tree_sum
reduces |u(x_j)|^3 on that grid, the array lp_norm reduces at p = 3.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np

import peribessel as pb
from peribessel import calculus, lattice, multipliers

RUNGS = ((1, 64), (1, 256), (2, 8), (2, 16), (3, 4), (3, 6))
# Each function is called at least MIN_CALLS times and until MIN_SECONDS
# have been spent on it, at most MAX_CALLS times.
MIN_CALLS, MAX_CALLS, MIN_SECONDS = 3, 25, 0.3


def _median_ms(fn) -> float:
    samples = []
    spent = 0.0
    while len(samples) < MAX_CALLS and (len(samples) < MIN_CALLS or spent < MIN_SECONDS):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        samples.append(elapsed)
        spent += elapsed
    return 1e3 * statistics.median(samples)


def _peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _rung(n: int, radius: int) -> dict:
    lat = pb.make_lattice(n, radius)
    u = pb.gen_distribution("power-decay", lat, alpha=1.0, seed=1)
    f = pb.gen_distribution("random-smooth", lat, seed=2)
    points = 2 * lat.side
    cubed = np.abs(lattice.synthesize(u, points).samples) ** 3
    prob = pb.MultiplierProblem(u, 1.0, 1.0, 2, 2)
    index = pb.SpaceIndex(1.0, 3.0)
    calls = {
        "tree_sum": lambda: lattice.tree_sum(cubed),
        "synthesize": lambda: lattice.synthesize(u, points),
        "hs_norm.quadrature": lambda: calculus.hs_norm(u, index),
        "pointwise_product.truncated": lambda: calculus.pointwise_product(f, u),
        "pointwise_product.exact": lambda: calculus.pointwise_product(f, u, exact=True),
    }
    # Functions a later design may remove report 0 instead of failing.
    matrix = getattr(multipliers, "multiplier_matrix", None)
    if matrix is not None:
        calls["multiplier_matrix"] = lambda: matrix(prob)
    calls["multiplier_norm_l2"] = lambda: multipliers.multiplier_norm_l2(prob)
    tag = f"n{n}R{radius}"
    out = {f"ladder.{name}.{tag}.ms": _median_ms(fn) for name, fn in calls.items()}
    out.setdefault(f"ladder.multiplier_matrix.{tag}.ms", 0.0)
    out[f"ladder.multiplier_matrix.{tag}.peak_mib"] = (
        _peak_mib(calls["multiplier_matrix"]) if matrix is not None else 0.0
    )
    return out


def measure() -> dict:
    metrics = {}
    for n, radius in RUNGS:
        metrics.update(_rung(n, radius))
    return metrics
