"""Spans around the public functions of the peribessel modules.

The package's modules import their callees by name (``multipliers`` holds its
own reference to ``calculus.hs_norm``, ``cli`` to ``equivalence_report``, ...),
so a function is replaced at every module attribute it is bound to, not only
where it is defined.  Each wrapper records calls, inclusive time and self time
(inclusive time minus the time of wrapped callees), keeps the span stack in
memory and never touches the arguments or the result.

A few functions carry extra counters taken from their inputs before the clock
starts: the ``hs_norm`` path, the nonzeros of the smooth factor of
``pointwise_product`` and the computed size of the dense multiplier matrix.
In ``alloc`` mode only ``equivalence_report`` is wrapped, and each call runs
under tracemalloc to record its allocation peak.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
import tracemalloc

import numpy as np

MODULES = (
    "lattice",
    "calculus",
    "conditions",
    "generators",
    "coeffio",
    "multipliers",
    "verify",
    "cli",
)

# The verify check whose inclusive time is reported on its own.
TIMED_CHECK = "product-norm-bounded"


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


class Tracer:
    """Installs wrappers into the imported peribessel modules and collects
    per-function statistics until :meth:`uninstall`."""

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        # key -> [calls, self_s, total_s]
        self.stats: dict[str, list] = {}
        self.counters = {
            "pointwise_product.dense_calls": 0,
            "pointwise_product.terms": 0,
            "multiplier_matrix.bytes": 0,
            "equivalence_report.alloc_peak_bytes": 0,
        }
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self):
        package = importlib.import_module("peribessel")
        modules = [package] + [
            importlib.import_module(f"peribessel.{name}") for name in MODULES
        ]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("peribessel."):
                    continue
                key = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                if self.alloc and key != "multipliers.equivalence_report":
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(key, obj)
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        if not self.alloc:
            self._wrap_check(importlib.import_module("peribessel.verify"))

    def _wrap_check(self, verify):
        registry = getattr(verify, "REGISTRY", None)
        if registry is None:
            return
        replaced = tuple(
            dataclasses.replace(
                spec, runner=self._wrap(f"verify.{TIMED_CHECK}", spec.runner)
            )
            if spec.check_id == TIMED_CHECK
            else spec
            for spec in registry
        )
        self._saved.append((verify, "REGISTRY", registry))
        verify.REGISTRY = replaced

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- spans ------------------------------------------------------------

    def _before(self, key, args, kwargs) -> str:
        """Counts taken from the inputs, outside the timed span; returns the
        statistics key, which for hs_norm names the path taken."""
        counters = self.counters
        if key == "calculus.hs_norm":
            index = _arg(args, kwargs, 1, "index")
            method = _arg(args, kwargs, 3, "method", "auto")
            coefficient = method == "coefficient" or (
                method == "auto" and float(index.p) == 2.0
            )
            return key + (".coefficient" if coefficient else ".quadrature")
        if key == "calculus.pointwise_product":
            nonzeros = int(np.count_nonzero(_arg(args, kwargs, 0, "f").coeffs))
            counters["pointwise_product.terms"] += nonzeros
            counters["pointwise_product.dense_calls"] += nonzeros > 1
        elif key == "multipliers.multiplier_matrix":
            size = _arg(args, kwargs, 0, "prob").u.lattice.size
            counters["multiplier_matrix.bytes"] += size * size * 16
        return key

    def _wrap(self, key, fn):
        if self.alloc:
            return self._wrap_alloc(fn)
        stack = self._stack
        stats = self.stats

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = self._before(key, args, kwargs)
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                entry = stats.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed - frame[0]
                entry[2] += elapsed
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def _wrap_alloc(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                key = "equivalence_report.alloc_peak_bytes"
                counters[key] = max(counters[key], peak)

        return wrapper

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        return {"stats": self.stats, "counters": self.counters}


def merge(into: dict, other: dict):
    """Add one snapshot (e.g. from a CLI child process) into another."""
    for key, (calls, self_s, total_s) in other["stats"].items():
        entry = into["stats"].setdefault(key, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += self_s
        entry[2] += total_s
    for key, value in other["counters"].items():
        if key.endswith("alloc_peak_bytes"):
            into["counters"][key] = max(into["counters"].get(key, 0), value)
        else:
            into["counters"][key] = into["counters"].get(key, 0) + value


def empty_snapshot() -> dict:
    return Tracer().snapshot()
