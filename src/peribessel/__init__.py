"""Spectral calculus on periodic Bessel potential spaces H^s_p(T^n).

Truncated Fourier coefficient fields model periodic distributions; on top of
them the package provides the lifting operator, H^s_p norms, duality
pairings, pointwise products, exponent predicates, and multiplier-norm
experiments comparing the operator norm of multiplication against the
intersection norm max(|u|_{H^(-t)_q}, |u|_{H^(-s)_p'}).

The namespace is lazy (PEP 562): a submodule is imported the first time one
of its names is read, so ``import peribessel`` loads no submodule, and a CLI
call loads only the modules its subcommand runs.
"""

import importlib

# Names of the verification suites and of the generated field kinds; ``verify``,
# ``generators`` and the CLI's parser share them from here, so building the
# parser imports neither checks nor numpy.
SUITES = ("fourier", "bessel", "duality", "embedding", "multiplier")
KINDS = ("power-decay", "random-smooth", "dirac")

_EXPORTS = {
    "calculus": (
        "SpaceIndex", "bessel_weights", "duality_pair", "hs_norm", "lift", "pointwise_product",
    ),
    "coeffio": ("CoeffFileError", "parse_coeff_file", "write_coeff_file"),
    "conditions": ("ConditionVerdict", "conjugate_exponent", "embedding_holds", "strichartz_case"),
    "generators": ("gen_distribution",),
    "lattice": (
        "GridFunction", "Lattice", "SpectralField", "analyze", "conj_field", "constant_field",
        "delta_field", "lp_norm", "make_lattice", "real_part_field", "restrict_field",
        "synthesize", "tree_sum",
    ),
    "multipliers": (
        "ConvergenceError", "HypothesisError", "MultiplierProblem", "MultiplierReport",
        "equivalence_report", "intersection_norm", "multiplier_norm_l2", "multiplier_norm_lp",
        "multiplier_operator", "top_singular_value",
    ),
    "verify": ("CheckResult", "VerifyContext", "run_suite"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    # Not cached, so a function replaced on its module (a monkeypatch, the
    # benchmark's tracer) is the one the package hands out, and only while replaced.
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _EXPORTS:  # ``peribessel.lattice`` works after a bare ``import peribessel``
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
