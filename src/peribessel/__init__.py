"""Spectral calculus on periodic Bessel potential spaces H^s_p(T^n).

Truncated Fourier coefficient fields model periodic distributions; on top of
them the package provides the lifting operator, H^s_p norms, duality
pairings, pointwise products, exponent predicates, and multiplier-norm
experiments comparing the operator norm of multiplication against the
intersection norm max(|u|_{H^(-t)_q}, |u|_{H^(-s)_p'}).
"""

from .calculus import (
    SpaceIndex,
    action,
    bessel_weights,
    duality_pair,
    hs_norm,
    lift,
    pointwise_product,
)
from .coeffio import CoeffFileError, parse_coeff_file, write_coeff_file
from .conditions import (
    ConditionVerdict,
    conjugate_exponent,
    embedding_holds,
    strichartz_case,
)
from .generators import gen_distribution
from .lattice import (
    GridFunction,
    Lattice,
    SpectralField,
    analyze,
    conj_field,
    constant_field,
    delta_field,
    linear_combine,
    lp_norm,
    make_lattice,
    real_part_field,
    restrict_field,
    synthesize,
    tree_sum,
)
from .multipliers import (
    ConvergenceError,
    HypothesisError,
    MultiplierProblem,
    MultiplierReport,
    equivalence_report,
    intersection_norm,
    multiplier_norm_l2,
    multiplier_norm_lp,
    multiplier_operator,
    top_singular_value,
)
from .verify import CheckResult, VerifyContext, run_suite

__all__ = [
    "CheckResult",
    "CoeffFileError",
    "ConditionVerdict",
    "ConvergenceError",
    "GridFunction",
    "HypothesisError",
    "Lattice",
    "MultiplierProblem",
    "MultiplierReport",
    "SpaceIndex",
    "SpectralField",
    "VerifyContext",
    "action",
    "analyze",
    "bessel_weights",
    "conj_field",
    "conjugate_exponent",
    "constant_field",
    "delta_field",
    "duality_pair",
    "embedding_holds",
    "equivalence_report",
    "gen_distribution",
    "hs_norm",
    "intersection_norm",
    "lift",
    "linear_combine",
    "lp_norm",
    "make_lattice",
    "multiplier_norm_l2",
    "multiplier_norm_lp",
    "multiplier_operator",
    "parse_coeff_file",
    "pointwise_product",
    "real_part_field",
    "restrict_field",
    "run_suite",
    "strichartz_case",
    "synthesize",
    "top_singular_value",
    "tree_sum",
    "write_coeff_file",
]

__version__ = "0.1.0"
