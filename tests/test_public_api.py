import peribessel

# Adding a name to, or removing one from, the public API is an edit here.
PUBLIC_API = [
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


def test_public_api_is_pinned():
    assert len(PUBLIC_API) == 42
    assert peribessel.__all__ == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(peribessel, name) is not None, name
