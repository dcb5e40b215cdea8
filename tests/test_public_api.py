import os
import subprocess
import sys

import pytest

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
    assert len(PUBLIC_API) == 40
    assert peribessel.__all__ == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(peribessel, name) is not None, name


def test_dir_lists_every_name():
    assert set(PUBLIC_API) <= set(dir(peribessel))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from peribessel import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC_API)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        peribessel.no_such_name


def test_submodule_import_still_returns_the_module():
    from peribessel import multipliers

    assert multipliers is sys.modules["peribessel.multipliers"]
    assert peribessel.equivalence_report is multipliers.equivalence_report


def test_import_loads_no_submodule_until_a_name_is_read():
    probe = (
        "import sys, peribessel\n"
        "before = [m for m in sys.modules if m.startswith('peribessel.')]\n"
        "print(before, peribessel.lattice.MAX_COEFFICIENTS, 'peribessel.verify' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(peribessel.__file__))}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, timeout=120, check=True)
    assert result.stdout == "[] 67108864 False\n"
