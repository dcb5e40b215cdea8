import ast
import os
import pathlib
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


def unused_imports(source: str) -> list:
    """The names a module imports and never reads, ``from __future__`` imports exempt."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_unused_import_finder():
    source = ("from __future__ import annotations\nimport numpy as np\nimport os.path\n"
              "from .lattice import _TINY, tree_sum\n\ndef f(x: np.ndarray):\n"
              "    return tree_sum(x)\n")
    assert unused_imports(source) == ["_TINY", "os"]


@pytest.mark.parametrize("module", sorted(pathlib.Path(peribessel.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_reads(module):
    assert unused_imports(module.read_text()) == []


def dead_private_names(sources: list) -> list:
    """The module-level ``_names`` that ``sources`` define and none of them reads: by name,
    as an attribute or in a ``from`` import.  A function registered by ``@_check(...)``
    is exempt; its decorator reads it."""
    defined, read = set(), set()
    for tree in map(ast.parse, sources):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_check"
                           for d in node.decorator_list):
                    defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return sorted(name for name in defined - read
                  if name.startswith("_") and not name.startswith("__"))


def test_dead_private_name_finder():
    library = ("_LIMIT, _SPARE = 1, 2\n_table: dict = {}\nclass _Record: pass\n"
               "def _wrapper(x):\n    return _core(x)\ndef _core(x):\n    return x\n"
               "@_check('id')\ndef _check_law(ctx):\n    yield 0.0\n"
               "def __getattr__(name):\n    return _LIMIT\n")
    user = "from .library import _table\ndef public(x):\n    return library._Record(x)\n"
    assert dead_private_names([library, user]) == ["_SPARE", "_wrapper"]


def test_every_private_module_level_name_is_read():
    modules = sorted(pathlib.Path(peribessel.__file__).parent.glob("*.py"))
    assert dead_private_names([module.read_text() for module in modules]) == []


# numpy.random costs every process that imports it about 6 MiB of RSS; the package
# draws from its own splitmix hash instead (generators._uniforms)
@pytest.mark.parametrize("module", sorted(pathlib.Path(peribessel.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_uses_numpy_random(module):
    assert "np.random" not in module.read_text()


def test_a_p2_report_and_verify_import_no_numpy_random():
    probe = (
        "import contextlib, io, sys\n"
        "import peribessel as pb\n"
        "from peribessel.cli import main\n"
        "u = pb.gen_distribution('power-decay', pb.make_lattice(1, 4), alpha=1.0, seed=1)\n"
        "pb.equivalence_report(pb.MultiplierProblem(u, 1.0, 1.0, 2, 2), radii=(2, 4))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = main(['verify', 'all', '--n', '1'])\n"
        "print(status, 'numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(peribessel.__file__))}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, timeout=120, check=True)
    assert result.stdout == "0 False\n"
