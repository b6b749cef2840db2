"""The import graph keeps the paths independent: the three computation paths
and the oracle share only the plumbing of `rationals`, and no path loads
another path's arithmetic.  Only `_verify`, the machinery of `verify`, and
`cli`, which imports each module where a command runs it, load several
paths."""
import ast
from pathlib import Path

import pytest

import faulhaber

PACKAGE = Path(faulhaber.__file__).resolve().parent
PATHS = {"direct", "integration", "bernoulli"}

# module -> the package modules it may import, and must
ALLOWED = {
    "rationals": set(),
    "direct": {"rationals"},
    "integration": {"rationals"},
    "oracle": {"rationals"},
    # The one edge past `rationals` is the lazy import of the shim that
    # serves the identity checks to the benchmark's tracer; it leaves when
    # the tracer finds functions through their `__module__` (ROADMAP item 1).
    "bernoulli": {"rationals", "_verify"},
    "_verify": {"rationals", "direct", "integration", "bernoulli", "oracle"},
    "cli": {"rationals", "direct", "integration", "bernoulli", "oracle", "_verify"},
    # The program's entry runs `cli.main` and ends the process.
    "__main__": {"cli"},
}


def package_imports(module):
    """The package modules that `module` imports by relative import."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import x
                imported.update(alias.name for alias in node.names)
            else:
                imported.add(node.module.split(".")[0])
    return imported


def test_every_module_has_a_row():
    # A module without one would escape the checks below.
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ALLOWED)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_its_layer(module):
    assert package_imports(module) == ALLOWED[module]


@pytest.mark.parametrize("module", sorted(PATHS))
def test_no_path_imports_another_path(module):
    assert package_imports(module) & PATHS == set()


def test_bernoulli_serves_the_identity_checks_from_verify():
    import faulhaber._verify
    import faulhaber.bernoulli

    for name in ("check_power_sum_identity", "check_integral_identity",
                 "check_difference_identity"):
        assert getattr(faulhaber.bernoulli, name) is getattr(faulhaber._verify, name)
    with pytest.raises(AttributeError):
        faulhaber.bernoulli.IdentityValues
