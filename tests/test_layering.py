"""The import graph keeps the paths independent: the three computation paths
and the oracle share only the plumbing of `rationals`, and no path loads
another path's arithmetic.  Only `_verify`, the machinery of `verify` and
`bench`, and `cli`, which imports each module where a command runs it, load
several paths."""
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
    "bernoulli": {"rationals", "oracle"},
    "_verify": {"rationals", "direct", "integration", "bernoulli"},
    "cli": {"rationals", "direct", "integration", "bernoulli", "oracle", "_verify"},
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


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_its_layer(module):
    assert package_imports(module) == ALLOWED[module]


@pytest.mark.parametrize("module", sorted(PATHS))
def test_no_path_imports_another_path(module):
    assert package_imports(module) & PATHS == set()
