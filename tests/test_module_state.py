"""The package keeps no hidden per-process state: no module of
`src/faulhaber/` rebinds a module global after import or starts a cache
that fills as the program runs.  A path continues from a row its caller
passes, and the identity checks read the `IdentityValues` their caller
builds."""
import ast
from pathlib import Path

import pytest

import faulhaber

PACKAGE = Path(faulhaber.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))

# How a module-level cache starts.
EMPTY = {"()", "[]", "{}", "set()", "dict()", "list()", "tuple()"}


def module_tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def global_names(module):
    """The names of every `global` statement in `module`."""
    return {name for node in ast.walk(module_tree(module)) if isinstance(node, ast.Global)
            for name in node.names}


def empty_containers(module):
    """The module-level names of `module` bound to an empty container."""
    names = set()
    for node in module_tree(module).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.value) in EMPTY:
            names |= set(map(ast.unparse, node.targets))
        elif isinstance(node, ast.AnnAssign) and node.value and ast.unparse(node.value) in EMPTY:
            names.add(ast.unparse(node.target))
    return names


def test_every_module_is_checked():
    assert {"bernoulli", "cli", "direct", "integration", "rationals"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_module_rebinds_a_global(module):
    assert global_names(module) == set()


@pytest.mark.parametrize("module", MODULES)
def test_no_module_starts_a_cache(module):
    assert empty_containers(module) == set()
