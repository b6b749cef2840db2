"""The package keeps no hidden per-process state beyond two memos: no
module of `src/faulhaber/` rebinds a module global after import, except
`bernoulli`, which extends its Bernoulli polynomials and their
antiderivatives.  A path continues from a row its caller passes instead."""
import ast
from pathlib import Path

import pytest

import faulhaber

PACKAGE = Path(faulhaber.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))

# module -> the names it may declare `global`
ALLOWED = {"bernoulli": {"_polynomials", "_antiderivatives"}}


def global_names(module):
    """The names of every `global` statement in `module`."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {name for node in ast.walk(tree) if isinstance(node, ast.Global)
            for name in node.names}


def test_every_module_is_checked():
    assert {"bernoulli", "cli", "direct", "integration", "rationals"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_module_rebinds_a_global(module):
    assert global_names(module) == ALLOWED.get(module, set())
