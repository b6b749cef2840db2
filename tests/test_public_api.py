"""The public surface: every exported name resolves, the package re-exports
each library module's `__all__`, a star import binds exactly that, and every
exported name has a use."""
import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import faulhaber

# The modules with a public surface: not `__main__`, nor `_verify`, which
# holds the machinery of `verify` and `bench` behind `faulhaber.cli`.
MODULES = sorted(
    f"faulhaber.{info.name}"
    for info in pkgutil.iter_modules(faulhaber.__path__)
    if not info.name.startswith("_")
)


@pytest.mark.parametrize("name", ["faulhaber", *MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_reexports_the_library_modules():
    library = {
        n
        for name in MODULES
        if name != "faulhaber.cli"
        for n in importlib.import_module(name).__all__
    }
    assert set(faulhaber.__all__) == library


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from faulhaber import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(faulhaber.__all__)


def loaded_names(source):
    """The names `source` reads: each `ast.Name` in load context, the names
    in annotations included, and each attribute read from a name, as
    `bernoulli.bernoulli_polynomial` reads a function on its module."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name)):
            names.add(node.attr)
    return names


def test_every_exported_name_has_a_use():
    # An exported name earns its place by a caller in the package or a use
    # in the README's library example.
    package = Path(faulhaber.__file__).resolve().parent
    used = set()
    for path in package.glob("*.py"):
        used |= loaded_names(path.read_text(encoding="utf-8"))
    readme = (package.parents[1] / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"^```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    used |= loaded_names(example)
    assert [name for name in faulhaber.__all__ if name not in used] == []
