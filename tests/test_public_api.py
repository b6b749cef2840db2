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
from faulhaber import _verify

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
    # dir() lists the names `__getattr__` serves, which are never bound.
    assert set(faulhaber.__all__) <= set(dir(faulhaber))


def test_the_identity_checks_are_not_exported():
    # They are `verify`'s machinery, in `_verify`, not the library's.
    assert len(faulhaber.__all__) == 10
    for name in ("tallies", "check_power_sum_identity", "check_integral_identity",
                 "check_difference_identity"):
        assert name not in dir(faulhaber)
        with pytest.raises(AttributeError):
            getattr(faulhaber, name)


# Each function whose check of a negative degree or index no other test
# reaches, called with -1, and the message it raises before any work.
NEGATIVE = {
    "faulhaber_via_bernoulli": (faulhaber.faulhaber_via_bernoulli, (),
                                "exponent must be >= 0, got -1"),
    "bernoulli_polynomial": (faulhaber.bernoulli_polynomial, (),
                             "polynomial index must be >= 0, got -1"),
    "check_integral_identity": (_verify.check_integral_identity,
                                ((), (((1,), 1),)),  # B_0 alone, as a pair
                                "polynomial index must be >= 0, got -1"),
    "run_verification": (_verify.run_verification, (), "p_max must be >= 0, got -1"),
}


@pytest.mark.parametrize("function, rest, message", NEGATIVE.values(), ids=NEGATIVE)
def test_a_negative_degree_or_index_is_rejected(function, rest, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        function(-1, *rest)


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
