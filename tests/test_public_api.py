"""The public surface: every exported name resolves, the package re-exports
each library module's `__all__`, and a star import binds exactly that."""
import importlib
import pkgutil

import pytest

import faulhaber

MODULES = sorted(
    f"faulhaber.{info.name}"
    for info in pkgutil.iter_modules(faulhaber.__path__)
    if info.name != "__main__"
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
