"""Every name a module of the package lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import ostbc_lab

MODULES = ["ostbc_lab"] + [f"ostbc_lab.{info.name}" for info in
                           pkgutil.iter_modules(ostbc_lab.__path__)
                           if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
