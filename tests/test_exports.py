"""Every name a module lists in __all__ exists."""

import importlib
import pkgutil

import pytest

import orbitforge

MODULES = ["orbitforge"] + [
    f"orbitforge.{info.name}" for info in pkgutil.iter_modules(orbitforge.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
