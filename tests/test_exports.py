import importlib
import pkgutil

import pytest

import regnets

MODULES = sorted(info.name for info in pkgutil.iter_modules(regnets.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is gone breaks only star-imports
    module = importlib.import_module(f"regnets.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
