import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import regnets

MODULES = sorted(info.name for info in pkgutil.iter_modules(regnets.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is gone breaks only star-imports
    module = importlib.import_module(f"regnets.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_the_library_loads_no_third_party_module_but_numpy():
    # the library depends on numpy alone; scipy and mpmath are test-only
    # dependencies, and this process has imported pytest, so the imports are
    # made in a fresh interpreter
    code = f"""
import importlib, sys
before = set(sys.modules)
for name in {MODULES!r}:
    importlib.import_module("regnets." + name)
loaded = {{name.partition(".")[0] for name in set(sys.modules) - before}}
print(*sorted(loaded - set(sys.stdlib_module_names) - {{"regnets", "numpy"}}))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(regnets.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
