import importlib
import pkgutil

import pytest

import genprior

MODULES = ["genprior"] + sorted(
    "genprior." + m.name for m in pkgutil.iter_modules(genprior.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined {missing}"
