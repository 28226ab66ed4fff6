import importlib.util
import os
import pkgutil
import sys

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


def test_benchmark_tracer_names_resolve(monkeypatch):
    # perfbench/tracing.py wraps these module attributes by name, so a
    # deleted or renamed one would break traced benchmark runs
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read only
    spec.loader.exec_module(tracing)
    missing = [(mod, attr) for mod, attr, _ in tracing.WRAPPED
               if not hasattr(tracing.MODULES[mod], attr)]
    assert tracing.WRAPPED and not missing
