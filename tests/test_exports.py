import ast
import glob
import importlib.util
import os
import pkgutil
import sys

import pytest

import genprior

MODULES = ["genprior"] + sorted(
    "genprior." + m.name for m in pkgutil.iter_modules(genprior.__path__))
ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
# exported with no caller yet: the per-iteration contraction record will
# call it
UNCALLED = {("analysis", "contraction_fit")}


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


def _references(path):
    """Every name the file loads, every attribute it reads and every string
    constant (the benchmark tracer wraps attributes by name), leaving out
    the strings of its ``__all__``; a ``def``, ``class`` or assignment
    defines a name without referencing it."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    tree.body = [node for node in tree.body
                 if not (isinstance(node, ast.Assign)
                         and any(getattr(t, "id", None) == "__all__"
                                 for t in node.targets))]
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def test_every_export_has_a_caller():
    # a name a module exports must be used by the library itself or by the
    # benchmark, not only by tests
    sources = (glob.glob(os.path.join(ROOT, "src", "genprior", "*.py"))
               + glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
    used = set().union(*map(_references, sources))
    unused = [(m.name, name) for m in pkgutil.iter_modules(genprior.__path__)
              for name in getattr(importlib.import_module("genprior." + m.name),
                                  "__all__", ())
              if name not in used]
    assert sorted(unused) == sorted(UNCALLED)
