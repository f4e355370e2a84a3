"""The names the benchmark in ``perfbench/`` reaches into the package by.

``perfbench/tracer.py`` wraps the functions in its ``WRAPPED`` table by
(module, name), and ``perfbench/catalog.py`` calls ``hs.<name>``.  A
refactor that drops or moves one of them would break traced or catalog runs
without failing any other test.  Both files are read, never imported, so
nothing is written under ``perfbench/``.
"""

import ast
import importlib
from pathlib import Path

import hammerstein

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wrapped_functions_resolve():
    path = BENCH / "tracer.py"
    namespace = {"__name__": "bench_tracer"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    wrapped = namespace["WRAPPED"]
    assert wrapped
    for module, name, _ in wrapped:
        target = getattr(importlib.import_module(f"hammerstein.{module}"), name, None)
        assert callable(target), f"hammerstein.{module}.{name} is gone"


def test_catalog_calls_resolve():
    tree = ast.parse((BENCH / "catalog.py").read_text())
    called = {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "hs"}
    assert "check_kernel_conditions" in called
    missing = sorted(name for name in called if not hasattr(hammerstein, name))
    assert missing == []
