"""What the benchmark in ``perfbench/`` reads from the package: names, fields
and config keys.

``perfbench/tracer.py`` wraps the functions in its ``WRAPPED`` table by
(module, name) and counts work from their arguments and results,
``perfbench/catalog.py`` calls ``hs.<name>`` and reads the fields of what
they return, and ``perfbench/workloads/*.yaml`` are configs the CLI must
accept.  A refactor that drops or moves one of those names, a field a
counter or the catalog reads, or a key a workload sets, would break the
benchmark without failing any other test.  The files are read and executed,
never imported, so nothing is written under ``perfbench/``.
"""

import ast
import importlib
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import hammerstein as hs
from hammerstein.cli import run
from hammerstein.config import load_config

from conftest import make_G, make_kernel

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def bench_module(name):
    """``perfbench/<name>.py`` executed as a module that is not ``__main__``."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("workload", sorted((BENCH / "workloads").glob("*.yaml")),
                         ids=lambda path: path.stem)
def test_workload_configs_load_and_check(tmp_path, workload):
    # the run writes under tmp_path
    load_config(workload)
    assert run(workload, tmp_path, mode="check") == 0


def test_tracer_wrapped_functions_resolve():
    wrapped = bench_module("tracer").WRAPPED
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
    missing = sorted(name for name in called if not hasattr(hs, name))
    assert missing == []


def test_catalog_fields_match_the_reference(monkeypatch):
    # the catalog run on a coarse grid: the same fields as reference.json, with
    # the node indices of the values moved to the coarse grid, and all passing
    gate = bench_module("gate")
    monkeypatch.setitem(sys.modules, "gate", gate)
    catalog = bench_module("catalog")
    grid = hs.build_grid(40.0, 100, hs.GAUSS, 4)
    results = catalog.run_catalog(grid, *catalog.build_inputs()[1:])
    reference = json.loads((BENCH / "reference.json").read_text())["catalog-9"]
    fine = gate.node_indices(catalog.N_PANELS * catalog.POINTS_PER_PANEL)
    to_coarse = {f"f_star@{i}": f"f_star@{j}"
                 for i, j in zip(fine, gate.node_indices(grid.size))}
    assert sorted(results) == sorted(reference)
    for key, pair in results.items():
        expected = dict(reference[key])
        expected["values"] = [to_coarse.get(name, name) for name in expected["values"]]
        for part in ("verdicts", "counts", "values"):
            assert sorted(pair[part]) == sorted(expected[part]), (key, part)
        assert all(value is True for value in pair["verdicts"].values()), key


def test_tracer_counters_read_real_calls():
    grid = hs.build_grid(20.0, 40, hs.GAUSS, 4)
    spec, G = make_kernel("C"), make_G("I")
    A = hs.discretise(spec, grid).operator
    f = hs.solve_picard(A, G).profile
    x, t = grid.nodes[:7, None], grid.nodes[None, :5]
    # "module.name" -> (args, kwargs, the counts expected from the result)
    calls = {
        "kernels.eval_kernel": ((spec, x, t), {}, lambda r: {"entries": r.size}),
        "picard.solve_picard": ((A, G), {}, lambda r: {"iterations": len(r.sup_diffs)}),
        "picard.apply_hammerstein": ((A, G, f), {},
                                     lambda r: {"bytes": A.entries.nbytes}),
        "picard.fixed_point_iterate": ((A, G, 0.5 * f, 1e-10, 500), {},
                                       lambda r: {"iterations": r[1]}),
        "nemytsky.solve_nemytsky": ((hs.NemytskySpec(base_G=G, xi=0.25), f),
                                    {"operator": A},
                                    lambda r: {"iterations": len(r.sup_diffs)}),
    }
    counted = [(module, name, counter)
               for module, name, counter in bench_module("tracer").WRAPPED if counter]
    assert sorted(f"{module}.{name}" for module, name, _ in counted) == sorted(calls)
    for module, name, counter in counted:
        args, kwargs, expected = calls[f"{module}.{name}"]
        result = getattr(importlib.import_module(f"hammerstein.{module}"), name)(*args, **kwargs)
        counts = counter(args, kwargs, result)
        assert counts == expected(result), name
        assert all(isinstance(v, (int, np.integer)) and v > 0 for v in counts.values()), name
