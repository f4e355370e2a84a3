"""Outside-in tracer for the hammerstein package, and the traced child entry.

The tracer replaces the public functions listed in ``WRAPPED`` with thin
wrappers that record one span per call: name, start, end and the id of the
span that was open when the call began.  Each wrapper is bound in *every*
``hammerstein`` module namespace that binds the original function, because
``cli``, ``analysis``, ``picard`` and ``nemytsky`` import by name (the
uniqueness probe, for one, looks ``check_kernel_conditions`` up in
``hammerstein.analysis``).  Spans stay in memory and are written out once, at
exit.  Counts come from arguments and return values, never from inside the
program: ``solve_nemytsky`` does its matrix-vector product inline, so its
work shows only as ``nemytsky.iterations``.

Run as a script, this module is the traced child of ``run.py``::

    python3 perfbench/tracer.py --spans SPANS.json cli solve-nemytsky --config C --out-dir D
    python3 perfbench/tracer.py --spans SPANS.json catalog --out-dir D

``layer_metrics`` turns a span list into the per-layer metrics; ``run.py``
calls it in the parent process.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time

import numpy as np

def _entries(args, kwargs, result):
    # eval_kernel(spec, x, t): K values computed = the broadcast size of x and t
    return {"entries": math.prod(np.broadcast_shapes(np.shape(args[1]), np.shape(args[2])))}


def _apply_bytes(args, kwargs, result):
    return {"bytes": args[0].entries.nbytes}


def _iterations(args, kwargs, result):
    return {"iterations": result.iterations}


def _restart_iterations(args, kwargs, result):
    return {"iterations": result[1]}      # fixed_point_iterate -> (profile, n, ok)


# (module, function, counter taken from the call) -- span name is module.function
WRAPPED = (
    ("config", "load_config", None),
    ("kernels", "check_kernel_conditions", None),
    ("kernels", "gamma_profile", None),
    ("kernels", "eval_kernel", _entries),
    ("kernels", "kernel_matrix", None),
    ("kernels", "tail_row_mass", None),
    ("nonlinearity", "check_G_conditions", None),
    ("picard", "assemble_operator", None),
    ("picard", "solve_picard", _iterations),
    ("picard", "apply_hammerstein", _apply_bytes),
    ("picard", "fixed_point_iterate", _restart_iterations),
    ("picard", "evaluate_profile", None),
    ("nemytsky", "check_nemytsky_conditions", None),
    ("nemytsky", "solve_nemytsky", _iterations),
    ("analysis", "uniqueness_probe", None),
    ("analysis", "excess_integral_certificate", None),
    ("analysis", "tail_integral_certificate", None),
    ("analysis", "jensen_certificate", None),
    ("analysis", "asymptote_certificate", None),
    ("cli", "run", None),
)


class Tracer:
    """In-memory span recorder; single-threaded, like the program it wraps."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, func, counter):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                span.update(counter(args, kwargs, result))
            return result
        return traced

    def install(self) -> None:
        """Import every hammerstein module and rebind each wrapped function
        in every module namespace that holds it."""
        importlib.import_module("hammerstein")
        for mod, _, _ in WRAPPED:
            importlib.import_module(f"hammerstein.{mod}")
        namespaces = [m for key, m in sys.modules.items()
                      if key == "hammerstein" or key.startswith("hammerstein.")]
        for mod, fn, counter in WRAPPED:
            original = getattr(sys.modules[f"hammerstein.{mod}"], fn)
            wrapper = self.wrap(f"{mod}.{fn}", original, counter)
            for ns in namespaces:
                if getattr(ns, fn, None) is original:
                    setattr(ns, fn, wrapper)


# name -> unit; the per-layer metrics, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "config.load_s": "s",
    "kernels.check_s": "s",
    "kernels.check_calls": "count",
    "kernels.gamma_s": "s",
    "kernels.gamma_calls": "count",
    "kernels.eval_s": "s",
    "kernels.eval_calls": "count",
    "kernels.eval_entries": "count",
    "kernels.dense_matrices": "count",
    "kernels.tail_s": "s",
    "nonlinearity.check_s": "s",
    "picard.assemble_s": "s",
    "picard.assemble_calls": "count",
    "picard.solve_s": "s",
    "picard.solve_calls": "count",
    "picard.iterations": "count",
    "picard.apply_s": "s",
    "picard.apply_calls": "count",
    "picard.apply_bytes_computed": "bytes",
    "picard.extend_s": "s",
    "nemytsky.check_s": "s",
    "nemytsky.solve_s": "s",
    "nemytsky.iterations": "count",
    "analysis.probe_s": "s",
    "analysis.probe_self_s": "s",
    "analysis.probe_restart_s": "s",
    "analysis.probe_restart_iterations": "count",
    "analysis.probe_refined_s": "s",
    "analysis.probe_apply_calls": "count",
    "analysis.certs_s": "s",
    "analysis.jensen_s": "s",
    "cli.run_s": "s",
    "cli.self_s": "s",
}

# the probe's refined-grid rerun: these direct children of a probe span
_REFINED = {"kernels.check_kernel_conditions", "picard.assemble_operator",
            "picard.solve_picard", "picard.evaluate_profile"}
_CERTS = {"analysis.excess_integral_certificate", "analysis.tail_integral_certificate",
          "analysis.jensen_certificate", "analysis.asymptote_certificate"}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from one traced child's spans.

    Times are inclusive sums over every span of a name; ``*_self_s`` subtracts
    the direct child spans, which never overlap in a single-threaded run.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def under_probe(span) -> bool:
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            if span["name"] == "analysis.uniqueness_probe":
                return True
        return False

    def pick(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return math.fsum(s["end"] - s["start"] for s in pick(name))

    def self_time(name):
        return math.fsum(s["end"] - s["start"] - child_time[s["id"]] for s in pick(name))

    def summed(name, key):
        return sum(s[key] for s in pick(name))

    probe_ids = {s["id"] for s in pick("analysis.uniqueness_probe")}
    applies = pick("picard.apply_hammerstein")
    metrics = {
        "config.load_s": total("config.load_config"),
        "kernels.check_s": total("kernels.check_kernel_conditions"),
        "kernels.check_calls": len(pick("kernels.check_kernel_conditions")),
        "kernels.gamma_s": total("kernels.gamma_profile"),
        "kernels.gamma_calls": len(pick("kernels.gamma_profile")),
        "kernels.eval_s": total("kernels.eval_kernel"),
        "kernels.eval_calls": len(pick("kernels.eval_kernel")),
        "kernels.eval_entries": summed("kernels.eval_kernel", "entries"),
        "kernels.dense_matrices": len(pick("kernels.kernel_matrix")),
        "kernels.tail_s": total("kernels.tail_row_mass"),
        "nonlinearity.check_s": total("nonlinearity.check_G_conditions"),
        "picard.assemble_s": total("picard.assemble_operator"),
        "picard.assemble_calls": len(pick("picard.assemble_operator")),
        "picard.solve_s": total("picard.solve_picard"),
        "picard.solve_calls": len(pick("picard.solve_picard")),
        "picard.iterations": summed("picard.solve_picard", "iterations"),
        "picard.apply_s": total("picard.apply_hammerstein"),
        "picard.apply_calls": len(applies),
        "picard.apply_bytes_computed": summed("picard.apply_hammerstein", "bytes"),
        "picard.extend_s": total("picard.evaluate_profile"),
        "nemytsky.check_s": total("nemytsky.check_nemytsky_conditions"),
        "nemytsky.solve_s": total("nemytsky.solve_nemytsky"),
        "nemytsky.iterations": summed("nemytsky.solve_nemytsky", "iterations"),
        "analysis.probe_s": total("analysis.uniqueness_probe"),
        "analysis.probe_self_s": self_time("analysis.uniqueness_probe"),
        "analysis.probe_restart_s": total("picard.fixed_point_iterate"),
        "analysis.probe_restart_iterations": summed("picard.fixed_point_iterate",
                                                    "iterations"),
        "analysis.probe_refined_s": math.fsum(
            s["end"] - s["start"] for s in spans
            if s["parent"] in probe_ids and s["name"] in _REFINED),
        "analysis.probe_apply_calls": sum(1 for s in applies if under_probe(s)),
        "analysis.certs_s": math.fsum(total(name) for name in sorted(_CERTS)),
        "analysis.jensen_s": total("analysis.jensen_certificate"),
        "cli.run_s": total("cli.run"),
        "cli.self_s": self_time("cli.run"),
    }
    return metrics


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] not in ("cli", "catalog"):
        print("usage: tracer.py --spans PATH {cli|catalog} ARGS...", file=sys.stderr)
        return 2
    spans_path, kind, rest = argv[1], argv[2], argv[3:]
    tracer = Tracer()
    tracer.install()
    if kind == "cli":
        import hammerstein.cli
        code = hammerstein.cli.main(rest)
    else:
        import catalog
        code = catalog.main(rest)
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
