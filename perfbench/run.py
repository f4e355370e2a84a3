"""Benchmark of the certified solve, timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the repository root.  Each workload child is a fresh interpreter on
``src/``; the harness runs them one at a time (a closed loop with one
client) until ``--seconds`` have passed, and at least twice.  Every child
must exit 0 and pass the correctness gate (``gate.py``), and all children of
a run must write byte-identical outputs.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics: median ``wall_s``, ``cpu_s`` and ``peak_rss_mb`` per child (from
``os.wait4`` on that child alone), the median ``setup_s`` of fresh
interpreters that import the package and parse the workload's inputs
(``SETUP_PER_CHILD`` of them before each child), and ``success_rate``.
With ``--trace 1`` children alternate untraced and traced (``tracer.py``);
the last line holds the per-layer metrics (medians over the traced
children), and the line before it reports the tracing overhead as traced
minus untraced median wall time.

See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

SETUP_PER_CHILD = 2
MIN_CHILDREN = 2
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 165.0       # never start a child that would end past this
PROBE_SEEDS = tuple(12345 + k for k in range(8))   # reference values exist for these

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
              "success_rate": "ratio"}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                   # "cli": hammerstein solve-nemytsky; "catalog": catalog.py
    config: str | None = None   # YAML under workloads/, for "cli"
    probe: bool = False         # the CLI seed drives the uniqueness probe

    def child_args(self, seed: int, out_dir: Path) -> list[str]:
        if self.kind == "catalog":
            return ["--out-dir", str(out_dir)]     # a fixed catalog: no seed enters
        return ["solve-nemytsky", "--config", str(BENCH_DIR / "workloads" / self.config),
                "--out-dir", str(out_dir), "--seed", str(self.cli_seed(seed))]

    def cli_seed(self, seed: int) -> int:
        return PROBE_SEEDS[seed % len(PROBE_SEEDS)] if self.probe else seed

    def reference(self, all_refs: dict, seed: int) -> dict:
        ref = all_refs[self.name]
        return ref[str(self.cli_seed(seed))] if self.probe else ref

    def summarise(self, out_dir: Path) -> dict:
        if self.kind == "catalog":
            return gate.summarise_catalog(out_dir)
        return gate.summarise_cli(out_dir)

    def outputs(self) -> tuple[str, ...]:
        return ("catalog.json",) if self.kind == "catalog" else ("report.yaml", "profile.csv")

    def setup_argv(self) -> list[str]:
        """A fresh interpreter that imports the package and parses the inputs."""
        if self.kind == "catalog":
            return [sys.executable, "-c",
                    "import sys; sys.path.insert(0, sys.argv[1]); import catalog; "
                    "catalog.build_inputs()", str(BENCH_DIR)]
        return [sys.executable, "-c",
                "import sys, hammerstein.cli, hammerstein.config; "
                "hammerstein.config.load_config(sys.argv[1])",
                str(BENCH_DIR / "workloads" / self.config)]


WORKLOADS = {w.name: w for w in (
    Workload("readme-nemytsky", "cli", "readme.yaml", probe=True),
    Workload("catalog-9", "catalog"),
    Workload("large-grid", "cli", "large_grid.yaml"),
)}


@dataclass
class Child:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    traced: bool


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """The harness's environment with ``src/`` first on the path and every
    BLAS thread variable set to ``nproc``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(dict.fromkeys(THREAD_VARS, str(nproc())))
    return env


def run_child(argv: list[str], log_dir: Path, env: dict, traced: bool = False) -> Child:
    """Run one child to completion; wall time from launch to exit, CPU time and
    peak RSS from ``os.wait4`` on this child alone."""
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout.txt", "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(exit_code=proc.returncode, wall_s=wall,
                 cpu_s=usage.ru_utime + usage.ru_stime,
                 peak_rss_mb=usage.ru_maxrss / 1024.0,   # KiB on Linux
                 traced=traced)


def child_argv(kind: str, args: list[str], out_dir: Path, traced: bool) -> list[str]:
    """A "cli" or "catalog" child; traced ones write their spans to out_dir."""
    if traced:
        return [sys.executable, str(BENCH_DIR / "tracer.py"),
                "--spans", str(out_dir / "spans.json"), kind, *args]
    if kind == "catalog":
        return [sys.executable, str(BENCH_DIR / "catalog.py"), *args]
    return [sys.executable, "-m", "hammerstein.cli", *args]


def machine_facts(env: dict) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: env[var] for var in THREAD_VARS},
    }


@dataclass
class Run:
    children: list[Child] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    misses: list[str] = field(default_factory=list)
    failed: int = 0                     # children that missed the gate


def check_outputs(workload: Workload, out_dir: Path, reference: dict,
                  first: dict[str, bytes] | None) -> tuple[list[str], dict[str, bytes]]:
    """Gate misses of one child's outputs, and those outputs as bytes."""
    try:
        misses = gate.check(workload.summarise(out_dir), reference)
        outputs = {name: (out_dir / name).read_bytes() for name in workload.outputs()}
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"], {}
    if first is not None:
        misses += [f"{name} differs from child 0" for name in outputs
                   if outputs[name] != first[name]]
    return misses, outputs


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 reference: dict, env: dict) -> Run:
    """Children until ``seconds`` have passed, at least ``MIN_CHILDREN``.

    Untraced runs take ``SETUP_PER_CHILD`` set-up samples before each child,
    so the set-up times are spread over the whole run, after one discarded
    warm-up that also compiles any missing bytecode.
    """
    run = Run()
    first: dict[str, bytes] | None = None
    began = time.perf_counter()

    def sample_setup(keep: bool) -> bool:
        child = run_child(workload.setup_argv(), WORK / "setup", env)
        if child.exit_code != 0:
            run.misses.append(f"setup interpreter exited {child.exit_code}")
            return False
        if keep:
            run.setup_s.append(child.wall_s)
        return True

    if not sample_setup(keep=False):
        return run
    while True:
        elapsed = time.perf_counter() - began
        if len(run.children) >= MIN_CHILDREN and elapsed >= seconds:
            break
        longest = max((c.wall_s for c in run.children), default=0.0)
        if run.children and elapsed + longest > RUN_BUDGET_S:
            break
        if not trace and not all(sample_setup(keep=True) for _ in range(SETUP_PER_CHILD)):
            break
        index = len(run.children)
        traced = trace and index % 2 == 1
        out_dir = WORK / f"child-{index}"
        argv = child_argv(workload.kind, workload.child_args(seed, out_dir), out_dir, traced)
        child = run_child(argv, out_dir, env, traced)
        run.children.append(child)
        if child.exit_code != 0:
            misses = [f"exit code {child.exit_code}"]
        else:
            misses, outputs = check_outputs(workload, out_dir, reference, first)
            first = first or outputs
        print(f"child {index} traced={int(traced)} exit={child.exit_code} "
              f"wall_s={child.wall_s:.3f} cpu_s={child.cpu_s:.3f} "
              f"peak_rss_mb={child.peak_rss_mb:.1f}", flush=True)
        if misses:
            run.misses += [f"child {index}: {miss}" for miss in misses]
            run.failed += 1
            break                      # a broken program fails every repeat
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the certified solve.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hammerstein" / "__init__.py").is_file():
        print(f"error: no hammerstein package under {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = workload.reference(gate.load_reference(), args.seed)
    env = child_env()

    shutil.rmtree(WORK, ignore_errors=True)
    try:
        run = run_workload(workload, args.seed, args.seconds, bool(args.trace), reference, env)
        spans = [json.loads((WORK / f"child-{i}" / "spans.json").read_text())
                 for i, c in enumerate(run.children) if c.traced and not run.misses]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for miss in run.misses:
        print(f"FAIL {miss}", file=sys.stderr)

    attempted = len(run.children)
    plain = [c for c in run.children if not c.traced]
    info = {"workload": workload.name, "seed": args.seed, "children": attempted,
            "setup_samples": len(run.setup_s), "machine": machine_facts(env)}
    if attempted == 0:
        metrics = {}
    elif args.trace:
        traced = [c for c in run.children if c.traced]
        layers = [tracer.layer_metrics(s) for s in spans]

        def pooled(name: str, unit: str):
            column = [m[name] for m in layers]
            if not column:
                return 0
            # counts repeat exactly, so the low median keeps them whole numbers
            return statistics.median(column) if unit == "s" else statistics.median_low(column)

        metrics = {name: {"value": pooled(name, unit), "unit": unit}
                   for name, unit in tracer.LAYER_METRICS.items()}
        if traced and plain:
            untraced_wall = statistics.median(c.wall_s for c in plain)
            traced_wall = statistics.median(c.wall_s for c in traced)
            info["tracing_overhead_s"] = traced_wall - untraced_wall
            info["untraced_wall_s"] = untraced_wall
            info["traced_wall_s"] = traced_wall
    else:
        values = {
            "wall_s": statistics.median(c.wall_s for c in plain),
            "cpu_s": statistics.median(c.cpu_s for c in plain),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in plain),
            "setup_s": statistics.median(run.setup_s),
            "success_rate": (attempted - run.failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"info": info}))
    correct = not run.misses and attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": run.failed if attempted else 1,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
