"""Self-tests of the benchmark itself; about 20 s.

    python3 perfbench/selftest.py

* the tracer leaves the program's outputs byte-identical (a small CLI
  config, and the catalog-9 child);
* the correctness gate fails on a doctored report: one flipped verdict, one
  perturbed f* node;
* every metric name ``run.py`` can print, and every workload, matches
  BENCHMARK.json.

Exits 0 when every check passes.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys

import yaml

import gate
import run
import tracer

WORK = run.WORK / "selftest"


def small_config():
    """The README config on a 150-panel grid with two probe trials."""
    tree = yaml.safe_load((run.BENCH_DIR / "workloads" / "readme.yaml").read_text())
    tree["grid"]["n_panels"] = 150
    tree["certificates"]["probe_trials"] = 2
    path = WORK / "small.yaml"
    path.write_text(yaml.safe_dump(tree))
    return path


def expect(condition, message) -> None:
    if not condition:
        raise AssertionError(message)


def run_pair(kind: str, args_for) -> tuple:
    """Run one untraced and one traced child; return their output dirs."""
    env = run.child_env()
    dirs = []
    for traced in (False, True):
        out_dir = WORK / f"{kind}-{int(traced)}"
        child = run.run_child(run.child_argv(kind, args_for(out_dir), out_dir, traced),
                              out_dir, env, traced)
        expect(child.exit_code == 0,
               f"{kind} child traced={traced} exited {child.exit_code}: "
               + (out_dir / "stderr.txt").read_text()[-2000:])
        dirs.append(out_dir)
    return tuple(dirs)


def check_tracer_leaves_outputs_unchanged() -> dict:
    config = small_config()
    plain, traced = run_pair("cli", lambda d: ["solve-nemytsky", "--config", str(config),
                                               "--out-dir", str(d), "--seed", "7"])
    for name in ("report.yaml", "profile.csv"):
        expect((plain / name).read_bytes() == (traced / name).read_bytes(), name)
    spans = json.loads((traced / "spans.json").read_text())
    names = {s["name"] for s in spans}
    # the refined-grid check is reached through hammerstein.analysis's binding
    expect(any(s["name"] == "kernels.check_kernel_conditions"
               and spans[s["parent"]]["name"] == "analysis.uniqueness_probe"
               for s in spans if s["parent"] is not None), "probe check not traced")
    missing = {f"{mod}.{fn}" for mod, fn, _ in tracer.WRAPPED} - names
    expect(not missing, f"wrapped functions never traced: {sorted(missing)}")

    cat_plain, cat_traced = run_pair("catalog", lambda d: ["--out-dir", str(d)])
    expect((cat_plain / "catalog.json").read_bytes()
           == (cat_traced / "catalog.json").read_bytes(), "catalog.json")
    return {"cli": plain, "spans": spans}


def check_gate_fails_on_doctored_report(out_dir) -> None:
    reference = gate.summarise_cli(out_dir)
    expect(gate.check(reference, reference) == [], "gate rejects its own reference")

    doctored = WORK / "doctored"
    shutil.copytree(out_dir, doctored)
    report_path = doctored / "report.yaml"
    report = yaml.safe_load(report_path.read_text())
    report["certificates"]["excess"]["passed"] = False
    report_path.write_text(yaml.safe_dump(report))
    misses = gate.check(gate.summarise_cli(doctored), reference)
    expect(misses == ["verdict excess = False"], misses)

    shutil.copy(out_dir / "report.yaml", report_path)
    with open(doctored / "profile.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    node = gate.node_indices(len(rows))[2]
    rows[node]["f_star"] = repr(float(rows[node]["f_star"]) + 1e-9)
    with open(doctored / "profile.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    misses = gate.check(gate.summarise_cli(doctored), reference)
    expect(len(misses) == 1 and misses[0].startswith(f"f_star@{node} "), misses)


def check_metric_names_match_benchmark_json(spans) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workloads")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "end_to_end metrics")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_METRICS,
           "per_layer metrics")
    expect(list(tracer.layer_metrics(spans)) == [m["name"] for m in spec["per_layer"]],
           "traced metric names")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    failures = 0

    def attempt(name, check, *args):
        nonlocal failures
        try:
            result = check(*args)
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
            return None
        print(f"PASS {name}")
        return result

    try:
        traced_run = attempt("tracer leaves outputs unchanged",
                             check_tracer_leaves_outputs_unchanged)
        if traced_run is None:
            return 1
        attempt("gate fails on a doctored report",
                check_gate_fails_on_doctored_report, traced_run["cli"])
        attempt("metric names match BENCHMARK.json",
                check_metric_names_match_benchmark_json, traced_run["spans"])
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
