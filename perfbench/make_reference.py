"""Write reference.json: the correctness gate's reference values.

    python3 perfbench/make_reference.py

Runs every workload once, untraced, on the code in ``src/`` and stores the
gate summary of its outputs; ``readme-nemytsky`` once per probe seed in
``run.PROBE_SEEDS``.  A child that fails or reports a false verdict stops
the script without writing anything.  Regenerate only when a change is meant
to move the gated values, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
import run


def main() -> int:
    env = run.child_env()
    reference: dict = {}
    shutil.rmtree(run.WORK, ignore_errors=True)
    try:
        for workload in run.WORKLOADS.values():
            # workload seeds whose CLI seeds cover every probe seed
            seeds = range(len(run.PROBE_SEEDS)) if workload.probe else [0]
            for seed in seeds:
                out_dir = run.WORK / f"{workload.name}-{seed}"
                argv = run.child_argv(workload.kind, workload.child_args(seed, out_dir),
                                      out_dir, False)
                child = run.run_child(argv, out_dir, env)
                if child.exit_code != 0:
                    print(f"{workload.name} seed {seed}: exit code {child.exit_code}",
                          file=sys.stderr)
                    return 1
                summary = workload.summarise(out_dir)
                pairs = summary.values() if workload.kind == "catalog" else [summary]
                if any(v is False for pair in pairs for v in pair["verdicts"].values()):
                    print(f"{workload.name} seed {seed}: a verdict is false", file=sys.stderr)
                    return 1
                if workload.probe:
                    reference.setdefault(workload.name, {})[str(workload.cli_seed(seed))] = summary
                else:
                    reference[workload.name] = summary
                print(f"{workload.name} seed {seed}: wall {child.wall_s:.2f} s", flush=True)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    gate.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
