"""catalog-9 workload child: the nine acceptance-catalog configurations
through the library API, in one process.

Kernel families A/B/C times nonlinearity families I/II/III at the catalog
defaults, Gaussian base kernel, grid [0, 40] with 400 four-point Gauss
panels, tolerance 1e-10.  Per kernel: condition check, operator assembly and
gamma once.  Per pair: nonlinearity check, the Picard solve, then the excess,
tail, Jensen and asymptote certificates.  No probe, no Nemytsky step.

The configurations run in the acceptance suite's order.  They are fixed, so
no seed enters: shuffling the order would move peak RSS by 10% and wall time
with it, through the allocation pattern alone.  The results go to
``catalog.json`` in the output directory, in sorted key order so repeats
compare byte for byte.

    python3 perfbench/catalog.py --out-dir DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import hammerstein as hs   # called as hs.<name> so tracer wrappers are seen

import gate

X_MAX, N_PANELS, POINTS_PER_PANEL = 40.0, 400, 4
TOL, MAX_ITER = 1e-10, 500
KERNEL_PARAMS = {"A": {}, "B": {"delta": 0.5}, "C": {"epsilon": 0.5}}
G_PARAMS = {
    "I": {"alpha": 0.5},
    "II": {"alpha_star": 0.5},
    "III": {"alpha_tilde": 0.25, "alpha_star": 0.75},
}


def build_inputs():
    """The grid and the kernel and nonlinearity specs."""
    grid = hs.build_grid(X_MAX, N_PANELS, hs.GAUSS, POINTS_PER_PANEL)
    kernels = [(name, hs.KernelSpec(family=name, base=hs.BaseKernel(),
                                    modulation=hs.ModulationSet(d_star=0.5, l=0.5),
                                    **params))
               for name, params in KERNEL_PARAMS.items()]
    nonlinearities = [(name, hs.NonlinearitySpec(family=name, **params))
                      for name, params in G_PARAMS.items()]
    return grid, kernels, nonlinearities


def run_catalog(grid, kernels, nonlinearities) -> dict:
    nodes = gate.node_indices(grid.size)
    results = {}
    for kname, spec in kernels:
        report = hs.check_kernel_conditions(spec, grid)
        A = hs.assemble_operator(spec, grid, report=report)
        gamma = hs.gamma_profile(spec, grid)
        for gname, G in nonlinearities:
            g_report = hs.check_G_conditions(G)
            solve = hs.solve_picard(A, G, tol=TOL, max_iter=MAX_ITER)
            f = solve.profile
            excess = hs.excess_integral_certificate(f, report, G, grid)
            tail = hs.tail_integral_certificate(f, grid, G, report)
            margin = hs.jensen_certificate(A, G, f)
            asymptote = hs.asymptote_certificate(f, gamma, G.eta)
            results[f"{kname}/{gname}"] = {
                "verdicts": {
                    "kernel_conditions": report.passed,
                    "G_conditions": g_report.passed,
                    "converged": solve.converged,
                    "rate_bound": solve.rate_bound_ok,
                    "monotone": solve.monotone_ok,
                    "excess": excess.passed,
                    "tail": tail.passed,
                    "jensen": margin >= -1e-12,     # the CLI's Jensen verdict
                    "asymptote": asymptote.passed,
                },
                "counts": {"picard.iterations": solve.iterations},
                "values": {"sigma0": solve.sigma0, "residual_inf": solve.residual_inf,
                           **{f"f_star@{i}": float(f[i]) for i in nodes}},
                # repeats are compared byte for byte, so this covers every node
                "profile_sha256": hashlib.sha256(f.tobytes()).hexdigest(),
            }
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    results = run_catalog(*build_inputs())
    args.out_dir.mkdir(parents=True, exist_ok=True)
    (args.out_dir / "catalog.json").write_text(json.dumps(results, sort_keys=True, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
