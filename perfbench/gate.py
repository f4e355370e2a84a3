"""Correctness gate: every benchmark child must produce a checked, certified result.

A child's outputs are reduced to a *summary*:

* ``verdicts``  every pass/fail flag the run reports (conditions, iteration
  flags, each certificate);
* ``counts``    Picard and Nemytsky iteration counts;
* ``values``    sigma0, residuals, the probe's ``max_dev`` and f* / Phi at a
  fixed set of nodes.

``check`` compares a summary against the reference values kept in
``reference.json`` (written by ``make_reference.py``): verdicts and counts
must be equal, no verdict may be false, and every value must lie within
``VALUE_TOL`` of its reference.  Values are compared with a tolerance, not
by hash, so last-bit changes to the numbers still pass.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import yaml

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
VALUE_TOL = 1e-12
NODE_FRACTIONS = (0.0, 0.125, 0.25, 0.5, 0.75, 1.0)


def node_indices(size: int) -> list[int]:
    return [round(f * (size - 1)) for f in NODE_FRACTIONS]


def summarise_cli(out_dir: Path) -> dict:
    """Summary of a ``solve-nemytsky`` run from its report.yaml and profile.csv."""
    report = yaml.safe_load((Path(out_dir) / "report.yaml").read_text())
    with open(Path(out_dir) / "profile.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    solve, nem, certs = report["solve"], report["nemytsky_solve"], report["certificates"]
    verdicts = {
        "certificates_passed": report["status"]["certificates_passed"],
        "conditions_passed": report["status"]["conditions_passed"],
        "converged": report["status"]["converged"],
        "rate_bound": solve["rate_bound_ok"],
        "monotone": solve["monotone_ok"],
        "nemytsky_increase": nem["increase_ok"],
        "nemytsky_envelope": nem["envelope_ok"],
        "nemytsky_sandwich": nem["sandwich_ok"],
        "excess": certs["excess"]["passed"],
        "tail": certs["tail"]["passed"],
        "jensen": certs["jensen_passed"],
        "asymptote": certs["asymptote"]["passed"],
    }
    values = {
        "sigma0": solve["sigma0"],
        "residual_inf": solve["residual_inf"],
        "nemytsky_residual_inf": nem["residual_inf"],
    }
    if certs["uniqueness"] is not None:
        verdicts["uniqueness"] = certs["uniqueness"]["passed"]
        values["probe_max_dev"] = certs["uniqueness"]["max_dev"]
    for i in node_indices(len(rows)):
        values[f"f_star@{i}"] = float(rows[i]["f_star"])
        values[f"phi@{i}"] = float(rows[i]["phi"])
    return {"verdicts": verdicts,
            "counts": {"picard.iterations": solve["iterations"],
                       "nemytsky.iterations": nem["iterations"]},
            "values": values}


def summarise_catalog(out_dir: Path) -> dict:
    """Summaries of the nine catalog pairs, keyed "<kernel>/<nonlinearity>"."""
    pairs = json.loads((Path(out_dir) / "catalog.json").read_text())
    return {key: {part: pair[part] for part in ("verdicts", "counts", "values")}
            for key, pair in pairs.items()}


def check(summary: dict, reference: dict, where: str = "") -> list[str]:
    """Every way ``summary`` misses ``reference``; empty when the gate passes."""
    if "verdicts" not in reference:          # catalog: one summary per pair
        if summary.keys() != reference.keys():
            return [f"{where}pairs {sorted(summary)} != {sorted(reference)}"]
        return [miss for key in sorted(reference)
                for miss in check(summary[key], reference[key], f"{where}{key} ")]
    misses = []
    for kind in ("verdicts", "counts", "values"):
        if summary[kind].keys() != reference[kind].keys():
            misses.append(f"{where}{kind} keys {sorted(summary[kind])} "
                          f"!= {sorted(reference[kind])}")
    for name, verdict in summary["verdicts"].items():
        if verdict is False or verdict != reference["verdicts"].get(name):
            misses.append(f"{where}verdict {name} = {verdict!r}")
    for name, count in summary["counts"].items():
        if count != reference["counts"].get(name):
            misses.append(f"{where}{name} = {count!r}, "
                          f"reference {reference['counts'].get(name)!r}")
    for name, value in summary["values"].items():
        ref = reference["values"].get(name)
        if (ref is None or not isinstance(value, (int, float))
                or not math.isfinite(value) or abs(value - ref) > VALUE_TOL):
            misses.append(f"{where}{name} = {value!r}, reference {ref!r}")
    return misses


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())
