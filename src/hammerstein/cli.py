"""Command-line front end: check / solve / solve-nemytsky / table.

A run reads one YAML config, executes condition checks, the ceiling
iteration, the optional combined-equation solve and the enabled
certificates, then writes

* ``profile.csv``   one row per node (x, f_star, gamma, eta_minus_fstar and,
  when the combined solve ran, phi with its two envelopes);
* ``report.yaml``   conditions, solve data with the rate envelope, the
  certificate bundle and the config echo -- byte-identical for identical
  config and seed (timestamps go to a sidecar);
* ``run_meta.txt``  timestamp and wall time, kept out of the report.

Exit codes: 0 all enabled certificates passed; 1 a certificate failed
(report still written); 2 config error; 3 condition checks failed or the
cusp-corrected operator was refused (report still written); 4
non-convergence; 5 numerical failure (an iterate left its domain, a
theorem-level inequality broke beyond noise, or a solve report contradicted
itself).
"""

from __future__ import annotations

import argparse
import datetime
import math
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .analysis import (CertificateBundle, asymptote_certificate,
                       excess_integral_certificate, jensen_certificate,
                       tail_integral_certificate, uniqueness_probe)
from .config import RunConfig, load_config
from .errors import (ConfigError, DomainViolationError, HammersteinError,
                     InconsistentReportError, NonConvergenceError,
                     NumericalBreakdownError, SpecRejectedError)
from .kernels import discretise
from .nemytsky import check_nemytsky_conditions, solve_nemytsky
from .nonlinearity import check_G_conditions
from .picard import rate_envelope, solve_picard

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONDITIONS = 3
EXIT_NO_CONVERGENCE = 4
EXIT_NUMERICAL = 5

NUMERICAL_ERRORS = (NumericalBreakdownError, DomainViolationError,
                    InconsistentReportError)


def _plain(obj, drop=()):
    """Recursively convert reports to YAML-safe plain python values; a
    dataclass's ``iterates`` and ``drop`` fields are left out unwalked."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return _plain(obj.item())
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if hasattr(obj, "__dataclass_fields__"):
        return {name: _plain(getattr(obj, name))
                for name in obj.__dataclass_fields__ if name not in ("iterates", *drop)}
    return repr(obj)


def emit_convergence_table(sup_diffs, envelope) -> str:
    """Delimited table of measured differences against the geometric envelope.

    Columns: n, sup_diff, envelope, ratio -- one row per ``envelope[n - 1]``,
    the bound on ``sup_diffs[n]`` past the start step.  Header only when
    there is no history to show.
    """
    lines = ["n sup_diff envelope ratio"]
    for n, env in enumerate(envelope, start=1):
        diff = sup_diffs[n]
        ratio = diff / env if env > 0.0 else math.nan
        lines.append(f"{n} {diff:.17g} {env:.17g} {ratio:.17g}")
    return "\n".join(lines) + "\n"


def _write_profile(path: Path, grid, fstar, gamma, eta, nem_report=None) -> None:
    columns = ["x", "f_star", "gamma", "eta_minus_fstar"]
    data = [grid.nodes, fstar, gamma, eta - fstar]
    if nem_report is not None:
        columns += ["phi", "lower_env", "upper_env"]
        data += [nem_report.profile, nem_report.lower_env, nem_report.upper_env]
    np.savetxt(path, np.column_stack(data), fmt="%.17g", delimiter=",",
               header=",".join(columns), comments="")


def _write_report(path: Path, payload: dict) -> None:
    path.write_text(yaml.safe_dump(_plain(payload), sort_keys=True,
                                   default_flow_style=False))


def _run(mode: str, config: RunConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()

    report_path = out_dir / "report.yaml"
    payload: dict = {
        "tool": {"name": "hammerstein", "version": __version__},
        "config": config.echo,
    }

    def finish(code: int) -> int:
        _write_report(report_path, payload)
        elapsed = time.perf_counter() - started
        (out_dir / "run_meta.txt").write_text(
            f"started_utc: {stamp}\nwall_seconds: {elapsed:.3f}\n")
        return code

    try:
        disc = discretise(config.kernel, config.grid,
                          probe_count=config.probe_count, tol=config.check_tol)
    except SpecRejectedError as exc:
        # the checks passed but the cusp-corrected operator is not positive
        payload["conditions"] = {"kernel": {**_plain(exc.report), "passed": False,
                                            "operator_refused": str(exc)}}
        payload["status"] = {"conditions_passed": False}
        return finish(EXIT_CONDITIONS)
    kernel_report = disc.report
    g_report = check_G_conditions(config.nonlinearity)
    payload["conditions"] = {
        "kernel": {**_plain(kernel_report), "passed": kernel_report.passed},
        "nonlinearity": {**_plain(g_report), "passed": g_report.passed},
    }
    conditions_passed = kernel_report.passed and g_report.passed

    nem_spec = None
    if mode == "solve-nemytsky":
        nem_spec = config.nemytsky_spec()
        nem_conditions = check_nemytsky_conditions(nem_spec, config.grid,
                                                   gamma=disc.gamma)
        payload["conditions"]["nemytsky"] = {**_plain(nem_conditions),
                                             "passed": nem_conditions.passed}
        conditions_passed = conditions_passed and nem_conditions.passed

    payload["status"] = {"conditions_passed": conditions_passed}

    if mode == "check" or not conditions_passed:
        return finish(EXIT_OK if conditions_passed else EXIT_CONDITIONS)

    operator, gamma = disc.operator, disc.gamma
    rate_exp = config.nonlinearity.rate_exponent
    try:
        solve = solve_picard(operator, config.nonlinearity,
                             tol=config.tol, max_iter=config.max_iter)
    except NonConvergenceError as exc:
        solve = exc.report      # the partial report is written all the same
    payload["solve"] = {
        **_plain(solve, drop=("profile",)),     # profiles live in profile.csv
        "rate_exponent": rate_exp,
        "envelope": [None] + _plain(rate_envelope(solve, rate_exp)),
    }
    if not solve.converged:
        payload["status"]["converged"] = False
        return finish(EXIT_NO_CONVERGENCE)

    nem_report = None
    if nem_spec is not None:
        try:
            nem_report = solve_nemytsky(nem_spec, config.grid, solve.profile,
                                        tol=config.tol, max_iter=10 * config.max_iter,
                                        operator=operator)
        except NonConvergenceError as exc:
            payload["nemytsky_solve"] = _plain(exc.report)
            payload["status"]["converged"] = False
            return finish(EXIT_NO_CONVERGENCE)
        payload["nemytsky_solve"] = _plain(
            nem_report, drop=("profile", "lower_env", "upper_env"))

    certs = config.certificates
    bundle = CertificateBundle()
    if certs.excess_integral:
        bundle.excess = excess_integral_certificate(
            solve.profile, kernel_report, config.nonlinearity, config.grid)
    if certs.tail_integral:
        bundle.tail = tail_integral_certificate(
            solve.profile, config.grid, config.nonlinearity, kernel_report)
    if certs.jensen:
        margin = jensen_certificate(operator, config.nonlinearity, solve.profile)
        bundle.jensen_min_margin = margin
        bundle.jensen_passed = margin >= -1e-12
    if certs.asymptote:
        bundle.asymptote = asymptote_certificate(solve.profile, gamma,
                                                 config.nonlinearity.eta)
    if certs.uniqueness_probe:
        bundle.uniqueness = uniqueness_probe(
            operator, config.nonlinearity, solve.profile,
            perturbation_scale=certs.probe_scale, trials=certs.probe_trials,
            seed=certs.seed, tol=config.tol, max_iter=10 * config.max_iter)
    payload["certificates"] = _plain(bundle)
    payload["status"]["converged"] = True
    payload["status"]["certificates_passed"] = bundle.all_passed

    _write_profile(out_dir / "profile.csv", config.grid, solve.profile, gamma,
                   config.nonlinearity.eta, nem_report)
    return finish(EXIT_OK if bundle.all_passed else 1)


def run(config_path, out_dir, mode: str = "solve", seed: int | None = None) -> int:
    """Programmatic entry point; returns the CLI exit code."""
    try:
        config = load_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if seed is not None:
        config.certificates.seed = seed
        config.echo["certificates"]["seed"] = seed
    if mode == "solve-nemytsky" and config.nemytsky is None:
        print("config error: nemytsky: section is missing", file=sys.stderr)
        return EXIT_CONFIG
    return _run(mode, config, Path(out_dir))


def _table_command(report_path: Path) -> int:
    tree = yaml.safe_load(Path(report_path).read_text())
    solve = tree.get("solve")
    if not solve:
        print("report has no solve section", file=sys.stderr)
        return EXIT_CONFIG
    sys.stdout.write(emit_convergence_table(
        [float(d) for d in solve["sup_diffs"]],
        [float(e) for e in solve["envelope"][1:]]))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hammerstein",
        description="Certified monotone solvers for nonlinear integral "
                    "equations on the half-line.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_command(name: str, help_text: str):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, type=Path,
                         help="YAML run configuration")
        cmd.add_argument("--out-dir", default=Path("out"), type=Path,
                         help="directory for report/profile artifacts")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override certificates.seed")
        return cmd

    add_run_command("check", "run condition checks only")
    add_run_command("solve", "condition checks, ceiling iteration, certificates")
    add_run_command("solve-nemytsky", "full pipeline including the combined equation")

    table_cmd = sub.add_parser("table", help="re-emit the convergence table from a report")
    table_cmd.add_argument("--report", required=True, type=Path)

    args = parser.parse_args(argv)
    try:
        if args.command == "table":
            return _table_command(args.report)
        return run(args.config, args.out_dir, mode=args.command, seed=args.seed)
    except HammersteinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NonConvergenceError):
            return EXIT_NO_CONVERGENCE
        return EXIT_NUMERICAL if isinstance(exc, NUMERICAL_ERRORS) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
