"""Command-line front end: check / solve / solve-nemytsky / table.

A run reads one YAML config, executes condition checks, the ceiling
iteration, the optional combined-equation solve and the enabled
certificates, then writes

* ``profile.csv``   one row per node (x, f_star, gamma and, when the
  combined solve ran, phi: between xi * gamma and eta - f_star = 1 - f_star);
* ``report.yaml``   conditions, solve data with the rate envelope, the
  enabled certificates and the config echo -- byte-identical for identical
  config and seed (timestamps go to a sidecar);
* ``run_meta.txt``  timestamp and wall time, kept out of the report.

Exit codes: 0 every verdict passed; 1 a verdict of the iteration, the
combined solve or a certificate failed (a ``passed``, ``*_passed`` or
``*_ok`` key reads false; report still written, the key's path on stderr);
2 config error, or an I/O error on ``--report`` or ``--out-dir`` (one
``error:`` line naming the path); 3 condition checks failed or the
cusp-corrected operator was refused (report still written); 4
non-convergence; 5 numerical failure (report still written, the message
under ``status.numerical_error``).
Codes 2-5 are the ``exit_code`` of the classes in :mod:`hammerstein.errors`.
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
from .analysis import (asymptote_certificate, excess_integral_certificate,
                       jensen_certificate, tail_integral_certificate,
                       uniqueness_probe)
from .config import SAFE_LOADER, RunConfig, load_config
from .errors import (ConfigError, HammersteinError, NonConvergenceError,
                     NumericalBreakdownError, SpecRejectedError)
from .kernels import discretise
from .nemytsky import check_nemytsky_conditions, solve_nemytsky
from .picard import rate_envelope, solve_picard

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_CONFIG = ConfigError.exit_code
EXIT_CONDITIONS = SpecRejectedError.exit_code
EXIT_NO_CONVERGENCE = NonConvergenceError.exit_code
VERDICT_SECTIONS = ("solve", "nemytsky_solve", "certificates")
PROFILE_BLOCK_ROWS = 256
# libyaml's C emitter where available: the same bytes as SafeDumper, faster
SAFE_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def _plain(obj, drop=()):
    """Recursively convert reports to YAML-safe plain python values; a
    dataclass's ``drop`` fields are left out unwalked."""
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
                for name in obj.__dataclass_fields__ if name not in drop}
    return repr(obj)


def _failed_verdicts(tree: dict, path: str):
    """Dotted paths of the ``passed``, ``*_passed`` and ``*_ok`` keys of a
    plain report tree that read False, at any depth."""
    for key, val in tree.items():
        if isinstance(val, dict):
            yield from _failed_verdicts(val, f"{path}.{key}")
        elif val is False and (key == "passed" or key.endswith(("_passed", "_ok"))):
            yield f"{path}.{key}"


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


def _write_profile(path: Path, grid, fstar, gamma, phi=None) -> None:
    """One ``%.17g`` row per node, byte-identical to ``np.savetxt`` with that
    format, written ``PROFILE_BLOCK_ROWS`` rows to one ``%`` format at a time."""
    columns, data = ["x", "f_star", "gamma"], [grid.nodes, fstar, gamma]
    if phi is not None:
        columns, data = columns + ["phi"], data + [phi]
    row = ",".join(["%.17g"] * len(data)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(data[0]), PROFILE_BLOCK_ROWS):
            block = np.column_stack([col[start:start + PROFILE_BLOCK_ROWS] for col in data])
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _run(mode: str, config: RunConfig, out_dir: Path) -> int:
    """Run ``mode`` and write its report, also when a numerical failure (exit
    5) stops the run part way: the report then holds every stage finished
    before it and ``status.numerical_error``, the failure's message."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(str(out_dir),
                          f"cannot create the output directory: {exc.strerror}") from exc
    started = time.perf_counter()
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    payload: dict = {"tool": {"name": "hammerstein", "version": __version__},
                     "config": config.echo}
    try:
        code = _stages(mode, config, out_dir, payload)
    except NumericalBreakdownError as exc:
        print(f"error: {exc}", file=sys.stderr)
        payload.setdefault("status", {})["numerical_error"] = str(exc)
        code = exc.exit_code
    (out_dir / "report.yaml").write_text(
        yaml.dump(_plain(payload), Dumper=SAFE_DUMPER, sort_keys=True,
                  default_flow_style=False))
    elapsed = time.perf_counter() - started
    (out_dir / "run_meta.txt").write_text(
        f"started_utc: {stamp}\nwall_seconds: {elapsed:.3f}\n")
    return code


def _stages(mode: str, config: RunConfig, out_dir: Path, payload: dict) -> int:
    """Every stage of a run, filling ``payload``; returns the exit code."""
    try:
        disc = discretise(config.kernel, config.grid)
    except SpecRejectedError as exc:
        # the checks passed but the cusp-corrected operator is not positive
        payload["conditions"] = {"kernel": {**_plain(exc.report), "passed": False,
                                            "operator_refused": str(exc)}}
        payload["status"] = {"conditions_passed": False}
        return EXIT_CONDITIONS
    kernel_report = disc.report
    payload["conditions"] = {
        "kernel": {**_plain(kernel_report), "passed": kernel_report.passed}}
    conditions_passed = kernel_report.passed

    nem_spec = config.nemytsky if mode == "solve-nemytsky" else None
    if nem_spec is not None:
        nem_conditions = check_nemytsky_conditions(disc.gamma)
        payload["conditions"]["nemytsky"] = {**_plain(nem_conditions),
                                             "passed": nem_conditions.passed}
        conditions_passed = conditions_passed and nem_conditions.passed

    payload["status"] = {"conditions_passed": conditions_passed}

    if mode == "check" or not conditions_passed:
        return EXIT_OK if conditions_passed else EXIT_CONDITIONS

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
        return EXIT_NO_CONVERGENCE

    nem_report = None
    if nem_spec is not None:
        try:
            nem_report = solve_nemytsky(nem_spec, solve.profile, tol=config.tol,
                                        max_iter=10 * config.max_iter, operator=operator)
        except NonConvergenceError as exc:
            nem_report = exc.report
        payload["nemytsky_solve"] = _plain(nem_report, drop=("profile",))
        if not nem_report.converged:
            payload["status"]["converged"] = False
            return EXIT_NO_CONVERGENCE

    certs = config.certificates
    results: dict = dict.fromkeys(("excess", "tail", "jensen_min_margin",
                                   "jensen_passed", "asymptote", "uniqueness"))
    if certs.excess_integral:
        results["excess"] = excess_integral_certificate(
            solve.profile, kernel_report, config.nonlinearity, config.grid)
    if certs.tail_integral:
        results["tail"] = tail_integral_certificate(
            solve.profile, config.grid, config.nonlinearity, kernel_report)
    if certs.jensen:
        margin = jensen_certificate(operator, config.nonlinearity, solve.profile)
        results["jensen_min_margin"] = margin
        results["jensen_passed"] = margin >= -1e-12
    if certs.asymptote:
        results["asymptote"] = asymptote_certificate(solve.profile, gamma,
                                                     config.nonlinearity.eta)
    if certs.uniqueness_probe:
        results["uniqueness"] = uniqueness_probe(
            operator, config.nonlinearity, solve.profile,
            perturbation_scale=certs.probe_scale, trials=certs.probe_trials,
            seed=certs.seed, tol=config.tol, max_iter=10 * config.max_iter)
    payload["certificates"] = _plain(results)
    failed = [path for section in VERDICT_SECTIONS if section in payload
              for path in _failed_verdicts(payload[section], section)]
    payload["status"]["converged"] = True
    payload["status"]["certificates_passed"] = not any(
        path.startswith("certificates.") for path in failed)
    for path in failed:
        print(f"verdict failed: {path}", file=sys.stderr)

    _write_profile(out_dir / "profile.csv", config.grid, solve.profile, gamma,
                   None if nem_report is None else nem_report.profile)
    return EXIT_VERDICT if failed else EXIT_OK


def run(config_path, out_dir, mode: str = "solve", seed: int | None = None) -> int:
    """Programmatic entry point; returns the CLI exit code."""
    try:
        config = load_config(config_path, seed=seed)
        if mode == "solve-nemytsky" and config.nemytsky is None:
            raise ConfigError("nemytsky", "section is missing")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return _run(mode, config, Path(out_dir))


def _table_command(report_path: Path) -> int:
    """Print the convergence table of a written report; a report that cannot
    be read, or has no well-formed solve section, is a config error."""
    try:
        solve = yaml.load(report_path.read_text(), Loader=SAFE_LOADER)["solve"]
        table = emit_convergence_table([float(d) for d in solve["sup_diffs"]],
                                       [float(e) for e in solve["envelope"][1:]])
    except (OSError, yaml.YAMLError, LookupError, TypeError, ValueError) as exc:
        reason = " ".join(str(exc).split())     # a YAML error spans lines
        raise ConfigError(str(report_path), "not a report with a solve section "
                                            f"({type(exc).__name__}: {reason})") from exc
    sys.stdout.write(table)
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
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
