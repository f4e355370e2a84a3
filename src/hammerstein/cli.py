"""Command-line front end: check / solve / solve-nemytsky / table.

A run reads one YAML config, executes the kernel's condition checks, the
ceiling iteration, the optional combined-equation solve and the enabled
certificates, then writes

* ``profile.csv``   one row per node (x, f_star, gamma and, when the
  combined solve ran, phi: between xi * gamma and eta - f_star = 1 - f_star);
* ``report.yaml``   conditions, solve data (``table`` derives the rate
  envelope from its sigma0, eta and rate exponent), the enabled
  certificates and the config echo -- byte-identical for identical config
  and seed (timestamps go to a sidecar);
* ``run_meta.txt``  timestamp and wall time, kept out of the report.

One function, ``_verdict``, reads the finished report for its ``status``,
exit code and stderr lines: 0 every verdict passed; 1 a ``passed``,
``*_passed`` or ``*_ok`` key of the iteration, the combined solve or a
certificate reads false (its path on stderr); 3 a condition check failed
(likewise) or the operator was refused (an ``error:`` line); 4 a solve's
report reads ``converged: false`` (an ``error:`` line naming the solve).
2 is a config error or an I/O error on ``--config``, ``--report``,
``--out-dir`` or a file written there, and 5 a numerical failure ending
``in <stage>``, also under ``status.numerical_error``: one ``error:`` line
each.  Every code but 2 writes the report; 2, 3 and 5 are the
``exit_code`` of the classes in :mod:`hammerstein.errors`.
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
from .config import RunConfig, load_config, read_yaml
from .errors import (ConfigError, HammersteinError, NumericalBreakdownError,
                     SpecRejectedError)
from .kernels import discretise
from .nemytsky import solve_nemytsky
from .picard import rate_envelope, solve_picard

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_CONDITIONS = SpecRejectedError.exit_code
EXIT_NO_CONVERGENCE = 4
# each monotone solve's report section and its name as a stage
SOLVES = {"solve": "the ceiling solve", "nemytsky_solve": "the combined solve"}
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


def _stages(mode: str, config: RunConfig, out_dir: Path, payload: dict):
    """Every stage of a run, filling ``payload``; yields each one's name as it starts."""
    yield "the discretisation"
    try:
        disc = discretise(config.kernel, config.grid)
    except SpecRejectedError as exc:    # the cusp-corrected operator is not positive
        payload["conditions"] = {"kernel": {**_plain(exc.report), "passed": False,
                                            "operator_refused": str(exc)}}
        raise
    payload["conditions"] = {"kernel": {**_plain(disc.report), "passed": disc.report.passed}}
    if mode == "check" or not disc.report.passed:
        return

    yield SOLVES["solve"]
    solve = solve_picard(disc.operator, config.nonlinearity,
                         tol=config.tol, max_iter=config.max_iter)
    payload["solve"] = {
        **_plain(solve, drop=("profile",)),     # profiles live in profile.csv
        "rate_exponent": config.nonlinearity.rate_exponent,
    }
    if not solve.converged:
        return

    nem_report = None
    if mode == "solve-nemytsky":
        yield SOLVES["nemytsky_solve"]
        nem_report = solve_nemytsky(config.nemytsky, solve.profile, tol=config.tol,
                                    max_iter=config.max_iter, operator=disc.operator)
        payload["nemytsky_solve"] = _plain(nem_report, drop=("profile",))
        if not nem_report.converged:
            return

    yield "the certificates"
    certs = config.certificates
    results: dict = dict.fromkeys(("excess", "tail", "jensen_min_margin",
                                   "jensen_passed", "asymptote", "uniqueness"))
    if certs.excess_integral:
        results["excess"] = excess_integral_certificate(
            solve.profile, disc.report, config.nonlinearity, config.grid)
    if certs.tail_integral:
        results["tail"] = tail_integral_certificate(
            solve.profile, config.grid, config.nonlinearity, disc.report)
    if certs.jensen:
        margin = jensen_certificate(disc.operator, config.nonlinearity, solve.profile)
        results["jensen_min_margin"] = margin
        results["jensen_passed"] = margin >= -1e-12
    if certs.asymptote:
        results["asymptote"] = asymptote_certificate(solve.profile, disc.gamma,
                                                     config.nonlinearity.eta)
    if certs.uniqueness_probe:
        yield "the uniqueness probe"
        results["uniqueness"] = uniqueness_probe(
            disc.operator, config.nonlinearity, solve.profile,
            perturbation_scale=certs.probe_scale, trials=certs.probe_trials,
            seed=certs.seed, tol=config.tol, max_iter=config.max_iter)
    payload["certificates"] = _plain(results)

    yield "the profile"
    _write_profile(out_dir / "profile.csv", config.grid, solve.profile, disc.gamma,
                   None if nem_report is None else nem_report.profile)


def _verdict(payload: dict, tol: float) -> tuple[int, list[str]]:
    """Write ``status`` from the report as far as the run filled it; return
    the exit code (3, then 4, then 1, then 0) and its stderr lines."""
    failed = {section: list(_failed_verdicts(payload[section], section))
              for section in ("conditions", *SOLVES, "certificates") if section in payload}
    unconverged = next((section for section in SOLVES
                        if section in payload and not payload[section]["converged"]), None)
    status = payload.setdefault("status", {})
    for section in ("conditions", "certificates"):
        if section in failed:
            status[f"{section}_passed"] = not failed[section]
    if unconverged or "certificates" in failed:
        status["converged"] = unconverged is None
    lines = [f"verdict failed: {path}" for paths in failed.values() for path in paths]
    if failed.get("conditions"):
        return EXIT_CONDITIONS, lines
    if unconverged:
        return EXIT_NO_CONVERGENCE, [
            f"error: no convergence to {tol} within {payload[unconverged]['iterations']} "
            f"iterations in {SOLVES[unconverged]}"]
    return (EXIT_VERDICT if lines else EXIT_OK), lines


def _error(exc: HammersteinError) -> int:
    """The one ``error:`` line of a failure; returns its exit code."""
    print(f"error: {exc}", file=sys.stderr)
    return exc.exit_code


def run(config_path, out_dir, mode: str = "solve", seed: int | None = None) -> int:
    """Programmatic entry point: the one loop over the stages, then the exit
    code and stderr lines of :func:`_verdict`, or a failure's one ``error:``
    line.  A refused operator (3) or a numerical failure (5, naming its stage)
    writes the report of the stages before it; an unwritable output exits 2."""
    out_dir = Path(out_dir)
    try:
        config = load_config(config_path, seed=seed)
        if mode == "solve-nemytsky" and config.nemytsky is None:
            raise ConfigError("nemytsky", "section is missing")
        out_dir.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        payload = {"tool": {"name": "hammerstein", "version": __version__}, "config": config.echo}
        try:
            for stage in _stages(mode, config, out_dir, payload):
                pass
        except NumericalBreakdownError as exc:
            payload["status"] = {"numerical_error": f"{exc} in {stage}"}
            raise NumericalBreakdownError(payload["status"]["numerical_error"]) from exc
        finally:
            code, lines = _verdict(payload, config.tol)
            (out_dir / "report.yaml").write_text(
                yaml.dump(_plain(payload), Dumper=SAFE_DUMPER, sort_keys=True,
                          default_flow_style=False))
            (out_dir / "run_meta.txt").write_text(
                f"started_utc: {stamp}\nwall_seconds: {time.perf_counter() - started:.3f}\n")
        sys.stderr.writelines(f"{line}\n" for line in lines)
        return code
    except OSError as exc:      # load_config turns its own into a ConfigError
        return _error(ConfigError(str(exc.filename or "--out-dir"),
                                  f"cannot write: {exc.strerror or exc}"))
    except HammersteinError as exc:
        return _error(exc)


def _table_command(report_path: Path) -> int:
    """Print a written report's convergence table, its envelope derived from the
    solve section; an unreadable report or solve section is a config error."""
    try:
        report = read_yaml(report_path)
        if not isinstance(report, dict):    # empty, or not a mapping
            raise ConfigError(str(report_path), "not a report with a solve section")
        solve = report["solve"]
        sup_diffs = [float(d) for d in solve["sup_diffs"]]
        envelope = rate_envelope(float(solve["sigma0"]), float(solve["eta"]),
                                 float(solve["rate_exponent"]), len(sup_diffs))
        table = emit_convergence_table(sup_diffs, envelope)
    except ConfigError as exc:      # unreadable, or not YAML
        return _error(exc)
    except (LookupError, TypeError, ValueError) as exc:
        return _error(ConfigError(str(report_path), "not a report with a solve section "
                                                    f"({type(exc).__name__}: {exc})"))
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
    if args.command == "table":
        return _table_command(args.report)
    return run(args.config, args.out_dir, mode=args.command, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
