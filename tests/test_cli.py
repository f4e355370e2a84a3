import contextlib
import dataclasses
import errno
import functools
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import hammerstein
import hammerstein.analysis
import hammerstein.cli
import hammerstein.kernels
import hammerstein.picard
from conftest import (MIXTURE_ATOMS, LoweredProduct, lift_third_ceiling_iterate, readme_block,
                      readme_config)
from hammerstein.cli import emit_convergence_table, main, run
from hammerstein.config import load_config
from hammerstein.errors import NumericalBreakdownError
from hammerstein.kernels import LAMBDA_FORMS
from hammerstein.nemytsky import DAMPING_PROFILES, solve_nemytsky
from hammerstein.picard import discretise, rate_envelope, solve_picard

BASE_CONFIG = """\
kernel:
  family: C
  epsilon: 0.5
nonlinearity:
  family: I
  alpha: 0.5
grid:
  x_max: 25.0
  n_panels: 100
  rule: gauss
  points_per_panel: 4
solver:
  tol: 1.0e-10
  max_iter: 300
nemytsky:
  xi: 0.25
certificates:
  seed: 7
"""


def write_config(tmp_path, text=BASE_CONFIG, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def assert_lines(lines, expected):
    """``lines`` are the ``expected`` lines, one that ends in "..." a prefix:
    the text of PyYAML or a computed number follows it."""
    assert len(lines) == len(expected), lines
    for line, want in zip(lines, expected):
        assert line.startswith(want[:-3]) if want.endswith("...") else line == want, line


def test_happy_path_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--out-dir", str(out)])
    assert code == 0
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["status"]["certificates_passed"] is True
    assert report["solve"]["monotone_ok"] is True
    assert report["solve"]["rate_bound_ok"] is True
    # the envelope is derived by `table`, and the squeeze's lower half is proven
    assert not {"envelope", "squeeze_ok"} & set(report["solve"])
    header = (out / "profile.csv").read_text().splitlines()[0]
    assert header == "x,f_star,gamma"
    assert (out / "run_meta.txt").exists()


def test_full_pipeline_profile_has_envelopes(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["solve-nemytsky", "--config", str(cfg), "--out-dir", str(out)])
    assert code == 0
    lines = (out / "profile.csv").read_text().splitlines()
    assert lines[0] == "x,f_star,gamma,phi"
    # the envelopes xi * gamma and 1 - f_star follow from the columns
    _, fstar, gamma, phi = (float(v) for v in lines[1].split(","))
    assert 0.25 * gamma <= phi + 1e-10 <= 1.0 - fstar + 2e-10  # sandwich at node 0
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["nemytsky_solve"]["sandwich_ok"] is True


MIXTURE_KERNEL = ("kernel:\n  family: C\n  epsilon: 0.5\n"
                  "  base:\n    variant: exp-mixture\n    atoms: [[0.25, 1.0], [0.125, 0.5]]\n")


def mixture_config(n_panels):
    return (BASE_CONFIG.replace("kernel:\n  family: C\n  epsilon: 0.5\n", MIXTURE_KERNEL)
            .replace("x_max: 25.0", "x_max: 90.0")
            .replace("n_panels: 100", f"n_panels: {n_panels}"))


def test_exp_mixture_base_kernel_runs(tmp_path):
    out = tmp_path / "out"
    assert main(["solve", "--config", str(write_config(tmp_path, mixture_config(360))),
                 "--out-dir", str(out)]) == 0
    echoed = yaml.safe_load((out / "report.yaml").read_text())["config"]
    assert echoed["kernel"]["base"]["variant"] == "exp-mixture"
    assert echoed["kernel"]["base"]["atoms"] == [[0.25, 1.0], [0.125, 0.5]]


def test_undecodable_config_exits_2(tmp_path, capsys):
    # the YAML loader decodes the bytes, so a 0xFF byte is invalid YAML
    cfg = tmp_path / "run.yaml"
    cfg.write_bytes(BASE_CONFIG.encode() + b"# \xff\n")
    assert main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: {cfg}: invalid YAML: ") and err.count("\n") == 1, err


def fixed_key_line(key, value, got):
    """The line of a key that takes one value, given another."""
    return f"error: {key}: takes only the value {value!r}, fixed in every run, got {got!r}"


# each case: (command, config text or None for no file, extra arguments, the
# one stderr line); all exit 2 and make no output directory
CONFIG_ERROR_CASES = {
    "unknown-key": ("solve", BASE_CONFIG + "  bogus: 1\n", (),
                    "error: certificates.bogus: unknown key"),
    "malformed-yaml": ("solve", BASE_CONFIG + "grid: [unclosed\n", (),
                       "error: {config}: invalid YAML: ..."),
    "missing-file": ("solve", None, (),
                     f"error: {{config}}: cannot read: {os.strerror(errno.ENOENT)}"),
    "empty-file": ("solve", "", (), "error: {config}: config file is empty"),
    "no-nemytsky-section": ("solve-nemytsky", BASE_CONFIG.replace("nemytsky:\n  xi: 0.25\n", ""),
                            (), "error: nemytsky: section is missing"),
    # settings that take no value, or under which the uniqueness verdict
    # could only fail (no restart) or only pass (no bump)
    "checks-section": ("solve", BASE_CONFIG + "checks:\n  tol: 1.0e-9\n", (),
                       "error: checks: the kernel checks take no settings (their tolerance is "
                       "kernels.CHECK_TOL, domination is proven); remove this section"),
    "no-probe-restart": ("solve", BASE_CONFIG + "  probe_trials: 0\n", (),
                         fixed_key_line("certificates.probe_trials", 5, 0)),
    "zero-probe-scale": ("solve", BASE_CONFIG + "  probe_scale: 0.0\n", (),
                         fixed_key_line("certificates.probe_scale", 0.1, 0.0)),
    # every run computes the same certificates: each of these keys takes one
    # value, type included (1 is not true, 5.0 is not 5)
    **{f"{key}={value}": ("solve", BASE_CONFIG + f"  {key}: {value}\n", (),
                          fixed_key_line(f"certificates.{key}",
                                         {"probe_trials": 5, "probe_scale": 0.1}.get(key, True),
                                         yaml.safe_load(value)))
       for key, value in [("excess_integral", "false"), ("tail_integral", "1"),
                          ("jensen", "false"), ("asymptote", "0"), ("probe_trials", "2"),
                          ("probe_trials", "5.0"), ("probe_scale", "0.2"),
                          ("probe_scale", "'0.1'")]},
    # Gauss panels are the one rule, and each combined-equation term is one
    # formula (eps_star_fraction and damping_profile set it)
    "rule=trapezoid": ("solve", mixture_config(360).replace("rule: gauss", "rule: trapezoid"),
                       (), fixed_key_line("grid.rule", "gauss", "trapezoid")),
    **{f"{key}={other}": ("solve-nemytsky", readme_config().replace(f"{key}: {value}",
                                                                    f"{key}: {other}"),
                          (), fixed_key_line(f"nemytsky.{key}", value, other))
       for key, value, other in [("pointwise", "saturating", "saturating-quadratic"),
                                 ("integrand", "reflected", "scaled-reflected")]},
    "one-mixture-atom": ("solve", BASE_CONFIG.replace("kernel:\n  family: C\n  epsilon: 0.5\n",
                                                      MIXTURE_KERNEL.replace(
                                                          "[[0.25, 1.0], [0.125, 0.5]]",
                                                          "[[0.25, 1.0]]")),
                         (), "error: kernel.base: mixture half-line mass must be 1/2: "
                             "sum 2c/s = 0.5 != 1"),
    "alpha=1.2": ("solve", BASE_CONFIG.replace("alpha: 0.5", "alpha: 1.2"), (),
                  "error: nonlinearity.alpha: must lie in (0, 1), got 1.2"),
    # no float holds 10**400, so it is rejected like .inf
    "x_max=10**400": ("solve", readme_config().replace("x_max: 40.0", f"x_max: {10 ** 400}"),
                      (), f"error: grid.x_max: must be a finite number, got {10 ** 400}"),
    "seed=-5": ("solve", BASE_CONFIG, ("--seed", "-5"),
                "error: certificates.seed: must be at least 0, got -5"),
    # grids that cannot be built: the panel width underflows, or a panel
    # takes more points than its ceiling
    "subnormal-panel-width": ("check", BASE_CONFIG.replace("x_max: 25.0", "x_max: 5.0e-324"), (),
                              "error: grid: panel width x_max / n_panels = 0.0 "
                              "is not a normal float"),
    "points-per-panel-1e6": ("check", BASE_CONFIG.replace("points_per_panel: 4",
                                                          "points_per_panel: 1000000"),
                             (), "error: grid.points_per_panel: must be an integer in "
                                 "[1, 1024], got 1000000"),
}


def assert_config_error(tmp_path, capsys, case, command=None):
    """``CONFIG_ERROR_CASES[case]`` run by its command, or by ``command``
    where given, exits 2 with its one line and makes no output directory."""
    row_command, text, argv, line = CONFIG_ERROR_CASES[case]
    cfg = write_config(tmp_path, text) if text is not None else tmp_path / "absent.yaml"
    out = tmp_path / "o"
    assert main([command or row_command, "--config", str(cfg), "--out-dir", str(out), *argv]) == 2
    assert_lines(capsys.readouterr().err.splitlines(), [line.format(config=cfg)])
    assert not out.exists()


@pytest.mark.parametrize("case", CONFIG_ERROR_CASES)
def test_config_errors_print_one_error_line(tmp_path, capsys, case):
    # the same one-line prefix as every other exit-2 error of main; {config}
    # stands for the config's path
    assert_config_error(tmp_path, capsys, case)


def test_unknown_key_exits_2(tmp_path, capsys):
    # every command reads the config alike; the row runs solve
    for command in ("check", "solve-nemytsky"):
        assert_config_error(tmp_path, capsys, "unknown-key", command)


def test_malformed_yaml_exits_2(tmp_path, capsys):
    # every command reads the config alike; the row runs solve
    for command in ("check", "solve-nemytsky"):
        assert_config_error(tmp_path, capsys, "malformed-yaml", command)


def test_missing_nemytsky_section_exits_2(tmp_path, capsys):
    # only the combined solve needs the section: check runs without it
    assert_config_error(tmp_path, capsys, "no-nemytsky-section")
    text = CONFIG_ERROR_CASES["no-nemytsky-section"][1]
    assert main(["check", "--config", str(write_config(tmp_path, text)),
                 "--out-dir", str(tmp_path / "check")]) == 0


# values a report can hold that a YAML emitter might quote or round differently
EMITTER_TREE = {
    "strings": {"nan": "nan", "inf": "inf", "ninf": "-inf", "null": "null", "yes": "yes",
                "number": "1e-10", "empty": "", "long": "x" * 300, "words": "word " * 60,
                "message": "eval_Q: Newton passes exceeded at u = 0.5; 'q' \"dq\" [0, eta]: #"},
    "numbers": [None, -0.0, 5e-324, 1e300, 0.1, 12345678901234567890, -7, True, False],
    "nested": {"rows": [[0.25, None], [], {}], "flag": True},
}


@pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"), reason="PyYAML built without libyaml")
def test_c_emitter_writes_the_safe_dumper_bytes():
    dump = {name: yaml.dump(EMITTER_TREE, Dumper=getattr(yaml, name), sort_keys=True,
                            default_flow_style=False)
            for name in ("SafeDumper", "CSafeDumper")}
    assert dump["CSafeDumper"] == dump["SafeDumper"]


def test_plain_refuses_a_value_no_report_holds():
    # a numpy bool written as its repr would be a verdict no walk reads as false
    with pytest.raises(TypeError, match="bool"):
        hammerstein.cli._plain({"passed": np.bool_(False)})
    # a numpy float would be written as its repr, or refused by the dumper
    for value in (np.float64("nan"), np.float64(1.5)):
        with pytest.raises(TypeError, match="float64"):
            hammerstein.cli._plain({"a": value})


def test_records_holding_arrays_compare_and_hash_by_identity(readme_run):
    # a generated == would compare numpy arrays field by field ("truth value
    # of an array is ambiguous") and a generated hash would hash them
    config, A, solve = readme_run
    nem = solve_nemytsky(config.nemytsky, solve.profile, tol=config.tol, operator=A)
    for record in (A.entries, A, discretise(config.kernel, config.grid), solve, nem):
        twin = dataclasses.replace(record)
        assert record == record and record != twin
        assert hash(record) == hash(record) and len({record, twin}) == 2
    # the report walks fields, not equality: a twin writes the same tree
    for record in (solve, nem):
        plain = hammerstein.cli._plain(record, drop=("profile",))
        assert plain == hammerstein.cli._plain(dataclasses.replace(record), drop=("profile",))
        assert plain["sup_diffs"] == record.sup_diffs


def test_reports_byte_identical_for_same_seed(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", str(cfg), "--out-dir", str(out1), "--seed", "3"]) == 0
    assert main(["solve", "--config", str(cfg), "--out-dir", str(out2), "--seed", "3"]) == 0
    assert (out1 / "report.yaml").read_bytes() == (out2 / "report.yaml").read_bytes()
    assert (out1 / "profile.csv").read_bytes() == (out2 / "profile.csv").read_bytes()


def test_reports_independent_of_blas_threads(tmp_path):
    # each child sets its BLAS thread count before numpy loads; a caller's
    # own OpenBLAS thread timeout changes no byte either
    cfg = write_config(tmp_path)
    src = str(Path(hammerstein.__file__).resolve().parents[1])
    blas = [dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), n)
            for n in ("1", "2")]
    blas.append({**blas[1], "OPENBLAS_THREAD_TIMEOUT": "30"})
    outputs = []
    for run_number, settings in enumerate(blas):
        env = dict(os.environ, **settings,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"run-{run_number}"
        proc = subprocess.run(
            [sys.executable, "-m", "hammerstein.cli", "solve-nemytsky",
             "--config", str(cfg), "--out-dir", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes() for name in ("report.yaml", "profile.csv")])
    assert outputs[0] == outputs[1] == outputs[2]


def _key_paths(tree, prefix=""):
    """Dotted path of every mapping key of a plain report tree, at any depth;
    the config echo is not walked."""
    for key, val in tree.items():
        yield prefix + key
        if isinstance(val, dict) and prefix + key != "config":
            yield from _key_paths(val, f"{prefix}{key}.")


def test_readme_report_key_trees(tmp_path):
    # every key each mode writes, against the checked-in list: a key that
    # leaves the report, or one that comes back (positivity_ok, squeeze_ok,
    # envelope, phi_at_xmax, tail.degenerate, solve under check, ...), fails
    expected = yaml.safe_load(Path(__file__).with_name("report_keys.yaml").read_text())
    cfg = write_config(tmp_path, readme_config())
    for mode in ("check", "solve", "solve-nemytsky"):
        out = tmp_path / mode
        assert main([mode, "--config", str(cfg), "--out-dir", str(out)]) == 0
        report = yaml.safe_load((out / "report.yaml").read_text())
        assert sorted(_key_paths(report)) == expected[mode], mode
        assert report["config"] == yaml.safe_load(readme_config())


def _refuse_the_operator(monkeypatch):
    # a cusp correction that drives the corrected diagonal below 0
    spec_correction = hammerstein.kernels.cusp_correction

    def oversized(spec, grid, x):
        own = grid.weights * hammerstein.kernels.eval_kernel(spec, x, x)
        return spec_correction(spec, grid, x) - 2.0 * own

    monkeypatch.setattr(hammerstein.kernels, "cusp_correction", oversized)


def _breakdown_in(name, error=NumericalBreakdownError("injected")):
    """A breakage that makes ``hammerstein.cli.<name>`` raise ``error``, a
    numerical breakdown unless given."""
    def breakage(monkeypatch):
        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr(hammerstein.cli, name, broken)
    return breakage


def _force(name, **fields):
    """A breakage that makes the report of ``hammerstein.cli.<name>`` read ``fields``."""
    def breakage(monkeypatch):
        original = getattr(hammerstein.cli, name)
        monkeypatch.setattr(hammerstein.cli, name, lambda *args, **kwargs: dataclasses.replace(
            original(*args, **kwargs), **fields))
    return breakage


def _combined_solve(wrap):
    """A breakage that runs the CLI's combined solve as ``wrap(original, *args,
    **kwargs)``."""
    def breakage(monkeypatch):
        original = hammerstein.cli.solve_nemytsky
        monkeypatch.setattr(hammerstein.cli, "solve_nemytsky",
                            lambda *args, **kwargs: wrap(original, *args, **kwargs))
    return breakage


def _lower_the_converging_product(solve, spec, profile, operator, **kwargs):
    # the step is counted on the same solve left unperturbed
    step = solve(spec, profile, operator=operator, **kwargs).iterations
    return solve(spec, profile, operator=LoweredProduct(operator, step), **kwargs)


def _leave_the_domain(monkeypatch):
    def solve(A, G, **kwargs):
        return hammerstein.picard.apply_hammerstein(A, G, np.full(A.size, 2.0 * G.eta))

    monkeypatch.setattr(hammerstein.cli, "solve_picard", solve)


def _unit_ratio_floor(monkeypatch):
    # sigma0 = 1 with nonzero differences past the start step: a report
    # that contradicts itself
    monkeypatch.setattr(hammerstein.picard, "estimate_sigma0", lambda f1, f2: 1.0)


def _allocation_fails_past_x_max(monkeypatch):
    # the panels past x_max are the discretisation's first allocation
    # (kernels.node_tail); it fails as numpy's does when memory runs out
    panels = hammerstein.HalfLineGrid.panels

    def failing(grid, shift, count):
        if shift >= grid.n_panels:
            raise MemoryError("Unable to allocate 35.8 GiB for an array")
        return panels(grid, shift, count)

    monkeypatch.setattr(hammerstein.HalfLineGrid, "panels", failing)


def _convex_G_in_jensen(monkeypatch):
    # Jensen's inequality turns over for a convex G, here u**2 in the Jensen
    # certificate alone; the tail certificate reads G too, and every run
    # computes it, so it keeps the concave G
    jensen = hammerstein.cli.jensen_certificate

    def convex_jensen(A, G, u):
        with monkeypatch.context() as patch:
            patch.setattr(hammerstein.analysis, "eval_G", lambda spec, v: np.asarray(v) ** 2)
            return jensen(A, G, u)

    monkeypatch.setattr(hammerstein.cli, "jensen_certificate", convex_jensen)


def _list_lengths(tree):
    """Length of every list in a plain report tree, at any depth."""
    if isinstance(tree, dict):
        for val in tree.values():
            yield from _list_lengths(val)
    elif isinstance(tree, list):
        yield len(tree)
        for val in tree:
            yield from _list_lengths(val)


@dataclasses.dataclass(frozen=True)
class ExitPath:
    """One way a run ends: ``mode`` on the config text ``config``, after
    ``breakage(monkeypatch)`` where given.  ``kind`` is how the run gets
    there: ``input``, a config the specs accept; ``solver``, a perturbation
    inside the run that the program's own code detects; ``report``, a stage's
    result replaced outright (``_force``, ``_breakdown_in``).  The run exits
    ``code`` with the report's ``status`` block and the stderr ``lines``
    (``assert_lines``), and writes ``profile.csv`` if ``profile``."""
    mode: str
    config: str
    code: int
    status: dict
    lines: tuple = ()
    kind: str = "input"
    breakage: object = None
    profile: bool = False


README_CONFIG = readme_config()
README_TREE = yaml.safe_load(README_CONFIG)
CONDITIONS_FAIL = {"conditions_passed": False}
NOT_CONVERGED = {"conditions_passed": True, "converged": False}
CERTIFICATES_PASS = {"conditions_passed": True, "converged": True, "certificates_passed": True}
CERTIFICATE_FAILS = {**CERTIFICATES_PASS, "certificates_passed": False}
VERDICT = "verdict failed: "
UNCONVERGED = "error: no convergence to 1e-10 within {} iterations in the {} solve"
# near-unit image-term weight on a coarse one-point (midpoint) grid: the
# row-mass and mass-defect checks genuinely fail at this resolution
NEAR_UNIT_IMAGE_WEIGHT = """\
kernel:
  family: B
  delta: 0.999999
nonlinearity:
  family: I
  alpha: 0.5
grid:
  x_max: 40.0
  n_panels: 20
  rule: gauss
  points_per_panel: 1
"""


def _failed_in(stage, message):
    """An exit-5 path's status block and line: ``message`` in ``stage``, after
    the discretisation passed its checks unless that is the stage."""
    line = f"{message} in {stage}"
    status = {"numerical_error": line}
    if stage != "the discretisation":
        status["conditions_passed"] = True
    return {"code": 5, "status": status, "lines": (f"error: {line}",)}


# Every way a run ends but exit 2 (CONFIG_ERROR_CASES, IO_ERROR_CASES), and
# for every verdict a report carries a path that reads it false: each row runs
# once (exit_run), test_status_of_every_exit_path checks its columns, the tests
# named for a path what is particular to it, and
# test_every_verdict_has_a_failing_exit_path that no verdict lacks a row.
EXIT_PATHS = {
    "check-passes": ExitPath("check", BASE_CONFIG, 0, {"conditions_passed": True}),
    "passes": ExitPath("solve-nemytsky", BASE_CONFIG, 0, CERTIFICATES_PASS, profile=True),
    # accepted exponents far below 2e-14 (test_tiny_exponents_exit_0)
    **{f"{family}-{alphas}": ExitPath(
        "solve-nemytsky", BASE_CONFIG.replace("family: I\n  alpha: 0.5", nonlinearity), 0,
        CERTIFICATES_PASS, profile=True)
       for family, alphas, nonlinearity in [
           ("I", "1e-20", "family: I\n  alpha: 1.0e-20"),
           ("III", "1e-20-2e-20", "family: III\n  alpha_tilde: 1.0e-20\n  alpha_star: 2.0e-20")]},
    # kernels and exponents at the edge of their ranges, each with the test
    # named for it below
    "delta-next-to-one": ExitPath(
        "solve-nemytsky", yaml.safe_dump({**README_TREE, "kernel": {
            "family": "B", "delta": 1.0 - 2.0 ** -53}}), 0, CERTIFICATES_PASS, profile=True),
    "epsilon-next-to-one": ExitPath(
        "solve", yaml.safe_dump({**README_TREE, "kernel": {
            **README_TREE["kernel"], "d_star": 1.0, "epsilon": 0.9999999}}), 0,
        CERTIFICATES_PASS, profile=True),
    "small-exponent": ExitPath(
        "solve-nemytsky", Path(__file__).with_name("small_exponent.yaml").read_text(), 0,
        CERTIFICATES_PASS, profile=True),
    # exit 3: the condition checks fail, or the operator is refused
    **{name: ExitPath(mode, README_CONFIG.replace("n_panels: 400", "n_panels: 3"), 3,
                      CONDITIONS_FAIL, (VERDICT + "conditions.kernel.passed",))
       for name, mode in [("check-condition-fails", "check"),
                          ("nemytsky-condition-fails", "solve-nemytsky")]},
    "near-unit-image-weight": ExitPath("solve", NEAR_UNIT_IMAGE_WEIGHT, 3, CONDITIONS_FAIL,
                                       (VERDICT + "conditions.kernel.passed",)),
    "operator-refused": ExitPath(
        "solve", mixture_config(180), 3, CONDITIONS_FAIL,
        ("error: cusp-corrected operator diagonal ...",), "solver", _refuse_the_operator),
    # exit 4: a solve hits its iteration cap; its partial section is written,
    # no profile
    "ceiling-capped-at-3": ExitPath(
        "solve", BASE_CONFIG.replace("max_iter: 300", "max_iter: 3"), 4, NOT_CONVERGED,
        (UNCONVERGED.format(3, "ceiling"),)),
    **{name: ExitPath("solve-nemytsky", README_CONFIG.replace("max_iter: 500", f"max_iter: {cap}"),
                      4, NOT_CONVERGED, (UNCONVERGED.format(cap, solve),))
       for name, cap, solve in [("ceiling-not-converged", 5, "ceiling"),
                                ("combined-not-converged", 35, "combined")]},
    # the ceiling iteration converges, the combined solve is capped at 3 steps
    "combined-capped-at-3": ExitPath(
        "solve-nemytsky", BASE_CONFIG, 4, NOT_CONVERGED, (UNCONVERGED.format(3, "combined"),),
        "solver", _combined_solve(lambda solve, *args, **kwargs: solve(
            *args, **{**kwargs, "max_iter": 3}))),
    # exit 5: the report holds the stages before the failure, plain numbers
    # (no numpy reprs), and the failure naming the stage that was running
    "numerical-failure": ExitPath(
        "solve", BASE_CONFIG, **_failed_in("the ceiling solve", "injected"), kind="report",
        breakage=_breakdown_in("solve_picard")),
    "domain": ExitPath(
        "solve", BASE_CONFIG,
        **_failed_in("the ceiling solve", "iterate leaves [0, 1.0] by 1.000e+00"),
        kind="solver", breakage=_leave_the_domain),
    "inconsistent": ExitPath(
        "solve", BASE_CONFIG, **_failed_in(
            "the ceiling solve", "unit ratio floor with nonzero differences past the start step"),
        kind="solver", breakage=_unit_ratio_floor),
    "combined-breakdown": ExitPath(
        "solve-nemytsky", BASE_CONFIG, **_failed_in("the combined solve", "injected"),
        kind="report", breakage=_breakdown_in("solve_nemytsky")),
    "probe-breakdown": ExitPath(
        "solve", BASE_CONFIG, **_failed_in("the uniqueness probe", "injected"), kind="report",
        breakage=_breakdown_in("uniqueness_probe")),
    "probe-out-of-memory": ExitPath(
        "solve", BASE_CONFIG, **_failed_in("the uniqueness probe", "out of memory"),
        kind="report", breakage=_breakdown_in("uniqueness_probe", MemoryError())),
    # a grid the config accepts whose tail continuation cannot be allocated
    "discretisation-out-of-memory": ExitPath(
        "check", BASE_CONFIG, **_failed_in(
            "the discretisation", "Unable to allocate 35.8 GiB for an array"),
        kind="report", breakage=_allocation_fails_past_x_max),
    # 1.2e303 continuation panels: more nodes than any float array holds
    "refused-continuation": ExitPath(
        "check", BASE_CONFIG.replace("x_max: 25.0", "x_max: 1.0e-300"), **_failed_in(
            "the discretisation", "the tail continuation past x_max = 1e-300 needs "
            "4.8e+303 nodes at panel width 1e-302")),
    # exit 1: a verdict of an iteration (certificates_passed stays true) or
    # of a certificate reads false; the report and profile are written
    "iteration-verdict-fails": ExitPath(
        "solve-nemytsky", BASE_CONFIG, 1, CERTIFICATES_PASS, (VERDICT + "solve.rate_bound_ok",),
        "report", _force("solve_picard", rate_bound_ok=False), profile=True),
    # one node moved 5e-10 against its solve's direction on one step, inside
    # the solver
    "wrong-way-ceiling-step": ExitPath(
        "solve-nemytsky", README_CONFIG, 1, CERTIFICATES_PASS, (VERDICT + "solve.monotone_ok",),
        "solver", lift_third_ceiling_iterate, profile=True),
    "wrong-way-combined-step": ExitPath(
        "solve-nemytsky", README_CONFIG, 1, CERTIFICATES_PASS,
        (VERDICT + "nemytsky_solve.increase_ok",), "solver",
        _combined_solve(_lower_the_converging_product), profile=True),
    # the combined solve given f* + delta, so its upper envelope eta - f*
    # sits delta low: both envelope verdicts fail, at 1e-11 the envelope's alone
    **{f"raised-ceiling-{delta:g}": ExitPath(
        "solve-nemytsky", README_CONFIG, 1, CERTIFICATES_PASS,
        tuple(VERDICT + f"nemytsky_solve.{key}" for key in keys), "solver",
        _combined_solve(lambda solve, spec, profile, delta=delta, **kwargs: solve(
            spec, profile + delta, **kwargs)), profile=True)
       for delta, keys in [(5e-10, ("envelope_ok", "sandwich_ok")), (1e-11, ("envelope_ok",))]},
    # admissible, but x_max = 1 is far too short for the profile to reach eta / 2
    "certificate-fails": ExitPath(
        "solve", Path(__file__).with_name("short_x_max.yaml").read_text(), 1, CERTIFICATE_FAILS,
        (VERDICT + "certificates.tail.passed",), profile=True),
    "convex-G": ExitPath(
        "solve-nemytsky", BASE_CONFIG, 1, CERTIFICATE_FAILS,
        (VERDICT + "certificates.jensen_passed",), "solver", _convex_G_in_jensen, profile=True),
    # ROADMAP item 18's false failure: the decay law puts eta - f*(x_max) at
    # 3.32e-3, over the verdict's 5 eta gamma(x_max) = 1.56e-3
    "rational-gap-alpha-0.9": ExitPath(
        "solve", README_CONFIG.replace("lambda_form: exp-gap", "lambda_form: rational-gap")
        .replace("alpha: 0.5", "alpha: 0.9"), 1, CERTIFICATE_FAILS,
        (VERDICT + "certificates.asymptote.passed",), profile=True),
    "excess-forced": ExitPath(
        "solve", BASE_CONFIG, 1, CERTIFICATE_FAILS, (VERDICT + "certificates.excess.passed",),
        "report", _force("excess_integral_certificate", passed=False), profile=True),
    "uniqueness-forced": ExitPath(
        "solve", BASE_CONFIG, 1, CERTIFICATE_FAILS, (VERDICT + "certificates.uniqueness.passed",),
        "report", _force("uniqueness_probe", passed=False), profile=True),
}


def assert_exit_follows_status(code, status, lines):
    """The exit code, the report's ``status`` block and the stderr ``lines``
    agree: each line a verdict or an error line, and the code the one that
    ``status`` and the lines give."""
    assert all(line.startswith((VERDICT, "error: ")) for line in lines), lines
    assert {0: status and all(value is True for value in status.values()),
            1: any(line.startswith(VERDICT) for line in lines),
            3: status.get("conditions_passed") is False,
            4: status.get("converged") is False,
            5: "numerical_error" in status}[code], status


@dataclasses.dataclass(frozen=True)
class ExitRun:
    """What a run of an exit path left: its exit code, its stderr lines, its
    output directory (the config beside it), and ``report.yaml`` as text and
    as a tree."""
    code: int
    lines: list
    out: Path
    text: str
    report: dict


@pytest.fixture(scope="module")
def exit_run(tmp_path_factory):
    """``exit_run(case)`` runs ``EXIT_PATHS[case]`` through ``main`` once in
    this module, its breakage undone after; every test of the path reads
    that run."""
    runs = {}

    def run_case(case):
        if case not in runs:
            path, directory, err = EXIT_PATHS[case], tmp_path_factory.mktemp(case), io.StringIO()
            out = directory / "out"
            with pytest.MonkeyPatch.context() as monkeypatch, contextlib.redirect_stderr(err):
                if path.breakage is not None:
                    path.breakage(monkeypatch)
                code = main([path.mode, "--config", str(write_config(directory, path.config)),
                             "--out-dir", str(out)])
            text = (out / "report.yaml").read_text()
            runs[case] = ExitRun(code, err.getvalue().splitlines(), out, text,
                                 yaml.safe_load(text))
        return runs[case]
    return run_case


@pytest.mark.parametrize("case", EXIT_PATHS)
def test_status_of_every_exit_path(capsys, exit_run, case):
    path, run = EXIT_PATHS[case], exit_run(case)
    report = run.report
    assert (run.code, report["status"]) == (path.code, path.status)
    assert_lines(run.lines, path.lines)
    assert (run.out / "profile.csv").exists() is path.profile
    assert_exit_follows_status(run.code, report["status"], run.lines)
    conditions = report.get("conditions")
    assert (conditions and conditions["kernel"]["passed"]) == path.status.get("conditions_passed")
    for line in run.lines:
        if line.startswith(VERDICT):
            assert functools.reduce(dict.get, line[len(VERDICT):].split("."), report) is False
    if "solve" in report:
        capsys.readouterr()
        assert main(["table", "--report", str(run.out / "report.yaml")]) == 0
        table = capsys.readouterr().out.splitlines()
        assert table[0] == "n sup_diff envelope ratio"
        assert len(table) == len(report["solve"]["sup_diffs"])


def test_every_verdict_has_a_failing_exit_path():
    # ROADMAP item 13's audit: every passed, *_passed or *_ok key a report
    # carries outside status is read false by an exit path, and the kinds of
    # those paths are the audit's result
    keys = yaml.safe_load(Path(__file__).with_name("report_keys.yaml").read_text())
    verdicts = {key for mode_keys in keys.values() for key in mode_keys
                if not key.startswith("status.")
                and (key.endswith(".passed") or key.endswith(("_passed", "_ok")))}
    kinds = {}
    for path in EXIT_PATHS.values():
        for line in path.lines:
            if line.startswith(VERDICT):
                kinds.setdefault(line[len(VERDICT):], set()).add(path.kind)
    assert set(kinds) == verdicts
    # only a replaced field fails these: each holds by a proof (ROADMAP items
    # 4, 15 and 2), so no accepted input or solver perturbation reaches it
    assert sorted(key for key, kind in kinds.items() if kind == {"report"}) == [
        "certificates.excess.passed", "certificates.uniqueness.passed", "solve.rate_bound_ok"]


def test_the_package_has_no_exit_4_exception_and_no_inverse_G():
    # exit 4 is a solve report's converged: false, which nothing raises; the
    # Jensen certificate takes G forward
    assert not hasattr(hammerstein, "NonConvergenceError")
    assert not hasattr(hammerstein, "eval_Q")


# The tests named for one exit path: each reads the path's run in EXIT_PATHS.

def test_report_is_the_safe_dumper_bytes(exit_run):
    # whichever stage ended the run
    for case in EXIT_PATHS:
        text = exit_run(case).text
        assert yaml.safe_dump(yaml.safe_load(text), sort_keys=True,
                              default_flow_style=False) == text, case


def test_check_only(exit_run):
    assert "solve" not in exit_run("check-passes").report


# Accepted exponents far below 2e-14: the nonlinearity's conditions are
# proven (the nonlinearity module docstring), so no lattice can read
# u**1e-20 as flat at neighbouring points and refuse the run.
@pytest.mark.parametrize("case", ["I-1e-20", "III-1e-20-2e-20"])
def test_tiny_exponents_exit_0(exit_run, case):
    assert sorted(exit_run(case).report["conditions"]) == ["kernel"]


def test_delta_next_to_one_exits_0(exit_run):
    # at the far node pairs K0(x - t) and K0(x + t) both underflow to 0, so
    # K0(x - t) - delta K0(x + t) is exactly 0 there; positivity is proven
    # (the kernels module docstring), so no scan refuses the run
    kernel = exit_run("delta-next-to-one").report["conditions"]["kernel"]
    assert not {"positivity_ok", "symmetry_residual"} & set(kernel)


def test_epsilon_next_to_one_decides_the_tail_certificate(exit_run):
    # d_star = 1 and epsilon = 1 - 1e-7 leave the tail's minimum within 1e-7
    # of eta, where G(eps) - eps cancels unless it is formed as a sum of expm1
    tail = exit_run("epsilon-next-to-one").report["certificates"]["tail"]
    assert 0.0 < 1.0 - tail["epsilon"] < 1e-6
    assert tail["passed"] is True and math.isfinite(tail["rhs"])


def test_small_exponent_passes_the_jensen_certificate(exit_run):
    # alpha = 0.0002 brings f* within 1e-14 of eta, where Q = G^{-1} has
    # slope 1 / alpha: the inverse form of the certificate failed there by
    # rounding alone, the forward form on G does not
    assert exit_run("small-exponent").report["certificates"]["jensen_passed"] is True


def test_condition_failure_exits_3_with_report(exit_run):
    # both halves of the kernel check fail at this resolution: a row mass
    # above 1 and no positive mass defect
    kernel = exit_run("near-unit-image-weight").report["conditions"]["kernel"]
    assert kernel["sup_row_mass"] > 1.0 + hammerstein.kernels.CHECK_TOL
    assert kernel["gamma_max"] <= hammerstein.kernels.CHECK_TOL


def test_refused_operator_exits_3_with_report(exit_run):
    run = exit_run("operator-refused")
    refused = run.report["conditions"]["kernel"]["operator_refused"]
    assert "is not positive" in refused
    assert run.lines == [f"error: {refused}"]


# The README config capped or coarsened: each exit 4 and 3 names its cause on
# one stderr line, as every other nonzero exit does, check included.
@pytest.mark.parametrize("case", [
    pytest.param("ceiling-not-converged", id="max_iter-5"),
    pytest.param("combined-not-converged", id="max_iter-35"),
    pytest.param("check-condition-fails", id="n_panels-3"),
    pytest.param("nemytsky-condition-fails", id="n_panels-3-nemytsky"),
])
def test_readme_exits_3_and_4_print_why(exit_run, case):
    run = exit_run(case)
    assert run.code in (3, 4) and run.lines == list(EXIT_PATHS[case].lines)


def test_non_convergence_exits_4(exit_run):
    # the partial solve section is written: exit 4 is its converged: false
    solve = exit_run("ceiling-capped-at-3").report["solve"]
    assert solve["converged"] is False and len(solve["sup_diffs"]) == 3


def test_table_on_non_converged_report(exit_run, capsys):
    report = exit_run("ceiling-capped-at-3").out / "report.yaml"
    capsys.readouterr()
    assert main(["table", "--report", str(report)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n sup_diff envelope ratio" and len(lines) == 3


def test_combined_non_convergence_exits_4_without_profiles(exit_run):
    run = exit_run("combined-capped-at-3")
    nemytsky = run.report["nemytsky_solve"]
    assert nemytsky["converged"] is False and nemytsky["iterations"] == 3
    assert max(_list_lengths(run.report)) < load_config(run.out.parent / "run.yaml").grid.size


@pytest.mark.parametrize("case", [
    pytest.param("numerical-failure", id="breakdown"), "domain", "inconsistent",
    "combined-breakdown", "probe-breakdown", "probe-out-of-memory",
])
def test_numerical_failure_exits_5(exit_run, case):
    # the report is written all the same: the stages before the failure, and
    # the failure's message in plain numbers (no numpy reprs)
    report = exit_run(case).report
    assert "np.float64" not in report["status"]["numerical_error"]
    assert report["conditions"]["kernel"]["passed"] is True


@pytest.mark.parametrize("case", [
    pytest.param("discretisation-out-of-memory", id="out-of-memory"), "refused-continuation",
])
def test_discretisation_that_cannot_be_built_exits_5(exit_run, case):
    # one error: line naming the stage and a report, not a traceback and
    # exit 1; no condition was checked
    assert "conditions" not in exit_run(case).report


@pytest.mark.parametrize("case, section, verdict", [
    pytest.param(case, *path.split("."), id=path.replace(".", "-")) for case, path in [
        ("iteration-verdict-fails", "solve.rate_bound_ok"),
        ("wrong-way-ceiling-step", "solve.monotone_ok"),
        ("wrong-way-combined-step", "nemytsky_solve.increase_ok"),
        ("raised-ceiling-1e-11", "nemytsky_solve.envelope_ok"),
        ("raised-ceiling-5e-10", "nemytsky_solve.sandwich_ok")]
])
def test_failed_iteration_verdict_exits_1(exit_run, case, section, verdict):
    report = exit_run(case).report
    assert report[section][verdict] is False
    assert report["status"]["certificates_passed"] is True   # certificates only


@pytest.mark.parametrize("verdict, case", [
    pytest.param(verdict, case, id=verdict) for verdict, case in [
        ("solve.monotone_ok", "wrong-way-ceiling-step"),
        ("nemytsky_solve.increase_ok", "wrong-way-combined-step")]
])
def test_wrong_way_step_exits_1(exit_run, verdict, case):
    # one node moved 5e-10 against its solve's direction on one step, inside
    # the solver: the README run fails that verdict alone
    assert EXIT_PATHS[case].kind == "solver"
    assert exit_run(case).lines == [VERDICT + verdict]


def test_short_x_max_fails_the_tail_certificate(exit_run):
    # admissible, but x_max = 1 is far too short for the profile to reach eta / 2
    assert exit_run("certificate-fails").report["certificates"]["tail"]["lhs"] == "nan"


def test_convex_G_fails_the_jensen_certificate(exit_run):
    assert exit_run("convex-G").report["certificates"]["jensen_min_margin"] < -1e-12


OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def admissible_runs(draw):
    """A run mode and a config tree from the ranges the specs accept: every
    kernel and G family, both bases and lambda forms, at most 800 nodes,
    tol in [1e-12, 10], max_iter in [1, 200], the probe on or off."""
    kfam, gfam = draw(st.sampled_from("ABC")), draw(st.sampled_from(["I", "II", "III"]))
    kernel = {"family": kfam, "lambda_form": draw(st.sampled_from(LAMBDA_FORMS)),
              "d_star": draw(st.floats(0.0, 1.0, exclude_min=True)), "l": draw(OPEN_UNIT)}
    if draw(st.booleans()):
        kernel["base"] = {"variant": "exp-mixture", "atoms": [list(a) for a in MIXTURE_ATOMS]}
    if kfam != "A":
        kernel["delta" if kfam == "B" else "epsilon"] = draw(OPEN_UNIT)
    low, high = sorted(draw(st.lists(OPEN_UNIT, min_size=2, max_size=2, unique=True)))
    nonlinearity = {"I": {"alpha": high}, "II": {"alpha_star": high},
                    "III": {"alpha_star": high, "alpha_tilde": low}}[gfam]
    # up to 16 points per panel: a structured product costs O(p N), 64 ms at
    # p = N = 800 against under 1 ms at p = 16, and a run takes hundreds
    points = draw(st.integers(1, 16))
    tree = {
        "kernel": kernel,
        "nonlinearity": {"family": gfam, **nonlinearity},
        "grid": {"x_max": draw(st.floats(1.0, 100.0)), "points_per_panel": points,
                 "n_panels": draw(st.integers(1, 800 // points))},
        "solver": {"tol": 10.0 ** draw(st.floats(-12.0, 1.0)),
                   "max_iter": draw(st.integers(1, 200))},
        "nemytsky": {"xi": draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)),
                     "eps_star_fraction": draw(st.floats(0.0, 1.0)),
                     "damping_profile": draw(st.sampled_from(DAMPING_PROFILES))},
        "certificates": {"uniqueness_probe": draw(st.booleans()),
                         "seed": draw(st.integers(0, 2**64))},
    }
    return draw(st.sampled_from(["check", "solve", "solve-nemytsky"])), tree


@settings(max_examples=100, deadline=None)
@given(case=admissible_runs())
def test_every_admissible_run_exits_with_its_status(case):
    # a config the specs accept runs to a report whose status matches its exit
    # code, printing only verdict and error lines; a numerical failure (5) is
    # allowed, as a large tol can stop the ceiling solve short of the combined
    # solve's envelope
    mode, tree = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out, err = Path(tmp) / "run.yaml", Path(tmp) / "out", io.StringIO()
        cfg.write_text(yaml.safe_dump(tree))
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            with contextlib.redirect_stderr(err):
                code = run(cfg, out, mode=mode)
        assert code in (0, 1, 3, 4, 5), err.getvalue()
        status = yaml.safe_load((out / "report.yaml").read_text())["status"]
    assert not stdout.getvalue()
    assert_exit_follows_status(code, status, err.getvalue().splitlines())


def test_config_echo_round_trips(tmp_path):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "first"
    assert main(["solve", "--config", str(cfg), "--out-dir", str(out1)]) == 0
    echoed = yaml.safe_load((out1 / "report.yaml").read_text())["config"]
    cfg2 = tmp_path / "echoed.yaml"
    cfg2.write_text(yaml.safe_dump(echoed))
    out2 = tmp_path / "second"
    assert main(["solve", "--config", str(cfg2), "--out-dir", str(out2)]) == 0
    assert (out1 / "report.yaml").read_bytes() == (out2 / "report.yaml").read_bytes()


def test_table_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert main(["table", "--report", str(out / "report.yaml")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n sup_diff envelope ratio"
    ratios = [float(line.split()[3]) for line in lines[1:]]
    assert ratios and all(r <= 1.0 for r in ratios)


def test_table_round_trips_through_report(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["table", "--report", str(out / "report.yaml")]) == 0
    config = load_config(cfg)
    solve = solve_picard(discretise(config.kernel, config.grid).operator,
                         config.nonlinearity, tol=config.tol, max_iter=config.max_iter)
    assert solve.converged
    expected = emit_convergence_table(solve.sup_diffs, rate_envelope(
        solve.sigma0, solve.eta, config.nonlinearity.rate_exponent, len(solve.sup_diffs)))
    assert capsys.readouterr().out == expected


def test_table_is_the_same_for_a_report_with_a_stored_envelope(tmp_path, capsys):
    # reports written before the envelope left them hold it under solve, as
    # [None, eta * a**(n-1) * log(1/sigma0) for n >= 1], and a squeeze_ok;
    # the table derived from sigma0, eta and a prints the same bytes as the
    # table read from that stored envelope
    out = tmp_path / "out"
    assert main(["solve", "--config", str(write_config(tmp_path)), "--out-dir", str(out)]) == 0
    report = yaml.safe_load((out / "report.yaml").read_text())
    solve = report["solve"]
    stored = [solve["eta"] * solve["rate_exponent"] ** (n - 1) * math.log(1.0 / solve["sigma0"])
              for n in range(1, len(solve["sup_diffs"]))]
    solve.update(envelope=[None] + stored, squeeze_ok=True)
    older = tmp_path / "older.yaml"
    older.write_text(yaml.safe_dump(report))
    capsys.readouterr()
    assert main(["table", "--report", str(out / "report.yaml")]) == 0
    table = capsys.readouterr().out
    assert main(["table", "--report", str(older)]) == 0
    assert capsys.readouterr().out == table == emit_convergence_table(solve["sup_diffs"], stored)
    assert len(table.splitlines()) == len(solve["sup_diffs"])


@pytest.mark.parametrize("sigma0", ["0.0", "2.0", ".nan"])
def test_table_refuses_sigma0_out_of_range(tmp_path, capsys, sigma0):
    # the envelope needs 0 < sigma0 <= 1, which every run's clamp gives
    path = write_config(tmp_path, "solve:\n  sup_diffs: [1.0, 0.5]\n  eta: 1.0\n"
                                  f"  rate_exponent: 0.5\n  sigma0: {sigma0}\n",
                        name="report.yaml")
    assert main(["table", "--report", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}: not a report with a solve section (ValueError: ")
    assert err.count("\n") == 1


# each case: (command, the path it names, the file's text, None for no file or
# "dir" for a directory)
IO_ERROR_CASES = {
    "report-missing": ("table", "report.yaml", None),
    "report-empty": ("table", "report.yaml", ""),
    "report-no-sigma0": ("table", "report.yaml",
                         "solve:\n  sup_diffs: [1.0, 0.5]\n  eta: 1.0\n  rate_exponent: 0.5\n"),
    "report-malformed-yaml": ("table", "report.yaml", "solve: [1.0,\n"),
    "report-not-a-mapping": ("table", "report.yaml", "- 1\n- 2\n"),
    "solve-out-dir-is-a-file": ("solve", "out", "not a directory\n"),
    "check-out-dir-is-a-file": ("check", "out", "not a directory\n"),
    "report-is-a-directory": ("solve", "out/report.yaml", "dir"),
    "profile-is-a-directory": ("solve", "out/profile.csv", "dir"),
    "run-meta-is-a-directory": ("check", "out/run_meta.txt", "dir"),
}


# the whole stderr line past the path, where a case pins it
IO_ERROR_REASONS = {
    "report-empty": "not a report with a solve section",
    "report-not-a-mapping": "not a report with a solve section",
}


@pytest.mark.parametrize("case", IO_ERROR_CASES)
def test_io_errors_exit_2_naming_the_path(tmp_path, capsys, case):
    command, name, text = IO_ERROR_CASES[case]
    path = tmp_path / name
    if text == "dir":
        path.mkdir(parents=True)
    elif text is not None:
        path.write_text(text)
    if command == "table":
        argv = ["table", "--report", str(path)]
    else:
        out = tmp_path / "out"
        argv = [command, "--config", str(write_config(tmp_path)), "--out-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1
    if case in IO_ERROR_REASONS:
        assert err == f"error: {path}: {IO_ERROR_REASONS[case]}\n"


@pytest.mark.parametrize("flag", ["--config", "--report"])
@pytest.mark.parametrize("directory, reason", [
    pytest.param(False, os.strerror(errno.ENOENT), id="missing"),
    pytest.param(True, os.strerror(errno.EISDIR), id="directory"),
])
def test_unreadable_input_is_named_once(tmp_path, capsys, flag, directory, reason):
    # --config and --report are read by one reader, with one message
    path = tmp_path / "input.yaml"
    if directory:
        path.mkdir()
    argv = (["table", "--report", str(path)] if flag == "--report" else
            ["check", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: cannot read: {reason}"]


def test_table_of_malformed_yaml_says_so(tmp_path, capsys):
    path = write_config(tmp_path, "solve: [1.0,\n", name="report.yaml")
    assert main(["table", "--report", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: invalid YAML: ")


def test_write_error_without_a_file_name_names_the_out_dir(tmp_path, monkeypatch, capsys):
    # a full disk: the OS error carries no file name
    def full(self, *args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    cfg = write_config(tmp_path)
    monkeypatch.setattr(Path, "write_text", full)
    assert main(["check", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --out-dir: cannot write: {os.strerror(errno.ENOSPC)}"]


def _record_kernel_work(monkeypatch):
    """Record the calls of kernel_matrix, tail_row_mass and eval_kernel, in
    every hammerstein namespace that binds them, and the entries of every
    eval_kernel call."""
    calls = {"kernel_matrix": [], "tail_row_mass": [], "eval_kernel": []}
    entries = []

    def recorded(name, original):
        def wrapper(*args, **kwargs):
            calls[name].append(args)
            if name == "eval_kernel":
                entries.append(np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)
            return original(*args, **kwargs)
        return wrapper

    for fn in calls:
        original = getattr(hammerstein.kernels, fn)
        wrapper = recorded(fn, original)
        for name, module in list(sys.modules.items()):
            if name.startswith("hammerstein") and getattr(module, fn, None) is original:
                monkeypatch.setattr(module, fn, wrapper)
    return calls, entries


def test_solve_evaluates_the_kernel_once(tmp_path, monkeypatch):
    # no N x N kernel and no N x (tail points) one: no kernel_matrix or
    # tail_row_mass call, and a Gaussian kernel is never evaluated pointwise
    # (domination is proven, not probed); the uniqueness probe is on
    # (BASE_CONFIG keeps its default)
    calls, entries = _record_kernel_work(monkeypatch)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["certificates"]["uniqueness"]["passed"] is True
    assert calls["kernel_matrix"] == []
    assert calls["tail_row_mass"] == []
    assert entries == []


def test_library_path_evaluates_no_dense_kernel(tmp_path, monkeypatch):
    config = load_config(write_config(tmp_path))
    spec, grid = config.kernel, config.grid
    calls, entries = _record_kernel_work(monkeypatch)
    report = hammerstein.check_kernel_conditions(spec, grid)
    hammerstein.assemble_operator(spec, grid, report=report)
    hammerstein.gamma_profile(spec, grid)
    assert calls["kernel_matrix"] == []
    assert calls["tail_row_mass"] == []
    assert entries == []


def test_mixture_kernel_is_evaluated_at_its_cusp_only(tmp_path, monkeypatch):
    # a cusped kernel is evaluated pointwise for its cusp correction, 3p
    # values per node, and for the corrected diagonal, one per node
    calls, entries = _record_kernel_work(monkeypatch)
    cfg = write_config(tmp_path, mixture_config(360))
    assert main(["check", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    grid = load_config(cfg).grid
    assert calls["kernel_matrix"] == []
    assert calls["tail_row_mass"] == []
    assert 0 < sum(entries) <= (3 * grid.points_per_panel + 1) * grid.size


def run_child(*args, stdout=subprocess.PIPE, **env_vars):
    """Run a fresh interpreter that imports this package with ``args`` (``"-c",
    code`` or ``"-m", module, ...``), its stdout into ``stdout``; each other
    keyword sets that environment variable, or unsets it when None."""
    src = str(Path(hammerstein.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, value in env_vars.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def test_cli_imports_without_scipy():
    proc = run_child("-c", "import sys, hammerstein.cli; "
                           "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    assert proc.returncode == 0, proc.stderr or "scipy was imported"


# python -m hammerstein.cli runs cli.entry, which ends the process by
# os._exit: what it writes must be flushed before, since no shutdown follows
def test_module_entry_exits_with_mains_code(tmp_path):
    cfg = write_config(tmp_path, readme_config())
    proc = run_child("-m", "hammerstein.cli", "check", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "check"))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "check" / "report.yaml").exists()
    proc = run_child("-m", "hammerstein.cli", "solve", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "seed"), "--seed", "-5")
    assert proc.returncode == 2
    assert proc.stderr == "error: certificates.seed: must be at least 0, got -5\n"


def test_module_entry_writes_what_run_writes(tmp_path):
    cfg = write_config(tmp_path, readme_config())
    child, parent = tmp_path / "child", tmp_path / "parent"
    proc = run_child("-m", "hammerstein.cli", "solve-nemytsky", "--config", str(cfg),
                     "--out-dir", str(child))
    assert proc.returncode == 0, proc.stderr
    assert run(cfg, parent, mode="solve-nemytsky") == 0
    for name in ("report.yaml", "profile.csv"):
        assert (child / name).read_bytes() == (parent / name).read_bytes(), name


def test_module_entry_table_delivers_every_line(tmp_path, capsys):
    # stdout into a pipe is block-buffered (unless PYTHONUNBUFFERED is set):
    # the table reaches the reader only through entry's flush
    cfg = write_config(tmp_path, readme_config())
    assert run(cfg, tmp_path / "out", mode="solve") == 0
    report = str(tmp_path / "out" / "report.yaml")
    capsys.readouterr()
    assert main(["table", "--report", report]) == 0
    table = capsys.readouterr().out
    proc = run_child("-m", "hammerstein.cli", "table", "--report", report,
                     PYTHONUNBUFFERED=None)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == table
    assert len(table.splitlines()) == len(yaml.safe_load(open(report))["solve"]["sup_diffs"])


# the reader closed the pipe before the table came: a short table meets it
# at entry's flush (stdout into a pipe is block-buffered), a long one at the
# write inside main
@pytest.mark.parametrize("steps", [pytest.param(3, id="at-the-flush"),
                                   pytest.param(2000, id="at-the-write")])
def test_closed_stdout_exits_2_with_one_line(tmp_path, steps):
    report = write_config(tmp_path, f"solve:\n  sup_diffs: {[0.5] * steps}\n  eta: 1.0\n"
                                    "  rate_exponent: 0.5\n  sigma0: 0.5\n", name="report.yaml")
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_child("-m", "hammerstein.cli", "table", "--report", str(report),
                         stdout=write, PYTHONUNBUFFERED=None)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == f"error: <stdout>: cannot write: {os.strerror(errno.EPIPE)}\n"


def test_console_script_is_the_process_entry():
    # the installed hammerstein script ends the process as python -m does;
    # read as text, as Python 3.10 has no tomllib
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert '[project.scripts]\nhammerstein = "hammerstein.cli:entry"\n' in pyproject.read_text()


def test_readme_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    # the README's one python block, as written: its calls cannot drift from
    # the code; it prints the solve's numbers and two passing certificates
    monkeypatch.chdir(tmp_path)
    exec(compile(readme_block("python"), "README.md", "exec"), {"__name__": "__main__"})
    solve, excess, asymptote = capsys.readouterr().out.splitlines()
    iterations, sigma0, rate_bound_ok = solve.split()
    assert int(iterations) > 0 and 0.0 < float(sigma0) < 1.0 and rate_bound_ok == "True"
    assert excess.startswith("ExcessIntegralCertificate(") and excess.endswith("passed=True)")
    assert asymptote.startswith("AsymptoteCertificate(") and asymptote.endswith("passed=True)")
    assert not any(tmp_path.iterdir())      # a library run writes no file


# a library run in a child: discretise, the ceiling iteration, the probe's restarts
LIBRARY_RUN = ("import sys, hammerstein as hs; "
               "grid = hs.build_grid(20.0, 50, hs.GAUSS, 4); "
               "kernel = hs.KernelSpec(family='C', base=hs.BaseKernel(), "
               "modulation=hs.ModulationSet(d_star=0.5, l=0.5), epsilon=0.5); "
               "disc = hs.discretise(kernel, grid); "
               "G = hs.NonlinearitySpec(family='I', alpha=0.5); "
               "solve = hs.solve_picard(disc.operator, G); "
               "assert solve.converged; "
               "hs.uniqueness_probe(disc.operator, G, solve.profile); ")


def test_discretise_and_solve_do_not_import_numpy_ma():
    proc = run_child("-c", LIBRARY_RUN + "sys.exit('numpy.ma' in sys.modules)")
    assert proc.returncode == 0, proc.stderr or "numpy.ma was imported"


def child_run(tmp_path, run_kind):
    """Child code that runs the README config through the CLI, probe on, or
    the library run, and leaves the CLI exit code (0 for the library) in
    ``code``."""
    if run_kind == "library":
        return LIBRARY_RUN + "code = 0; "
    cfg = tmp_path / "readme.yaml"
    cfg.write_text(readme_config())
    return (f"import sys; from hammerstein.cli import main; "
            f"code = main(['solve-nemytsky', '--config', {str(cfg)!r}, "
            f"'--out-dir', {str(tmp_path / 'out')!r}]); ")


@pytest.mark.parametrize("run_kind", ["cli", "library"])
def test_runs_do_not_import_numpy_polynomial(tmp_path, run_kind):
    # the Gauss panels come from quadrature.gauss_legendre, not leggauss
    proc = run_child("-c", child_run(tmp_path, run_kind)
                           + "sys.exit(code or ('numpy.polynomial' in sys.modules))")
    assert proc.returncode == 0, proc.stderr or "numpy.polynomial was imported"


@pytest.mark.parametrize("run_kind", ["cli", "library"])
def test_runs_do_not_import_numpy_random_or_openssl(tmp_path, run_kind):
    # the probe draws its bumps from analysis._uniform_stream; numpy.random
    # would bring secrets, hmac and OpenSSL's _hashlib along
    modules = ("numpy.random", "secrets", "_hashlib")
    code = (child_run(tmp_path, run_kind)
            + f"sys.exit(code or ' '.join(m for m in {modules!r} if m in sys.modules) or None)")
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr


# CPU clock ticks (utime + stime) of every thread but the main one, 50 ms
# after the import: an idle OpenBLAS worker that spins shows up here
WORKER_TICKS = ("import os, threading, time, hammerstein; time.sleep(0.05); "
                "main = threading.get_native_id(); ticks = 0\n"
                "for tid in os.listdir('/proc/self/task'):\n"
                "    if int(tid) != main:\n"
                "        with open(f'/proc/self/task/{tid}/stat') as fh:\n"
                "            fields = fh.read().rsplit(')', 1)[1].split()\n"
                "        ticks += int(fields[11]) + int(fields[12])\n"
                "print(ticks)")


def blas_name():
    """The BLAS numpy was built on, "" where numpy does not say (before 1.25)."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return ""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no per-thread /proc")
@pytest.mark.skipif("openblas" not in blas_name(), reason="numpy is not built on OpenBLAS")
def test_import_leaves_no_blas_worker_spinning():
    # no stage calls BLAS; at OpenBLAS's default timeout the idle worker
    # busy-yields for 2**28 cycles after load (8-9 ticks on a 2-vCPU VM)
    proc = run_child("-c", WORKER_TICKS, OPENBLAS_NUM_THREADS="2", OPENBLAS_THREAD_TIMEOUT=None)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 1


def test_import_keeps_a_callers_blas_thread_timeout():
    proc = run_child("-c",
                     "import os, hammerstein; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])",
                     OPENBLAS_THREAD_TIMEOUT="30")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "30"


def test_convergence_table_degenerate_and_empty():
    # a unit ratio floor gives a zero envelope, and no steps a header alone
    flat = [0.3, 0.0, 0.0]
    table = emit_convergence_table(flat, rate_envelope(1.0, 1.0, 0.5, len(flat)))
    rows = table.strip().splitlines()
    assert [row.split()[2] for row in rows[1:]] == ["0", "0"]
    assert (emit_convergence_table([], rate_envelope(1.0, 1.0, 0.5, 0)).strip()
            == "n sup_diff envelope ratio")


def test_run_entry_point(tmp_path):
    cfg = write_config(tmp_path)
    assert run(cfg, tmp_path / "out", mode="check") == 0
    assert run(tmp_path / "missing.yaml", tmp_path / "out2") == 2
    assert run(cfg, cfg) == 2
