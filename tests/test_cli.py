import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import hammerstein
import hammerstein.cli
import hammerstein.kernels
import hammerstein.nonlinearity
import hammerstein.picard
from conftest import readme_config
from hammerstein.cli import emit_convergence_table, main, run
from hammerstein.config import load_config
from hammerstein.errors import NumericalBreakdownError
from hammerstein.picard import SolveReport, discretise, rate_envelope, solve_picard

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
  probe_trials: 2
  seed: 7
"""


def write_config(tmp_path, text=BASE_CONFIG, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_happy_path_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--out-dir", str(out)])
    assert code == 0
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["status"]["certificates_passed"] is True
    assert report["solve"]["monotone_ok"] is True
    assert report["solve"]["rate_bound_ok"] is True
    assert len(report["solve"]["envelope"]) == len(report["solve"]["sup_diffs"])
    assert report["solve"]["envelope"][0] is None
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


def test_check_only(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["check", "--config", str(cfg), "--out-dir", str(out)]) == 0
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["conditions"]["kernel"]["passed"] is True
    assert "solve" not in report
    assert not (out / "profile.csv").exists()


def test_exp_mixture_base_kernel_runs(tmp_path):
    text = BASE_CONFIG.replace(
        "kernel:\n  family: C\n  epsilon: 0.5\n",
        "kernel:\n  family: C\n  epsilon: 0.5\n"
        "  base:\n    variant: exp-mixture\n    atoms: [[0.25, 1.0], [0.125, 0.5]]\n")
    text = text.replace("x_max: 25.0", "x_max: 90.0").replace("n_panels: 100",
                                                              "n_panels: 360")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
    echoed = yaml.safe_load((out / "report.yaml").read_text())["config"]
    assert echoed["kernel"]["base"]["variant"] == "exp-mixture"
    assert echoed["kernel"]["base"]["atoms"] == [[0.25, 1.0], [0.125, 0.5]]


MIXTURE_KERNEL = ("kernel:\n  family: C\n  epsilon: 0.5\n"
                  "  base:\n    variant: exp-mixture\n    atoms: [[0.25, 1.0], [0.125, 0.5]]\n")


def mixture_config(n_panels):
    return (BASE_CONFIG.replace("kernel:\n  family: C\n  epsilon: 0.5\n", MIXTURE_KERNEL)
            .replace("x_max: 25.0", "x_max: 90.0")
            .replace("n_panels: 100", f"n_panels: {n_panels}"))


def test_exp_mixture_on_trapezoid_exits_2(tmp_path, capsys):
    text = mixture_config(360).replace("rule: gauss", "rule: trapezoid")
    cfg = write_config(tmp_path, text)
    code = main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "grid.rule" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_refused_operator_exits_3_with_report(tmp_path, monkeypatch):
    spec_correction = hammerstein.kernels.cusp_correction

    def oversized(spec, grid, x):
        own = grid.weights * hammerstein.kernels.eval_kernel(spec, x, x)
        return spec_correction(spec, grid, x) - 2.0 * own

    monkeypatch.setattr(hammerstein.kernels, "cusp_correction", oversized)
    cfg = write_config(tmp_path, mixture_config(180))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 3
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["conditions"]["kernel"]["passed"] is False
    assert "is not positive" in report["conditions"]["kernel"]["operator_refused"]
    assert report["status"]["conditions_passed"] is False


def test_bad_mixture_atoms_exit_2(tmp_path, capsys):
    text = BASE_CONFIG.replace(
        "kernel:\n  family: C\n  epsilon: 0.5\n",
        "kernel:\n  family: C\n  epsilon: 0.5\n"
        "  base:\n    variant: exp-mixture\n    atoms: [[0.25, 1.0]]\n")
    cfg = write_config(tmp_path, text)
    code = main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "kernel.base" in capsys.readouterr().err


def test_out_of_range_parameter_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("alpha: 0.5", "alpha: 1.2"))
    code = main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "nonlinearity.alpha" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG + "  bogus: 1\n")
    code = main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "certificates.bogus" in capsys.readouterr().err


def test_malformed_yaml_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG + "grid: [unclosed\n")
    code = main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "invalid YAML" in capsys.readouterr().err


# each case: (command, config text or None for no file); all exit 2
CONFIG_ERROR_CASES = {
    "unknown-key": ("solve", BASE_CONFIG + "  bogus: 1\n"),
    "malformed-yaml": ("solve", BASE_CONFIG + "grid: [unclosed\n"),
    "missing-file": ("solve", None),
    "no-nemytsky-section": ("solve-nemytsky",
                            BASE_CONFIG.replace("nemytsky:\n  xi: 0.25\n", "")),
    # settings that take no value, or under which the uniqueness verdict
    # could only fail (no restart) or only pass (no bump)
    "checks-section": ("solve", BASE_CONFIG + "checks:\n  tol: 1.0e-9\n"),
    "no-probe-restart": ("solve", BASE_CONFIG.replace("probe_trials: 2", "probe_trials: 0")),
    "zero-probe-scale": ("solve", BASE_CONFIG + "  probe_scale: 0.0\n"),
}


@pytest.mark.parametrize("case", CONFIG_ERROR_CASES)
def test_config_errors_print_one_error_line(tmp_path, capsys, case):
    # the same one-line prefix as every other exit-2 error of main
    command, text = CONFIG_ERROR_CASES[case]
    cfg = write_config(tmp_path, text) if text is not None else tmp_path / "absent.yaml"
    assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1, err


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


def test_report_is_the_safe_dumper_bytes(tmp_path):
    out = tmp_path / "out"
    assert main(["solve-nemytsky", "--config", str(write_config(tmp_path)),
                 "--out-dir", str(out)]) == 0
    text = (out / "report.yaml").read_text()
    assert yaml.safe_dump(yaml.safe_load(text), sort_keys=True, default_flow_style=False) == text


def test_missing_nemytsky_section_exits_2(tmp_path, capsys):
    text = BASE_CONFIG.replace("nemytsky:\n  xi: 0.25\n", "")
    cfg = write_config(tmp_path, text)
    code = main(["solve-nemytsky", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert code == 2


def test_condition_failure_exits_3_with_report(tmp_path):
    # near-unit image-term weight on a coarse trapezoid grid: the row-mass
    # and mass-defect checks genuinely fail at this resolution
    text = """\
kernel:
  family: B
  delta: 0.999999
nonlinearity:
  family: I
  alpha: 0.5
grid:
  x_max: 40.0
  n_panels: 20
  rule: trapezoid
"""
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--out-dir", str(out)])
    assert code == 3
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["conditions"]["kernel"]["passed"] is False
    assert report["status"]["conditions_passed"] is False


def test_non_convergence_exits_4(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("max_iter: 300", "max_iter: 3"))
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--out-dir", str(out)])
    assert code == 4
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["status"]["converged"] is False


def _list_lengths(tree):
    """Length of every list in a plain report tree, at any depth."""
    if isinstance(tree, dict):
        for val in tree.values():
            yield from _list_lengths(val)
    elif isinstance(tree, list):
        yield len(tree)
        for val in tree:
            yield from _list_lengths(val)


def test_combined_non_convergence_exits_4_without_profiles(tmp_path, monkeypatch):
    # the ceiling iteration converges, the combined solve is capped at 3 steps
    original = hammerstein.cli.solve_nemytsky
    monkeypatch.setattr(hammerstein.cli, "solve_nemytsky",
                        lambda *args, **kwargs: original(*args, **{**kwargs, "max_iter": 3}))
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve-nemytsky", "--config", str(cfg), "--out-dir", str(out)]) == 4
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["status"]["converged"] is False
    assert report["nemytsky_solve"]["converged"] is False
    assert report["nemytsky_solve"]["iterations"] == 3
    assert max(_list_lengths(report)) < load_config(cfg).grid.size


def test_reports_byte_identical_for_same_seed(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", str(cfg), "--out-dir", str(out1), "--seed", "3"]) == 0
    assert main(["solve", "--config", str(cfg), "--out-dir", str(out2), "--seed", "3"]) == 0
    assert (out1 / "report.yaml").read_bytes() == (out2 / "report.yaml").read_bytes()
    assert (out1 / "profile.csv").read_bytes() == (out2 / "profile.csv").read_bytes()


def test_reports_independent_of_blas_threads(tmp_path):
    # each child sets its BLAS thread count before numpy loads
    cfg = write_config(tmp_path)
    src = str(Path(hammerstein.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"threads-{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "hammerstein.cli", "solve-nemytsky",
             "--config", str(cfg), "--out-dir", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes() for name in ("report.yaml", "profile.csv")])
    assert outputs[0] == outputs[1]


def _inject_breakdown(monkeypatch):
    def broken(*args, **kwargs):
        raise NumericalBreakdownError("injected")

    monkeypatch.setattr(hammerstein.cli, "solve_picard", broken)


def _leave_the_domain(monkeypatch):
    def solve(A, G, **kwargs):
        return hammerstein.picard.apply_hammerstein(A, G, np.full(A.size, 2.0 * G.eta))

    monkeypatch.setattr(hammerstein.cli, "solve_picard", solve)


def _unit_ratio_floor(monkeypatch):
    # sigma0 = 1 with nonzero differences past the start step: a report
    # that contradicts itself
    monkeypatch.setattr(hammerstein.picard, "estimate_sigma0", lambda f1, f2: 1.0)


@pytest.mark.parametrize("breakage, message", [
    pytest.param(_inject_breakdown, "injected", id="breakdown"),
    pytest.param(_leave_the_domain, "iterate leaves", id="domain"),
    pytest.param(_unit_ratio_floor, "unit ratio floor", id="inconsistent"),
])
def test_numerical_failure_exits_5(tmp_path, monkeypatch, capsys, breakage, message):
    # the report is written all the same: the stages before the failure and
    # the failure's message, with plain numbers (no numpy reprs)
    breakage(monkeypatch)
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    code = main(["solve", "--config", str(cfg), "--out-dir", str(out)])
    assert code == 5
    assert message in capsys.readouterr().err
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert message in report["status"]["numerical_error"]
    assert "np.float64" not in report["status"]["numerical_error"]
    assert report["status"]["conditions_passed"] is True
    assert report["conditions"]["kernel"]["passed"] is True
    assert not (out / "profile.csv").exists()


@pytest.mark.parametrize("section, verdict", [
    ("solve", "rate_bound_ok"), ("solve", "squeeze_ok"), ("solve", "monotone_ok"),
    ("nemytsky_solve", "increase_ok"), ("nemytsky_solve", "envelope_ok"),
    ("nemytsky_solve", "sandwich_ok"),
])
def test_failed_iteration_verdict_exits_1(tmp_path, monkeypatch, capsys, section, verdict):
    solver = "solve_picard" if section == "solve" else "solve_nemytsky"
    original = getattr(hammerstein.cli, solver)

    def forced(*args, **kwargs):
        report = original(*args, **kwargs)
        setattr(report, verdict, False)
        return report

    monkeypatch.setattr(hammerstein.cli, solver, forced)
    out = tmp_path / "out"
    code = main(["solve-nemytsky", "--config", str(write_config(tmp_path)),
                 "--out-dir", str(out)])
    assert code == 1
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report[section][verdict] is False
    assert report["status"]["certificates_passed"] is True   # certificates only
    assert capsys.readouterr().err.splitlines() == [f"verdict failed: {section}.{verdict}"]


def test_short_x_max_fails_the_tail_certificate(tmp_path, capsys):
    # admissible, but x_max = 1 is far too short for the profile to reach eta / 2
    out = tmp_path / "out"
    code = main(["solve", "--config", str(Path(__file__).with_name("short_x_max.yaml")),
                 "--out-dir", str(out)])
    assert code == 1
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["certificates"]["tail"]["passed"] is False
    assert report["certificates"]["tail"]["lhs"] == "nan"
    assert report["status"]["certificates_passed"] is False
    assert "certificates.tail.passed" in capsys.readouterr().err
    assert (out / "profile.csv").exists()


def test_negative_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["solve", "--config", str(write_config(tmp_path)), "--out-dir", str(out),
                 "--seed", "-5"])
    assert code == 2
    assert "certificates.seed" in capsys.readouterr().err
    assert not out.exists()


# One node's gamma outside [0, 1] per case: below, not a number, above, and
# the next float above 1 (the check has no slack).  The ids are those of the
# four lattice-check cases these replaced, kept so the test names stay stable.
@pytest.mark.parametrize("bad_gamma, key", [
    pytest.param(-1e-3, "gamma_min", id="criticality_ok-eval_G0-_lifted_at_zero"),
    pytest.param(math.nan, "gamma_min", id="lower_crossing_ok-eval_G0-<lambda>"),
    pytest.param(1.5, "gamma_max", id="upper_crossing_ok-eval_G0-<lambda>"),
    pytest.param(math.nextafter(1.0, 2.0), "gamma_max",
                 id="monotone_ok-eval_G1-_falls_at_the_top"),
])
def test_failed_nemytsky_condition_exits_3(tmp_path, monkeypatch, bad_gamma, key):
    # conditions 1)-4) are proven from 0 <= gamma <= 1 alone (the nemytsky
    # module docstring), so a gamma outside it at one node is what fails them
    real = hammerstein.cli.discretise

    def broken_gamma(*args):
        disc = real(*args)
        gamma = disc.gamma.copy()
        gamma[3] = bad_gamma
        return dataclasses.replace(disc, gamma=gamma)

    monkeypatch.setattr(hammerstein.cli, "discretise", broken_gamma)
    out = tmp_path / "out"
    code = main(["solve-nemytsky", "--config", str(write_config(tmp_path)),
                 "--out-dir", str(out)])
    assert code == 3
    report = yaml.safe_load((out / "report.yaml").read_text())
    conditions = report["conditions"]
    assert conditions["nemytsky"]["passed"] is False
    reported = float(conditions["nemytsky"][key])
    assert reported == bad_gamma or (math.isnan(reported) and math.isnan(bad_gamma))
    assert "nonlinearity" not in conditions and conditions["kernel"]["passed"]
    assert report["status"]["conditions_passed"] is False
    assert "solve" not in report


# Accepted exponents far below 2e-14: the nonlinearity's conditions are
# proven (the nonlinearity module docstring), so no lattice can read
# u**1e-20 as flat at neighbouring points and refuse the run.
@pytest.mark.parametrize("nonlinearity", [
    pytest.param("family: I\n  alpha: 1.0e-20", id="I-1e-20"),
    pytest.param("family: III\n  alpha_tilde: 1.0e-20\n  alpha_star: 2.0e-20",
                 id="III-1e-20-2e-20"),
])
def test_tiny_exponents_exit_0(tmp_path, nonlinearity):
    text = BASE_CONFIG.replace("family: I\n  alpha: 0.5", nonlinearity)
    out = tmp_path / "out"
    code = main(["solve-nemytsky", "--config", str(write_config(tmp_path, text)),
                 "--out-dir", str(out)])
    assert code == 0
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert sorted(report["conditions"]) == ["kernel", "nemytsky"]
    assert report["status"]["conditions_passed"] is True


def test_newton_pass_cap_exits_5(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(hammerstein.nonlinearity, "MAX_NEWTON_PASSES", 1)
    text = BASE_CONFIG.replace("family: I\n  alpha: 0.5", "family: II\n  alpha_star: 0.5")
    cfg = write_config(tmp_path, text)
    code = main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert code == 5
    assert "eval_Q" in capsys.readouterr().err


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
    expected = emit_convergence_table(
        solve.sup_diffs, rate_envelope(solve, config.nonlinearity.rate_exponent))
    assert capsys.readouterr().out == expected


def test_table_on_non_converged_report(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("max_iter: 300", "max_iter: 3"))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 4
    capsys.readouterr()
    assert main(["table", "--report", str(out / "report.yaml")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n sup_diff envelope ratio" and len(lines) == 3


# each case: (command, the path it names, the file's text or None for no file)
IO_ERROR_CASES = {
    "report-missing": ("table", "report.yaml", None),
    "report-empty": ("table", "report.yaml", ""),
    "report-no-envelope": ("table", "report.yaml", "solve:\n  sup_diffs: [1.0, 0.5]\n"),
    "report-malformed-yaml": ("table", "report.yaml", "solve: [1.0,\n"),
    "report-not-a-mapping": ("table", "report.yaml", "- 1\n- 2\n"),
    "solve-out-dir-is-a-file": ("solve", "out", "not a directory\n"),
    "check-out-dir-is-a-file": ("check", "out", "not a directory\n"),
}


@pytest.mark.parametrize("case", IO_ERROR_CASES)
def test_io_errors_exit_2_naming_the_path(tmp_path, capsys, case):
    command, name, text = IO_ERROR_CASES[case]
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    if command == "table":
        argv = ["table", "--report", str(path)]
    else:
        argv = [command, "--config", str(write_config(tmp_path)), "--out-dir", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1


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


def run_child(probe, **env_vars):
    """Run ``probe`` in a fresh interpreter that imports this package; each
    keyword sets that environment variable, or unsets it when None."""
    src = str(Path(hammerstein.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, value in env_vars.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)


def test_cli_imports_without_scipy():
    proc = run_child("import sys, hammerstein.cli; "
                     "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    assert proc.returncode == 0, proc.stderr or "scipy was imported"


# a library run in a child: discretise, the ceiling iteration, a probe restart
LIBRARY_RUN = ("import sys, hammerstein as hs; "
               "grid = hs.build_grid(20.0, 50, hs.GAUSS, 4); "
               "kernel = hs.KernelSpec(family='C', base=hs.BaseKernel(), "
               "modulation=hs.ModulationSet(d_star=0.5, l=0.5), epsilon=0.5); "
               "disc = hs.discretise(kernel, grid); "
               "G = hs.NonlinearitySpec(family='I', alpha=0.5); "
               "solve = hs.solve_picard(disc.operator, G); "
               "hs.uniqueness_probe(disc.operator, G, solve.profile, trials=1); ")


def test_discretise_and_solve_do_not_import_numpy_ma():
    proc = run_child(LIBRARY_RUN + "sys.exit('numpy.ma' in sys.modules)")
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
    proc = run_child(child_run(tmp_path, run_kind)
                     + "sys.exit(code or ('numpy.polynomial' in sys.modules))")
    assert proc.returncode == 0, proc.stderr or "numpy.polynomial was imported"


@pytest.mark.parametrize("run_kind", ["cli", "library"])
def test_runs_do_not_import_numpy_random_or_openssl(tmp_path, run_kind):
    # the probe draws its bumps from analysis._uniform_stream; numpy.random
    # would bring secrets, hmac and OpenSSL's _hashlib along
    modules = ("numpy.random", "secrets", "_hashlib")
    proc = run_child(child_run(tmp_path, run_kind)
                     + f"sys.exit(code or ' '.join(m for m in {modules!r} if m in sys.modules) "
                       "or None)")
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
    proc = run_child(WORKER_TICKS, OPENBLAS_NUM_THREADS="2", OPENBLAS_THREAD_TIMEOUT=None)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 1


def test_import_keeps_a_callers_blas_thread_timeout():
    proc = run_child("import os, hammerstein; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])",
                     OPENBLAS_THREAD_TIMEOUT="30")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "30"


def test_convergence_table_degenerate_and_empty():
    flat = SolveReport(iterations=3, sup_diffs=[0.3, 0.0, 0.0], sigma0=1.0,
                       rate_bound_ok=True, monotone_ok=True, residual_inf=0.0,
                       profile=np.ones(2), eta=1.0)
    table = emit_convergence_table(flat.sup_diffs, rate_envelope(flat, 0.5))
    rows = table.strip().splitlines()
    assert [row.split()[2] for row in rows[1:]] == ["0", "0"]
    empty = SolveReport(iterations=0, sup_diffs=[], sigma0=1.0,
                        rate_bound_ok=True, monotone_ok=True, residual_inf=0.0,
                        profile=np.ones(2), eta=1.0)
    assert (emit_convergence_table(empty.sup_diffs, rate_envelope(empty, 0.5)).strip()
            == "n sup_diff envelope ratio")


def test_run_entry_point(tmp_path):
    cfg = write_config(tmp_path)
    assert run(cfg, tmp_path / "out", mode="check") == 0
    assert run(tmp_path / "missing.yaml", tmp_path / "out2") == 2
