import dataclasses
import errno
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import hammerstein
import hammerstein.analysis
import hammerstein.cli
import hammerstein.kernels
import hammerstein.picard
from conftest import LoweredProduct, lift_third_ceiling_iterate, readme_config
from hammerstein.cli import emit_convergence_table, main, run
from hammerstein.config import load_config
from hammerstein.errors import NumericalBreakdownError
from hammerstein.nemytsky import solve_nemytsky
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
    # Gauss panels are the one rule: any other is a config error, one line
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: grid.rule: must be one of ['gauss'], got 'trapezoid'"]
    assert not (tmp_path / "o").exists()


def _refuse_the_operator(monkeypatch):
    # a cusp correction that drives the corrected diagonal below 0
    spec_correction = hammerstein.kernels.cusp_correction

    def oversized(spec, grid, x):
        own = grid.weights * hammerstein.kernels.eval_kernel(spec, x, x)
        return spec_correction(spec, grid, x) - 2.0 * own

    monkeypatch.setattr(hammerstein.kernels, "cusp_correction", oversized)


def test_refused_operator_exits_3_with_report(tmp_path, monkeypatch, capsys):
    _refuse_the_operator(monkeypatch)
    cfg = write_config(tmp_path, mixture_config(180))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 3
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["conditions"]["kernel"]["passed"] is False
    refused = report["conditions"]["kernel"]["operator_refused"]
    assert "is not positive" in refused
    assert report["status"]["conditions_passed"] is False
    assert capsys.readouterr().err.splitlines() == [f"error: {refused}"]


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


def test_undecodable_config_exits_2(tmp_path, capsys):
    # the YAML loader decodes the bytes, so a 0xFF byte is invalid YAML
    cfg = tmp_path / "run.yaml"
    cfg.write_bytes(BASE_CONFIG.encode() + b"# \xff\n")
    assert main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: {cfg}: invalid YAML: ") and err.count("\n") == 1, err


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


def test_condition_failure_exits_3_with_report(tmp_path, capsys):
    # near-unit image-term weight on a coarse one-point (midpoint) grid: the
    # row-mass and mass-defect checks genuinely fail at this resolution
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
  rule: gauss
  points_per_panel: 1
"""
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--out-dir", str(out)])
    assert code == 3
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["conditions"]["kernel"]["passed"] is False
    assert report["status"]["conditions_passed"] is False
    assert capsys.readouterr().err.splitlines() == ["verdict failed: conditions.kernel.passed"]


def test_non_convergence_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("max_iter: 300", "max_iter: 3"))
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--out-dir", str(out)])
    assert code == 4
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["status"]["converged"] is False
    assert capsys.readouterr().err.splitlines() == [
        "error: no convergence to 1e-10 within 3 iterations in the ceiling solve"]


# The README config capped or coarsened: each exit 4 and 3 names its cause on
# one stderr line, as every other nonzero exit does, check included.
@pytest.mark.parametrize("mode, change, code, line", [
    pytest.param("solve-nemytsky", ("max_iter: 500", "max_iter: 5"), 4,
                 "error: no convergence to 1e-10 within 5 iterations in the ceiling solve",
                 id="max_iter-5"),
    pytest.param("solve-nemytsky", ("max_iter: 500", "max_iter: 35"), 4,
                 "error: no convergence to 1e-10 within 35 iterations in the combined solve",
                 id="max_iter-35"),
    pytest.param("check", ("n_panels: 400", "n_panels: 3"), 3,
                 "verdict failed: conditions.kernel.passed", id="n_panels-3"),
])
def test_readme_exits_3_and_4_print_why(tmp_path, capsys, mode, change, code, line):
    cfg = write_config(tmp_path, readme_config().replace(*change))
    assert main([mode, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err.splitlines() == [line]


def _list_lengths(tree):
    """Length of every list in a plain report tree, at any depth."""
    if isinstance(tree, dict):
        for val in tree.values():
            yield from _list_lengths(val)
    elif isinstance(tree, list):
        yield len(tree)
        for val in tree:
            yield from _list_lengths(val)


def test_combined_non_convergence_exits_4_without_profiles(tmp_path, monkeypatch, capsys):
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
    assert capsys.readouterr().err.splitlines() == [
        "error: no convergence to 1e-10 within 3 iterations in the combined solve"]


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


def _breakdown_in(name):
    """A breakage that makes ``hammerstein.cli.<name>`` raise a numerical
    breakdown."""
    def breakage(monkeypatch):
        def broken(*args, **kwargs):
            raise NumericalBreakdownError("injected")

        monkeypatch.setattr(hammerstein.cli, name, broken)
    return breakage


def _leave_the_domain(monkeypatch):
    def solve(A, G, **kwargs):
        return hammerstein.picard.apply_hammerstein(A, G, np.full(A.size, 2.0 * G.eta))

    monkeypatch.setattr(hammerstein.cli, "solve_picard", solve)


def _unit_ratio_floor(monkeypatch):
    # sigma0 = 1 with nonzero differences past the start step: a report
    # that contradicts itself
    monkeypatch.setattr(hammerstein.picard, "estimate_sigma0", lambda f1, f2: 1.0)


@pytest.mark.parametrize("breakage, mode, message", [
    pytest.param(_breakdown_in("solve_picard"), "solve", "injected in the ceiling solve",
                 id="breakdown"),
    pytest.param(_leave_the_domain, "solve",
                 "iterate leaves [0, 1.0] by 1.000e+00 in the ceiling solve", id="domain"),
    pytest.param(_unit_ratio_floor, "solve", "unit ratio floor with nonzero differences "
                 "past the start step in the ceiling solve", id="inconsistent"),
    pytest.param(_breakdown_in("solve_nemytsky"), "solve-nemytsky",
                 "injected in the combined solve", id="combined-breakdown"),
    pytest.param(_breakdown_in("uniqueness_probe"), "solve",
                 "injected in the uniqueness probe", id="probe-breakdown"),
])
def test_numerical_failure_exits_5(tmp_path, monkeypatch, capsys, breakage, mode, message):
    # the report is written all the same: the stages before the failure and
    # the failure's message, with plain numbers (no numpy reprs), naming the
    # stage that was running
    breakage(monkeypatch)
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    code = main([mode, "--config", str(cfg), "--out-dir", str(out)])
    assert code == 5
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["status"]["numerical_error"] == message
    assert "np.float64" not in report["status"]["numerical_error"]
    assert report["status"]["conditions_passed"] is True
    assert report["conditions"]["kernel"]["passed"] is True
    assert not (out / "profile.csv").exists()


def _force(monkeypatch, name, **fields):
    """Wrap ``hammerstein.cli.<name>`` so that its report reads ``fields``."""
    original = getattr(hammerstein.cli, name)
    monkeypatch.setattr(hammerstein.cli, name, lambda *args, **kwargs: dataclasses.replace(
        original(*args, **kwargs), **fields))


@pytest.mark.parametrize("section, verdict", [
    ("solve", "rate_bound_ok"), ("solve", "monotone_ok"),
    ("nemytsky_solve", "increase_ok"), ("nemytsky_solve", "envelope_ok"),
    ("nemytsky_solve", "sandwich_ok"),
])
def test_failed_iteration_verdict_exits_1(tmp_path, monkeypatch, capsys, section, verdict):
    _force(monkeypatch, "solve_picard" if section == "solve" else "solve_nemytsky",
           **{verdict: False})
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
    assert sorted(report["conditions"]) == ["kernel"]
    assert report["status"]["conditions_passed"] is True


def test_delta_next_to_one_exits_0(tmp_path):
    # delta = 1 - 2**-53 times the floor rounds to the floor, so K0(x - t) -
    # delta K0(x + t) is exactly 0 at the far node pairs; positivity is
    # proven (the kernels module docstring), so no scan refuses the run
    config = yaml.safe_load(readme_config())
    config["kernel"] = {"family": "B", "delta": 1.0 - 2.0 ** -53}
    out = tmp_path / "out"
    code = main(["solve-nemytsky", "--config",
                 str(write_config(tmp_path, yaml.safe_dump(config))), "--out-dir", str(out)])
    assert code == 0
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["status"] == {"conditions_passed": True, "converged": True,
                                "certificates_passed": True}
    assert not {"positivity_ok", "symmetry_residual"} & set(report["conditions"]["kernel"])


def test_small_exponent_passes_the_jensen_certificate(tmp_path):
    # alpha = 0.0002 brings f* within 1e-14 of eta, where Q = G^{-1} has
    # slope 1 / alpha: the inverse form of the certificate failed there by
    # rounding alone, the forward form on G does not
    out = tmp_path / "out"
    code = main(["solve-nemytsky", "--config",
                 str(Path(__file__).with_name("small_exponent.yaml")), "--out-dir", str(out)])
    assert code == 0
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["certificates"]["jensen_passed"] is True
    assert report["status"]["certificates_passed"] is True


def test_convex_G_fails_the_jensen_certificate(tmp_path, monkeypatch, capsys):
    # Jensen's inequality turns over for a convex G, here u**2 in the
    # certificates; the tail certificate reads the same G and is switched off
    monkeypatch.setattr(hammerstein.analysis, "eval_G", lambda spec, u: np.asarray(u) ** 2)
    text = BASE_CONFIG.replace("certificates:\n", "certificates:\n  tail_integral: false\n")
    out = tmp_path / "out"
    code = main(["solve-nemytsky", "--config", str(write_config(tmp_path, text)),
                 "--out-dir", str(out)])
    assert code == 1
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["certificates"]["jensen_min_margin"] < -1e-12
    assert capsys.readouterr().err.splitlines() == ["verdict failed: certificates.jensen_passed"]


@pytest.mark.parametrize("certificate, path", [
    ("excess_integral_certificate", "certificates.excess.passed"),
    ("asymptote_certificate", "certificates.asymptote.passed"),
    ("uniqueness_probe", "certificates.uniqueness.passed"),
])
def test_forced_certificate_exits_1(tmp_path, monkeypatch, capsys, certificate, path):
    # each certificate verdict the CLI reads can fail the run on its own
    _force(monkeypatch, certificate, passed=False)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(write_config(tmp_path)), "--out-dir", str(out)]) == 1
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["status"] == {"conditions_passed": True, "converged": True,
                                "certificates_passed": False}
    assert capsys.readouterr().err.splitlines() == [f"verdict failed: {path}"]
    assert (out / "profile.csv").exists()


# each exit path: (mode, config text, breakage or None, exit code, the
# report's status block)
STATUS_CASES = {
    "check-passes": ("check", BASE_CONFIG, None, 0, {"conditions_passed": True}),
    "check-condition-fails": ("check", readme_config().replace("n_panels: 400", "n_panels: 3"),
                              None, 3, {"conditions_passed": False}),
    "nemytsky-condition-fails": ("solve-nemytsky",
                                 readme_config().replace("n_panels: 400", "n_panels: 3"),
                                 None, 3, {"conditions_passed": False}),
    "operator-refused": ("solve", mixture_config(180), _refuse_the_operator, 3,
                         {"conditions_passed": False}),
    "ceiling-not-converged": ("solve-nemytsky",
                              readme_config().replace("max_iter: 500", "max_iter: 5"), None, 4,
                              {"conditions_passed": True, "converged": False}),
    "combined-not-converged": ("solve-nemytsky",
                               readme_config().replace("max_iter: 500", "max_iter: 35"), None, 4,
                               {"conditions_passed": True, "converged": False}),
    "numerical-failure": ("solve", BASE_CONFIG, _breakdown_in("solve_picard"), 5,
                          {"conditions_passed": True,
                           "numerical_error": "injected in the ceiling solve"}),
    "passes": ("solve-nemytsky", BASE_CONFIG, None, 0,
               {"conditions_passed": True, "converged": True, "certificates_passed": True}),
    "certificate-fails": ("solve", Path(__file__).with_name("short_x_max.yaml").read_text(),
                          None, 1, {"conditions_passed": True, "converged": True,
                                    "certificates_passed": False}),
    "iteration-verdict-fails": ("solve-nemytsky", BASE_CONFIG,
                                lambda mp: _force(mp, "solve_picard", rate_bound_ok=False), 1,
                                {"conditions_passed": True, "converged": True,
                                 "certificates_passed": True}),
}


@pytest.mark.parametrize("case", STATUS_CASES)
def test_status_of_every_exit_path(tmp_path, monkeypatch, case):
    mode, text, breakage, code, status = STATUS_CASES[case]
    if breakage is not None:
        breakage(monkeypatch)
    out = tmp_path / "out"
    assert main([mode, "--config", str(write_config(tmp_path, text)), "--out-dir", str(out)]) == code
    assert yaml.safe_load((out / "report.yaml").read_text())["status"] == status


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


def test_table_on_non_converged_report(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("max_iter: 300", "max_iter: 3"))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 4
    capsys.readouterr()
    assert main(["table", "--report", str(out / "report.yaml")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n sup_diff envelope ratio" and len(lines) == 3


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
               "assert solve.converged; "
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


@pytest.mark.parametrize("verdict", ["solve.monotone_ok", "nemytsky_solve.increase_ok"])
def test_wrong_way_step_exits_1(tmp_path, monkeypatch, capsys, readme_run, verdict):
    # one node moved 5e-10 against its solve's direction on one step, inside
    # the solver: the README run writes the verdict false and exits 1
    if verdict == "solve.monotone_ok":
        lift_third_ceiling_iterate(monkeypatch)
    else:
        config, A, solve = readme_run
        step = solve_nemytsky(config.nemytsky, solve.profile, tol=config.tol,
                              operator=A).iterations
        original = hammerstein.cli.solve_nemytsky
        monkeypatch.setattr(hammerstein.cli, "solve_nemytsky",
                            lambda *args, operator, **kwargs: original(
                                *args, operator=LoweredProduct(operator, step), **kwargs))
    out = tmp_path / "out"
    cfg = write_config(tmp_path, readme_config())
    assert main(["solve-nemytsky", "--config", str(cfg), "--out-dir", str(out)]) == 1
    section, key = verdict.split(".")
    assert yaml.safe_load((out / "report.yaml").read_text())[section][key] is False
    assert capsys.readouterr().err.splitlines() == [f"verdict failed: {verdict}"]
