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
from hammerstein.cli import emit_convergence_table, main, run
from hammerstein.config import load_config
from hammerstein.errors import (DomainViolationError, InconsistentReportError,
                                NumericalBreakdownError)
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
    assert header == "x,f_star,gamma,eta_minus_fstar"
    assert (out / "run_meta.txt").exists()


def test_full_pipeline_profile_has_envelopes(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["solve-nemytsky", "--config", str(cfg), "--out-dir", str(out)])
    assert code == 0
    lines = (out / "profile.csv").read_text().splitlines()
    assert lines[0] == "x,f_star,gamma,eta_minus_fstar,phi,lower_env,upper_env"
    first = [float(v) for v in lines[1].split(",")]
    assert first[5] <= first[4] + 1e-10 <= first[6] + 2e-10  # sandwich at node 0
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


@pytest.mark.parametrize("error", [NumericalBreakdownError, DomainViolationError,
                                   InconsistentReportError])
def test_numerical_failure_exits_5(tmp_path, monkeypatch, capsys, error):
    def broken(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(hammerstein.cli, "solve_picard", broken)
    cfg = write_config(tmp_path)
    code = main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert code == 5
    assert "injected" in capsys.readouterr().err


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


# 1200 nodes, so that 4 N entries (4800) is far below one row per node of
# the tail past x_max (480 points per row at this grid's panel width)
WIDE_CONFIG = BASE_CONFIG.replace("n_panels: 100", "n_panels: 300")


def test_solve_evaluates_the_kernel_once(tmp_path, monkeypatch):
    # no N x N kernel and no N x (tail points) one: no kernel_matrix or
    # tail_row_mass call, and every eval_kernel call together (the probe
    # lattice) covers at most 4 N entries; the uniqueness probe is on
    # (BASE_CONFIG keeps its default)
    calls, entries = _record_kernel_work(monkeypatch)
    cfg = write_config(tmp_path, WIDE_CONFIG)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["certificates"]["uniqueness"]["passed"] is True
    n = load_config(cfg).grid.size
    assert calls["kernel_matrix"] == []
    assert calls["tail_row_mass"] == []
    assert entries and sum(entries) <= 4 * n


def test_library_path_evaluates_no_dense_kernel(tmp_path, monkeypatch):
    config = load_config(write_config(tmp_path, WIDE_CONFIG))
    spec, grid = config.kernel, config.grid
    calls, entries = _record_kernel_work(monkeypatch)
    report = hammerstein.check_kernel_conditions(spec, grid)
    hammerstein.assemble_operator(spec, grid, report=report)
    hammerstein.gamma_profile(spec, grid)
    assert calls["kernel_matrix"] == []
    assert calls["tail_row_mass"] == []
    assert entries and sum(entries) <= 4 * grid.size


def run_child(probe):
    """Run ``probe`` in a fresh interpreter that imports this package."""
    src = str(Path(hammerstein.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)


def test_cli_imports_without_scipy():
    proc = run_child("import sys, hammerstein.cli; "
                     "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    assert proc.returncode == 0, proc.stderr or "scipy was imported"


def test_discretise_and_solve_do_not_import_numpy_ma():
    proc = run_child("import sys, hammerstein as hs; "
                     "grid = hs.build_grid(20.0, 50, hs.GAUSS, 4); "
                     "kernel = hs.KernelSpec(family='C', base=hs.BaseKernel(), "
                     "modulation=hs.ModulationSet(d_star=0.5, l=0.5), epsilon=0.5); "
                     "disc = hs.discretise(kernel, grid); "
                     "hs.solve_picard(disc.operator, hs.NonlinearitySpec(family='I', alpha=0.5)); "
                     "sys.exit('numpy.ma' in sys.modules)")
    assert proc.returncode == 0, proc.stderr or "numpy.ma was imported"


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
