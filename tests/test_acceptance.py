"""Acceptance gate: every stated criterion at its stated tolerance.

The nine catalog configurations combine the three kernel families with the
three nonlinearity families at default parameters (delta = epsilon = d_star =
l = 0.5; alpha = 0.5; alpha_star = 0.5; alpha_tilde = 0.25 with alpha_star =
0.75), Gaussian base kernel, grid [0, 40] with 400 four-point Gauss panels,
stopping tolerance 1e-10.  One line per criterion is printed; run with
``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

import hammerstein as hs

from conftest import (G_PARAMS, KERNEL_PARAMS, ceiling_iterates, kernel_mu, make_G,
                      make_kernel, power_linear_scaling_ratio, squeeze_breach)

TOL = 1e-10
KERNEL_FAMILIES = ("A", "B", "C")
G_FAMILIES = ("I", "II", "III")


def report_line(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:2d} {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} ({name}) failed {suffix}"


@pytest.fixture(scope="module")
def catalog():
    """All nine catalog solves on the stated grid, with total wall time."""
    grid = hs.build_grid(40.0, 400, hs.GAUSS, 4)
    runs = {}
    start = time.perf_counter()
    for kf in KERNEL_FAMILIES:
        spec = make_kernel(kf)
        report = hs.check_kernel_conditions(spec, grid)
        assert report.passed, f"conditions failed for kernel family {kf}"
        A = hs.assemble_operator(spec, grid, report=report)
        for gf in G_FAMILIES:
            G = make_G(gf)
            solve = hs.solve_picard(A, G, tol=TOL, max_iter=500)
            assert solve.converged, f"no convergence for {kf}+{gf}"
            runs[(kf, gf)] = SimpleNamespace(spec=spec, report=report, A=A,
                                             G=G, solve=solve)
    wall = time.perf_counter() - start
    return SimpleNamespace(grid=grid, runs=runs, wall=wall)


def test_criterion_01_monotone_iteration(catalog):
    worst = 0.0
    for run in catalog.runs.values():
        iterates = ceiling_iterates(run.A, run.G, run.solve.iterations)
        for n in range(len(iterates) - 1):
            worst = max(worst, float((iterates[n + 1] - iterates[n]).max()))
    online = all(run.solve.monotone_ok for run in catalog.runs.values())
    ok = online and worst <= 1e-12 and catalog.wall <= 60.0
    report_line(1, "monotone iteration", ok,
                f"worst rise {worst:.2e}, wall {catalog.wall:.1f}s")


def test_criterion_02_rate_bound(catalog):
    ok = all(hs.verify_rate_bound(run.solve, run.G.rate_exponent)
             for run in catalog.runs.values())
    report_line(2, "geometric rate bound", ok)


def test_criterion_03_fixed_point_residual(catalog):
    worst = max(run.solve.residual_inf for run in catalog.runs.values())
    report_line(3, "fixed-point residual", worst <= 2e-10, f"worst {worst:.2e}")


def test_criterion_04_interior_bounds_and_asymptote(catalog):
    interior = all(run.solve.profile.min() > 0.0
                   and run.solve.profile.max() < run.G.eta
                   for run in catalog.runs.values())
    gap = max(run.G.eta - run.solve.profile[-1] for run in catalog.runs.values())
    report_line(4, "interior bounds and asymptote", interior and gap <= 1e-6,
                f"worst ceiling gap {gap:.2e}")


def test_criterion_05_excess_integral_bound(catalog):
    ok = True
    for run in catalog.runs.values():
        cert = hs.excess_integral_certificate(run.solve.profile, run.report,
                                              run.G, catalog.grid)
        ok = ok and cert.passed and cert.lhs > 0.0
    report_line(5, "excess integral bound", ok)


def test_criterion_06_tail_integral_bound(catalog):
    ok = True
    for run in catalog.runs.values():
        cert = hs.tail_integral_certificate(run.solve.profile, catalog.grid,
                                            run.G, run.report)
        ok = ok and cert.passed is True
    report_line(6, "tail integral bound", ok)


def test_criterion_07_squeeze_inequalities(catalog):
    # the lower half is proven (picard module docstring); replay both halves
    # at every step of all nine solves
    worst = max(squeeze_breach(run.A, run.G, run.solve.sigma0, run.solve.iterations)
                for run in catalog.runs.values())
    online = all(run.solve.monotone_ok for run in catalog.runs.values())
    report_line(7, "squeeze inequalities", online and worst <= 1e-12,
                f"worst violation {worst:.2e}")


def test_criterion_08_quadrature_refinement(catalog):
    run = catalog.runs[("C", "I")]
    fine = hs.refine(catalog.grid)
    fine_report = hs.check_kernel_conditions(run.spec, fine)
    fine_A = hs.assemble_operator(run.spec, fine, report=fine_report)
    fine_solve = hs.solve_picard(fine_A, run.G, tol=TOL, max_iter=500)
    assert fine_solve.converged
    extended = hs.evaluate_profile(run.spec, fine, run.G, fine_solve.profile,
                                   catalog.grid.nodes)
    diff = float(np.abs(extended - run.solve.profile).max())
    report_line(8, "panel-doubling stability", diff <= 1e-8, f"sup diff {diff:.2e}")


def test_criterion_09_uniqueness_probe(catalog):
    run = catalog.runs[("C", "I")]
    start = time.perf_counter()
    probe = hs.uniqueness_probe(run.A, run.G, run.solve.profile,
                                seed=2024, tol=TOL, max_iter=2000)
    wall = time.perf_counter() - start
    ok = (probe.passed and not probe.inconclusive
          and all(d <= 1e-9 for d in probe.deviations) and wall <= 30.0)
    report_line(9, "uniqueness probe", ok,
                f"max dev {probe.max_dev:.2e}, wall {wall:.1f}s")


def test_criterion_10_combined_equation_sandwich(catalog):
    run = catalog.runs[("C", "I")]
    spec = hs.NemytskySpec(base_G=run.G, xi=0.25)
    nem = hs.solve_nemytsky(spec, run.solve.profile, tol=TOL, max_iter=5000,
                            operator=run.A)
    lower_gap = float((spec.xi * (1.0 - run.A.row_mass) - nem.profile).max())
    upper_gap = float((nem.profile - (run.G.eta - run.solve.profile)).max())
    tail_value = float(nem.profile[-1])
    ok = (nem.converged and nem.increase_ok
          and lower_gap <= 1e-10 and upper_gap <= 1e-10 and tail_value <= 1e-6)
    report_line(10, "combined-equation sandwich", ok,
                f"envelope slack {max(lower_gap, upper_gap):.2e}, "
                f"tail value {tail_value:.2e}")


def test_criterion_11_nonlinearity_lattice(catalog):
    # the conditions are proven (the nonlinearity module docstring); a lattice
    # replays the fixed point, the increase and the scaling bound
    sigma = np.linspace(0.005, 0.995, 199)
    u = np.linspace(0.0, 1.0, 200)
    ok, scaling_gap = True, -math.inf
    for gf in G_FAMILIES:
        G = make_G(gf)
        g = hs.eval_G(G, u)
        ok = ok and g[0] == 0.0 and g[-1] == G.eta and bool(np.all(np.diff(g) > 0.0))
        scaling_gap = max(scaling_gap, float((sigma[:, None] ** G.rate_exponent * g
                                              - hs.eval_G(G, sigma[:, None] * u)).max()))
    ok = ok and scaling_gap <= 1e-12
    # the pure power family meets its scaling bound with equality
    G1 = make_G("I")
    eq_gap = float(np.abs(hs.eval_G(G1, sigma[:, None] * u[None, :])
                          - sigma[:, None] ** G1.rate_exponent
                          * hs.eval_G(G1, u)[None, :]).max())
    ok = ok and eq_gap <= 1e-14
    # reduction ratio for the power-plus-linear family stays at or above 1
    ratios = power_linear_scaling_ratio(np.arange(0.01, 0.995, 0.01), 0.5)
    ok = ok and bool(np.all(ratios >= 1.0 - 1e-12))
    report_line(11, "nonlinearity lattice certificates", ok,
                f"scaling gap {scaling_gap:.1e}, power-family equality gap {eq_gap:.1e}")


def test_criterion_12_closed_form_spot_checks(catalog):
    g = hs.build_grid(40.0, 800, hs.GAUSS, 4)
    base = hs.BaseKernel()
    half_mass_err = abs(hs.integrate(g, base.eval(g.nodes)) - 0.5)
    ok = half_mass_err <= 1e-12
    for l in (0.25, 0.5, 0.75):
        value = hs.lambda_star_excess_integral(hs.ModulationSet(l=l))
        ok = ok and abs(value - math.gamma(1.0 - l)) <= 1e-8
    spec = make_kernel("A", d_star=0.5)
    t = np.linspace(0.0, 18.0, 50)
    for x in np.linspace(0.0, 18.0, 10):
        # sup over t of 1 - mu(x, t), reached at t = 0
        expected = (1.0 - 0.5) ** 2 * math.exp(-x)
        ok = ok and abs(float((1.0 - kernel_mu(spec, x, t)).max()) - expected) <= 1e-12
    report_line(12, "closed-form spot checks", ok,
                f"half-line mass error {half_mass_err:.1e}")
