import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import special

import hammerstein as hs
from hammerstein.errors import NumericalBreakdownError, SpecRejectedError
import hammerstein.picard
from hammerstein.kernels import cusp_correction, kernel_matrix
from hammerstein.picard import (SolveReport, apply_hammerstein,
                                assemble_operator, discretise, estimate_sigma0,
                                evaluate_profile, fixed_point_iterate, iterate,
                                rate_envelope, solve_picard, verify_rate_bound)

from conftest import (MIXTURE_ATOMS, ceiling_iterates, dense_operator, kernel_specs,
                      lift_third_ceiling_iterate, make_G, make_kernel, nonlinearities,
                      squeeze_breach)


# --- assembly ---------------------------------------------------------------

def test_row_mass_matches_closed_form_at_first_node():
    grid = hs.build_grid(40.0, 400, hs.GAUSS, 4)
    spec = make_kernel("C", d_star=1.0)
    A = assemble_operator(spec, grid)
    x0 = grid.nodes[0]
    closed = 1.0 - 0.25 * special.erfc(x0)
    assert abs(A.row_mass[0] - closed) <= 1e-10


def test_degenerate_single_node_grid():
    grid = hs.build_grid(1.0, 1, hs.GAUSS, 1)
    spec = make_kernel("C")
    A = assemble_operator(spec, grid)
    dense = dense_operator(A)
    assert dense.shape == (1, 1)
    expected = grid.weights[0] * float(hs.eval_kernel(spec, grid.nodes[0], grid.nodes[0]))
    assert dense[0, 0] == expected


def test_weighted_symmetry(small_ci):
    A = small_ci["A"]
    w = A.grid.weights
    weighted = dense_operator(A) * w[:, None]
    assert np.abs(weighted - weighted.T).max() <= 1e-12


def test_entries_positive_row_mass_bounded(small_ci):
    A = small_ci["A"]
    assert dense_operator(A).min() > 0.0
    assert A.row_mass.min() > 0.0
    assert A.row_mass.max() <= 1.0 + 1e-9


def test_failing_spec_rejected():
    coarse = hs.build_grid(40.0, 20, hs.GAUSS, 1)
    with pytest.raises(SpecRejectedError) as err:
        assemble_operator(make_kernel("C"), coarse)
    assert err.value.report is not None and not err.value.report.passed


def test_discretise_matches_separate_steps(small_grid):
    spec = make_kernel("B")
    disc = discretise(spec, small_grid)
    report = hs.check_kernel_conditions(spec, small_grid)
    assert disc.report == report
    A = assemble_operator(spec, small_grid, report=report)
    for name in ("diagonal", "row_scale", "tail_mass", "quad_mass"):
        assert np.array_equal(getattr(disc.operator, name), getattr(A, name))
    for name in ("spectra", "left", "right"):
        assert np.array_equal(getattr(disc.operator.entries, name),
                              getattr(A.entries, name))
    gamma = hs.gamma_profile(spec, small_grid)
    assert np.abs(disc.gamma - gamma).max() <= small_grid.size * np.finfo(float).eps


def test_discretise_skips_assembly_on_failed_checks():
    coarse = hs.build_grid(40.0, 20, hs.GAUSS, 1)
    disc = discretise(make_kernel("B", delta=0.999999), coarse)
    assert not disc.report.passed and disc.operator is None


@pytest.fixture(scope="module")
def mixture_disc():
    grid = hs.build_grid(90.0, 180, hs.GAUSS, 4)
    spec = make_kernel("C", base=hs.BaseKernel(variant="exp-mixture", atoms=MIXTURE_ATOMS))
    return spec, grid, discretise(spec, grid)


def test_cusp_correction_sits_on_the_diagonal(mixture_disc):
    spec, grid, disc = mixture_disc
    A, n, w = disc.operator, grid.size, grid.weights
    dense = dense_operator(A)
    # the rows close on the checked mass 1 - gamma
    closed = dense @ np.ones(n) + A.tail_mass
    assert np.abs(closed - (1.0 - disc.gamma)).max() <= n * np.finfo(float).eps
    assert np.diag(dense).min() > 0.0
    # off the diagonal the entries are the plain Nystrom ones, up to the
    # over-cap rescale, so the weight symmetry is kept
    off = ~np.eye(n, dtype=bool)
    plain = kernel_matrix(spec, grid) * w
    assert np.allclose(dense[off], plain[off], rtol=1e-13, atol=0.0)
    weighted = dense * w[:, None]
    assert np.abs(weighted - weighted.T).max() <= 1e-12


def test_nonpositive_corrected_diagonal_refused(monkeypatch, mixture_disc):
    spec, grid, disc = mixture_disc
    own = grid.weights * np.diag(kernel_matrix(spec, grid))

    def oversized(spec_, grid_, x):
        # a correction that exceeds w_i * K(x_i, x_i) on every row
        return cusp_correction(spec_, grid_, x) - 2.0 * own

    monkeypatch.setattr(hammerstein.kernels, "cusp_correction", oversized)
    diag = own + oversized(spec, grid, grid.nodes)
    worst = int(diag.argmin())
    named = f"A[{worst}, {worst}] = {float(diag[worst])!r}"
    with pytest.raises(SpecRejectedError) as err:
        discretise(spec, grid)
    assert err.value.report.passed        # the checks pass; the operator is refused
    assert named in str(err.value)
    with pytest.raises(SpecRejectedError) as err:
        assemble_operator(spec, grid, report=disc.report)
    assert named in str(err.value)


# --- applications -------------------------------------------------------------

def test_blas_application_matches_broadcast_sum(small_ci):
    # pairwise row sums of the dense oracle, kept as the reference; both sides
    # sum N terms of one row, so they agree to N * eps * row mass
    A, G = small_ci["A"], small_ci["G"]
    dense = dense_operator(A)
    bound = A.size * np.finfo(float).eps * A.row_mass.max() * G.eta
    rng = np.random.default_rng(5)
    for f in [np.full(A.size, G.eta), small_ci["solve"].profile,
              *rng.uniform(0.0, G.eta, (3, A.size))]:
        g = hs.eval_G(G, f)
        reference = (dense * g[None, :]).sum(axis=1) + g[-1] * A.tail_mass
        assert np.abs(apply_hammerstein(A, G, f) - reference).max() <= bound


def test_ceiling_maps_to_row_mass_exactly(small_ci):
    A, G = small_ci["A"], small_ci["G"]
    f1 = apply_hammerstein(A, G, np.full(A.size, G.eta))
    assert np.array_equal(f1, G.eta * A.row_mass)


def test_zero_is_fixed(small_ci):
    A, G = small_ci["A"], small_ci["G"]
    out = apply_hammerstein(A, G, np.zeros(A.size))
    assert np.array_equal(out, np.zeros(A.size))


def test_application_preserves_order(small_ci):
    A, G = small_ci["A"], small_ci["G"]
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = rng.uniform(0.0, 1.0, A.size)
        g = np.clip(f + rng.uniform(0.0, 0.2, A.size), 0.0, 1.0)
        lo = apply_hammerstein(A, G, f)
        hi = apply_hammerstein(A, G, g)
        assert np.all(lo <= hi + 1e-15)


def test_application_domain_checked(small_ci):
    A, G = small_ci["A"], small_ci["G"]
    with pytest.raises(NumericalBreakdownError, match="iterate leaves"):
        apply_hammerstein(A, G, np.full(A.size, 1.5))


# --- ceiling iteration ---------------------------------------------------------

def test_solve_converges_with_certificates(small_ci):
    solve = small_ci["solve"]
    assert solve.converged
    assert solve.monotone_ok
    assert solve.rate_bound_ok
    assert solve.residual_inf <= 2e-10
    assert solve.profile.min() > 0.0 and solve.profile.max() < solve.eta
    assert solve.eta - solve.profile[-1] <= 1e-6
    assert solve.sup_diffs[-1] <= 1e-10


def test_first_iterate_is_mass_defect_complement(small_ci):
    A, G, solve = small_ci["A"], small_ci["G"], small_ci["solve"]
    first = ceiling_iterates(A, G, 1)[1]
    assert np.array_equal(first, G.eta * A.row_mass)
    assert solve.sup_diffs[0] == float(np.abs(first - G.eta).max())


def test_iteration_count_within_envelope_prediction(small_ci):
    solve, G = small_ci["solve"], small_ci["G"]
    L = math.log(1.0 / solve.sigma0)
    predicted = math.ceil(math.log(1e-10 / (solve.eta * L))
                          / math.log(G.rate_exponent)) + 2
    assert solve.iterations <= predicted


def test_monotone_pointwise_across_history(small_ci):
    solve = small_ci["solve"]
    iterates = ceiling_iterates(small_ci["A"], small_ci["G"], solve.iterations)
    worst = max(float((iterates[n + 1] - iterates[n]).max())
                for n in range(len(iterates) - 1))
    assert worst <= 1e-12
    assert solve.monotone_ok


def test_non_convergence_carries_partial_report(small_ci):
    # max_iter raises nothing: the partial report comes back, flagged
    A, G = small_ci["A"], small_ci["G"]
    partial = solve_picard(A, G, tol=1e-10, max_iter=3)
    assert partial.converged is False and partial.rate_bound_ok is False
    assert partial.iterations == 3 and len(partial.sup_diffs) == 3


def test_wrong_way_step_fails_the_monotone_verdict(readme_run, monkeypatch):
    # f_3 lifted 5e-10 at its last node, through solve_picard itself: the
    # verdict reads false, nothing aborts, and the solve still converges
    config, A, solve = readme_run
    lift_third_ceiling_iterate(monkeypatch)
    nudged = solve_picard(A, config.nonlinearity, tol=config.tol, max_iter=config.max_iter)
    assert solve.monotone_ok and nudged.monotone_ok is False
    assert nudged.converged and nudged.rate_bound_ok
    assert np.abs(nudged.profile - solve.profile).max() <= 1e-10


# --- ratio floor and rate bound ------------------------------------------------

def test_sigma0_identical_iterates():
    f = np.linspace(0.2, 0.9, 11)
    assert estimate_sigma0(f, f) == 1.0


def test_sigma0_constant_ratio():
    f = np.linspace(0.2, 0.9, 11)
    assert estimate_sigma0(f, 0.5 * f) == pytest.approx(0.5, abs=1e-15)


def test_sigma0_requires_positive_first_iterate():
    with pytest.raises(NumericalBreakdownError):
        estimate_sigma0(np.array([0.0, 1.0]), np.array([0.5, 0.5]))


def test_sigma0_catalog_run(small_ci):
    solve = small_ci["solve"]
    assert 0.0 < solve.sigma0 < 1.0
    f1, f2 = ceiling_iterates(small_ci["A"], small_ci["G"], 2)[1:]
    assert solve.sigma0 == estimate_sigma0(f1, f2)
    assert f2[-1] / f1[-1] >= 0.99


def test_rate_bound_catalog(small_ci):
    assert verify_rate_bound(small_ci["solve"], small_ci["G"].rate_exponent)


def test_rate_bound_negative_control(small_ci):
    solve = small_ci["solve"]
    tampered = SolveReport(
        iterations=solve.iterations,
        sup_diffs=[solve.sup_diffs[0], 10.0 * solve.eta] + solve.sup_diffs[2:],
        sigma0=solve.sigma0, rate_bound_ok=False, monotone_ok=True,
        residual_inf=solve.residual_inf, profile=solve.profile, eta=solve.eta, converged=True)
    assert not verify_rate_bound(tampered, small_ci["G"].rate_exponent)


def test_rate_bound_degenerate_unit_ratio():
    quiet = SolveReport(iterations=3, sup_diffs=[0.5, 0.0, 0.0], sigma0=1.0,
                        rate_bound_ok=False, monotone_ok=True, residual_inf=0.0,
                        profile=np.ones(3), eta=1.0, converged=True)
    assert verify_rate_bound(quiet, 0.5)
    assert rate_envelope(quiet.sigma0, quiet.eta, 0.5, len(quiet.sup_diffs)) == [0.0, 0.0]
    noisy = SolveReport(iterations=3, sup_diffs=[0.5, 1e-3, 0.0], sigma0=1.0,
                        rate_bound_ok=False, monotone_ok=True, residual_inf=0.0,
                        profile=np.ones(3), eta=1.0, converged=True)
    with pytest.raises(NumericalBreakdownError, match="unit ratio floor"):
        verify_rate_bound(noisy, 0.5)


def test_rate_bound_requires_convergence(small_ci):
    solve = small_ci["solve"]
    pending = SolveReport(iterations=1, sup_diffs=[0.1], sigma0=0.5,
                          rate_bound_ok=False, monotone_ok=True, residual_inf=1.0,
                          profile=solve.profile, eta=1.0, converged=False)
    with pytest.raises(ValueError):
        verify_rate_bound(pending, 0.5)


# --- squeeze and restarts -------------------------------------------------------

@given(kernel=kernel_specs, nonlinearity=nonlinearities,
       d_star=st.floats(min_value=0.05, max_value=1.0),
       lambda_form=st.sampled_from(["exp-gap", "rational-gap"]),
       n_panels=st.integers(min_value=40, max_value=100))
@settings(max_examples=40, deadline=None)
def test_squeeze_inequalities(kernel, nonlinearity, d_star, lambda_form, n_panels):
    # the lower half is proven (picard module docstring), so no run measures
    # it; replay it at every step of the solve, N <= 400 nodes
    grid = hs.build_grid(20.0, n_panels, hs.GAUSS, 4)
    spec = make_kernel(d_star=d_star, lambda_form=lambda_form, **kernel)
    disc = discretise(spec, grid)
    assume(disc.operator is not None)
    G = hs.NonlinearitySpec(**nonlinearity)
    solve = solve_picard(disc.operator, G, tol=1e-10, max_iter=2000)
    assert solve.converged and solve.monotone_ok and 0.0 < solve.sigma0 < 1.0
    assert squeeze_breach(disc.operator, G, solve.sigma0, solve.iterations) <= 1e-12


def test_squeeze_verdict_can_fail(small_ci, monkeypatch):
    # a ratio floor above the measured min f_2 / f_1 puts sigma0 f_1 over f_2,
    # and the replay of the squeeze sees it
    monkeypatch.setattr(hammerstein.picard, "estimate_sigma0", lambda f1, f2: 0.999)
    A, G = small_ci["A"], small_ci["G"]
    solve = solve_picard(A, G, tol=1e-10, max_iter=400)
    assert solve.converged and solve.monotone_ok and solve.sigma0 == 0.999
    assert squeeze_breach(A, G, solve.sigma0, solve.iterations) > 1e-12


@pytest.mark.parametrize("direction", [-1, 0, 1])
def test_iterate_flags_and_aborts_drift(direction):
    # one step against the direction (either way for 0), then a fixed point
    against = -(direction or 1)

    def drifting(drift):
        moves = iter([against * drift, 0.0])
        return lambda cur: cur + next(moves)

    last, sup_diffs, monotone_ok, envelope_ok, converged = iterate(
        drifting(1e-11), np.zeros(3), direction=direction, tol=1e-12, max_iter=5)
    assert converged and sup_diffs == [1e-11, 0.0]
    assert np.array_equal(last, np.full(3, against * 1e-11))
    assert monotone_ok is (direction == 0) and envelope_ok
    if direction:
        with pytest.raises(NumericalBreakdownError):
            iterate(drifting(1e-8), np.zeros(3), direction=direction, tol=1e-12,
                    max_iter=5)
    else:
        _, _, monotone_ok, _, converged = iterate(
            drifting(1e-8), np.zeros(3), direction=0, tol=1e-12, max_iter=5)
        assert monotone_ok and converged


@pytest.mark.parametrize("direction", [-1, 0, 1])
def test_iterate_flags_and_aborts_an_upper_crossing(direction):
    # one step lifts the iterate over its envelope, zero, then it stays; the
    # envelope is checked before, and apart from, the direction
    def crossing(over):
        moves = iter([over, 0.0])
        return lambda cur: cur + next(moves)

    last, sup_diffs, monotone_ok, envelope_ok, converged = iterate(
        crossing(1e-11), np.zeros(3), direction=direction, tol=1e-12, max_iter=5,
        upper=np.zeros(3))
    assert converged and sup_diffs == [1e-11, 0.0]
    assert np.array_equal(last, np.full(3, 1e-11))
    assert envelope_ok is False and monotone_ok is (direction >= 0)
    with pytest.raises(NumericalBreakdownError,
                       match="iterate crossed the upper envelope by 1.000e-08"):
        iterate(crossing(1e-8), np.zeros(3), direction=direction, tol=1e-12,
                max_iter=5, upper=np.zeros(3))


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
def test_iterate_refuses_a_tolerance_that_never_stops(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        iterate(lambda cur: cur, np.zeros(3), direction=0, tol=tol, max_iter=5)


def test_fixed_point_iterate_from_solution(small_ci):
    A, G, solve = small_ci["A"], small_ci["G"], small_ci["solve"]
    profile, iters, ok = fixed_point_iterate(A, G, solve.profile, 1e-10, 100)
    assert ok and iters <= 2
    assert np.abs(profile - solve.profile).max() <= 1e-10


def test_nystrom_extension_reproduces_nodes(small_ci):
    # evaluating the extension at the grid nodes reapplies the operator once
    spec, G, solve, grid = (small_ci["spec"], small_ci["G"], small_ci["solve"],
                            small_ci["grid"])
    ext = evaluate_profile(spec, grid, G, solve.profile, grid.nodes)
    assert np.abs(ext - solve.profile).max() <= 2e-10


@given(scale=st.floats(min_value=0.0, max_value=0.3))
@settings(max_examples=10, deadline=None)
def test_restarts_return_to_fixed_point(small_ci, scale):
    A, G, solve = small_ci["A"], small_ci["G"], small_ci["solve"]
    rng = np.random.default_rng(11)
    start = np.clip(solve.profile + scale * rng.random(A.size), 0.0, G.eta)
    profile, _, ok = fixed_point_iterate(A, G, start, 1e-10, 500)
    assert ok
    assert np.abs(profile - solve.profile).max() <= 1e-9


# d(f, g) = max |log(f / g)|, Thompson's part metric; the rounding of a
# step d near 1e-9 moves the ratio of two steps by about 1e-6
PART_METRIC_SLACK = 1e-6


@pytest.mark.parametrize("family", ["I", "II", "III"])
def test_floor_restart_returns_to_the_ceiling_solution(readme_run, family):
    # from the subsolution 1e-6 f* the iteration increases to a fixed point;
    # the discrete solution is unique, so it is the ceiling's, and each step
    # contracts the part metric by the rate exponent a while it is above rounding
    _, A, _ = readme_run
    G = make_G(family)
    solve = solve_picard(A, G, tol=1e-13, max_iter=2000)
    assert solve.converged
    fstar = solve.profile
    steps = []

    def step(f):
        nxt = apply_hammerstein(A, G, f)
        steps.append(float(np.abs(np.log(nxt / f)).max()))
        return nxt

    f, _, increase_ok, _, converged = iterate(step, 1e-6 * fstar, direction=1,
                                              tol=1e-13, max_iter=2000)
    assert converged and increase_ok
    assert np.abs(f - fstar).max() <= 1e-12
    ratios = [nxt / cur for cur, nxt in zip(steps, steps[1:]) if nxt > 1e-9]
    assert len(ratios) >= 10
    assert max(ratios) <= G.rate_exponent + PART_METRIC_SLACK
