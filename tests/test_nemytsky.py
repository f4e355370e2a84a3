import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import hammerstein as hs
from hammerstein.errors import NumericalBreakdownError
from hammerstein.config import load_config
from hammerstein.nemytsky import (DAMPING_PROFILES, NemytskySpec, _G0, _G1,
                                  check_nemytsky_conditions, damping_values,
                                  eps_star_bound, eps_star_values, solve_nemytsky)
from hammerstein.nonlinearity import NonlinearitySpec, eval_G
from hammerstein.quadrature import integrate

from conftest import (LoweredProduct, kernel_specs, make_G, make_kernel, nonlinearities,
                      readme_config)


def make_nem(small_ci, **overrides):
    kwargs = dict(base_G=small_ci["G"], xi=0.25)
    kwargs.update(overrides)
    return NemytskySpec(**kwargs)


def G0(spec, gamma, u):
    """The pointwise term from the factors ``solve_nemytsky`` builds."""
    return _G0(spec.xi * gamma, eps_star_values(spec, gamma), u)


def G1(spec, x, u):
    """The integrand term from the factors ``solve_nemytsky`` builds."""
    return _G1(spec.base_G, damping_values(spec, x), u)


# --- pointwise term ----------------------------------------------------------

def test_G0_crossing_at_scaled_gamma(small_ci):
    # substituting u = xi * gamma gives 2 s^2 / (2 s) = s up to rounding
    spec = make_nem(small_ci)
    gamma = small_ci["gamma"]
    s = spec.xi * gamma
    assert np.abs(G0(spec, gamma, s) - s).max() <= 1e-14


def test_G0_vanishes_at_zero(small_ci):
    spec = make_nem(small_ci)
    assert np.abs(G0(spec, small_ci["gamma"], 0.0)).max() == 0.0
    assert G0(spec, 0.0, 0.0) == 0.0  # 0/0 convention at gamma == 0


def test_G0_quadratic_with_zero_fraction_matches_saturating(small_ci):
    # phi = 0 drops the square: G0 is 2 xi gamma u / (u + xi gamma), bit for bit
    spec = make_nem(small_ci, eps_star_fraction=0.0)
    gamma = small_ci["gamma"][:, None]
    u = np.linspace(0.0, 1.0, 17)[None, :]
    assert gamma.min() > 0.0                # so u + xi gamma > 0 everywhere
    s = spec.xi * gamma
    assert np.array_equal(G0(spec, gamma, u), 2.0 * s * u / (u + s))


def test_G0_upper_crossing(small_ci):
    # 2 xi gamma eta / (eta + xi gamma) <= eta gamma reduces to 2 xi <= eta + xi gamma;
    # the raw gamma profile carries ~1e-15 quadrature noise at tail nodes
    spec = make_nem(small_ci)
    gamma = small_ci["gamma"]
    eta = spec.base_G.eta
    assert np.all(G0(spec, gamma, eta) <= eta * gamma + 1e-12)


# --- integrand term ----------------------------------------------------------

def test_G1_reflected_values(small_ci):
    spec = make_nem(small_ci)
    # base family I with alpha = 0.5: 1 - sqrt(0.25) = 0.5
    assert float(G1(spec, 0.0, 0.75)) == pytest.approx(0.5, abs=1e-15)
    assert float(G1(spec, 0.0, 0.0)) == 0.0
    assert float(G1(spec, 0.0, 1.0)) == pytest.approx(1.0, abs=1e-15)


def test_G1_scaled_with_unit_profile_matches_reflected(small_ci):
    # damping_profile one leaves eta - G(eta - u), bit for bit, at every x
    spec = make_nem(small_ci, damping_profile="one")
    G, x = spec.base_G, small_ci["grid"].nodes
    u = np.linspace(0.0, 1.0, 9)
    reflected = G.eta - eval_G(G, G.eta - u)
    assert np.array_equal(G1(spec, x[:, None], u[None, :]),
                          np.broadcast_to(reflected, (x.size, u.size)))


def test_damping_profiles(small_ci):
    x = np.array([0.0, 1.0, 2.0])
    assert np.array_equal(damping_values(make_nem(small_ci, damping_profile="half"), x),
                          [0.5, 0.5, 0.5])
    decay = damping_values(make_nem(small_ci, damping_profile="exp-decay"), x)
    assert np.array_equal(decay, np.exp(-x))


def test_spec_validation(small_ci):
    with pytest.raises(ValueError):
        make_nem(small_ci, xi=0.5)  # not strictly below eta / 2
    with pytest.raises(ValueError):
        make_nem(small_ci, xi=0.0)
    with pytest.raises(ValueError):
        make_nem(small_ci, damping_profile="two")
    with pytest.raises(ValueError, match="one value per grid node"):
        solve_nemytsky(make_nem(small_ci), small_ci["solve"].profile[:-1],
                       operator=small_ci["A"])


# --- condition checks -------------------------------------------------------

def test_catalog_conditions_pass(small_ci):
    assert check_nemytsky_conditions(small_ci["gamma"]) is True


def test_quadratic_fraction_within_bound_passes(small_ci):
    # the spec is accepted, and gamma's range is all the check reads
    make_nem(small_ci, eps_star_fraction=0.5)
    assert check_nemytsky_conditions(small_ci["gamma"]) is True


@pytest.mark.parametrize("entry", [-1e-3, math.nan, 1.5])
def test_gamma_outside_unit_interval_fails_without_raising(small_ci, entry):
    gamma = small_ci["gamma"].copy()
    gamma[5] = entry
    assert check_nemytsky_conditions(gamma) is False


def _base_G(family, a, b):
    if family == "I":
        return NonlinearitySpec(family="I", alpha=a)
    if family == "II":
        return NonlinearitySpec(family="II", alpha_star=a)
    assume(a != b)
    return NonlinearitySpec(family="III", alpha_tilde=min(a, b), alpha_star=max(a, b))


box_exponent = st.floats(1e-6, 1.0 - 1e-6)
# gamma in [0, 1]: uniform, log-uniform down to 1e-16, and the edge values
gamma_entry = (st.floats(0.0, 1.0) | st.floats(-16.0, 0.0).map(lambda e: 10.0 ** e)
               | st.sampled_from([0.0, 1.0, 1e-14, 5e-324]))
PROOF_TOL = 1e-12


@given(family=st.sampled_from(["I", "II", "III"]), a=box_exponent, b=box_exponent,
       xi=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
       damping=st.sampled_from(DAMPING_PROFILES),
       fraction=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       gamma=st.lists(gamma_entry, min_size=1, max_size=40), x_max=st.floats(0.0, 80.0))
@settings(max_examples=200, deadline=None)
def test_conditions_hold_for_every_accepted_spec(family, a, b, xi, damping, fraction,
                                                 gamma, x_max):
    # the module docstring's proof, on an x-by-u lattice: every spec
    # NemytskySpec accepts meets conditions 1)-4) once 0 <= gamma <= 1
    G = _base_G(family, a, b)
    spec = NemytskySpec(base_G=G, xi=xi, eps_star_fraction=fraction,
                        damping_profile=damping)
    gamma = np.array(gamma)
    x = np.linspace(0.0, x_max, gamma.size)
    eta, s = G.eta, xi * gamma
    u = np.linspace(0.0, eta, 33)
    g0 = G0(spec, gamma[:, None], u[None, :])
    g1 = G1(spec, x[:, None], u[None, :])
    # criticality, exactly
    assert np.all(G0(spec, gamma, 0.0) == 0.0)
    assert np.all(G1(spec, x, 0.0) == 0.0)
    # the two crossings
    assert (G0(spec, gamma, s) - s).min() >= -PROOF_TOL
    assert (G0(spec, gamma, eta) - eta * gamma).max() <= PROOF_TOL
    # both terms increase in u
    assert np.diff(g0, axis=1).min() >= -PROOF_TOL
    assert np.diff(g1, axis=1).min() >= -PROOF_TOL
    # the reflected envelope
    assert g1.min() >= -PROOF_TOL
    assert (g1 - (eta - eval_G(G, eta - u))).max() <= PROOF_TOL


def test_quadratic_fraction_over_one_rejected(small_ci):
    # eps_star is this fraction of its bound, so the spec keeps it within the
    # bound; the upper crossing G0(eta) <= eta gamma is that same bound
    with pytest.raises(ValueError, match="eps_star_fraction"):
        make_nem(small_ci, eps_star_fraction=1.1)


def test_eps_star_values_fraction_of_bound(small_ci):
    spec = make_nem(small_ci, eps_star_fraction=0.25)
    gamma = small_ci["gamma"]
    assert np.array_equal(eps_star_values(spec, gamma),
                          0.25 * eps_star_bound(spec, gamma))


# --- the upward iteration -----------------------------------------------------

@pytest.fixture(scope="module")
def nem_solution(small_ci):
    spec = NemytskySpec(base_G=small_ci["G"], xi=0.25)
    report = solve_nemytsky(spec, small_ci["solve"].profile,
                            tol=1e-10, max_iter=5000, operator=small_ci["A"])
    assert report.converged
    return spec, report


def test_sandwich_holds(small_ci, nem_solution):
    spec, report = nem_solution
    assert report.converged and report.sandwich_ok
    lower = spec.xi * (1.0 - small_ci["A"].row_mass)
    upper = spec.base_G.eta - small_ci["solve"].profile
    assert float((report.profile - lower).min()) >= -1e-10
    assert float((upper - report.profile).min()) >= -1e-10


def test_iterates_increase_under_envelope(nem_solution):
    _, report = nem_solution
    assert report.increase_ok and report.envelope_ok


def test_residual_and_tail(nem_solution):
    _, report = nem_solution
    assert report.residual_inf <= 2e-10
    assert report.profile[-1] <= 1e-6


def test_first_step_moves_up(small_ci):
    spec = NemytskySpec(base_G=small_ci["G"], xi=0.25)
    report = solve_nemytsky(spec, small_ci["solve"].profile,
                            tol=1e-10, max_iter=5000, operator=small_ci["A"])
    # the recorded first difference is the sup of Phi_1 - Phi_0 >= 0
    assert report.converged and report.sup_diffs[0] > 0.0


def test_scaled_variant_converges(small_ci):
    spec = NemytskySpec(base_G=small_ci["G"], xi=0.2, damping_profile="exp-decay")
    report = solve_nemytsky(spec, small_ci["solve"].profile,
                            tol=1e-10, max_iter=5000, operator=small_ci["A"])
    assert report.converged and report.sandwich_ok and report.profile[-1] <= 1e-6


def test_integral_stable_under_refinement(small_ci):
    # integrability proxy: quadrature of the profile is stable when panels double
    grid = small_ci["grid"]
    coarse_val = None
    for g in (grid, hs.refine(grid)):
        spec = make_kernel("C")
        G = make_G("I")
        rep = hs.check_kernel_conditions(spec, g)
        A = hs.assemble_operator(spec, g, report=rep)
        solve = hs.solve_picard(A, G, tol=1e-10, max_iter=400)
        nrep = solve_nemytsky(NemytskySpec(base_G=G, xi=0.25), solve.profile,
                              tol=1e-10, operator=A)
        assert solve.converged and nrep.converged
        total = integrate(g, nrep.profile)
        if coarse_val is None:
            coarse_val = total
        else:
            assert abs(total - coarse_val) <= 1e-8
    assert coarse_val > 0.0


def test_non_convergence_raises(small_ci):
    # max_iter raises nothing: the partial report comes back, flagged
    spec = NemytskySpec(base_G=small_ci["G"], xi=0.25)
    partial = solve_nemytsky(spec, small_ci["solve"].profile,
                             tol=1e-10, max_iter=2, operator=small_ci["A"])
    assert partial.converged is False
    assert partial.iterations == 2 and len(partial.sup_diffs) == 2


def test_wrong_way_step_fails_the_increase_verdict(readme_run):
    # the converging step's product lowered 5e-10 at node 0, through
    # solve_nemytsky itself: the verdict reads false, nothing aborts, and the
    # solve converges to the same sandwiched profile
    config, A, solve = readme_run
    clean = solve_nemytsky(config.nemytsky, solve.profile, tol=config.tol, operator=A)
    nudged = solve_nemytsky(config.nemytsky, solve.profile, tol=config.tol,
                            operator=LoweredProduct(A, clean.iterations))
    assert clean.increase_ok and nudged.increase_ok is False
    assert nudged.converged and nudged.envelope_ok and nudged.sandwich_ok
    assert np.abs(nudged.profile - clean.profile).max() <= 1e-10


# f_star raised by delta lowers the upper envelope eta - f_star by delta;
# the README solution comes within 1.2e-14 of it
@pytest.mark.parametrize("delta, sandwich_ok", [(1e-11, True), (5e-10, False)])
def test_lowered_envelope_clears_the_verdicts(readme_run, delta, sandwich_ok):
    config, A, solve = readme_run
    report = solve_nemytsky(config.nemytsky, solve.profile + delta, tol=config.tol,
                            operator=A)
    assert report.converged and report.increase_ok
    assert report.envelope_ok is False and report.sandwich_ok is sandwich_ok


def test_iterate_over_the_envelope_aborts(readme_run):
    config, A, solve = readme_run
    with pytest.raises(NumericalBreakdownError,
                       match="iterate crossed the upper envelope by 1.000e-08"):
        solve_nemytsky(config.nemytsky, solve.profile + 1e-8, tol=config.tol, operator=A)


@given(kernel=kernel_specs, nonlinearity=nonlinearities,
       d_star=st.floats(min_value=0.05, max_value=1.0),
       lambda_form=st.sampled_from(["exp-gap", "rational-gap"]),
       n_panels=st.integers(min_value=40, max_value=100),
       xi=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
       damping=st.sampled_from(DAMPING_PROFILES),
       fraction=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_combined_solve_holds_every_verdict(kernel, nonlinearity, d_star, lambda_form,
                                            n_panels, xi, damping, fraction):
    # every spec NemytskySpec accepts, on an operator whose checks pass (its
    # gamma lies in [0, 1] by the mass cap), N <= 400 nodes: no abort, every
    # verdict true
    grid = hs.build_grid(20.0, n_panels, hs.GAUSS, 4)
    disc = hs.discretise(make_kernel(d_star=d_star, lambda_form=lambda_form, **kernel), grid)
    assume(disc.operator is not None)
    G = NonlinearitySpec(**nonlinearity)
    solve = hs.solve_picard(disc.operator, G, tol=1e-10, max_iter=2000)
    assert solve.converged
    fstar = solve.profile
    spec = NemytskySpec(base_G=G, xi=xi * G.eta, eps_star_fraction=fraction,
                        damping_profile=damping)
    report = solve_nemytsky(spec, fstar, tol=1e-10, operator=disc.operator)
    assert report.converged and report.increase_ok
    assert report.envelope_ok and report.sandwich_ok


@pytest.mark.parametrize("key, value", [("eps_star_fraction: 0.0", "eps_star_fraction: 0.5"),
                                        ("damping_profile: one", "damping_profile: half")])
def test_readme_parameters_change_the_solution(readme_run, tmp_path, key, value):
    # both terms are one formula each, so the README config's phi and damping
    # profile always reach the combined solve, next to its fixed
    # pointwise: saturating and integrand: reflected
    config, A, solve = readme_run
    text = readme_config()
    assert text.count(key) == 1
    path = tmp_path / "changed.yaml"
    path.write_text(text.replace(key, value))
    changed = load_config(path).nemytsky
    base = solve_nemytsky(config.nemytsky, solve.profile, tol=config.tol, operator=A)
    other = solve_nemytsky(changed, solve.profile, tol=config.tol, operator=A)
    assert base.converged and other.converged and other.sandwich_ok
    assert np.abs(other.profile - base.profile).max() > 1e-6
