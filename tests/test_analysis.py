import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import hammerstein.kernels
from hammerstein.analysis import (UniquenessProbeReport, _uniform_stream,
                                  asymptote_certificate,
                                  excess_integral_certificate,
                                  jensen_certificate,
                                  tail_integral_certificate, uniqueness_probe)
from hammerstein.nonlinearity import NonlinearitySpec
from hammerstein.picard import solve_picard
from hammerstein.quadrature import integrate

from conftest import make_G

SQRT_PI = math.sqrt(math.pi)


# --- excess integral ----------------------------------------------------------

def test_excess_integral_certificate_passes(small_ci):
    cert = excess_integral_certificate(small_ci["solve"].profile,
                                       small_ci["report"], small_ci["G"],
                                       small_ci["grid"])
    assert cert.passed
    assert cert.lhs > 0.0
    assert cert.lhs <= cert.rhs + 1e-8


def test_excess_rhs_closed_form(small_ci):
    # eta * (int gamma + Gamma(1/2) * (1 + eps) + (1 + eps) / sqrt(pi))
    report = small_ci["report"]
    cert = excess_integral_certificate(small_ci["solve"].profile, report,
                                       small_ci["G"], small_ci["grid"])
    expected = 1.0 * (report.gamma_integral + SQRT_PI * 1.5 + 1.5 / SQRT_PI)
    assert cert.rhs == pytest.approx(expected, rel=1e-12)


def test_excess_zero_for_flat_ceiling(small_ci):
    # G(eta) = eta makes the integrand vanish identically
    flat = np.full(small_ci["grid"].size, small_ci["G"].eta)
    cert = excess_integral_certificate(flat, small_ci["report"], small_ci["G"],
                                       small_ci["grid"])
    assert cert.lhs == 0.0 and cert.passed


def test_excess_fails_for_a_half_ceiling_constant(small_ci):
    # G(1/2) - 1/2 = sqrt(1/2) - 1/2 over all of x_max = 30: lhs 6.21 > rhs 4.10
    half = np.full(small_ci["grid"].size, 0.5)
    cert = excess_integral_certificate(half, small_ci["report"], small_ci["G"],
                                       small_ci["grid"])
    assert cert.passed is False
    assert cert.lhs == pytest.approx(30.0 * (math.sqrt(0.5) - 0.5), rel=1e-12)
    assert cert.lhs > cert.rhs + 2.0


# --- tail integral --------------------------------------------------------------

def test_tail_integral_certificate_passes(small_ci):
    cert = tail_integral_certificate(small_ci["solve"].profile, small_ci["grid"],
                                     small_ci["G"], small_ci["report"])
    assert cert.passed is True and math.isfinite(cert.rhs)
    assert cert.epsilon >= 0.5 * small_ci["G"].eta
    assert cert.lhs <= cert.rhs + 1e-8
    assert math.isfinite(cert.lhs) and cert.lhs > 0.0


def test_tail_lhs_matches_direct_quadrature(small_ci):
    grid, G = small_ci["grid"], small_ci["G"]
    fstar = small_ci["solve"].profile
    cert = tail_integral_certificate(fstar, grid, G, small_ci["report"])
    i0 = int(np.searchsorted(grid.nodes, cert.r))
    direct = math.fsum(grid.weights[i0:] * (G.eta - fstar[i0:]))
    assert cert.lhs == pytest.approx(direct, rel=1e-12)


def test_tail_degenerate_profile_flagged(small_ci):
    nearly_flat = np.full(small_ci["grid"].size, small_ci["G"].eta - 1e-9)
    cert = tail_integral_certificate(nearly_flat, small_ci["grid"],
                                     small_ci["G"], small_ci["report"])
    assert cert.passed is None and math.isnan(cert.rhs)
    assert cert.epsilon == small_ci["G"].eta - 1e-9


def test_tail_requires_half_ceiling_plateau(small_ci):
    low = np.full(small_ci["grid"].size, 0.1)
    cert = tail_integral_certificate(low, small_ci["grid"], small_ci["G"],
                                     small_ci["report"])
    assert cert.passed is False
    assert all(math.isnan(v) for v in (cert.lhs, cert.rhs, cert.r, cert.epsilon))


def test_tail_requires_positive_profile(small_ci):
    fstar = small_ci["solve"].profile.copy()
    fstar[0] = 0.0
    cert = tail_integral_certificate(fstar, small_ci["grid"], small_ci["G"],
                                     small_ci["report"])
    assert cert.passed is False and math.isnan(cert.lhs)


# --- Jensen margin ---------------------------------------------------------------

def test_jensen_equality_for_constants(small_ci):
    margin = jensen_certificate(small_ci["A"], small_ci["G"],
                                np.full(small_ci["A"].size, 0.4))
    assert abs(margin) <= 1e-12


def test_jensen_on_solution(small_ci):
    margin = jensen_certificate(small_ci["A"], small_ci["G"],
                                small_ci["solve"].profile)
    assert margin >= -1e-12


def test_jensen_random_profiles(small_ci):
    rng = np.random.default_rng(5)
    for _ in range(100):
        g = rng.uniform(1e-6, 1.0 - 1e-6, small_ci["A"].size)
        assert jensen_certificate(small_ci["A"], small_ci["G"], g) >= -1e-12


# exponents log-uniform in [1e-12, 0.9]; near eta the inverse Q = G^{-1}
# has slope up to 1 / alpha, so its form of the inequality failed by rounding
log_exponent = st.floats(min_value=math.log(1e-12), max_value=math.log(0.9)).map(math.exp)


@given(family=st.sampled_from(["I", "II", "III"]), a=log_exponent, b=log_exponent)
@settings(max_examples=30, deadline=None)
def test_jensen_on_solution_for_any_exponents(small_ci, family, a, b):
    if family == "I":
        G = NonlinearitySpec(family="I", alpha=a)
    elif family == "II":
        G = NonlinearitySpec(family="II", alpha_star=a)
    else:
        assume(a != b)
        G = NonlinearitySpec(family="III", alpha_tilde=min(a, b), alpha_star=max(a, b))
    solve = solve_picard(small_ci["A"], G, tol=1e-10, max_iter=2000)
    assert solve.converged
    assert jensen_certificate(small_ci["A"], G, solve.profile) >= -1e-12


def test_jensen_domain_checked(small_ci):
    with pytest.raises(ValueError):
        jensen_certificate(small_ci["A"], small_ci["G"],
                           np.zeros(small_ci["A"].size))


# --- asymptote -------------------------------------------------------------------

def test_asymptote_certificate(small_ci):
    cert = asymptote_certificate(small_ci["solve"].profile, small_ci["gamma"],
                                 small_ci["G"].eta)
    assert cert.passed
    assert cert.gap <= 1e-6


def test_asymptote_fails_for_a_lowered_last_node(small_ci):
    # the ceiling profile 1e-3 short of eta at x_max: gap 1e-3 > bound 1e-6
    fstar = small_ci["solve"].profile.copy()
    fstar[-1] -= 1e-3
    cert = asymptote_certificate(fstar, small_ci["gamma"], small_ci["G"].eta)
    assert cert.passed is False
    assert cert.bound == 1e-6
    assert cert.gap == pytest.approx(1e-3, rel=1e-9)


# --- uniqueness probe ---------------------------------------------------------------

# one- to four-word entropy: 2**32 and 2**64 + 5 span two and three uint32
# words, 2**100 four
STREAM_SEEDS = [0, 1, *range(12345, 12353), 2**32 - 1, 2**32, 2**64 + 5, 2**100]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_probe_stream_is_numpys_pcg64(seed):
    for trial in range(6):
        for n in (0, 1, 2, 3, 1600, 4097):
            expected = np.random.default_rng([seed, trial]).random(n)
            assert np.array_equal(_uniform_stream(seed, trial, n), expected), (trial, n)


@given(seed=st.integers(min_value=0, max_value=2**128 - 1),
       trial=st.integers(min_value=0, max_value=2**40), n=st.integers(0, 300))
@settings(max_examples=200, deadline=None)
def test_probe_stream_is_numpys_pcg64_for_any_seed(seed, trial, n):
    expected = np.random.default_rng([seed, trial]).random(n)
    assert np.array_equal(_uniform_stream(seed, trial, n), expected)


def test_probe_stream_refuses_a_negative_seed_as_numpy_does():
    with pytest.raises(ValueError):
        np.random.default_rng([-1, 0])
    with pytest.raises(ValueError):
        _uniform_stream(-1, 0, 3)


@pytest.mark.parametrize("kwargs", [dict(trials=0), dict(perturbation_scale=0.0)],
                         ids=["no-restart", "zero-scale"])
def test_probe_rejects_meaningless_settings(small_ci, kwargs):
    # no restart tests nothing, and a zero bump restarts from f* itself
    with pytest.raises(ValueError, match="trials must be at least 1"):
        uniqueness_probe(small_ci["A"], small_ci["G"], small_ci["solve"].profile,
                         **kwargs)


def test_probe_perturbed_restarts(small_ci):
    probe = uniqueness_probe(small_ci["A"], small_ci["G"],
                             small_ci["solve"].profile, perturbation_scale=0.1,
                             trials=3, seed=2, tol=1e-10)
    assert probe.passed and not probe.inconclusive
    assert probe.max_dev <= 1e-9
    assert len(probe.deviations) == 3
    # restarts only: no refined-grid rerun is reported
    assert "refined_dev" not in {f.name for f in dataclasses.fields(UniquenessProbeReport)}


def test_probe_evaluates_no_kernel(small_ci, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the uniqueness probe evaluated the kernel")

    monkeypatch.setattr(hammerstein.kernels, "eval_kernel", refuse)
    probe = uniqueness_probe(small_ci["A"], small_ci["G"],
                             small_ci["solve"].profile, perturbation_scale=0.1,
                             trials=2, seed=4, tol=1e-10)
    assert probe.passed and not probe.inconclusive


def test_probe_deterministic_under_seed(small_ci):
    kwargs = dict(perturbation_scale=0.1, trials=2, seed=9, tol=1e-10)
    a = uniqueness_probe(small_ci["A"], small_ci["G"], small_ci["solve"].profile,
                         **kwargs)
    b = uniqueness_probe(small_ci["A"], small_ci["G"], small_ci["solve"].profile,
                         **kwargs)
    assert a.deviations == b.deviations


def test_probe_inconclusive_when_budget_too_small(small_ci):
    probe = uniqueness_probe(small_ci["A"], small_ci["G"],
                             small_ci["solve"].profile, perturbation_scale=0.1,
                             trials=1, seed=3, tol=1e-10, max_iter=1)
    assert probe.inconclusive and not probe.passed
