import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import hammerstein.nonlinearity as nl
from hammerstein.errors import InvalidSpecError, NumericalBreakdownError
from hammerstein.nonlinearity import (NonlinearitySpec, check_G_conditions,
                                      eval_G, eval_Q, find_eta,
                                      power_linear_scaling_ratio)

from conftest import bisect_Q, make_G

unit_open = st.floats(min_value=0.05, max_value=0.95)


def test_eval_G_power_family():
    G = make_G("I")
    assert eval_G(G, 0.25) == pytest.approx(0.5, abs=1e-15)
    assert eval_G(G, 0.0) == 0.0


def test_eval_G_mean_families_fix_one():
    assert eval_G(make_G("II"), 1.0) == 1.0
    assert eval_G(make_G("III"), 1.0) == 1.0


def test_eval_G_rejects_negative():
    with pytest.raises(ValueError):
        eval_G(make_G("I"), -0.5)


@pytest.mark.parametrize("family", ["I", "II", "III"])
def test_find_eta_catalog(family):
    G = make_G(family)
    assert G.eta == 1.0
    assert abs(float(eval_G(G, G.eta)) - G.eta) <= 1e-12


@given(alpha=unit_open)
@settings(max_examples=40, deadline=None)
def test_find_eta_power_family_any_alpha(alpha):
    assert find_eta("I", alpha=alpha) == 1.0


@given(a_t=unit_open, gap=st.floats(min_value=0.01, max_value=0.5))
@settings(max_examples=40, deadline=None)
def test_find_eta_two_power_family(a_t, gap):
    a_s = min(a_t + gap, 0.99)
    if a_t < a_s:
        assert find_eta("III", alpha_tilde=a_t, alpha_star=a_s) == 1.0


def test_find_eta_rejects_shapeless_G(monkeypatch):
    # no sign change of G(u) - u on the bracket: shape conditions violated
    monkeypatch.setattr(nl, "_g_raw", lambda *args: 0.5 * args[-1])
    with pytest.raises(InvalidSpecError):
        find_eta("I", alpha=0.5)


def test_spec_rejects_wrong_eta():
    with pytest.raises(InvalidSpecError):
        NonlinearitySpec(family="I", alpha=0.5, eta=2.0)


def test_spec_parameter_validation():
    with pytest.raises(ValueError):
        NonlinearitySpec(family="I", alpha=1.2)
    with pytest.raises(ValueError):
        NonlinearitySpec(family="II")
    with pytest.raises(ValueError):
        NonlinearitySpec(family="III", alpha_tilde=0.75, alpha_star=0.25)


def test_rate_exponents():
    assert make_G("I").rate_exponent == 0.5
    assert make_G("II").rate_exponent == pytest.approx(0.75)
    assert make_G("III").rate_exponent == pytest.approx(0.5)


# --- inverse --------------------------------------------------------------

def test_Q_power_family_closed_form():
    G = make_G("I")
    assert eval_Q(G, 0.5) == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("family", ["I", "II", "III"])
def test_Q_endpoints_exact(family):
    G = make_G(family)
    assert eval_Q(G, 0.0) == 0.0
    assert eval_Q(G, G.eta) == G.eta


def test_Q_mean_family_forward_verified():
    # G(0.25) = (sqrt(0.25) + 0.25) / 2 = 0.375 for the power-linear mean
    G = make_G("II")
    assert float(eval_G(G, 0.25)) == 0.375
    assert abs(float(eval_Q(G, 0.375)) - 0.25) <= 1e-13


@pytest.mark.parametrize("family", ["I", "II", "III"])
def test_Q_round_trip(family):
    G = make_G(family)
    u = np.linspace(0.0, G.eta, 1000)
    assert np.abs(eval_Q(G, eval_G(G, u)) - u).max() <= 1e-12


@pytest.mark.parametrize("family", ["II", "III"])
def test_Q_inverts_to_stated_tolerance(family):
    G = make_G(family)
    v = np.linspace(0.0, G.eta, 777)
    assert np.abs(eval_G(G, eval_Q(G, v)) - v).max() <= 1e-13


@pytest.mark.parametrize("family", ["I", "II", "III"])
def test_Q_convex_and_below_identity(family):
    G = make_G(family)
    v = np.linspace(0.0, G.eta, 500)
    q = eval_Q(G, v)
    second = q[2:] - 2.0 * q[1:-1] + q[:-2]
    assert second.min() >= -1e-12
    interior = slice(1, -1)
    assert np.all(q[interior] < v[interior])


def test_Q_domain_checked():
    G = make_G("I")
    with pytest.raises(ValueError):
        eval_Q(G, -0.1)
    with pytest.raises(ValueError):
        eval_Q(G, G.eta + 0.1)


exponent = st.floats(min_value=0.01, max_value=0.99)


def mean_spec(family, first, second):
    if family == "II":
        return NonlinearitySpec(family="II", alpha_star=first)
    lo, hi = sorted((first, second))
    assume(lo < hi)
    return NonlinearitySpec(family="III", alpha_tilde=lo, alpha_star=hi)


@pytest.mark.parametrize("family", ["II", "III"])
@given(first=exponent, second=exponent, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_Q_newton_matches_bisection_oracle(family, first, second, seed):
    G = mean_spec(family, first, second)
    eta = G.eta
    draws = np.random.default_rng(seed).uniform(0.0, eta, 200)
    v = np.sort(np.concatenate([np.logspace(-300, 0, 301) * eta, draws, [0.0, eta]]))
    q = eval_Q(G, v)
    oracle = bisect_Q(G, v)
    resolved = oracle > 1e-290
    assert np.all(np.abs(q - oracle)[resolved] <= 1e-12 * oracle[resolved])
    # below the resolved range both inverses sit on the same log(1e-308) floor
    assert np.all(np.abs(eval_G(G, q) - v)[resolved] <= 1e-13)
    # monotone at the sample spacing; for v an ulp apart Newton's last step can
    # order the results by rounding, which the bisection's fixed lattice cannot
    assert np.all(np.diff(q) >= 0.0)
    assert q[0] == 0.0 and q[-1] == eta


@pytest.mark.parametrize("family", ["II", "III"])
def test_Q_newton_pass_cap_raises(family, monkeypatch):
    monkeypatch.setattr(nl, "MAX_NEWTON_PASSES", 1)
    v = np.array([0.0, 0.25, 0.5, 1.0])
    with pytest.raises(NumericalBreakdownError, match=r"eval_Q: 2 of 2 entries"):
        eval_Q(make_G(family), v)


# --- lattice certification --------------------------------------------------

@pytest.mark.parametrize("family", ["I", "II", "III"])
def test_lattice_certification_passes(family):
    report = check_G_conditions(make_G(family), n_u=200, n_sigma=200, tol=1e-12)
    assert report.passed
    assert report.scaling_violation <= 1e-12
    assert report.inverse_scaling_violation <= 1e-12


@pytest.mark.parametrize("family", ["II", "III"])
def test_inverse_lattice_is_evaluated_once_per_distinct_product(family, monkeypatch):
    # eval_Q sees the distinct products of the 200 x 200 lattice only; scattered
    # back, they are the full-lattice values bit for bit, and so is the verdict
    G = make_G(family)
    u = np.linspace(0.0, G.eta, 200)
    uu = np.linspace(0.0, 1.0, 200)
    lattice = uu[:, None] * u[None, :]
    full = eval_Q(G, lattice)
    products, where = np.unique(lattice, return_inverse=True)
    assert products.size == 12623
    assert np.array_equal(eval_Q(G, products)[where.reshape(lattice.shape)], full)

    sizes = []

    def recorded(spec, v):
        sizes.append(np.size(v))
        return eval_Q(spec, v)

    monkeypatch.setattr(nl, "eval_Q", recorded)
    report = check_G_conditions(G, n_u=200, n_sigma=200)
    assert sizes == [200, products.size]
    assert report.inverse_scaling_violation == float(
        (full - uu[:, None] * eval_Q(G, u)[None, :]).max())


def test_power_family_scaling_is_equality():
    G = make_G("I")
    sigma = np.linspace(0.01, 0.99, 99)
    u = np.linspace(0.0, 1.0, 50)
    lhs = eval_G(G, sigma[:, None] * u[None, :])
    rhs = sigma[:, None] ** G.rate_exponent * eval_G(G, u)[None, :]
    assert np.abs(lhs - rhs).max() <= 1e-14


def test_scaling_bound_spot_value():
    # sigma = 0.25, u = 1 for the power-linear mean: 0.375 >= 0.25 ** 0.75
    G = make_G("II")
    assert float(eval_G(G, 0.25)) >= 0.25 ** 0.75
    assert 0.25 ** 0.75 == pytest.approx(0.3535533905932738)


def test_inverse_scaling_spot_value():
    # u Q(v) >= Q(u v) with Q(v) = v^2: 0.5 * 0.0625 >= 0.015625
    G = make_G("I")
    assert float(0.5 * eval_Q(G, 0.25)) == pytest.approx(0.03125)
    assert float(eval_Q(G, 0.125)) == pytest.approx(0.015625)


def test_power_linear_ratio_at_least_one():
    sigma = np.arange(0.01, 0.995, 0.01)
    ratio = power_linear_scaling_ratio(sigma, 0.5)
    assert np.all(ratio >= 1.0 - 1e-12)


def test_power_linear_ratio_domain():
    with pytest.raises(ValueError):
        power_linear_scaling_ratio(0.0, 0.5)


def test_lattice_size_validated():
    with pytest.raises(ValueError):
        check_G_conditions(make_G("I"), n_u=2)


@given(alpha_star=unit_open, sigma=st.floats(min_value=0.01, max_value=0.99),
       u=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_scaling_bound_random_points_power_linear(alpha_star, sigma, u):
    G = NonlinearitySpec(family="II", alpha_star=alpha_star)
    lhs = float(eval_G(G, sigma * u))
    rhs = sigma ** G.rate_exponent * float(eval_G(G, u))
    assert lhs >= rhs - 1e-12


@given(alpha_star=unit_open, u=st.floats(min_value=0.0, max_value=0.98))
@settings(max_examples=200, deadline=None)
def test_concavity_random_triples(alpha_star, u):
    G = NonlinearitySpec(family="II", alpha_star=alpha_star)
    h = 0.01
    vals = [float(eval_G(G, u + k * h)) for k in range(3)]
    assert vals[2] - 2.0 * vals[1] + vals[0] <= 1e-12
