import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import hammerstein.nonlinearity as nl
from hammerstein.errors import NumericalBreakdownError
from hammerstein.nonlinearity import (NonlinearitySpec, check_G_conditions,
                                      eval_G, eval_Q)

from conftest import bisect_Q, make_G, power_linear_scaling_ratio

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


# eta is a property of the spec now (find_eta is gone); these keep the
# catalog and exponent-grid fixed-point checks under their original names
@pytest.mark.parametrize("family", ["I", "II", "III"])
def test_find_eta_catalog(family):
    G = make_G(family)
    assert G.eta == 1.0
    assert abs(float(eval_G(G, G.eta)) - G.eta) <= 1e-12


@given(alpha=unit_open)
@settings(max_examples=40, deadline=None)
def test_find_eta_power_family_any_alpha(alpha):
    G = NonlinearitySpec(family="I", alpha=alpha)
    assert G.eta == 1.0
    assert eval_G(G, G.eta) == G.eta


@given(a_t=unit_open, gap=st.floats(min_value=0.01, max_value=0.5))
@settings(max_examples=40, deadline=None)
def test_find_eta_two_power_family(a_t, gap):
    a_s = min(a_t + gap, 0.99)
    if a_t < a_s:
        G = NonlinearitySpec(family="III", alpha_tilde=a_t, alpha_star=a_s)
        assert G.eta == 1.0
        assert eval_G(G, G.eta) == G.eta


# the whole box NonlinearitySpec admits: every exponent in (0, 1)
box_exponent = st.floats(min_value=1e-12, max_value=1.0 - 1e-12)


@given(family=st.sampled_from(["I", "II", "III"]), a=box_exponent, b=box_exponent)
@settings(max_examples=60, deadline=None)
def test_eta_one_is_the_fixed_point_across_the_box(family, a, b):
    # eta is the constant 1.0 because every family is a mean of powers of u
    # and 1.0 ** x == 1.0 exactly; this holds the constant to that claim
    if family == "I":
        G = NonlinearitySpec(family="I", alpha=a)
    elif family == "II":
        G = NonlinearitySpec(family="II", alpha_star=a)
    else:
        assume(min(a, b) < max(a, b))
        G = NonlinearitySpec(family="III", alpha_tilde=min(a, b), alpha_star=max(a, b))
    assert G.eta == 1.0
    assert eval_G(G, 1.0) == 1.0
    assert check_G_conditions(G).fixed_point_ok


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
    report = check_G_conditions(make_G(family))
    assert report.passed
    assert report.scaling_violation <= 1e-12
    assert report.inverse_scaling_violation <= 1e-12


# the scaling and inverse lattice margins of the catalog defaults
LATTICE_MARGINS = {
    "I": (1.1102230246251565e-16, -1.2625624960385108e-07),
    "II": (-7.744592624980839e-07, -4.855073666644758e-07),
    "III": (-7.754255266778642e-07, -5.1248259649645255e-11),
}


@pytest.mark.parametrize("family", ["I", "II", "III"])
def test_lattice_violations_carry_their_margin(family):
    # the entries that are 0 for every G (a factor u = 0, an inverse
    # multiplier u = 1) are left out, so no maximum is pinned at 0
    report = check_G_conditions(make_G(family))
    scaling, inverse = LATTICE_MARGINS[family]
    assert report.scaling_violation == pytest.approx(scaling, rel=1e-9, abs=1e-15)
    assert report.inverse_scaling_violation == pytest.approx(inverse, rel=1e-9)
    assert report.inverse_scaling_violation < 0.0
    if family != "I":
        assert report.scaling_violation < 0.0


def full_inverse_violation(G, Q=eval_Q):
    """max of Q(u_i u_j) - u_i Q(u_j) over the u x u lattice at once, less
    the entries with u_j = 0 or u_i in {0, 1}: the oracle of
    check_G_conditions' blocked half-lattice walk."""
    u = np.linspace(0.0, G.eta, nl.LATTICE_POINTS)
    return float((Q(G, u[1:-1, None] * u[None, 1:])
                  - u[1:-1, None] * Q(G, u)[None, 1:]).max())


def wobbly_Q(freq):
    """Q plus an elementwise wobble: still a function of each argument alone,
    but with positive violations that differ between (i, j) and (j, i)."""
    return lambda spec, v: eval_Q(spec, v) + 1e-3 * np.sin(freq * np.asarray(v)) ** 2


@pytest.mark.parametrize("family", ["II", "III"])
def test_inverse_lattice_is_evaluated_in_row_blocks(family, monkeypatch):
    # eval_Q sees the 198 x 198 lattice of the multipliers 0 < u < 1
    # LATTICE_BLOCK_ROWS rows at a time, each block from its first row's
    # column on (the lattice is symmetric); it is elementwise, so the blocks
    # are the full-lattice values bit for bit, and so is the verdict
    G = make_G(family)
    u = np.linspace(0.0, G.eta, 200)
    inner = u[1:-1]
    lattice = inner[:, None] * inner[None, :]
    assert np.array_equal(lattice, lattice.T)
    full = eval_Q(G, lattice)
    starts = range(0, 198, nl.LATTICE_BLOCK_ROWS)
    blocks = [lattice[s:s + nl.LATTICE_BLOCK_ROWS, s:] for s in starts]
    assert all(np.array_equal(eval_Q(G, b), full[s:s + nl.LATTICE_BLOCK_ROWS, s:])
               for s, b in zip(starts, blocks))

    sizes = []

    def recorded(spec, v):
        sizes.append(np.size(v))
        return eval_Q(spec, v)

    monkeypatch.setattr(nl, "eval_Q", recorded)
    report = check_G_conditions(G)
    assert sizes == [200] + [b.size for b in blocks]
    assert sum(sizes[1:]) <= 0.6 * lattice.size
    q = eval_Q(G, u)
    assert report.inverse_scaling_violation == max(
        float((full - inner[:, None] * q[None, 1:-1]).max()),
        float((q[1:-1] - inner * q[-1]).max()))


@pytest.mark.parametrize("family", ["I", "II", "III"])
def test_inverse_violation_is_the_full_lattice_value(family, monkeypatch):
    G = make_G(family)
    assert check_G_conditions(G).inverse_scaling_violation == full_inverse_violation(G)
    # wobbles move the maximum to either side of the diagonal
    for freq in (997.0, 1999.0, 3001.0, 4003.0):
        monkeypatch.setattr(nl, "eval_Q", wobbly_Q(freq))
        violation = check_G_conditions(G).inverse_scaling_violation
        assert violation == full_inverse_violation(G, wobbly_Q(freq)) > 0.0, freq


@given(family=st.sampled_from(["I", "II", "III"]),
       a=st.floats(min_value=0.01, max_value=0.99),
       b=st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=50, deadline=None)
def test_inverse_violation_is_the_full_lattice_value_for_any_exponents(family, a, b):
    assume(family != "III" or a < b)
    G = NonlinearitySpec(family=family, alpha=a if family == "I" else None,
                         alpha_star=None if family == "I" else b,
                         alpha_tilde=a if family == "III" else None)
    assert check_G_conditions(G).inverse_scaling_violation == full_inverse_violation(G)


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
