import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hammerstein.nonlinearity import NonlinearitySpec, eval_G

from conftest import make_G, power_linear_scaling_ratio

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

@pytest.mark.parametrize("family", ["I", "II", "III"])
def test_Q_convex_and_below_identity(family):
    # Q convex and below the identity on (0, 1) is G concave and above it
    G = make_G(family)
    u = np.linspace(0.0, G.eta, 500)
    g = eval_G(G, u)
    second = g[2:] - 2.0 * g[1:-1] + g[:-2]
    assert second.max() <= 1e-12
    interior = slice(1, -1)
    assert np.all(g[interior] > u[interior])


# --- the proof, checked on lattices -----------------------------------------

# points per axis of the u, sigma and inverse lattices
LATTICE_POINTS = 200


def scaling_violation(G):
    """max of sigma**a G(u) - G(sigma u) over the full sigma x u lattice,
    sigma strictly inside (0, 1), less the column u = 0 (0 for every G)."""
    u = np.linspace(0.0, G.eta, LATTICE_POINTS)[1:]
    sigma = np.arange(1, LATTICE_POINTS + 1, dtype=float)[:, None] / (LATTICE_POINTS + 1)
    return float((sigma ** G.rate_exponent * eval_G(G, u) - eval_G(G, sigma * u)).max())


def full_inverse_violation(G, G_eval=eval_G):
    """max of u_i G(u_j) - G(u_i u_j) over the u x u lattice, less the
    entries with u_j = 0 or u_i in {0, 1} (0 for every G): the inverse
    scaling bound u Q(v) >= Q(u v) in its forward form."""
    u = np.linspace(0.0, G.eta, LATTICE_POINTS)
    return float((u[1:-1, None] * G_eval(G, u)[None, 1:]
                  - G_eval(G, u[1:-1, None] * u[None, 1:])).max())


@pytest.mark.parametrize("family", ["I", "II", "III"])
def test_lattice_certification_passes(family):
    # the five conditions of the module docstring's proof, in floating point
    G = make_G(family)
    g = eval_G(G, np.linspace(0.0, G.eta, LATTICE_POINTS))
    assert g[0] == 0.0 and g[-1] == G.eta
    assert np.all(np.diff(g) > 0.0)
    assert (g[2:] - 2.0 * g[1:-1] + g[:-2]).max() <= 1e-12
    assert scaling_violation(G) <= 1e-12
    assert full_inverse_violation(G) <= 1e-12


# the scaling and inverse lattice margins of the catalog defaults
LATTICE_MARGINS = {
    "I": (1.1102230246251565e-16, -1.7788653419716083e-04),
    "II": (-7.744592624980839e-07, -8.894326709858041e-05),
    "III": (-7.754255266778642e-07, -5.132410105538332e-04),
}


@pytest.mark.parametrize("family", ["I", "II", "III"])
def test_lattice_violations_carry_their_margin(family):
    # the entries that are 0 for every G (a factor u = 0, an inverse
    # multiplier u = 1) are left out, so no maximum is pinned at 0; the
    # inverse maximum sits at u_i = 198 / 199, u_j = 1 / 199 for each family
    G = make_G(family)
    scaling, inverse = LATTICE_MARGINS[family]
    assert scaling_violation(G) == pytest.approx(scaling, rel=1e-9, abs=1e-15)
    assert full_inverse_violation(G) == pytest.approx(inverse, rel=1e-9)
    assert full_inverse_violation(G) < 0.0
    if family != "I":
        assert scaling_violation(G) < 0.0


def wobbly_G(freq):
    """G plus an elementwise wobble of at most 3e-3, above every margin of
    ``LATTICE_MARGINS``: still a function of each argument alone, but not
    concave."""
    return lambda spec, v: eval_G(spec, v) + 3e-3 * np.sin(freq * np.asarray(v)) ** 2


@pytest.mark.parametrize("family", ["I", "II", "III"])
def test_inverse_violation_is_the_full_lattice_value(family):
    # the bound holds with a margin for the true G; wobbles of G break it
    G = make_G(family)
    assert full_inverse_violation(G) < 0.0
    for freq in (997.0, 1999.0, 3001.0, 4003.0):
        assert full_inverse_violation(G, wobbly_G(freq)) > 0.0, freq


@given(family=st.sampled_from(["I", "II", "III"]),
       a=st.floats(min_value=0.01, max_value=0.99),
       b=st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=50, deadline=None)
def test_inverse_violation_is_the_full_lattice_value_for_any_exponents(family, a, b):
    assume(family != "III" or a < b)
    G = NonlinearitySpec(family=family, alpha=a if family == "I" else None,
                         alpha_star=None if family == "I" else b,
                         alpha_tilde=a if family == "III" else None)
    assert full_inverse_violation(G) <= 1e-12


# the admissible box, log-uniform: every exponent in [1e-40, 1 - 1e-16]
log_box_exponent = st.floats(min_value=math.log(1e-40), max_value=math.log1p(-1e-16)).map(
    lambda t: min(math.exp(t), 1.0 - 1e-16))


@given(family=st.sampled_from(["I", "II", "III"]), a=log_box_exponent, b=log_box_exponent)
@settings(max_examples=50, deadline=None)
def test_proof_holds_across_the_box_at_fifty_digits(family, a, b):
    # The module docstring's five statements at 50 significant digits on
    # u, sigma, w in {k / 10}, whose products m / 100 are exact, so G is
    # tabled once on them.  The inverse bound is its forward form
    # G(u w) >= u G(w).  rate_exponent is (p + q) / 2 rounded to a float,
    # up to half an ulp below it; one ulp above it covers that rounding, and
    # SLACK the last digits' rounding.
    if family == "I":
        G, powers = NonlinearitySpec(family="I", alpha=a), [a]
    elif family == "II":
        G, powers = NonlinearitySpec(family="II", alpha_star=a), [a, 1.0]
    else:
        assume(min(a, b) < max(a, b))
        powers = [min(a, b), max(a, b)]
        G = NonlinearitySpec(family="III", alpha_tilde=powers[0], alpha_star=powers[1])
    assert eval_G(G, 0.0) == 0.0 and eval_G(G, 1.0) == G.eta == 1.0
    slack = Decimal("1e-45")
    with localcontext() as ctx:
        ctx.prec = 50
        exps = [Decimal(c) for c in powers]
        table = [sum(x ** c for c in exps) / len(exps)
                 for x in (Decimal(m) / 100 for m in range(101))]
        assert table[0] == 0 and table[100] == 1
        assert all(hi > lo for lo, hi in zip(table, table[1:]))
        assert all(table[m + 1] - 2 * table[m] + table[m - 1] <= slack
                   for m in range(1, 100))
        rate = Decimal(G.rate_exponent) + Decimal(math.ulp(G.rate_exponent))
        for j in range(1, 10):
            scale = (Decimal(j) / 10) ** rate
            assert all(table[j * k] >= scale * table[10 * k] - slack for k in range(11))
        assert all(table[k * m] >= Decimal(k) / 10 * table[10 * m] - slack
                   for k in range(11) for m in range(11))


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
    # G(u w) >= u G(w) with G(w) = sqrt(w), u = 0.5, w = 0.25:
    # sqrt(0.125) = 0.35355... >= 0.5 * 0.5 = 0.25
    G = make_G("I")
    assert float(eval_G(G, 0.5 * 0.25)) == pytest.approx(0.3535533905932738)
    assert float(0.5 * eval_G(G, 0.25)) == 0.25


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
