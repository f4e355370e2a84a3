import dataclasses
import decimal
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hammerstein as hs
from hammerstein.quadrature import (GAUSS, HalfLineGrid, build_grid, gauss_legendre, integrate,
                                    refine)


@pytest.mark.parametrize("rule,n_panels,p", [
    (GAUSS, 7, 1), (GAUSS, 160, 1),
    (GAUSS, 3, 2), (GAUSS, 40, 4), (GAUSS, 13, 7),
])
def test_constant_integrates_to_x_max(rule, n_panels, p):
    g = build_grid(17.0, n_panels, rule, p)
    assert abs(integrate(g, np.ones(g.size)) - 17.0) <= 1e-12 * 17.0


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_gauss_exact_for_low_degree(p):
    # p-point Gauss per panel is exact for degree <= 2p-1
    g = build_grid(1.0, 3, GAUSS, p)
    for k in range(2 * p):
        exact = 1.0 / (k + 1)
        assert abs(integrate(g, g.nodes ** k) - exact) <= 1e-14


def test_gauss_five_point_degree_nine():
    g = build_grid(1.0, 1, GAUSS, 5)
    assert integrate(g, g.nodes ** 9) == pytest.approx(0.1, abs=1e-15)


def test_zero_samples():
    g = build_grid(3.0, 11, GAUSS, 4)
    assert integrate(g, np.zeros(g.size)) == 0.0


def test_gaussian_half_line_mass():
    # int_0^inf exp(-y^2)/sqrt(pi) dy = 1/2; tail past 40 is ~1e-700
    g = build_grid(40.0, 800, GAUSS, 4)
    vals = np.exp(-g.nodes ** 2) / math.sqrt(math.pi)
    assert abs(integrate(g, vals) - 0.5) <= 1e-12


def test_grid_invariants():
    for p in (1, 4):
        g = build_grid(5.0, 9, GAUSS, p)
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[0] > 0.0 and g.nodes[-1] < g.x_max
        assert np.all(g.weights > 0)
        assert g.size == 9 * p


def test_determinism_bit_identical():
    a = build_grid(11.0, 37, GAUSS, 4)
    b = build_grid(11.0, 37, GAUSS, 4)
    assert np.array_equal(a.nodes, b.nodes) and np.array_equal(a.weights, b.weights)
    samples = np.cos(a.nodes)
    assert integrate(a, samples) == integrate(b, samples)


def test_grids_compare_and_hash_by_value():
    a, b = build_grid(40.0, 10), build_grid(40.0, 10)
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: "first", b: "second"} == {a: "second"}
    # the fields are normalised, so the same panels given as int or np.int64 agree
    assert HalfLineGrid(40, np.int64(10), np.int64(4)) == a
    assert type(a.x_max) is float and type(a.n_panels) is int
    assert a != build_grid(40.0, 20) and a != build_grid(40.0, 10, GAUSS, 2)
    assert refine(a) == build_grid(40.0, 20)


def test_grid_is_immutable():
    g = build_grid(3.0, 2, GAUSS, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.n_panels = 4
    with pytest.raises(ValueError, match="read-only"):
        g.nodes[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        g.weights[0] = 0.0


@pytest.mark.parametrize("args", [(-1.0, 3, 2), (40.0, 3, 0), (5e-324, 1, 1)])
def test_grid_refuses_what_build_grid_refuses(args):
    x_max, n_panels, p = args
    with pytest.raises(ValueError) as refused:
        build_grid(x_max, n_panels, GAUSS, p)
    with pytest.raises(ValueError, match=re.escape(str(refused.value))):
        HalfLineGrid(*args)


def test_refine_doubles_panels():
    g = build_grid(4.0, 10, GAUSS, 4)
    f = refine(g)
    assert f.n_panels == 20 and f.x_max == g.x_max and f.size == 2 * g.size


@pytest.mark.parametrize("bad", [
    lambda: build_grid(0.0, 4),
    lambda: build_grid(-1.0, 4),
    lambda: build_grid(math.nan, 4),
    lambda: build_grid(1.0, 0),
    lambda: build_grid(1.0, 3, "simpson"),
    lambda: build_grid(1.0, 3, GAUSS, 0),
    lambda: build_grid(40.0, 20, "trapezoid"),     # Gauss panels are the one rule
    lambda: build_grid(5e-324, 400),                # the panel width underflows to 0
    lambda: build_grid(1e-300, 10 ** 9),            # a subnormal panel width
    lambda: build_grid(1.0, 2 ** 62),               # 2**64 nodes: no float array holds them
    lambda: build_grid(1.0, 10 ** 400),             # past float range, checked before x_max / n
])
def test_invalid_arguments(bad):
    with pytest.raises(ValueError):
        bad()


def test_sample_length_mismatch():
    g = build_grid(1.0, 4, GAUSS, 4)
    with pytest.raises(ValueError):
        integrate(g, np.ones(g.size + 1))


def _decimal_rule(p, guesses):
    """Roots and weights of P_p to 40 digits: Newton's method in decimal
    arithmetic from ``guesses`` (within 1e-15 of the roots; three quadratic
    steps reach 1e-40), then 2 / ((1 - x^2) P_p'(x)^2)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        nodes, weights = [], []
        for guess in guesses:
            x = decimal.Decimal(float(guess))
            for _ in range(4):
                prev, cur = decimal.Decimal(1), x
                for n in range(1, p):
                    prev, cur = cur, ((2 * n + 1) * x * cur - n * prev) / (n + 1)
                slope = p * (prev - x * cur) / (1 - x * x)
                x -= cur / slope
            nodes.append(float(x))
            weights.append(float(2 / ((1 - x * x) * slope * slope)))
        return np.array(nodes), np.array(weights)


@settings(max_examples=64, deadline=None)
@given(st.integers(min_value=1, max_value=64))
def test_gauss_legendre_matches_leggauss(p):
    # numpy's eigenvalue-based rule is one oracle; its own weights are off by
    # up to 1.3e-12 relative (4e-15 absolute) next to +-1 at p = 48, so the
    # relative weight bound is checked against a 40-digit rule
    x, w = gauss_legendre(p)
    ref_x, ref_w = np.polynomial.legendre.leggauss(p)
    assert np.abs(x - ref_x).max() <= 1e-15
    assert np.abs(w - ref_w).max() <= 1e-14
    exact_x, exact_w = _decimal_rule(p, ref_x)
    assert np.abs(x - exact_x).max() <= 1e-15
    assert np.all(np.abs(w - exact_w) <= 1e-14 * exact_w)
    assert np.all(np.diff(x) > 0.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    for k in range(2 * p):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(math.fsum(w * x ** k) - exact) <= 1e-14


def _closed_form(p):
    """Nodes and weights of the p-point Gauss-Legendre rule in closed form, p <= 5."""
    if p == 2:
        return [-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], [1.0, 1.0]
    if p == 3:
        r = math.sqrt(0.6)
        return [-r, 0.0, r], [5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0]
    if p == 4:
        inner = math.sqrt(3.0 / 7.0 - 2.0 / 7.0 * math.sqrt(1.2))
        outer = math.sqrt(3.0 / 7.0 + 2.0 / 7.0 * math.sqrt(1.2))
        wi, wo = (18.0 + math.sqrt(30.0)) / 36.0, (18.0 - math.sqrt(30.0)) / 36.0
        return [-outer, -inner, inner, outer], [wo, wi, wi, wo]
    inner = math.sqrt(5.0 - 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
    outer = math.sqrt(5.0 + 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
    wi, wo = (322.0 + 13.0 * math.sqrt(70.0)) / 900.0, (322.0 - 13.0 * math.sqrt(70.0)) / 900.0
    return [-outer, -inner, 0.0, inner, outer], [wo, wi, 128.0 / 225.0, wi, wo]


def test_gauss_legendre_one_point():
    x, w = gauss_legendre(1)
    assert x.tolist() == [0.0] and w.tolist() == [2.0]


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_gauss_legendre_closed_forms(p):
    x, w = gauss_legendre(p)
    ref_x, ref_w = map(np.array, _closed_form(p))
    assert np.abs(x - ref_x).max() <= 1e-15
    assert np.all(np.abs(w - ref_w) <= 1e-14 * ref_w)
