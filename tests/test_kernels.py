import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, special

import hammerstein as hs
from hammerstein.kernels import (BLOCK_ENTRIES, CHECK_TOL, POSITIVITY_FLOOR, BaseKernel,
                                 ConditionReport, KernelSpec, ModulationSet,
                                 check_kernel_conditions, cusp_correction,
                                 eval_kernel, gamma_profile, kernel_matrix,
                                 _base_half_line_moments,
                                 lambda_star_excess_integral, tail_row_mass)
from hammerstein.picard import discretise

from conftest import MIXTURE_ATOMS, make_kernel, row_mass_at

SQRT_PI = math.sqrt(math.pi)


# --- base kernels ---------------------------------------------------------

def test_gaussian_at_zero():
    assert BaseKernel().eval(0.0) == pytest.approx(1.0 / SQRT_PI, abs=1e-15)


def test_gaussian_even():
    base = BaseKernel()
    assert base.eval(2.0) == base.eval(-2.0)
    x = np.linspace(0.0, 30.0, 301)
    assert np.array_equal(base.eval(x), base.eval(-x))


def test_gaussian_positive_despite_underflow():
    assert BaseKernel().eval(40.0) > 0.0


def test_mixture_single_atom():
    # normalisation 2c/s = 1 forces c = 1/2 for s = 1
    base = BaseKernel(variant="exp-mixture", atoms=((0.5, 1.0),))
    assert base.eval(0.0) == pytest.approx(0.5, abs=1e-15)


def test_mixture_two_atoms_tail():
    base = BaseKernel(variant="exp-mixture", atoms=((0.25, 1.0), (0.125, 0.5)))
    expected = 0.25 * math.exp(-2.0) + 0.25 * math.exp(-1.0)
    assert base.tail_mass(2.0) == pytest.approx(expected, rel=1e-14)


def test_gaussian_tail_matches_erfc():
    base = BaseKernel()
    for x in (0.0, 0.5, 3.0):
        assert base.tail_mass(x) == pytest.approx(0.5 * special.erfc(x), rel=1e-14)


@pytest.mark.parametrize("atoms", [
    ((0.5, 0.9),),              # 2c/s != 1
    ((-0.5, 1.0), (1.0, 1.0)),  # negative weight
    ((0.5, -1.0),),             # negative rate
    (),
    ((math.nan, 1.0),),         # NaN slips past c <= 0 and the mass test
    ((0.5, 1.0), (1.0, math.inf)),  # 2c/s = 0 for the infinite rate
])
def test_bad_mixture_rejected(atoms):
    with pytest.raises(ValueError):
        BaseKernel(variant="exp-mixture", atoms=atoms)


# --- modulation -----------------------------------------------------------

def test_lambda_bounds():
    for form in ("exp-gap", "rational-gap"):
        mod = ModulationSet(lambda_form=form, d_star=0.3)
        x = np.linspace(0.0, 50.0, 400)
        lam = mod.lam(x)
        assert np.all(lam >= 0.3 - 1e-15) and np.all(lam <= 1.0)
        assert mod.lam(0.0) == pytest.approx(0.3, abs=1e-15)


def test_mu_symmetric_and_bounded():
    mod = ModulationSet(d_star=0.5)
    x = np.linspace(0.0, 10.0, 40)
    mu = mod.mu(x[:, None], x[None, :])
    assert np.array_equal(mu, mu.T)
    # the lower bound of mu is d_star * (2 - d_star) = 0.75, reached at x = t = 0
    assert np.all(mu <= 1.0) and np.all(mu >= 0.5 * (2.0 - 0.5) - 1e-15)
    assert mu[0, 0] == pytest.approx(0.75)


def test_sup_mu_gap_closed_form():
    # exp-gap profile: sup_t (1 - mu(x, t)) = (1 - d_star)^2 * exp(-x)
    mod = ModulationSet(d_star=0.5)
    t = np.linspace(0.0, 18.0, 50)
    for x in np.linspace(0.0, 18.0, 10):
        expected = 0.25 * math.exp(-x)
        assert abs(float(mod.one_minus_mu(x, t).max()) - expected) <= 1e-12


def test_mu_identity_exact():
    mod = ModulationSet(d_star=0.7)
    x, t = 1.3, 4.2
    assert float(mod.one_minus_mu(x, t)) == float(mod.lam_gap(x)) * float(mod.lam_gap(t))


@pytest.mark.parametrize("l", [0.25, 0.5, 0.75])
def test_lambda_star_excess_integral_is_gamma_function(l):
    # int_0^inf exp(-t) t^{-l} dt = Gamma(1 - l)
    value = lambda_star_excess_integral(ModulationSet(l=l))
    assert abs(value - math.gamma(1.0 - l)) <= 1e-8


@pytest.mark.parametrize("l", [0.1, 0.5, 0.9, 0.99])
def test_lambda_star_excess_integral_to_double_precision(l):
    # the closed form; a quadrature of the t**(-l) singularity lost 6e-10 at l = 0.9
    value = lambda_star_excess_integral(ModulationSet(l=l))
    assert value == pytest.approx(float(special.gamma(1.0 - l)), rel=1e-15, abs=0.0)


def test_lambda_star_excess_integral_generic_exponent():
    value = lambda_star_excess_integral(ModulationSet(l=0.6))
    assert abs(value - math.gamma(0.4)) <= 1e-8


def test_modulation_validation():
    with pytest.raises(ValueError):
        ModulationSet(d_star=0.0)
    with pytest.raises(ValueError):
        ModulationSet(l=1.0)
    with pytest.raises(ValueError):
        ModulationSet(lambda_form="linear")


# --- kernel evaluation ----------------------------------------------------

def test_family_c_at_origin_with_unit_lambda():
    spec = make_kernel("C", d_star=1.0)
    assert float(eval_kernel(spec, 0.0, 0.0)) == pytest.approx(1.5 / SQRT_PI, abs=1e-12)


def test_family_a_symmetric():
    for d_star in (1.0, 0.5):
        spec = make_kernel("A", d_star=d_star)
        assert float(eval_kernel(spec, 3.0, 1.0)) == float(eval_kernel(spec, 1.0, 3.0))


def test_family_b_at_origin():
    spec = make_kernel("B")
    mu00 = 1.0 - 0.25  # d_star = 0.5
    assert float(eval_kernel(spec, 0.0, 0.0)) == pytest.approx(
        0.5 * mu00 / SQRT_PI, abs=1e-14)


def test_family_b_positive_even_near_unit_delta():
    spec = make_kernel("B", delta=0.999999)
    x = np.linspace(0.0, 40.0, 60)
    k = eval_kernel(spec, x[:, None], x[None, :])
    assert np.all(k > 0.0)


@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_blocked_kernel_matrix_equals_one_shot(small_grid, family):
    n = small_grid.size
    rows = BLOCK_ENTRIES // n
    assert rows < n and n % rows != 0     # several blocks, the last one partial
    spec = make_kernel(family)
    nodes = small_grid.nodes
    one_shot = eval_kernel(spec, nodes[:, None], nodes[None, :])
    assert np.array_equal(kernel_matrix(spec, small_grid), one_shot)


def test_negative_arguments_rejected():
    spec = make_kernel("A")
    with pytest.raises(ValueError):
        eval_kernel(spec, -0.1, 1.0)
    with pytest.raises(ValueError):
        eval_kernel(spec, 1.0, -0.1)


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(family="B", base=BaseKernel(), modulation=ModulationSet())
    with pytest.raises(ValueError):
        KernelSpec(family="C", base=BaseKernel(), modulation=ModulationSet(),
                   epsilon=1.0)
    with pytest.raises(ValueError):
        KernelSpec(family="D", base=BaseKernel(), modulation=ModulationSet())


# --- mass profiles --------------------------------------------------------

def test_gamma_closed_form_family_c_unit_lambda(small_grid):
    # with lam == 1 the row-mass identity gives gamma = (1 - eps) * tail(x)
    spec = make_kernel("C", d_star=1.0)
    gamma = gamma_profile(spec, small_grid)
    closed = 0.5 * (1.0 - 0.5) * special.erfc(small_grid.nodes)
    assert np.abs(gamma - closed).max() <= 1e-10


def test_gamma_at_x_max_is_tail_small(small_grid):
    for family in ("A", "B", "C"):
        spec = make_kernel(family)
        gamma = gamma_profile(spec, small_grid)
        base_tail = spec.base.tail_mass(small_grid.x_max)
        lam_gap = float(spec.modulation.lam_gap(small_grid.x_max))
        # true gamma at x_max is below the base tail plus the modulation gap;
        # the measured value is dominated by quadrature noise
        assert gamma[-1] <= 10.0 * (base_tail + lam_gap) + 1e-12


def test_row_mass_at_origin_family_c_unit_lambda():
    grid = hs.build_grid(40.0, 800, hs.GAUSS, 4)
    spec = make_kernel("C", d_star=1.0)
    assert abs(float(row_mass_at(spec, grid, 0.0)) - 0.75) <= 1e-10


def test_tail_row_mass_completes_the_row(small_grid):
    # quadrature mass on [0, x_max] plus the tail approximates the full mass
    spec = make_kernel("C", d_star=1.0)
    full = row_mass_at(spec, small_grid, small_grid.x_max)
    closed = 1.0 - 0.25 * special.erfc(small_grid.x_max)
    assert abs(float(full) - closed) <= 1e-10
    assert float(tail_row_mass(spec, small_grid, small_grid.x_max)) > 0.4


# --- condition checks -----------------------------------------------------

@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_catalog_conditions_pass(small_grid, family):
    report = check_kernel_conditions(make_kernel(family), small_grid)
    assert report.passed
    assert report.sup_row_mass <= 1.0 + 1e-9
    assert report.gamma_max > 1e-9 and report.gamma_integral > 0.0


# --- domination, proven in the kernels module docstring --------------------

def _envelope(spec, x, t):
    """lam_star(t) * kstar(x - t) from the closed forms, K0 floored as the kernel is."""
    y = np.abs(x - t)
    if spec.base.variant == "gaussian":
        k0 = np.exp(-y * y) / SQRT_PI
    else:
        k0 = sum(c * np.exp(-y * s) for c, s in spec.base.atoms)
    with np.errstate(divide="ignore"):
        lam_star = 1.0 + np.exp(-t) * t ** -spec.modulation.l
    return lam_star * spec.kstar_scale() * np.maximum(k0, POSITIVITY_FLOOR)


def _mixture(atoms):
    # (weight, rate) pairs scaled to sum 2c/s = 1
    total = math.fsum(w for w, _ in atoms)
    return BaseKernel(variant="exp-mixture", atoms=tuple((w * s / (2.0 * total), s)
                                                         for w, s in atoms))


open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@given(family=st.sampled_from(["A", "B", "C"]),
       atoms=st.none() | st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(0.05, 20.0)),
                                  min_size=1, max_size=3),
       lambda_form=st.sampled_from(["exp-gap", "rational-gap"]),
       d_star=st.floats(0.0, 1.0, exclude_min=True), l=open_unit, weight=open_unit,
       n_panels=st.integers(1, 80), points=st.integers(1, 5), x_max=st.floats(0.5, 80.0))
@settings(max_examples=200, deadline=None)
def test_kernel_dominated_on_every_node_pair(family, atoms, lambda_form, d_star, l, weight,
                                             n_panels, points, x_max):
    image = {"A": {}, "B": {"delta": weight}, "C": {"epsilon": weight}}[family]
    spec = make_kernel(family, d_star=d_star, l=l, lambda_form=lambda_form,
                       base=None if atoms is None else _mixture(atoms), **image)
    nodes = np.concatenate([[0.0], hs.build_grid(x_max, n_panels, hs.GAUSS, points).nodes])
    x, t = nodes[:, None], nodes[None, :]
    # within 4 ulps of the envelope: 1 + epsilon and lam_star are rounded
    slack = 1.0 + 4.0 * np.finfo(float).eps
    assert (eval_kernel(spec, x, t) <= _envelope(spec, x, t) * slack).all()


# --- positivity and symmetry, proven in the kernels module docstring ------

@given(family=st.sampled_from(["A", "B", "C"]), mixture=st.booleans(),
       lambda_form=st.sampled_from(["exp-gap", "rational-gap"]),
       d_star=st.floats(0.0, 1.0, exclude_min=True), weight=open_unit,
       n_panels=st.integers(1, 40), points=st.integers(1, 4))
@example(family="B", mixture=False, lambda_form="exp-gap", d_star=0.5,
         weight=1.0 - 2.0 ** -53, n_panels=30, points=1)
@settings(max_examples=150, deadline=None)
def test_kernel_positive_and_symmetric_on_every_node_pair(family, mixture, lambda_form,
                                                          d_star, weight, n_panels, points):
    # weight is delta for family B and epsilon for family C, up to 1 - 2**-53
    image = {"A": {}, "B": {"delta": weight}, "C": {"epsilon": weight}}[family]
    spec = make_kernel(family, d_star=d_star, lambda_form=lambda_form,
                       base=BaseKernel(variant="exp-mixture", atoms=MIXTURE_ATOMS)
                       if mixture else None, **image)
    # x_max 30: a Gaussian K0 underflows past 27 at the far node pairs
    grid = hs.build_grid(30.0, n_panels, hs.GAUSS, points)
    dense = kernel_matrix(spec, grid)
    assert (dense > 0.0).all()
    assert np.array_equal(dense, dense.T)
    # the K0 tables of structured_kernel: positive, with fl(weight b) <= b <= a
    x, t = grid.nodes[:, None], grid.nodes[None, :]
    a, b = spec.base.eval(x - t), spec.base.eval(x + t)
    assert (b > 0.0).all() and (b <= a).all() and (a - weight * b >= 0.0).all()


def test_constants_closed_forms(small_grid):
    report = check_kernel_conditions(make_kernel("C"), small_grid)
    assert abs(report.lambda_star_excess_integral - SQRT_PI) <= 1e-8
    assert abs(report.kstar_total_mass - 1.5) <= 1e-12
    assert abs(report.kstar_abs_moment - 1.5 / SQRT_PI) <= 1e-12


def test_mixture_constants(small_grid):
    base = BaseKernel(variant="exp-mixture", atoms=((0.5, 1.0),))
    report = check_kernel_conditions(make_kernel("A", base=base), small_grid)
    # int |y| K0 = 2 * c / s^2 = 1, total = 2 * c / s = 1
    assert abs(report.kstar_total_mass - 1.0) <= 1e-12
    assert abs(report.kstar_abs_moment - 1.0) <= 1e-12


@pytest.mark.parametrize("base", [BaseKernel(),
                                  BaseKernel(variant="exp-mixture", atoms=MIXTURE_ATOMS)],
                         ids=["gaussian", "exp-mixture"])
def test_base_half_line_moments_match_quadrature(base):
    # the closed forms against scipy's adaptive quadrature of K0 and y K0 on [0, inf)
    half_mass, half_moment = _base_half_line_moments(base)
    mass = integrate.quad(lambda y: float(base.eval(y)), 0.0, np.inf, epsabs=1e-15)[0]
    moment = integrate.quad(lambda y: y * float(base.eval(y)), 0.0, np.inf, epsabs=1e-15)[0]
    assert half_mass == pytest.approx(mass, rel=1e-13)
    assert half_moment == pytest.approx(moment, rel=1e-13)


def test_conservative_kernel_flagged():
    # a row mass identically 1 gives gamma == 0 everywhere: rejected
    report = ConditionReport(
        sup_row_mass=1.0, gamma_max=0.0, gamma_tail=0.0,
        gamma_integral=0.0, lambda_star_excess_integral=1.0,
        kstar_total_mass=1.0, kstar_abs_moment=0.5)
    assert not report.passed


def test_coarse_grid_fails_checks():
    coarse = hs.build_grid(40.0, 20, hs.GAUSS, 1)
    report = check_kernel_conditions(make_kernel("B", delta=0.999999), coarse)
    assert not report.passed
    assert report.sup_row_mass > 1.0 + 1e-9


# --- kernels with a cusp --------------------------------------------------

def test_only_the_mixture_has_a_cusp(small_grid):
    assert not BaseKernel().has_cusp
    assert BaseKernel(variant="exp-mixture", atoms=MIXTURE_ATOMS).has_cusp
    # smooth kernels get no split-panel correction
    assert cusp_correction(make_kernel("C"), small_grid, small_grid.nodes) is None


def _mixture_kernel(family, lambda_form):
    return make_kernel(family, lambda_form=lambda_form,
                       base=BaseKernel(variant="exp-mixture", atoms=MIXTURE_ATOMS))


@pytest.mark.parametrize("n_panels", [180, 360])
@pytest.mark.parametrize("lambda_form", ["exp-gap", "rational-gap"])
@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_cusp_kernel_passes_checks(family, lambda_form, n_panels):
    grid = hs.build_grid(90.0, n_panels, hs.GAUSS, 4)
    spec = _mixture_kernel(family, lambda_form)
    report = check_kernel_conditions(spec, grid)
    assert report.passed
    assert report.sup_row_mass <= 1.0 + CHECK_TOL
    disc = discretise(spec, grid)
    assert disc.report == report
    gamma = gamma_profile(spec, grid)
    assert np.abs(disc.gamma - gamma).max() <= grid.size * np.finfo(float).eps


def _split_quad_row_mass(spec, x, x_max):
    def k(t):
        return float(eval_kernel(spec, x, t))
    pieces = [(0.0, x), (x, x_max), (x_max, math.inf)]
    return math.fsum(integrate.quad(k, lo, hi, epsabs=1e-14, epsrel=1e-14, limit=400)[0]
                     for lo, hi in pieces)


@pytest.mark.parametrize("lambda_form", ["exp-gap", "rational-gap"])
@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_cusp_row_masses_match_split_quad(family, lambda_form):
    # 720 panels: past the cusp, the 4-point rule's own error on the smooth
    # pieces (up to 1.4e-9 at 180 panels near a rational-gap lambda) is below
    # 1e-13 here, so the comparison sees the split panel alone
    grid = hs.build_grid(90.0, 720, hs.GAUSS, 4)
    spec = _mixture_kernel(family, lambda_form)
    idx = np.array([0, 7, grid.size // 3, grid.size - 1])
    masses = row_mass_at(spec, grid, grid.nodes[idx])
    for x, mass in zip(grid.nodes[idx], masses):
        assert abs(mass - _split_quad_row_mass(spec, x, grid.x_max)) <= 1e-12
