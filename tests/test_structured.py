"""The structured (block-Toeplitz + block-Hankel FFT) operator against the dense oracle.

The oracle is ``kernel_matrix(spec, grid) * w`` (plus the cusp diagonal and
the over-cap row rescale for an assembled operator, ``dense_operator``);
every product of the program goes through the structured form, so these
tests tie it to the definition of the Nystrom matrix.  The tail past x_max
at the nodes, a structured product on the continued grid, has the
row-by-row ``tail_row_mass`` as its oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hammerstein as hs
from hammerstein.kernels import (_tail_extension, kernel_matrix, node_tail,
                                 structured_kernel, tail_row_mass)
from hammerstein.picard import discretise

from conftest import MIXTURE_ATOMS, dense_operator, make_kernel

SUP_TOL = 1e-13

GRIDS = {
    "gauss-4": hs.build_grid(40.0, 400, hs.GAUSS, 4),      # the acceptance catalog's grid
    "trapezoid": hs.build_grid(30.0, 300, hs.TRAPEZOID),
    "one-node": hs.build_grid(1.0, 1, hs.GAUSS, 1),
}


def probe_vectors(n):
    rng = np.random.default_rng(17)
    return [np.ones(n), rng.random(n), rng.standard_normal(n)]


def sup_gap(structured, dense, n):
    return max(float(np.abs(structured @ v - dense @ v).max()) for v in probe_vectors(n))


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
@pytest.mark.parametrize("lambda_form", ["exp-gap", "rational-gap"])
@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_structured_kernel_matches_dense_oracle(family, lambda_form, grid_name):
    grid = GRIDS[grid_name]
    spec = make_kernel(family, lambda_form=lambda_form)
    dense = kernel_matrix(spec, grid) * grid.weights
    assert sup_gap(structured_kernel(spec, grid), dense, grid.size) <= SUP_TOL


@pytest.mark.parametrize("grid_name", ["gauss-4", "trapezoid"])
@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_operator_matches_dense_oracle(family, grid_name):
    grid = GRIDS[grid_name]
    A = discretise(make_kernel(family), grid).operator
    assert A is not None
    if family == "A":
        # rows whose mass defect sits below double resolution are rescaled
        assert A.row_scale.min() < 1.0
    assert sup_gap(A, dense_operator(A), grid.size) <= SUP_TOL


def test_single_node_operator_matches_dense_oracle():
    grid = GRIDS["one-node"]
    A = hs.assemble_operator(make_kernel("C"), grid)
    assert sup_gap(A, dense_operator(A), 1) <= SUP_TOL


def test_cusp_operator_matches_dense_oracle():
    grid = hs.build_grid(90.0, 180, hs.GAUSS, 4)
    spec = make_kernel("C", base=hs.BaseKernel(variant="exp-mixture", atoms=MIXTURE_ATOMS))
    A = discretise(spec, grid).operator
    assert np.abs(A.diagonal).max() > 1e-6          # the cusp correction is there
    assert sup_gap(A, dense_operator(A), grid.size) <= SUP_TOL


@given(family=st.sampled_from(["A", "B", "C"]),
       lambda_form=st.sampled_from(["exp-gap", "rational-gap"]),
       weight=st.floats(min_value=0.01, max_value=0.99),
       d_star=st.floats(min_value=0.05, max_value=1.0),
       n_panels=st.integers(min_value=1, max_value=120),
       rule=st.sampled_from([hs.GAUSS, hs.TRAPEZOID]))
@settings(max_examples=40, deadline=None)
def test_structured_kernel_sweep(family, lambda_form, weight, d_star, n_panels, rule):
    # weight is delta for family B and epsilon for family C
    overrides = {"A": {}, "B": {"delta": weight}, "C": {"epsilon": weight}}[family]
    spec = make_kernel(family, d_star=d_star, lambda_form=lambda_form, **overrides)
    grid = hs.build_grid(30.0, n_panels, rule, 4)
    dense = kernel_matrix(spec, grid) * grid.weights
    assert sup_gap(structured_kernel(spec, grid), dense, grid.size) <= SUP_TOL


@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_positivity_bound_holds_on_the_catalog(family):
    for grid in GRIDS.values():
        assert structured_kernel(make_kernel(family), grid).positive


def test_positivity_check_can_fail():
    # an image weight past 1 makes K0(x - t) - delta K0(x + t) negative near
    # t = x = 0; the spec validation forbids it, so it is set behind its back
    spec = make_kernel("B")
    object.__setattr__(spec, "delta", 1.5)
    grid = GRIDS["gauss-4"]
    assert not structured_kernel(spec, grid).positive
    assert not hs.check_kernel_conditions(spec, grid).positivity_ok


def test_structured_kernel_needs_equal_panels():
    grid = GRIDS["gauss-4"]
    nodes = grid.nodes.copy()
    nodes[5] += 1e-3
    uneven = hs.HalfLineGrid(grid.x_max, nodes, grid.weights.copy(), grid.rule,
                             grid.n_panels, grid.points_per_panel)
    with pytest.raises(ValueError):
        structured_kernel(make_kernel("C"), uneven)


def test_storage_is_linear_in_the_grid():
    spec = make_kernel("C")
    small = structured_kernel(spec, hs.build_grid(40.0, 200, hs.GAUSS, 4))
    large = structured_kernel(spec, hs.build_grid(40.0, 800, hs.GAUSS, 4))
    assert large.nbytes <= 4.5 * small.nbytes


# --- the tail past x_max ------------------------------------------------------

TAIL_TOL = 1e-14

TAIL_GRIDS = {
    "gauss-4": GRIDS["gauss-4"],
    "trapezoid": GRIDS["trapezoid"],
    "one-panel": hs.build_grid(3.0, 1, hs.GAUSS, 4),
    "one-node": GRIDS["one-node"],
    "trapezoid-20": hs.build_grid(40.0, 20, hs.TRAPEZOID),     # h = 2
    # h = 10 / 22, where (h k) / k != h at the first continued panel count k = 49
    "gauss-rounded": hs.build_grid(10.0, 22, hs.GAUSS, 4),
}

BASES = {"gaussian": hs.BaseKernel(),
         "exp-mixture": hs.BaseKernel(variant="exp-mixture", atoms=MIXTURE_ATOMS)}


def tail_gap(spec, grid):
    tail = node_tail(spec, grid)
    return float(np.abs(tail - tail_row_mass(spec, grid, grid.nodes)).max())


@pytest.mark.parametrize("grid_name", sorted(TAIL_GRIDS))
@pytest.mark.parametrize("base", sorted(BASES))
@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_node_tail_matches_row_by_row_tail(family, base, grid_name):
    assert tail_gap(make_kernel(family, base=BASES[base]), TAIL_GRIDS[grid_name]) <= TAIL_TOL


@pytest.mark.parametrize("grid_name", sorted(TAIL_GRIDS))
def test_tail_extension_continues_the_grid(grid_name):
    grid = TAIL_GRIDS[grid_name]
    for base in BASES.values():
        extended, share = _tail_extension(base, grid)
        n = grid.size
        assert extended.rule == grid.rule
        assert extended.x_max / extended.n_panels == grid.x_max / grid.n_panels
        assert extended.x_max >= grid.x_max + 12.0
        # the grid's nodes bit for bit, but for a closed trapezoid grid's last
        # node: x_max itself there, n h on the continued grid
        assert np.array_equal(extended.nodes[:n - 1], grid.nodes[:n - 1])
        assert abs(extended.nodes[n - 1] - grid.nodes[n - 1]) <= 4 * np.spacing(grid.x_max)
        assert np.all(share[n:] == 1.0) and np.all(share[:n - 1] == 0.0)
        assert share[n - 1] == (0.5 if grid.rule == hs.TRAPEZOID else 0.0)


def test_node_tail_carries_half_the_bump_at_x_max():
    grid = TAIL_GRIDS["gauss-4"]
    tail = node_tail(make_kernel("C", d_star=1.0), grid)
    # lam == 1: K(x_max, t) = K0(x_max - t) + eps K0(x_max + t), about 1/2 past x_max
    assert abs(float(tail[-1]) - 0.5) <= 0.01
    assert np.abs(tail[:grid.size // 2]).max() <= 1e-15


@given(family=st.sampled_from(["A", "B", "C"]),
       base=st.sampled_from(sorted(BASES)),
       lambda_form=st.sampled_from(["exp-gap", "rational-gap"]),
       weight=st.floats(min_value=0.01, max_value=0.99),
       d_star=st.floats(min_value=0.05, max_value=1.0),
       x_max=st.floats(min_value=5.0, max_value=40.0),
       n_panels=st.integers(min_value=1, max_value=120),
       rule=st.sampled_from([hs.GAUSS, hs.TRAPEZOID]))
@settings(max_examples=40, deadline=None)
def test_node_tail_sweep(family, base, lambda_form, weight, d_star, x_max, n_panels, rule):
    overrides = {"A": {}, "B": {"delta": weight}, "C": {"epsilon": weight}}[family]
    spec = make_kernel(family, d_star=d_star, lambda_form=lambda_form, base=BASES[base],
                       **overrides)
    assert tail_gap(spec, hs.build_grid(x_max, n_panels, rule, 4)) <= TAIL_TOL
