"""The structured (block-Toeplitz + block-Hankel FFT) operator against the dense oracle.

The oracle is ``kernel_matrix(spec, grid) * w`` (plus the cusp diagonal and
the over-cap row rescale for an assembled operator, ``dense_operator``);
every product of the program goes through the structured form, so these
tests tie it to the definition of the Nystrom matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hammerstein as hs
from hammerstein.kernels import kernel_matrix, structured_kernel
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
