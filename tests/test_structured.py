"""The structured (block-Toeplitz + block-Hankel FFT) operator against the dense oracle.

The oracle is ``kernel_matrix(spec, grid) * w`` (plus the cusp diagonal,
the over-cap row rescale and the tail closure on the last column for an
assembled operator, ``dense_operator``);
every product of the program goes through the structured form, so these
tests tie it to the definition of the Nystrom matrix.  The tail past x_max
at the nodes, an N x pad structured product whose columns continue the grid,
has the row-by-row ``tail_row_mass`` as its oracle.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hammerstein as hs
from hammerstein import kernels
from hammerstein.kernels import (_tail_extension, kernel_matrix, node_tail,
                                 structured_kernel, tail_row_mass)
from hammerstein.picard import discretise

from conftest import MIXTURE_ATOMS, SUP_TOL, dense_operator, make_kernel, sup_gap

# "trapezoid" is a one-point (midpoint) Gauss grid, the structured form's
# p = 1 path, on the panels of the closed trapezoid grid whose test ids it
# keeps; TAIL_GRIDS names it "gauss-1"
GRIDS = {
    "gauss-4": hs.build_grid(40.0, 400, hs.GAUSS, 4),      # the acceptance catalog's grid
    "trapezoid": hs.build_grid(30.0, 300, hs.GAUSS, 1),
    "one-node": hs.build_grid(1.0, 1, hs.GAUSS, 1),
}


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
    spec = make_kernel(family)
    A = discretise(spec, grid).operator
    assert A is not None
    if family == "A":
        # rows whose mass defect sits below double resolution are rescaled
        assert A.row_scale.min() < 1.0
    assert sup_gap(A, dense_operator(spec, A), grid.size) <= SUP_TOL


def test_single_node_operator_matches_dense_oracle():
    grid = GRIDS["one-node"]
    spec = make_kernel("C")
    A = hs.assemble_operator(spec, grid)
    assert sup_gap(A, dense_operator(spec, A), 1) <= SUP_TOL


def test_cusp_operator_matches_dense_oracle():
    grid = hs.build_grid(90.0, 180, hs.GAUSS, 4)
    spec = make_kernel("C", base=hs.BaseKernel(variant="exp-mixture", atoms=MIXTURE_ATOMS))
    A = discretise(spec, grid).operator
    assert np.abs(A.diagonal).max() > 1e-6          # the cusp correction is there
    assert sup_gap(A, dense_operator(spec, A), grid.size) <= SUP_TOL


@given(family=st.sampled_from(["A", "B", "C"]),
       lambda_form=st.sampled_from(["exp-gap", "rational-gap"]),
       weight=st.floats(min_value=0.01, max_value=0.99),
       d_star=st.floats(min_value=0.05, max_value=1.0),
       n_panels=st.integers(min_value=1, max_value=120),
       points=st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_structured_kernel_sweep(family, lambda_form, weight, d_star, n_panels, points):
    # weight is delta for family B and epsilon for family C
    overrides = {"A": {}, "B": {"delta": weight}, "C": {"epsilon": weight}}[family]
    spec = make_kernel(family, d_star=d_star, lambda_form=lambda_form, **overrides)
    grid = hs.build_grid(30.0, n_panels, hs.GAUSS, points)
    dense = kernel_matrix(spec, grid) * grid.weights
    assert sup_gap(structured_kernel(spec, grid), dense, grid.size) <= SUP_TOL


# (shift, panels): fewer columns than rows, a run through x_max, the tail's
# run past it (12 / h panels) and one panel inside
@pytest.mark.parametrize("shift, panels", [(0, 7), (0, 296), (200, 96), (57, 1)])
@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_rectangular_kernel_matches_dense_oracle(family, shift, panels):
    # h = 1/8, so a grid of shift + panels panels has the same h bit for bit
    # and its nodes and weights are the columns'
    grid = hs.build_grid(25.0, 200, hs.GAUSS, 4)
    wide = hs.build_grid(grid.h * (shift + panels), shift + panels, hs.GAUSS, 4)
    columns = slice(shift * 4, (shift + panels) * 4)
    spec = make_kernel(family)
    dense = (hs.eval_kernel(spec, grid.nodes[:, None], wide.nodes[None, columns])
             * wide.weights[columns])
    kernel = structured_kernel(spec, grid, shift, panels)
    assert sup_gap(kernel, dense, 4 * panels) <= SUP_TOL


@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_positivity_bound_holds_on_the_catalog(family):
    # the kernels module docstring's floating-point steps, on the K0 tables
    # structured_kernel builds: every value is > 0, and a = T_kl[P - Q],
    # b = H_kl[P + Q] at each node pair keep fl(delta b) <= b <= a (the
    # kernel values themselves are floored again, so they cannot show it)
    spec = make_kernel(family)
    for grid in GRIDS.values():
        p = grid.points_per_panel
        m = grid.size // p
        h = grid.x_max / grid.n_panels
        offsets = grid.nodes[:p]
        lag, k, l = np.arange(m), np.arange(p)[:, None, None], np.arange(p)[None, :, None]
        toeplitz = spec.base.eval(h * np.arange(1 - m, m) + (offsets[k] - offsets[l]))
        hankel = spec.base.eval(h * np.arange(2 * m - 1) + (offsets[k] + offsets[l]))
        assert (toeplitz > 0.0).all() and (hankel > 0.0).all()
        a = toeplitz[..., lag[:, None] - lag[None, :] + m - 1]
        b = hankel[..., lag[:, None] + lag[None, :]]
        assert (b <= a).all()
        if family == "B":
            assert (spec.delta * b <= b).all()


def test_positivity_check_can_fail():
    # the proof needs delta < 1: at delta = 1 the kernel vanishes at t = 0,
    # past 1 it is negative near t = x = 0, and the spec refuses both
    for delta in (1.0, 1.5):
        with pytest.raises(ValueError, match="delta"):
            make_kernel("B", delta=delta)


@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_table_chunking_changes_no_bit(family, monkeypatch):
    # all p^2 = 16 block pairs in one table, the default's 2 tables and one
    # pair per table (the large-grid path): the same spectra
    spec, grid = make_kernel(family), GRIDS["gauss-4"]
    default = structured_kernel(spec, grid)
    for entries in (1 << 30, 1):
        monkeypatch.setattr(kernels, "FFT_BLOCK_ENTRIES", entries)
        chunked = structured_kernel(spec, grid)
        assert chunked.spectra.tobytes() == default.spectra.tobytes()


def test_structured_kernel_needs_equal_panels():
    # structured_kernel reads node P p + k as h P + nodes[k]; a grid is its
    # panels, so it takes no node or weight arrays that could break this
    grid = GRIDS["gauss-4"]
    assert [f.name for f in dataclasses.fields(hs.HalfLineGrid)] == [
        "x_max", "n_panels", "points_per_panel"]
    with pytest.raises(TypeError):
        hs.HalfLineGrid(grid.x_max, grid.nodes.copy(), grid.weights.copy(), grid.n_panels,
                        grid.points_per_panel)
    for x_max in (1.0, 10.0 / 3.0, 40.0, 1e6):
        for n_panels in (1, 7, 22, 400):
            for p in (1, 2, 4, 7):
                g = hs.HalfLineGrid(x_max, n_panels, p)
                panel_starts = g.h * np.arange(n_panels)[:, None]
                assert np.array_equal((panel_starts + g.nodes[:p]).ravel(), g.nodes)


def test_storage_is_linear_in_the_grid():
    spec = make_kernel("C")
    small = structured_kernel(spec, hs.build_grid(40.0, 200, hs.GAUSS, 4))
    large = structured_kernel(spec, hs.build_grid(40.0, 800, hs.GAUSS, 4))
    assert large.nbytes <= 4.5 * small.nbytes


# --- the tail past x_max ------------------------------------------------------

TAIL_TOL = 1e-14

TAIL_GRIDS = {
    "gauss-4": GRIDS["gauss-4"],
    "gauss-1": GRIDS["trapezoid"],
    "one-panel": hs.build_grid(3.0, 1, hs.GAUSS, 4),
    "one-node": GRIDS["one-node"],
    "gauss-1-coarse": hs.build_grid(40.0, 20, hs.GAUSS, 1),    # h = 2
    # h = 10 / 22, where (h k) / k != h at the first continued panel count k = 49
    "gauss-rounded": hs.build_grid(10.0, 22, hs.GAUSS, 4),
    # near the Gaussian's underflow, K0(26) ~ 1e-294: node_tail drops its
    # image term there, and keeps the mixture's (K0(26) ~ 3e-7)
    "gauss-underflow": hs.build_grid(26.0, 260, hs.GAUSS, 4),
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


def test_tail_image_term_dropped_only_below_its_bound():
    # |delta| K0(x_max) pad: about 1e-293 for the Gaussian, 1e-5 for the mixture
    grid = TAIL_GRIDS["gauss-underflow"]
    for base, columns in (("gaussian", 4), ("exp-mixture", 8)):
        spec = make_kernel("B", base=BASES[base])
        panels = _tail_extension(spec.base, grid).n_panels - grid.n_panels
        tail = structured_kernel(spec, grid, grid.n_panels, panels)
        assert tail.spectra.shape[:2] == (4, columns)


@pytest.mark.parametrize("grid_name", sorted(TAIL_GRIDS))
def test_tail_extension_continues_the_grid(grid_name):
    grid = TAIL_GRIDS[grid_name]
    for base in BASES.values():
        extended, n = _tail_extension(base, grid), grid.size
        assert extended.points_per_panel == grid.points_per_panel
        assert extended.x_max / extended.n_panels == grid.x_max / grid.n_panels
        assert extended.x_max >= grid.x_max + 12.0
        # the grid's nodes and weights bit for bit, then nodes past x_max only
        assert np.array_equal(extended.nodes[:n], grid.nodes)
        assert np.array_equal(extended.weights[:n], grid.weights)
        assert extended.nodes[n] > grid.x_max


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
       points=st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_node_tail_sweep(family, base, lambda_form, weight, d_star, x_max, n_panels, points):
    overrides = {"A": {}, "B": {"delta": weight}, "C": {"epsilon": weight}}[family]
    spec = make_kernel(family, d_star=d_star, lambda_form=lambda_form, base=BASES[base],
                       **overrides)
    assert tail_gap(spec, hs.build_grid(x_max, n_panels, hs.GAUSS, points)) <= TAIL_TOL
