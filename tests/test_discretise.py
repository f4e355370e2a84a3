"""``discretise``: the one mass defect, its proven range and the views on it,
and the dense oracle that catches a product breaking the kernel's proven
symmetry."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

import hammerstein as hs
import hammerstein.kernels
from hammerstein.errors import SpecRejectedError
from hammerstein.kernels import (StructuredKernel, cusp_correction, discretise,
                                 kernel_matrix, structured_kernel)
from hammerstein.picard import apply_hammerstein

from conftest import MIXTURE_ATOMS, SUP_TOL, kernel_specs, make_G, make_kernel, sup_gap


@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_one_gamma(small_grid, family):
    # family A has rows rescaled under the cap, so capped and raw masses differ
    spec = make_kernel(family)
    disc = discretise(spec, small_grid)
    assert np.array_equal(disc.gamma, 1.0 - disc.operator.row_mass)
    # the stored row mass is the closed operator's own product with ones,
    # and a ceiling step from eta maps to eta times it
    ones = np.ones(small_grid.size)
    assert np.array_equal(disc.operator.row_mass, disc.operator @ ones)
    G = make_G("I")
    assert np.array_equal(apply_hammerstein(disc.operator, G, G.eta * ones),
                          G.eta * disc.operator.row_mass)
    assert np.array_equal(hs.gamma_profile(spec, small_grid), disc.gamma)
    assert disc.gamma.min() > 0.0


def test_gamma_is_set_when_the_checks_fail():
    coarse = hs.build_grid(40.0, 20, hs.GAUSS, 1)
    disc = discretise(make_kernel("B", delta=0.999999), coarse)
    assert disc.operator is None and disc.gamma.shape == coarse.nodes.shape
    assert disc.report.sup_row_mass > 1.0
    # the capped masses keep gamma at MASS_MARGIN or above, up to rounding
    assert disc.gamma.min() >= 0.5 * hammerstein.kernels.MASS_MARGIN


@given(kernel=kernel_specs, mixture=st.booleans(),
       lambda_form=st.sampled_from(["exp-gap", "rational-gap"]),
       d_star=st.floats(0.0, 1.0, exclude_min=True),
       n_panels=st.integers(1, 60), points=st.integers(1, 4), x_max=st.floats(1.0, 60.0))
@example(kernel={"family": "B", "delta": 0.999999}, mixture=False, lambda_form="exp-gap",
         d_star=0.5, n_panels=20, points=1, x_max=40.0)
@settings(max_examples=150, deadline=None)
def test_gamma_in_the_unit_interval(kernel, mixture, lambda_form, d_star, n_panels, points,
                                    x_max):
    # the mass cap proves 0 <= gamma <= 1 (the discretise docstring), all that
    # the combined equation's conditions need, also on grids too coarse or
    # short for the kernel checks, so no run checks it
    spec = make_kernel(d_star=d_star, lambda_form=lambda_form,
                       base=hs.BaseKernel(variant="exp-mixture", atoms=MIXTURE_ATOMS)
                       if mixture else None, **kernel)
    try:
        disc = discretise(spec, hs.build_grid(x_max, n_panels, hs.GAUSS, points))
    except SpecRejectedError:       # a refused operator has no gamma
        reject()
    assert 0.0 <= disc.gamma.min() and disc.gamma.max() <= 1.0


def test_refused_operator_rejects_every_view(monkeypatch):
    grid = hs.build_grid(90.0, 180, hs.GAUSS, 4)
    spec = make_kernel("C", base=hs.BaseKernel(variant="exp-mixture", atoms=MIXTURE_ATOMS))
    own = grid.weights * np.diag(kernel_matrix(spec, grid))
    monkeypatch.setattr(hammerstein.kernels, "cusp_correction",
                        lambda s, g, x: cusp_correction(s, g, x) - 2.0 * own)
    for view in (hs.check_kernel_conditions, hs.gamma_profile, hs.assemble_operator):
        with pytest.raises(SpecRejectedError) as err:
            view(spec, grid)
        assert err.value.report.passed        # the checks pass; the operator is refused


def _unconjugated_matmul(self, v):
    # StructuredKernel.__matmul__ with the Hankel half fed u_hat, not its conjugate
    terms, p = self.left.shape[0], self.spectra.shape[0]
    u = (self.right * v).reshape(terms, -1, p).transpose(0, 2, 1)
    u_hat = np.fft.rfft(u, n=self.fft_size, axis=-1)
    y_hat = np.einsum("kjf,rjf->rkf", self.spectra, np.concatenate([u_hat, u_hat], axis=1))
    y = np.fft.irfft(y_hat, n=self.fft_size, axis=-1)[..., :u.shape[-1]]
    return (self.left * y.transpose(0, 2, 1).reshape(terms, -1)).sum(axis=0)


@pytest.mark.parametrize("family", ["B", "C"])
def test_symmetry_check_fails_without_the_hankel_conjugate(monkeypatch, small_grid, family):
    # no run reads the weight symmetry (it is proven); a product that breaks
    # it is caught here, against the dense oracle
    spec = make_kernel(family)
    dense = kernel_matrix(spec, small_grid) * small_grid.weights
    kernel = structured_kernel(spec, small_grid)
    assert sup_gap(kernel, dense, small_grid.size) <= SUP_TOL
    monkeypatch.setattr(StructuredKernel, "__matmul__", _unconjugated_matmul)
    assert sup_gap(kernel, dense, small_grid.size) > SUP_TOL


@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_symmetry_check_fails_on_one_scaled_row(small_grid, family):
    # row 0 scaled by 1 + 1e-3 breaks the weight symmetry; the oracle sees it
    spec = make_kernel(family)
    dense = kernel_matrix(spec, small_grid) * small_grid.weights
    kernel = structured_kernel(spec, small_grid)
    assert sup_gap(kernel, dense, small_grid.size) <= SUP_TOL
    left = kernel.left.copy()
    left[:, 0] *= 1.0 + 1e-3
    assert sup_gap(dataclasses.replace(kernel, left=left), dense, small_grid.size) > SUP_TOL
