"""``discretise``: the one mass defect, the views on it and a symmetry check that can fail."""

import dataclasses

import numpy as np
import pytest

import hammerstein as hs
import hammerstein.kernels
from hammerstein.errors import SpecRejectedError
from hammerstein.kernels import (StructuredKernel, cusp_correction, discretise,
                                 kernel_matrix, weight_asymmetry)

from conftest import MIXTURE_ATOMS, make_kernel


@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_one_gamma(small_grid, family):
    # family A has rows rescaled under the cap, so capped and raw masses differ
    spec = make_kernel(family)
    disc = discretise(spec, small_grid)
    assert np.array_equal(disc.gamma, 1.0 - disc.operator.row_mass)
    assert np.array_equal(hs.gamma_profile(spec, small_grid), disc.gamma)
    assert disc.gamma.min() > 0.0


def test_gamma_is_set_when_the_checks_fail():
    coarse = hs.build_grid(40.0, 20, hs.TRAPEZOID)
    disc = discretise(make_kernel("B", delta=0.999999), coarse)
    assert disc.operator is None and disc.gamma.shape == coarse.nodes.shape
    assert disc.report.gamma_min < 0.0
    # the capped masses keep gamma at MASS_MARGIN or above, up to rounding
    assert disc.gamma.min() >= 0.5 * hammerstein.kernels.MASS_MARGIN


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


def test_weight_asymmetry_of_the_dense_oracle(small_grid):
    spec = make_kernel("B")
    dense = kernel_matrix(spec, small_grid) * small_grid.weights
    assert weight_asymmetry(dense, small_grid.weights) <= 1e-15
    dense[7] *= 1.001
    assert weight_asymmetry(dense, small_grid.weights) > 1e-7


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
    spec = make_kernel(family)
    assert discretise(spec, small_grid).report.symmetry_residual <= 1e-15
    monkeypatch.setattr(StructuredKernel, "__matmul__", _unconjugated_matmul)
    report = hs.check_kernel_conditions(spec, small_grid)
    assert report.symmetry_residual > 1e-6
    assert not report.passed


@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_symmetry_check_fails_on_one_scaled_row(monkeypatch, small_grid, family):
    # row 0 scaled by 1 + 1e-3 keeps its mass under 1: symmetry alone fails
    original = hammerstein.kernels.structured_kernel

    def one_row_scaled(spec_, grid_):
        kernel = original(spec_, grid_)
        if grid_ is not small_grid:           # the tail's continued grid
            return kernel
        left = kernel.left.copy()
        left[:, 0] *= 1.0 + 1e-3
        return dataclasses.replace(kernel, left=left)

    monkeypatch.setattr(hammerstein.kernels, "structured_kernel", one_row_scaled)
    report = hs.check_kernel_conditions(make_kernel(family), small_grid)
    assert report.symmetry_residual > report.tol
    assert not report.passed
    assert dataclasses.replace(report, symmetry_residual=0.0).passed
