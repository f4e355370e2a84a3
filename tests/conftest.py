import numpy as np
import pytest

import hammerstein as hs
from hammerstein.kernels import (apply_kernel, cusp_correction, kernel_matrix,
                                 tail_row_mass)

# catalog defaults: delta = epsilon = d_star = l = 0.5; alpha = 0.5;
# alpha_star = 0.5 (II); alpha_tilde = 0.25, alpha_star = 0.75 (III)
KERNEL_PARAMS = {"A": {}, "B": {"delta": 0.5}, "C": {"epsilon": 0.5}}
G_PARAMS = {
    "I": {"alpha": 0.5},
    "II": {"alpha_star": 0.5},
    "III": {"alpha_tilde": 0.25, "alpha_star": 0.75},
}

# two-atom exponential mixture with a cusp at 0; its slow atom needs x_max ~ 90
MIXTURE_ATOMS = ((0.25, 1.0), (0.125, 0.5))


def make_kernel(family, d_star=0.5, l=0.5, lambda_form="exp-gap", base=None, **overrides):
    params = dict(KERNEL_PARAMS[family])
    params.update(overrides)
    return hs.KernelSpec(
        family=family,
        base=base or hs.BaseKernel(),
        modulation=hs.ModulationSet(lambda_form=lambda_form, d_star=d_star, l=l),
        **params,
    )


def dense_operator(A):
    """Dense oracle of a structured operator: kernel_matrix * w, plus the
    cusp correction on the diagonal, then the over-cap row rescale."""
    dense = kernel_matrix(A.kernel, A.grid) * A.grid.weights
    dense[np.diag_indices(A.size)] += A.diagonal
    return A.row_scale[:, None] * dense


def row_mass_at(spec, grid, x):
    """Half-line row mass at any points x: quadrature over the grid plus the tail.

    One kernel row per point, evaluated in row blocks.  For a cusped base
    kernel on a Gauss grid the panel that holds x is integrated split at
    t = x (``cusp_correction``).  The row-by-row oracle of the node masses
    that ``discretise`` reads from the structured kernel.
    """
    mass = apply_kernel(spec, x, grid.nodes, grid.weights) + tail_row_mass(spec, grid, x)
    correction = cusp_correction(spec, grid, x)
    return mass if correction is None else mass + correction


def make_G(family):
    return hs.NonlinearitySpec(family=family, **G_PARAMS[family])


def bisect_Q(spec, v):
    """Inverse of a mean-family G by 80 bisection steps in z = log u.

    The bracket is [log(1e-308), log eta]; Q(0) = 0 and Q(eta) = eta exactly.
    The bisection oracle of the Newton inverse that ``eval_Q`` runs.
    """
    eta = spec.eta
    work = np.atleast_1d(np.clip(np.asarray(v, dtype=float), 0.0, eta))
    out = np.where(work == 0.0, 0.0, eta)
    interior = (work > 0.0) & (work < eta)
    target = work[interior]
    z_lo = np.full(target.shape, np.log(1e-308))
    z_hi = np.full(target.shape, np.log(eta))
    for _ in range(80):
        z_mid = 0.5 * (z_lo + z_hi)
        below = hs.eval_G(spec, np.exp(z_mid)) <= target
        z_lo = np.where(below, z_mid, z_lo)
        z_hi = np.where(below, z_hi, z_mid)
    out[interior] = np.exp(0.5 * (z_lo + z_hi))
    return out.reshape(np.shape(v))


@pytest.fixture(scope="session")
def small_grid():
    # compact grid for module-level tests; the acceptance suite runs the big one
    return hs.build_grid(30.0, 150, hs.GAUSS, 4)


@pytest.fixture(scope="session")
def small_ci(small_grid):
    """Solved C+I configuration on the small grid, shared across test modules."""
    spec = make_kernel("C")
    report = hs.check_kernel_conditions(spec, small_grid)
    assert report.passed
    G = make_G("I")
    A = hs.assemble_operator(spec, small_grid, report=report)
    solve = hs.solve_picard(A, G, tol=1e-10, max_iter=400)
    gamma = hs.gamma_profile(spec, small_grid)
    return {"spec": spec, "report": report, "G": G, "A": A,
            "solve": solve, "gamma": gamma, "grid": small_grid}
