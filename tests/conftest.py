import numpy as np
import pytest

import hammerstein as hs
from hammerstein.kernels import kernel_matrix

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


def make_G(family):
    return hs.NonlinearitySpec(family=family, **G_PARAMS[family])


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
