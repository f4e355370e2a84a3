import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import hammerstein as hs
import hammerstein.picard
from hammerstein.config import load_config
from hammerstein.kernels import (apply_kernel, cusp_correction, kernel_matrix,
                                 tail_row_mass)
from hammerstein.picard import apply_hammerstein

# catalog defaults: delta = epsilon = d_star = l = 0.5; alpha = 0.5;
# alpha_star = 0.5 (II); alpha_tilde = 0.25, alpha_star = 0.75 (III)
KERNEL_PARAMS = {"A": {}, "B": {"delta": 0.5}, "C": {"epsilon": 0.5}}
G_PARAMS = {
    "I": {"alpha": 0.5},
    "II": {"alpha_star": 0.5},
    "III": {"alpha_tilde": 0.25, "alpha_star": 0.75},
}

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config() -> str:
    """The example configuration of the README, its one ``yaml`` block."""
    text = README.read_text()
    start = text.index("```yaml\n") + len("```yaml\n")
    return text[start:text.index("```", start)]


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


# sup gap a structured product may keep from its dense oracle
SUP_TOL = 1e-13


def probe_vectors(n):
    rng = np.random.default_rng(17)
    return [np.ones(n), rng.random(n), rng.standard_normal(n)]


def sup_gap(structured, dense, n):
    return max(float(np.abs(structured @ v - dense @ v).max()) for v in probe_vectors(n))


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


def ceiling_iterates(A, G, count):
    """f_0 = eta, f_1, ..., f_count of the ceiling iteration, rebuilt outside
    ``solve_picard`` (which keeps no history) for the offline oracles of its
    online monotone verdict and of the proven squeeze."""
    history = [np.full(A.size, G.eta)]
    for _ in range(count):
        history.append(apply_hammerstein(A, G, history[-1]))
    return history


def squeeze_breach(A, G, sigma0, steps):
    """Worst breach of the squeeze sigma0**(a**(n-1)) f_n <= f_{n+1} <= f_n,
    1 <= n < steps, on the rebuilt ceiling iterates: the picard module
    docstring proves its lower half, and the solve asserts the upper."""
    iterates = ceiling_iterates(A, G, steps)
    a = G.rate_exponent
    return max((max(float((sigma0 ** (a ** (n - 1)) * iterates[n] - iterates[n + 1]).max()),
                    float((iterates[n + 1] - iterates[n]).max()))
                for n in range(1, steps)), default=0.0)


# one node moved by this against a monotone iteration's direction: between
# the per-step guard's 1e-12 flag and its 1e-9 abort (picard._within)
WRONG_WAY = 5e-10


def lift_third_ceiling_iterate(monkeypatch):
    """Wrap ``picard.apply_hammerstein`` so that its third application, the
    ceiling iterate f_3, comes out ``WRONG_WAY`` high at the last node, where
    f_2 - f_3 is rounding: one step against the ceiling's decrease."""
    original = hammerstein.picard.apply_hammerstein
    calls = itertools.count(1)

    def lifted(A, G, f):
        out = original(A, G, f)
        if next(calls) == 3:
            out[-1] += WRONG_WAY
        return out

    monkeypatch.setattr(hammerstein.picard, "apply_hammerstein", lifted)


class LoweredProduct:
    """``operator`` whose product on call ``step`` comes out ``WRONG_WAY`` low
    at node 0.  On the combined solve's converging step, where Phi_{n+1} -
    Phi_n is below 1e-10, that is one step against its increase."""

    def __init__(self, operator, step):
        self.operator, self.step, self.calls = operator, step, itertools.count(1)

    def __getattr__(self, name):
        return getattr(self.operator, name)

    def __matmul__(self, v):
        out = self.operator @ v
        if next(self.calls) == self.step:
            out[0] -= WRONG_WAY
        return out


def make_G(family):
    return hs.NonlinearitySpec(family=family, **G_PARAMS[family])


# constructor keywords of admissible specs; every rate exponent a is at most 0.95
kernel_specs = st.one_of(
    st.builds(dict, family=st.just("A")),
    st.builds(dict, family=st.just("B"),
              delta=st.floats(min_value=0.01, max_value=1.0 - 2.0 ** -53)),
    st.builds(dict, family=st.just("C"), epsilon=st.floats(min_value=0.01, max_value=0.99)))
nonlinearities = st.one_of(
    st.builds(dict, family=st.just("I"), alpha=st.floats(min_value=0.05, max_value=0.95)),
    st.builds(dict, family=st.just("II"),
              alpha_star=st.floats(min_value=0.05, max_value=0.9)),
    st.tuples(st.floats(min_value=0.05, max_value=0.9),
              st.floats(min_value=0.05, max_value=0.99))
    .filter(lambda p: p[0] < p[1] and p[0] + p[1] <= 1.9)
    .map(lambda p: dict(family="III", alpha_tilde=p[0], alpha_star=p[1])))


def power_linear_scaling_ratio(sigma, alpha_star):
    """(sigma**alpha_star - sigma**a) / (sigma**a - sigma) with a = (1 + alpha_star) / 2.

    A value of at least 1 throughout (0, 1) is what certifies the scaling
    bound for the power-plus-linear family with its midpoint exponent.
    """
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0.0) or np.any(sigma >= 1.0):
        raise ValueError("sigma must lie strictly inside (0, 1)")
    a = 0.5 * (1.0 + alpha_star)
    return (sigma ** alpha_star - sigma ** a) / (sigma ** a - sigma)


@pytest.fixture(scope="session")
def readme_run(tmp_path_factory):
    """The README config, its operator and its ceiling solve."""
    path = tmp_path_factory.mktemp("readme") / "readme.yaml"
    path.write_text(readme_config())
    config = load_config(path)
    A = hs.discretise(config.kernel, config.grid).operator
    solve = hs.solve_picard(A, config.nonlinearity, tol=config.tol, max_iter=config.max_iter)
    assert solve.converged
    return config, A, solve


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
    assert solve.converged
    gamma = hs.gamma_profile(spec, small_grid)
    return {"spec": spec, "report": report, "G": G, "A": A,
            "solve": solve, "gamma": gamma, "grid": small_grid}
