import decimal
import itertools
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import hammerstein as hs
import hammerstein.picard
from hammerstein.config import load_config
from hammerstein.kernels import (_factors, apply_kernel, cusp_correction, kernel_matrix,
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


def readme_block(language: str) -> str:
    """The README's one code block in ``language``; it must have exactly one."""
    text, fence = README.read_text(), f"```{language}\n"
    assert text.count(fence) == 1, f"the README has {text.count(fence)} {language} blocks"
    start = text.index(fence) + len(fence)
    return text[start:text.index("```", start)]


def readme_config() -> str:
    """The example configuration of the README, its one ``yaml`` block."""
    return readme_block("yaml")


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


def kernel_mu(spec, x, t):
    """mu(x, t) as a run computes it: ``eval_kernel`` of the family-A ``spec``
    over its base K0(x - t)."""
    x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
    return hs.eval_kernel(spec, x, t) / spec.base.eval(x - t)


# sup gap a structured product may keep from its dense oracle
SUP_TOL = 1e-13


def probe_vectors(n):
    rng = np.random.default_rng(17)
    return [np.ones(n), rng.random(n), rng.standard_normal(n)]


def sup_gap(structured, dense, n):
    return max(float(np.abs(structured @ v - dense @ v).max()) for v in probe_vectors(n))


def panel_oracle(spec, grid, shift=0, panels=None):
    """Dense w_j K(x_i, t_j) over the rows and columns of
    ``structured_kernel(spec, grid, shift, panels)``, with each K0 argument
    formed as that builder forms it.

    Row node i = P p + k and column node j = Q p + l: K0 is taken at the
    Toeplitz argument h (P - Q - shift) + (c_k - c_l) and the Hankel argument
    h (P + Q + shift) + (c_k + c_l), c the first panel's nodes, never at x - t
    from nodes of size x_max, whose rounding alone outgrows the tolerances on
    long domains.  The modulation is ``kernels._factors`` at the row nodes
    and at ``grid.panels(shift, panels)``; no floor, as the builder's tables
    hold K0 itself.
    """
    p, h = grid.points_per_panel, grid.h
    n = grid.n_panels if panels is None else panels
    c = grid.nodes[:p]
    P, k = np.divmod(np.arange(grid.size), p)
    Q, l = np.divmod(np.arange(n * p), p)
    columns, weights = grid.panels(shift, n)
    image, left = _factors(spec, grid.nodes)[:2]
    right = _factors(spec, columns)[2]
    k0 = spec.base.eval(h * (P[:, None] - Q - shift) + (c[k][:, None] - c[l]))
    if image:
        k0 += image * spec.base.eval(h * (P[:, None] + Q + shift) + (c[k][:, None] + c[l]))
    return (left[0][:, None] * right[0] + left[1][:, None] * right[1]) * k0 * weights


def open_operator(spec, A):
    """Dense oracle of the open part of the structured operator A of ``spec``:
    kernel_matrix * w, plus the cusp correction on the diagonal, then the
    over-cap row rescale."""
    dense = kernel_matrix(spec, A.grid) * A.grid.weights
    dense[np.diag_indices(A.size)] += A.diagonal
    return A.row_scale[:, None] * dense


def dense_operator(spec, A):
    """Dense oracle of the closed operator A: ``open_operator`` with
    ``tail_mass`` added to the last column, the closure past x_max."""
    dense = open_operator(spec, A)
    dense[:, -1] += A.tail_mass
    return dense


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


# the oracle's arithmetic: 40 digits, and a stop far below float rounding
ORACLE_DIGITS = 40
ORACLE_STOP = Decimal("1e-32")
_exact_fixed_points = {}


def exact_G(G):
    """G in decimal arithmetic: the mean of u**p over its exponents p (one for
    family I, two for II and III), each the float exponent taken as exact and
    u**p formed as exp(p ln u), one ln per node."""
    powers = {"I": (G.alpha,), "II": (G.alpha_star, 1.0),
              "III": (G.alpha_tilde, G.alpha_star)}[G.family]
    powers = [Decimal(p) for p in powers]

    def G_exact(u):
        log = u.ln()
        return sum((p * log).exp() for p in powers) / len(powers)
    return G_exact


def exact_fixed_point(spec, operator, G):
    """The exact fixed point f*_h of the discrete equation a float run solves,
    rounded once to float.

    The float operator's own entries are taken as exact: its open part
    diag(row_scale) (kernel_matrix * weights + diag(diagonal)),
    ``open_operator``, and ``tail_mass``, a separate term, as the float sum
    of the last column and the tail would round once more.  The ceiling
    iteration f <- L G(f) = open G(f) + G(f_N) tail runs from eta in
    ``ORACLE_DIGITS``-digit decimal arithmetic until a step is below
    ``ORACLE_STOP``, so iteration and float rounding are the only distances
    between a float iterate and the result.  N**2 per step: at N <= 32 a
    case takes 0.2 s (a = 0.5) to 2 s (a = 0.9).  Cached per (operator, G).
    """
    key = (id(operator), G)
    if key not in _exact_fixed_points:
        assert operator.size <= 32, "the decimal oracle is sized for N <= 32"
        with decimal.localcontext() as ctx:
            ctx.prec = ORACLE_DIGITS
            rows = [[Decimal(v) for v in row] for row in open_operator(spec, operator).tolist()]
            tail = [Decimal(v) for v in operator.tail_mass.tolist()]
            G_exact = exact_G(G)
            f = [Decimal(G.eta)] * operator.size
            step = Decimal(1)
            while step >= ORACLE_STOP:
                g = [G_exact(u) for u in f]
                new = [sum(map(Decimal.__mul__, row, g), g[-1] * t) for row, t in zip(rows, tail)]
                step = max(abs(a - b) for a, b in zip(new, f))
                f = new
        _exact_fixed_points[key] = (operator, np.array([float(v) for v in f]))
    return _exact_fixed_points[key][1]


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


def three_branch_G(G, u):
    """G(u) spelled per family, u**alpha, (u**alpha_star + u) / 2 and
    (u**alpha_tilde + u**alpha_star) / 2: the reference for the mean form."""
    u = np.asarray(u, dtype=float)
    if G.family == "I":
        return u ** G.alpha
    if G.family == "II":
        return 0.5 * (u ** G.alpha_star + u)
    return 0.5 * (u ** G.alpha_tilde + u ** G.alpha_star)


def three_branch_rate(G):
    """The rate exponent spelled per family: alpha, (1 + alpha_star) / 2 and
    (alpha_tilde + alpha_star) / 2."""
    if G.family == "I":
        return G.alpha
    if G.family == "II":
        return 0.5 * (1.0 + G.alpha_star)
    return 0.5 * (G.alpha_tilde + G.alpha_star)


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
