"""Solver for the combined pointwise-plus-integral equation

    Phi(x) = G0(x, Phi(x)) + int_0^inf K(x, t) G1(t, Phi(t)) dt,

iterated upward from the floor Phi_0 = xi * gamma, gamma being the mass
defect of ``kernels.discretise``.  The iterates increase pointwise and stay
under eta - f_star, where f_star is the converged profile of the pure
integral equation for the same kernel and base nonlinearity; the limit is
sandwiched as xi * gamma(x) <= Phi(x) <= eta - f_star(x) and decays to zero
at infinity.

Catalog forms:

* pointwise term (G0): ``saturating``  2 xi gamma u / (u + xi gamma);
  ``saturating-quadratic`` adds eps_star(x) * u**2 with eps_star capped by
  the admissible bound ((eta - 2 xi) gamma + xi gamma**2) / (eta (eta + xi gamma)).
* integrand term (G1): ``reflected``  eta - G(eta - u);
  ``scaled-reflected`` multiplies by a continuous damping profile in [0, 1].

Both vanish at u = 0 (criticality), increase in u, and G1 never exceeds the
reflected envelope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, NumericalBreakdownError
from .kernels import OperatorMatrix
from .nonlinearity import NonlinearitySpec, eval_G
from .picard import iterate
from .quadrature import HalfLineGrid

POINTWISE_FAMILIES = ("saturating", "saturating-quadratic")
INTEGRAND_FAMILIES = ("reflected", "scaled-reflected")
DAMPING_PROFILES = ("one", "half", "exp-decay")
# Points of the u-lattice of check_nemytsky_conditions, and its slack.
LATTICE_POINTS = 33
LATTICE_TOL = 1e-12


@dataclass(frozen=True)
class NemytskySpec:
    """Declarative description of one combined-equation instance."""

    base_G: NonlinearitySpec
    xi: float
    pointwise_family: str = "saturating"
    integrand_family: str = "reflected"
    eps_star_fraction: float = 0.0
    damping_profile: str = "one"

    def __post_init__(self) -> None:
        if self.pointwise_family not in POINTWISE_FAMILIES:
            raise ValueError(f"pointwise_family must be one of {POINTWISE_FAMILIES}")
        if self.integrand_family not in INTEGRAND_FAMILIES:
            raise ValueError(f"integrand_family must be one of {INTEGRAND_FAMILIES}")
        if self.damping_profile not in DAMPING_PROFILES:
            raise ValueError(f"damping_profile must be one of {DAMPING_PROFILES}")
        eta = self.base_G.eta
        if not 0.0 < self.xi < 0.5 * eta:
            raise ValueError(f"xi must lie in (0, eta/2) = (0, {0.5 * eta}), got {self.xi!r}")
        if not 0.0 <= self.eps_star_fraction <= 1.0:
            raise ValueError(f"eps_star_fraction must lie in [0, 1], got {self.eps_star_fraction!r}")


def eps_star_bound(spec: NemytskySpec, gamma):
    """Admissible ceiling for the quadratic coefficient at mass defect gamma."""
    gamma = np.asarray(gamma, dtype=float)
    eta, xi = spec.base_G.eta, spec.xi
    return ((eta - 2.0 * xi) * gamma + xi * gamma * gamma) / (eta * (eta + xi * gamma))


def eps_star_values(spec: NemytskySpec, gamma):
    """Quadratic coefficient profile: ``eps_star_fraction`` of the bound."""
    return spec.eps_star_fraction * eps_star_bound(spec, gamma)


def damping_values(spec: NemytskySpec, x):
    x = np.asarray(x, dtype=float)
    if spec.damping_profile == "one":
        return np.ones_like(x)
    if spec.damping_profile == "half":
        return np.full_like(x, 0.5)
    return np.exp(-x)


def _check_u(u, eta):
    u = np.asarray(u, dtype=float)
    if np.any(u < -1e-9) or np.any(u > eta + 1e-9):
        raise ValueError(f"u must lie in [0, {eta}]")
    return np.clip(u, 0.0, eta)


def eval_G0(spec: NemytskySpec, gamma, u):
    """Pointwise term G0 at mass defect gamma; zero at u = 0 by construction."""
    eta = spec.base_G.eta
    u = _check_u(u, eta)
    gamma = np.asarray(gamma, dtype=float)
    s = spec.xi * gamma
    num, den = np.broadcast_arrays(2.0 * s * u, u + s)
    core = np.zeros(den.shape)
    np.divide(num, den, out=core, where=den > 0.0)
    if spec.pointwise_family == "saturating-quadratic":
        core = core + eps_star_values(spec, gamma) * u * u
    return core if core.ndim else core[()]


def eval_G1(spec: NemytskySpec, x, u):
    """Integrand term G1(x, u); bounded by the reflected envelope eta - G(eta - u)."""
    eta = spec.base_G.eta
    u = _check_u(u, eta)
    x = np.asarray(x, dtype=float)
    val = eta - eval_G(spec.base_G, np.clip(eta - u, 0.0, eta))
    if spec.integrand_family == "scaled-reflected":
        return damping_values(spec, x) * val
    return np.ones_like(x) * val  # broadcast against x; the plain form ignores it


@dataclass(frozen=True)
class NemytskyConditionReport:
    """Node-by-node certification of the structural conditions."""

    criticality_ok: bool          # G0(x, 0) = G1(x, 0) = 0
    lower_crossing_ok: bool       # G0(x, xi gamma) >= xi gamma
    upper_crossing_ok: bool       # G0(x, eta) <= eta gamma
    monotone_ok: bool             # both terms increase in u
    envelope_ok: bool             # 0 <= G1 <= eta - G(eta - u)
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.criticality_ok and self.lower_crossing_ok
                    and self.upper_crossing_ok and self.monotone_ok
                    and self.envelope_ok)


def check_nemytsky_conditions(spec: NemytskySpec, grid: HalfLineGrid, *,
                              gamma: np.ndarray) -> NemytskyConditionReport:
    """Verify the crossing, monotonicity and envelope conditions on every
    grid node against a u-lattice of ``LATTICE_POINTS`` points, within
    ``LATTICE_TOL``.  The upper crossing G0(x, eta) <= eta gamma is the bound
    eps_star <= :func:`eps_star_bound` itself, so it checks the quadratic
    coefficient too.

    ``gamma`` is the mass defect at the nodes: the ``gamma`` of the
    ``kernels.discretise`` of the kernel on ``grid``.
    """
    eta, tol = spec.base_G.eta, LATTICE_TOL
    nodes = grid.nodes
    u = np.linspace(0.0, eta, LATTICE_POINTS)

    crit = bool(np.abs(eval_G0(spec, gamma, 0.0)).max() <= tol
                and np.abs(eval_G1(spec, nodes, 0.0)).max() <= tol)

    s = spec.xi * gamma
    lower_ok = bool((eval_G0(spec, gamma, s) - s).min() >= -tol)
    upper_ok = bool((eval_G0(spec, gamma, eta) - eta * gamma).max() <= tol)

    # the node x u lattices one u-column at a time: O(N) memory, same verdicts
    envelope = eta - eval_G(spec.base_G, eta - u)
    monotone_ok = envelope_ok = True
    for k in range(LATTICE_POINTS):
        g0, g1 = eval_G0(spec, gamma, u[k:k + 1]), eval_G1(spec, nodes, u[k:k + 1])
        if k:
            monotone_ok &= bool((g0 - prev0).min() >= -tol and (g1 - prev1).min() >= -tol)
        envelope_ok &= bool(g1.min() >= -tol and (g1 - envelope[k]).max() <= tol)
        prev0, prev1 = g0, g1

    return NemytskyConditionReport(
        criticality_ok=crit,
        lower_crossing_ok=lower_ok,
        upper_crossing_ok=upper_ok,
        monotone_ok=monotone_ok,
        envelope_ok=envelope_ok,
        tol=tol,
    )


@dataclass
class NemytskyReport:
    """Outcome of the upward iteration, without its envelopes xi * gamma and eta - f_star."""

    iterations: int
    sup_diffs: list[float]
    profile: np.ndarray
    increase_ok: bool
    envelope_ok: bool
    sandwich_ok: bool
    residual_inf: float
    phi_at_xmax: float
    converged: bool = True


def solve_nemytsky(spec: NemytskySpec, fstar, tol: float = 1e-10,
                   max_iter: int = 5000, *, operator: OperatorMatrix) -> NemytskyReport:
    """Iterate Phi_{n+1} = G0(x, Phi_n) + A G1(t, Phi_n) from Phi_0 = xi * gamma.

    ``fstar`` must be a converged ceiling-iteration profile for the same
    nonlinearity, solved with ``operator``, whose grid gives the nodes;
    ``fstar`` provides the upper envelope.  Pointwise increase and the
    envelope are asserted at every step (1e-12 flags, 1e-9 aborts).  The
    final profile is checked against the two-sided sandwich at 1e-10.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    fstar = np.asarray(fstar, dtype=float)
    nodes = operator.grid.nodes
    if fstar.shape != nodes.shape:
        raise ValueError("fstar must hold one value per grid node")
    eta = spec.base_G.eta
    gamma = 1.0 - operator.row_mass
    lower = spec.xi * gamma
    upper = eta - fstar
    envelope_ok = True

    def step(cur: np.ndarray) -> np.ndarray:
        # integral term closed past x_max with the last node's integrand value,
        # mirroring the operator's own tail closure
        g1 = eval_G1(spec, nodes, cur)
        return (eval_G0(spec, gamma, cur)
                + operator @ g1
                + g1[-1] * operator.tail_mass)

    def checked_step(cur: np.ndarray) -> np.ndarray:
        nonlocal envelope_ok
        nxt = step(cur)
        over = float((nxt - upper).max())
        if over > 1e-9:
            raise NumericalBreakdownError(f"iterate crossed the upper envelope by {over:.3e}")
        if over > 1e-12:
            envelope_ok = False
        return nxt

    phi, sup_diffs, increase_ok, converged = iterate(
        checked_step, lower, direction=1, tol=tol, max_iter=max_iter)
    residual_inf = float(np.abs(phi - step(phi)).max())
    sandwich_ok = bool((phi - lower).min() >= -1e-10 and (upper - phi).min() >= -1e-10)
    report = NemytskyReport(
        iterations=len(sup_diffs),
        sup_diffs=sup_diffs,
        profile=phi,
        increase_ok=increase_ok,
        envelope_ok=envelope_ok,
        sandwich_ok=sandwich_ok,
        residual_inf=residual_inf,
        phi_at_xmax=float(phi[-1]),
        converged=converged,
    )
    if not converged:
        raise NonConvergenceError(
            f"no convergence to {tol} within {max_iter} iterations", report)
    return report
