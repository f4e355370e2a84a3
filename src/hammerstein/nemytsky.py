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
from .kernels import KernelSpec, gamma_profile
from .nonlinearity import NonlinearitySpec, eval_G
from .picard import OperatorMatrix, iterate
from .quadrature import HalfLineGrid

POINTWISE_FAMILIES = ("saturating", "saturating-quadratic")
INTEGRAND_FAMILIES = ("reflected", "scaled-reflected")
DAMPING_PROFILES = ("one", "half", "exp-decay")


@dataclass(frozen=True)
class NemytskySpec:
    """Declarative description of one combined-equation instance."""

    kernel: KernelSpec
    base_G: NonlinearitySpec
    xi: float
    pointwise_family: str = "saturating"
    integrand_family: str = "reflected"
    eps_star_fraction: float = 0.0
    eps_star_profile: np.ndarray | None = None
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
        if not 0.0 <= self.eps_star_fraction:
            raise ValueError(f"eps_star_fraction must be nonnegative, got {self.eps_star_fraction!r}")


def eps_star_bound(spec: NemytskySpec, gamma):
    """Admissible ceiling for the quadratic coefficient at mass defect gamma."""
    gamma = np.asarray(gamma, dtype=float)
    eta, xi = spec.base_G.eta, spec.xi
    return ((eta - 2.0 * xi) * gamma + xi * gamma * gamma) / (eta * (eta + xi * gamma))


def eps_star_values(spec: NemytskySpec, gamma):
    """Quadratic coefficient profile: explicit override, else fraction of the bound."""
    gamma = np.asarray(gamma, dtype=float)
    if spec.eps_star_profile is not None:
        profile = np.asarray(spec.eps_star_profile, dtype=float)
        if profile.size != gamma.size:
            raise ValueError(
                f"eps_star_profile has {profile.size} entries for {gamma.size} nodes")
        return profile.reshape(gamma.shape)
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
    eps_star_ok: bool             # quadratic coefficient within its bound
    eps_star_bad_node: int | None
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.criticality_ok and self.lower_crossing_ok
                    and self.upper_crossing_ok and self.monotone_ok
                    and self.envelope_ok and self.eps_star_ok)


def check_nemytsky_conditions(spec: NemytskySpec, grid: HalfLineGrid,
                              n_u: int = 33, tol: float = 1e-12, *,
                              gamma: np.ndarray | None = None) -> NemytskyConditionReport:
    """Verify the crossing, monotonicity, envelope and coefficient conditions
    on every grid node against a u-lattice of ``n_u`` points.

    ``gamma`` is the ``gamma`` of ``kernels.discretise``; pass the one a
    discretisation already holds to skip evaluating the kernel again.
    """
    if n_u < 3:
        raise ValueError("n_u must be at least 3")
    eta = spec.base_G.eta
    if gamma is None:
        gamma = gamma_profile(spec.kernel, grid)
    nodes = grid.nodes
    u = np.linspace(0.0, eta, n_u)

    crit = bool(np.abs(eval_G0(spec, gamma, 0.0)).max() <= tol
                and np.abs(eval_G1(spec, nodes, 0.0)).max() <= tol)

    s = spec.xi * gamma
    lower_ok = bool((eval_G0(spec, gamma, s) - s).min() >= -tol)
    upper_ok = bool((eval_G0(spec, gamma, eta) - eta * gamma).max() <= tol)

    # the node x u lattices one u-column at a time: O(N) memory, same verdicts
    envelope = eta - eval_G(spec.base_G, eta - u)
    monotone_ok = envelope_ok = True
    for k in range(n_u):
        g0, g1 = eval_G0(spec, gamma, u[k:k + 1]), eval_G1(spec, nodes, u[k:k + 1])
        if k:
            monotone_ok &= bool((g0 - prev0).min() >= -tol and (g1 - prev1).min() >= -tol)
        envelope_ok &= bool(g1.min() >= -tol and (g1 - envelope[k]).max() <= tol)
        prev0, prev1 = g0, g1

    eps = np.broadcast_to(np.asarray(eps_star_values(spec, gamma), dtype=float),
                          gamma.shape)
    over = eps - eps_star_bound(spec, gamma)
    bad = np.nonzero(over > tol)[0]
    eps_ok = bad.size == 0

    return NemytskyConditionReport(
        criticality_ok=crit,
        lower_crossing_ok=lower_ok,
        upper_crossing_ok=upper_ok,
        monotone_ok=monotone_ok,
        envelope_ok=envelope_ok,
        eps_star_ok=bool(eps_ok),
        eps_star_bad_node=None if eps_ok else int(bad[0]),
        tol=float(tol),
    )


@dataclass
class NemytskyReport:
    """Outcome of the upward iteration, with both envelopes kept for the sandwich."""

    iterations: int
    sup_diffs: list[float]
    profile: np.ndarray
    lower_env: np.ndarray     # xi * gamma
    upper_env: np.ndarray     # eta - f_star
    increase_ok: bool
    envelope_ok: bool
    sandwich_ok: bool
    residual_inf: float
    phi_at_xmax: float
    converged: bool = True


def solve_nemytsky(spec: NemytskySpec, grid: HalfLineGrid, fstar,
                   tol: float = 1e-10, max_iter: int = 5000, *,
                   operator: OperatorMatrix) -> NemytskyReport:
    """Iterate Phi_{n+1} = G0(x, Phi_n) + A G1(t, Phi_n) from Phi_0 = xi * gamma.

    ``fstar`` must be a converged ceiling-iteration profile for the same
    kernel, nonlinearity and grid, and ``operator`` the one it was solved
    with; ``fstar`` provides the upper envelope.  Pointwise increase and the
    envelope are asserted at every step (1e-12 flags, 1e-9 aborts).  The
    final profile is checked against the two-sided sandwich at 1e-10.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    fstar = np.asarray(fstar, dtype=float)
    if fstar.shape != grid.nodes.shape:
        raise ValueError("fstar must hold one value per grid node")
    eta = spec.base_G.eta
    gamma = 1.0 - operator.row_mass
    lower = spec.xi * gamma
    upper = eta - fstar

    nodes = grid.nodes
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
        lower_env=lower,
        upper_env=upper,
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
