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
  ``saturating-quadratic`` adds eps_star(x) * u**2 (eps_star below).
* integrand term (G1): ``reflected``  eta - G(eta - u);
  ``scaled-reflected`` multiplies by a damping profile d in {1, 1/2, e^(-x)}.

The existence theorem's conditions 1)-4) hold for every spec that
``NemytskySpec`` accepts once 0 <= gamma <= 1 at every node, and the mass
cap of ``kernels.discretise`` proves that for every gamma it gives (its
docstring), so no run checks it.  Take eta = 1,
s = xi gamma with xi in (0, eta/2), phi = ``eps_star_fraction`` in [0, 1],
d in (0, 1], and eps_star = phi b(gamma), where
b(gamma) = ((eta - 2 xi) gamma + xi gamma**2) / (eta (eta + xi gamma)):

* criticality: G0(x, 0) = 0, and G1(x, 0) = d (eta - G(eta)) = 0, as
  G(1) is 1.0 exactly;
* lower crossing: G0(x, s) = 2 s**2 / (2 s) + eps_star s**2 >= s, and
  s = 0 gives 0;
* upper crossing: eta gamma - 2 s eta / (eta + s) = eta**2 b(gamma), so
  G0(x, eta) = eta gamma - (1 - phi) eta**2 b(gamma) <= eta gamma;
* monotone: d/du [2 s u / (u + s)] = 2 s**2 / (u + s)**2 >= 0, eps_star u**2
  increases, and G1 = d (eta - G(eta - u)) increases because G does;
* envelope: 0 <= d <= 1 and G(eta - u) <= G(eta) = eta give
  0 <= G1 <= eta - G(eta - u).

gamma >= 0 gives b >= 0, and gamma <= 1 keeps s < eta/2 inside G0's domain
[0, eta].  :func:`check_nemytsky_conditions` checks the range of a gamma
that a caller builds some other way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import OperatorMatrix
from .nonlinearity import NonlinearitySpec, eval_G
from .picard import iterate

POINTWISE_FAMILIES = ("saturating", "saturating-quadratic")
INTEGRAND_FAMILIES = ("reflected", "scaled-reflected")
DAMPING_PROFILES = ("one", "half", "exp-decay")


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


def _G0(spec: NemytskySpec, gamma: np.ndarray, u: np.ndarray) -> np.ndarray:
    s = spec.xi * gamma
    num, den = np.broadcast_arrays(2.0 * s * u, u + s)
    core = np.zeros(den.shape)
    np.divide(num, den, out=core, where=den > 0.0)
    if spec.pointwise_family == "saturating-quadratic":
        core = core + eps_star_values(spec, gamma) * u * u
    return core


def _G1(spec: NemytskySpec, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    eta = spec.base_G.eta
    val = eta - eval_G(spec.base_G, np.clip(eta - u, 0.0, eta))
    if spec.integrand_family == "scaled-reflected":
        return damping_values(spec, x) * val
    return np.ones_like(x) * val  # broadcast against x; the plain form ignores it


def eval_G0(spec: NemytskySpec, gamma, u):
    """Pointwise term G0 at mass defect gamma; zero at u = 0 by construction."""
    core = _G0(spec, np.asarray(gamma, dtype=float), _check_u(u, spec.base_G.eta))
    return core if core.ndim else core[()]


def eval_G1(spec: NemytskySpec, x, u):
    """Integrand term G1(x, u); bounded by the reflected envelope eta - G(eta - u)."""
    return _G1(spec, np.asarray(x, dtype=float), _check_u(u, spec.base_G.eta))


@dataclass(frozen=True)
class NemytskyConditionReport:
    """The range of gamma: conditions 1)-4) need only 0 <= gamma <= 1.  No
    run makes one, as ``kernels.discretise`` proves the range of its gamma."""

    gamma_min: float
    gamma_max: float

    @property
    def passed(self) -> bool:
        return bool(0.0 <= self.gamma_min and self.gamma_max <= 1.0)   # NaN fails


def check_nemytsky_conditions(gamma: np.ndarray) -> NemytskyConditionReport:
    """Check 0 <= gamma <= 1 at every node in O(N), without raising; a NaN
    fails it.  Conditions 1)-4) then hold for every spec that
    ``NemytskySpec`` accepts (module docstring).  No run calls it: the gamma
    of ``kernels.discretise`` lies in [0, 1] by its mass cap, so this checks
    a gamma that a caller builds some other way.
    """
    gamma = np.asarray(gamma, dtype=float)
    return NemytskyConditionReport(gamma_min=float(gamma.min()),
                                   gamma_max=float(gamma.max()))


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
    converged: bool


def solve_nemytsky(spec: NemytskySpec, fstar, tol: float = 1e-10,
                   max_iter: int = 500, *, operator: OperatorMatrix) -> NemytskyReport:
    """Iterate Phi_{n+1} = G0(x, Phi_n) + A G1(t, Phi_n) from Phi_0 = xi * gamma.

    ``fstar`` must be a converged ceiling-iteration profile for the same
    nonlinearity, solved with ``operator``, whose grid gives the nodes;
    ``fstar`` provides the upper envelope.  Pointwise increase and the
    envelope are asserted at every step by ``picard.iterate``'s one guard.
    The final profile is checked against the two-sided sandwich at 1e-10.
    Hitting ``max_iter`` returns the partial report, ``converged`` false.
    """
    fstar = np.asarray(fstar, dtype=float)
    nodes = operator.grid.nodes
    if fstar.shape != nodes.shape:
        raise ValueError("fstar must hold one value per grid node")
    eta = spec.base_G.eta
    gamma = operator.gamma
    lower = spec.xi * gamma
    upper = eta - fstar

    def step(cur: np.ndarray) -> np.ndarray:
        # no range check: picard.iterate's guard holds cur in [xi gamma,
        # eta - f_star], inside [0, eta], as each step's output is >= 0 and the
        # upper envelope aborts past 1e-9; the integral term is closed past
        # x_max with the last node's integrand value, as the operator's is
        g1 = _G1(spec, nodes, cur)
        return _G0(spec, gamma, cur) + operator @ g1 + g1[-1] * operator.tail_mass

    phi, sup_diffs, increase_ok, envelope_ok, converged = iterate(
        step, lower, direction=1, tol=tol, max_iter=max_iter, upper=upper)
    residual_inf = float(np.abs(phi - step(phi)).max())
    sandwich_ok = bool((phi - lower).min() >= -1e-10 and (upper - phi).min() >= -1e-10)
    return NemytskyReport(
        iterations=len(sup_diffs),
        sup_diffs=sup_diffs,
        profile=phi,
        increase_ok=increase_ok,
        envelope_ok=envelope_ok,
        sandwich_ok=sandwich_ok,
        residual_inf=residual_inf,
        converged=converged,
    )
