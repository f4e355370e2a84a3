"""Solver for the combined pointwise-plus-integral equation

    Phi(x) = G0(x, Phi(x)) + int_0^inf K(x, t) G1(t, Phi(t)) dt,

iterated upward from the floor Phi_0 = xi * gamma, gamma being the mass
defect of ``kernels.discretise``.  The iterates increase pointwise and stay
under eta - f_star, where f_star is the converged profile of the pure
integral equation for the same kernel and base nonlinearity; the limit is
sandwiched as xi * gamma(x) <= Phi(x) <= eta - f_star(x) and decays to zero
at infinity.

The two terms, each one parametric formula:

* pointwise term: G0(x, u) = 2 xi gamma u / (u + xi gamma) + eps_star(x) u**2,
  eps_star = ``eps_star_fraction`` of its bound (below); 0 drops the square;
* integrand term: G1(x, u) = d(x) (eta - G(eta - u)), d the
  ``damping_profile`` in {1, 1/2, e^(-x)}; ``one`` leaves eta - G(eta - u).

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
[0, eta].  :func:`check_nemytsky_conditions` returns whether a gamma that a
caller builds some other way lies in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldError
from .kernels import OperatorMatrix
from .nonlinearity import NonlinearitySpec, eval_G
from .picard import iterate

DAMPING_PROFILES = ("one", "half", "exp-decay")


@dataclass(frozen=True)
class NemytskySpec:
    """Declarative description of one combined-equation instance."""

    base_G: NonlinearitySpec
    xi: float
    eps_star_fraction: float = 0.0
    damping_profile: str = "one"

    def __post_init__(self) -> None:
        eta, phi, d = self.base_G.eta, self.eps_star_fraction, self.damping_profile
        if not 0.0 < self.xi < 0.5 * eta:
            raise FieldError("xi", f"must lie in (0, eta/2) = (0, {0.5 * eta}), got {self.xi!r}")
        if not 0.0 <= phi <= 1.0:
            raise FieldError("eps_star_fraction", f"must lie in [0, 1], got {phi!r}")
        if d not in DAMPING_PROFILES:
            raise FieldError("damping_profile", f"must be one of {DAMPING_PROFILES}, got {d!r}")


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


def _G0(s: np.ndarray, eps_star: np.ndarray, u: np.ndarray) -> np.ndarray:
    """G0 from its factors in gamma alone: s = xi gamma and eps_star(gamma)."""
    num, den = np.broadcast_arrays(2.0 * s * u, u + s)
    core = np.zeros(den.shape)
    np.divide(num, den, out=core, where=den > 0.0)
    return core + eps_star * u * u


def _G1(G: NonlinearitySpec, damping: np.ndarray, u: np.ndarray) -> np.ndarray:
    return damping * (G.eta - eval_G(G, np.clip(G.eta - u, 0.0, G.eta)))


def check_nemytsky_conditions(gamma: np.ndarray) -> bool:
    """True iff 0 <= gamma <= 1 at every node, a NaN failing (module docstring)."""
    gamma = np.asarray(gamma, dtype=float)
    return bool(0.0 <= gamma.min() and gamma.max() <= 1.0)


@dataclass(eq=False)
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
    eps_star = eps_star_values(spec, gamma)
    damping = damping_values(spec, nodes)

    def step(cur: np.ndarray) -> np.ndarray:
        # no range check: picard.iterate's guard holds cur in [xi gamma,
        # eta - f_star], inside [0, eta], as each step's output is >= 0 and the
        # upper envelope aborts past 1e-9
        return _G0(lower, eps_star, cur) + operator @ _G1(spec.base_G, damping, cur)

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
