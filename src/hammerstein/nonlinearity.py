"""Concave nonlinearity catalog and its inverse, with the proof of its conditions.

Three families on u >= 0, each continuous, strictly increasing, concave,
vanishing at 0 and fixing eta = 1:

* ``I``:   ``u**alpha``
* ``II``:  ``(u**alpha_star + u) / 2``
* ``III``: ``(u**alpha_tilde + u**alpha_star) / 2`` with alpha_tilde < alpha_star

Each family carries a rate exponent ``a`` in (0, 1) with
``G(sigma * u) >= sigma**a * G(u)`` for sigma in (0, 1), u in [0, eta]; it is
``alpha`` for family I (an equality there), ``(1 + alpha_star) / 2`` for II
and ``(alpha_tilde + alpha_star) / 2`` for III.  That exponent drives the
geometric convergence envelope of the solver.

The existence and uniqueness theorems' five conditions on G hold for every
spec that ``NonlinearitySpec`` accepts, so a run samples none of them.  Take
eta = 1 and u in [0, 1].  Family I is u**alpha with a = alpha; write II and
III as G = (u**p + u**q) / 2 with 0 < p < q <= 1 and a = (p + q) / 2, where
II has (p, q) = (alpha_star, 1) and III has (alpha_tilde, alpha_star):

* fixed point: ``0.0 ** c == 0.0`` and ``1.0 ** c == 1.0`` for c > 0, so
  G(0) = 0 and G(1) = 1.0 exactly;
* increasing and concave: each u**c with c in (0, 1] is strictly increasing
  and concave on [0, inf), and so is a mean of such powers;
* scaling, sigma in (0, 1): family I gives equality; for the means,
  sigma**p >= sigma**a and u**p >= u**q on [0, 1], so
  2 (G(sigma u) - sigma**a G(u))
  = (sigma**p - sigma**a) u**p - (sigma**a - sigma**q) u**q
  >= (sigma**p - 2 sigma**a + sigma**q) u**q
  = (sigma**(p/2) - sigma**(q/2))**2 u**q >= 0;
* inverse scaling, u, v in [0, 1]: put w = Q(v); as G increases,
  u Q(v) >= Q(u v) is G(u w) >= u G(w), which is concavity with G(0) = 0.

The inverse Q = G^{-1} is closed-form for family I and, for the mean
families, monotone Newton on the convex log G(e**z) in z = log u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdownError

FAMILIES = ("I", "II", "III")


@dataclass(frozen=True)
class NonlinearitySpec:
    """One catalog nonlinearity, its exponents validated at construction."""

    family: str
    alpha: float | None = None
    alpha_star: float | None = None
    alpha_tilde: float | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.family == "I":
            _check_open_unit("alpha", self.alpha)
        elif self.family == "II":
            _check_open_unit("alpha_star", self.alpha_star)
        else:
            _check_open_unit("alpha_tilde", self.alpha_tilde)
            _check_open_unit("alpha_star", self.alpha_star)
            if not self.alpha_tilde < self.alpha_star:
                raise ValueError(
                    f"family III needs alpha_tilde < alpha_star, "
                    f"got {self.alpha_tilde!r} >= {self.alpha_star!r}")

    @property
    def eta(self) -> float:
        """The positive fixed point G(eta) = eta: 1 for every family, exactly,
        since each G is a mean of powers of u and ``1.0 ** x == 1.0``."""
        return 1.0

    @property
    def rate_exponent(self) -> float:
        """Exponent a of the scaling bound G(sigma u) >= sigma**a G(u)."""
        if self.family == "I":
            return self.alpha
        if self.family == "II":
            return 0.5 * (1.0 + self.alpha_star)
        return 0.5 * (self.alpha_tilde + self.alpha_star)


def _check_open_unit(name: str, value) -> None:
    if value is None or not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


def eval_G(spec: NonlinearitySpec, u):
    """Evaluate G(u) for u >= 0 (scalars or arrays). G(0) = 0."""
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("G is only defined for nonnegative arguments")
    if spec.family == "I":
        return arr ** spec.alpha
    if spec.family == "II":
        return 0.5 * (arr ** spec.alpha_star + arr)
    return 0.5 * (arr ** spec.alpha_tilde + arr ** spec.alpha_star)


def eval_Q(spec: NonlinearitySpec, v):
    """Inverse nonlinearity Q = G^{-1} on [0, eta]; increasing and convex.

    Family I inverts in closed form.  The mean families G(u) = (u**a + u**b) / 2,
    a < b <= 1, solve h(z) = log G(e**z) = log v in z = log u: h is a
    log-sum-exp of two lines, so convex and increasing, and Newton's method
    from z = log eta, at or above the root, falls monotonically onto it.  Each
    value stops at the first step that does not lower it, with z floored at
    log(1e-308), and depends on that value alone; |G(Q(v)) - v| <= 1e-13
    wherever Q(v) lies above the floor.
    """
    eta = spec.eta
    arr = np.asarray(v, dtype=float)
    if np.any(arr < -1e-12) or np.any(arr > eta + 1e-12):
        raise ValueError(f"Q is only defined on [0, {eta}]")
    arr = np.clip(arr, 0.0, eta)
    if spec.family == "I":
        return arr ** (1.0 / spec.alpha)

    work = np.atleast_1d(arr)
    out = np.empty_like(work)
    at_zero = work == 0.0
    at_eta = work == eta
    interior = ~(at_zero | at_eta)
    out[at_zero] = 0.0
    out[at_eta] = eta
    if interior.any():
        out[interior] = np.exp(_newton_log_inverse(spec, np.log(work[interior])))
    return out.reshape(arr.shape) if arr.ndim else out[0]


# Newton's passes over one eval_Q call.  The worst case measured over
# exponents in [1e-12, 1 - 1e-12] and v in [5e-324, eta) is 13 passes (11
# for exponents in [0.01, 0.99]), and 40 is three times that.  Each entry
# stops at the first step that no longer lowers it, so only a step that
# keeps lowering by rounding alone can reach the cap.
MAX_NEWTON_PASSES = 40
_LOG_Z_FLOOR = math.log(1e-308)


def _newton_log_inverse(spec: NonlinearitySpec, log_v: np.ndarray) -> np.ndarray:
    """Root z of h(z) = a z + log1p(expm1((b - a) z) / 2) = log v, per entry.

    The expm1 form keeps h accurate near z = 0, where log1p(e**((b - a) z))
    - log 2 cancels and the rounded step would keep lowering z by an ulp.
    """
    if spec.family == "II":
        a, b = spec.alpha_star, 1.0
    else:
        a, b = spec.alpha_tilde, spec.alpha_star
    gap = b - a
    z = np.full(log_v.shape, math.log(spec.eta))
    active = np.arange(z.size)
    for _ in range(MAX_NEWTON_PASSES):
        z_act = z[active]
        m = np.expm1(gap * z_act)
        h = a * z_act + np.log1p(0.5 * m)
        slope = a + gap * (1.0 + m) / (2.0 + m)
        z_new = np.maximum(z_act - (h - log_v[active]) / slope, _LOG_Z_FLOOR)
        lowered = z_new < z_act
        active = active[lowered]
        z[active] = z_new[lowered]
        if not active.size:
            return z
    raise NumericalBreakdownError(
        f"eval_Q: {active.size} of {z.size} entries did not converge "
        f"in {MAX_NEWTON_PASSES} Newton passes")


@dataclass(frozen=True)
class GConditionReport:
    """The nonlinearity's conditions, proven for every accepted spec."""

    @property
    def passed(self) -> bool:
        return True


def check_G_conditions(spec: NonlinearitySpec) -> GConditionReport:
    """Check nothing: the five conditions on G hold for every spec that
    ``NonlinearitySpec`` accepts (module docstring), so ``passed`` is always
    true.  The wrapper stays for the benchmark's callers; ROADMAP item 8
    removes it with the other benchmark-pinned wrappers.
    """
    return GConditionReport()
