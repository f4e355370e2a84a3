"""Concave nonlinearity catalog, its inverse, and lattice certification.

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

The inverse Q = G^{-1} is closed-form for family I and, for the mean
families, monotone Newton on the convex log G(e**z) in z = log u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, NumericalBreakdownError

FAMILIES = ("I", "II", "III")


def _g_raw(family: str, alpha, alpha_star, alpha_tilde, u):
    if family == "I":
        return u ** alpha
    if family == "II":
        return 0.5 * (u ** alpha_star + u)
    return 0.5 * (u ** alpha_tilde + u ** alpha_star)


def find_eta(family: str, alpha: float | None = None, alpha_star: float | None = None,
             alpha_tilde: float | None = None) -> float:
    """Unique positive fixed point of the nonlinearity.

    Checks u = 1 first (exact for the whole catalog), otherwise bisects
    G(u) - u on [1e-8, 10] down to an interval of 1e-14.  A missing sign
    change signals a G that violates the shape conditions.
    """
    def g(u):
        return float(_g_raw(family, alpha, alpha_star, alpha_tilde, u))

    if g(1.0) == 1.0:
        return 1.0
    lo, hi = 1e-8, 10.0
    flo, fhi = g(lo) - lo, g(hi) - hi
    if not (flo > 0.0 > fhi):
        raise InvalidSpecError(
            f"no sign change of G(u) - u on [{lo}, {hi}]; "
            "G does not look increasing-concave with a positive fixed point")
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if g(mid) - mid > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class NonlinearitySpec:
    """One catalog nonlinearity; ``eta`` is validated (or found) at construction."""

    family: str
    alpha: float | None = None
    alpha_star: float | None = None
    alpha_tilde: float | None = None
    eta: float | None = None

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
        if self.eta is None:
            object.__setattr__(
                self, "eta",
                find_eta(self.family, self.alpha, self.alpha_star, self.alpha_tilde))
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta!r}")
        if abs(float(eval_G(self, self.eta)) - self.eta) > 1e-12:
            raise InvalidSpecError(f"eta = {self.eta!r} is not a fixed point of G")

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
    return _g_raw(spec.family, spec.alpha, spec.alpha_star, spec.alpha_tilde, arr)


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
    """Lattice certification of the nonlinearity's shape and scaling bounds."""

    increasing_ok: bool
    concave_ok: bool
    fixed_point_ok: bool
    scaling_ok: bool             # G(sigma u) >= sigma**a G(u) on the lattice
    scaling_violation: float
    inverse_scaling_ok: bool     # u Q(v) >= Q(u v) on the lattice
    inverse_scaling_violation: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.increasing_ok and self.concave_ok and self.fixed_point_ok
                    and self.scaling_ok and self.inverse_scaling_ok)


def check_G_conditions(spec: NonlinearitySpec, n_u: int = 200, n_sigma: int = 200,
                       tol: float = 1e-12) -> GConditionReport:
    """Certify monotonicity, concavity, the fixed point, and both scaling bounds.

    Sampling lattices: u on [0, eta] with ``n_u`` points, sigma strictly
    inside (0, 1) with ``n_sigma`` points; the inverse bound u Q(v) >= Q(u v)
    is checked on a [0, 1] x [0, eta] lattice of the same sizes.
    """
    if n_u < 3 or n_sigma < 3:
        raise ValueError("n_u and n_sigma must be at least 3")
    eta = spec.eta

    u = np.linspace(0.0, eta, n_u)
    g = eval_G(spec, u)
    increasing_ok = bool(np.all(np.diff(g) > 0.0))
    second = g[2:] - 2.0 * g[1:-1] + g[:-2]
    concave_ok = bool(second.max() <= tol)
    fixed_point_ok = bool(g[0] == 0.0 and abs(g[-1] - eta) <= tol)

    sigma = np.arange(1, n_sigma + 1, dtype=float) / (n_sigma + 1)
    a = spec.rate_exponent
    lhs = eval_G(spec, sigma[:, None] * u[None, :])
    rhs = sigma[:, None] ** a * g[None, :]
    scaling_violation = float((rhs - lhs).max())

    uu = np.linspace(0.0, 1.0, n_sigma)
    q = eval_Q(spec, u)
    ray_lhs = uu[:, None] * q[None, :]
    # eval_Q is elementwise, so it runs once per distinct product (12623 of
    # 40000 on the default lattice) and is scattered back, bit for bit
    products, where = np.unique(uu[:, None] * u[None, :], return_inverse=True)
    ray_rhs = eval_Q(spec, products)[where.reshape(ray_lhs.shape)]
    inverse_violation = float((ray_rhs - ray_lhs).max())

    return GConditionReport(
        increasing_ok=increasing_ok,
        concave_ok=concave_ok,
        fixed_point_ok=fixed_point_ok,
        scaling_ok=scaling_violation <= tol,
        scaling_violation=scaling_violation,
        inverse_scaling_ok=inverse_violation <= tol,
        inverse_scaling_violation=inverse_violation,
        tol=float(tol),
    )


def power_linear_scaling_ratio(sigma, alpha_star: float):
    """(sigma**alpha_star - sigma**a) / (sigma**a - sigma) with a = (1 + alpha_star) / 2.

    A value of at least 1 throughout (0, 1) is what certifies the scaling
    bound for the power-plus-linear family with its midpoint exponent.
    """
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0.0) or np.any(sigma >= 1.0):
        raise ValueError("sigma must lie strictly inside (0, 1)")
    a = 0.5 * (1.0 + alpha_star)
    return (sigma ** alpha_star - sigma ** a) / (sigma ** a - sigma)
