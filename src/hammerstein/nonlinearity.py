"""Concave nonlinearity catalog, with the proof of its conditions.

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
* inverse scaling, u, v in [0, 1], Q = G^{-1}: put w = Q(v); as G
  increases, u Q(v) >= Q(u v) is G(u w) >= u G(w), which is concavity with
  G(0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class GConditionReport:
    """The nonlinearity's conditions, proven for every accepted spec."""

    @property
    def passed(self) -> bool:
        return True


def check_G_conditions(spec: NonlinearitySpec) -> GConditionReport:
    """Check nothing: the five conditions on G hold for every spec that
    ``NonlinearitySpec`` accepts (module docstring), so ``passed`` is always
    true.  The wrapper stays for the benchmark's callers; ROADMAP item 13
    removes it with the other benchmark-pinned wrappers.
    """
    return GConditionReport()
