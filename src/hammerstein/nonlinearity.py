"""Concave nonlinearity catalog, with the proof of its conditions.

Every catalog G is the mean of two powers on u >= 0,
``G(u) = (u**p + u**q) / 2`` with 0 < p <= q <= 1, continuous, strictly
increasing, concave, vanishing at 0 and fixing eta = 1.  A family names
its pair (p, q), ``NonlinearitySpec.powers``:

* ``I``:   (alpha, alpha), that is ``u**alpha``
* ``II``:  (alpha_star, 1)
* ``III``: (alpha_tilde, alpha_star) with alpha_tilde < alpha_star

Its rate exponent a = (p + q) / 2 < 1, with ``G(sigma * u) >= sigma**a * G(u)``
for sigma in (0, 1), u in [0, eta], drives the solver's convergence envelope.

The existence and uniqueness theorems' five conditions on G hold for every
spec that ``NonlinearitySpec`` accepts, so a run samples none of them.  Take
eta = 1 and u in [0, 1]:

* fixed point: ``0.0 ** c == 0.0`` and ``1.0 ** c == 1.0`` for c > 0, so
  G(0) = 0 and G(1) = 1.0 exactly;
* increasing and concave: each u**c with c in (0, 1] is strictly increasing
  and concave on [0, inf), and so is a mean of such powers;
* scaling, sigma in (0, 1): sigma**p >= sigma**a and u**p >= u**q on [0, 1], so
  2 (G(sigma u) - sigma**a G(u))
  = (sigma**p - sigma**a) u**p - (sigma**a - sigma**q) u**q
  >= (sigma**p - 2 sigma**a + sigma**q) u**q
  = (sigma**(p/2) - sigma**(q/2))**2 u**q >= 0, an equality when p = q;
* inverse scaling, u, v in [0, 1], Q = G^{-1}: put w = Q(v); as G
  increases, u Q(v) >= Q(u v) is G(u w) >= u G(w), which is concavity with
  G(0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldError

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
            raise FieldError("family", f"must be one of {FAMILIES}, got {self.family!r}")
        name = "alpha" if self.family == "I" else "alpha_star"     # the exponent in (0, 1)
        value, tilde = getattr(self, name), self.alpha_tilde
        if value is None or not 0.0 < value < 1.0:
            raise FieldError(name, f"must lie in (0, 1), got {value!r}")
        if self.family == "III" and (tilde is None or not 0.0 < tilde < value):
            raise FieldError("alpha_tilde", f"must lie in (0, alpha_star) = (0, {value}), "
                                            f"got {tilde!r}")

    @property
    def eta(self) -> float:
        """The positive fixed point G(eta) = eta: 1.0 exactly, as ``1.0 ** c == 1.0``."""
        return 1.0

    @property
    def powers(self) -> tuple[float, float]:
        """The pair (p, q), p <= q, with G(u) = (u**p + u**q) / 2."""
        if self.family == "I":
            return self.alpha, self.alpha
        if self.family == "II":
            return self.alpha_star, 1.0
        return self.alpha_tilde, self.alpha_star

    @property
    def rate_exponent(self) -> float:
        """Exponent a = (p + q) / 2 of the scaling bound G(sigma u) >= sigma**a G(u)."""
        p, q = self.powers
        return 0.5 * (p + q)


def eval_G(spec: NonlinearitySpec, u):
    """Evaluate G(u) = (u**p + u**q) / 2 for u >= 0 (scalars or arrays). G(0) = 0."""
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("G is only defined for nonnegative arguments")
    p, q = spec.powers
    return 0.5 * (arr ** p + arr ** q)


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
