"""Composite quadrature on a truncated half-line [0, x_max].

One fixed (non-adaptive) rule is provided: composite Gauss-Legendre panels,
whose rule on [-1, 1] :func:`gauss_legendre` computes with no LAPACK call,
so grids do not depend on the BLAS build.  Every consumer in this package
integrates against these grids, so the summation order is pinned: weights
are stored in ascending node order and :func:`integrate` accumulates in
that order, which makes results bit-identical across runs and thread counts.
A grid is its panels: :class:`HalfLineGrid` derives its nodes and weights
from ``(x_max, n_panels, points_per_panel)``, is immutable and compares by value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GAUSS = "gauss"

MAX_NEWTON_STEPS = 10
NEWTON_STEP_TOL = math.sqrt(np.finfo(float).eps) / 1000.0


def gauss_legendre(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The p-point Gauss-Legendre rule on [-1, 1], p >= 1: ascending nodes and
    weights.

    Each positive root x = cos(theta) of P_p is found by Newton's method in
    theta, started from the Chebyshev-like guess
    theta_k = pi (4k - 1) / (4p + 2) (as in Hale & Townsend, SIAM J. Sci.
    Comput. 35, 2013).  Steps shrink quadratically; once one is below
    sqrt(eps) / 1000 the root is at rounding level and the loop stops.
    P_p is evaluated from d = 1 - x = 2 sin(theta/2)^2, so theta keeps its
    relative accuracy next to x = 1, and so does the weight
    2 / ((1 - x^2) P_p'(x)^2) with 1 - x^2 = sin(theta)^2.  A last Newton
    step in x, on the plain recurrence, settles the node itself.  The
    negative roots are the mirror images (0 is a root for odd p), so nodes
    and weights are symmetric bit for bit; the weights are scaled to sum to
    2.  Plain elementwise arithmetic throughout: no LAPACK call.
    """
    theta = math.pi * (4.0 * np.arange(p // 2, 0, -1) - 1.0) / (4.0 * p + 2.0)
    for _ in range(MAX_NEWTON_STEPS):
        x, s = np.cos(theta), np.sin(theta)
        pp, pm = _legendre_near_one(p, 2.0 * np.sin(0.5 * theta) ** 2)
        # d/dtheta P_p(cos theta) = -p (P_{p-1} - x P_p) / sin(theta)
        step = -pp * s / (p * (pm - x * pp))
        theta = theta - step
        if np.all(np.abs(step) <= NEWTON_STEP_TOL):
            break
    x, s2, d = np.cos(theta), np.sin(theta) ** 2, 2.0 * np.sin(0.5 * theta) ** 2
    if p % 2:       # the root x = 0
        x, s2, d = np.append(0.0, x), np.append(1.0, s2), np.append(1.0, d)
    pp, pm = _legendre_near_one(p, d)
    w = 2.0 * s2 / (p * (pm - x * pp)) ** 2         # P_p' = p (P_{p-1} - x P_p) / s2
    pp, pm = _legendre(p, x)
    x = x - pp * s2 / (p * (pm - x * pp))
    mirror = slice(None, 0, -1) if p % 2 else slice(None, None, -1)
    nodes = np.concatenate([-x[mirror], x])
    weights = np.concatenate([w[mirror], w])
    return nodes, weights * (2.0 / math.fsum(weights))


def _legendre(p: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_p(x) and P_{p-1}(x) by (n + 1) P_{n+1} = (2n + 1) x P_n - n P_{n-1}."""
    prev, cur = np.ones_like(x), x
    for n in range(1, p):
        prev, cur = cur, ((2 * n + 1) * x * cur - n * prev) / (n + 1)
    return cur, prev


def _legendre_near_one(p: int, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_p(1 - d) and P_{p-1}(1 - d), carried through the differences
    D_n = P_n - P_{n-1}, (n + 1) D_{n+1} = n D_n - (2n + 1) d P_n, which stay
    accurate where P_n(1 - d) is close to P_{n-1}(1 - d) (Reinsch)."""
    prev, cur, diff = np.ones_like(d), 1.0 - d, -d
    for n in range(1, p):
        diff = (n * diff - (2 * n + 1) * d * cur) / (n + 1)
        prev, cur = cur, cur + diff
    return cur, prev


@dataclass(frozen=True)
class HalfLineGrid:
    """Composite Gauss-Legendre on [0, x_max]: ``n_panels`` equal panels of
    width ``h = x_max / n_panels``, ``points_per_panel`` nodes each, exact for
    polynomials of degree ``2 * points_per_panel - 1`` on each panel.

    A grid is its panels: the three fields fix it, so grids compare and hash
    by value.  It is immutable; ``h`` and the read-only ``nodes`` (ascending,
    node ``P p + k`` at ``h P + nodes[k]``) and positive ``weights`` derive
    from the fields.  ValueError on an ``x_max`` that is not positive and
    finite, on ``n_panels`` or ``points_per_panel`` below 1, on more nodes
    than a float array holds and on an ``h`` that is not a positive normal float.
    """

    x_max: float
    n_panels: int
    points_per_panel: int

    def __post_init__(self) -> None:
        x_max, n_panels, p = self.x_max, self.n_panels, self.points_per_panel
        if not (isinstance(x_max, (int, float)) and math.isfinite(x_max) and x_max > 0):
            raise ValueError(f"x_max must be a positive finite number, got {x_max!r}")
        if not (isinstance(n_panels, (int, np.integer)) and n_panels >= 1):
            raise ValueError(f"n_panels must be a positive integer, got {n_panels!r}")
        if not (isinstance(p, (int, np.integer)) and p >= 1):
            raise ValueError(f"points_per_panel must be a positive integer, got {p!r}")
        x_max, n_panels, p = float(x_max), int(n_panels), int(p)
        if n_panels * p > np.iinfo(np.intp).max // np.dtype(float).itemsize:
            raise ValueError(f"{n_panels} panels of {p} points: too many nodes for a float array")
        h = x_max / n_panels
        if not h >= np.finfo(float).tiny:
            raise ValueError(f"panel width x_max / n_panels = {h!r} is not a positive normal float")
        xi, wi = gauss_legendre(p)
        starts = h * np.arange(n_panels)
        nodes = (starts[:, None] + 0.5 * h * (xi[None, :] + 1.0)).ravel()
        weights = np.tile(0.5 * h * wi, n_panels)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        for name, value in (("x_max", x_max), ("n_panels", n_panels), ("points_per_panel", p),
                            ("h", h), ("nodes", nodes), ("weights", weights)):
            object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        return int(self.nodes.size)


def build_grid(x_max: float, n_panels: int, rule: str = GAUSS,
               points_per_panel: int = 4) -> HalfLineGrid:
    """The :class:`HalfLineGrid` of these panels.  ``rule`` must be ``"gauss"``,
    the one rule, which configs name; ValueError on any other, or as the grid
    raises it."""
    if rule != GAUSS:
        raise ValueError(f"rule must be {GAUSS!r}, got {rule!r}")
    return HalfLineGrid(x_max, n_panels, points_per_panel)


def integrate(grid: HalfLineGrid, samples) -> float:
    """Integrate sampled values against the grid weights.

    ``samples`` must hold one value per node, in node order.  The weighted
    terms are accumulated with :func:`math.fsum` in ascending node order, so
    the result is exact to the final rounding and independent of threading.
    """
    s = np.asarray(samples, dtype=float)
    if s.shape != grid.nodes.shape:
        raise ValueError(
            f"samples length {s.shape} does not match node count {grid.nodes.shape}")
    return math.fsum(grid.weights * s)


def refine(grid: HalfLineGrid) -> HalfLineGrid:
    """Return the same grid with the panel count doubled."""
    return HalfLineGrid(grid.x_max, 2 * grid.n_panels, grid.points_per_panel)
