"""Core solver: Nystrom operator assembly and the monotone ceiling iteration.

The integral equation f(x) = int_0^inf K(x, t) G(f(t)) dt is discretised as
f_i = sum_j w_j K(x_i, t_j) G(f_j) and iterated from the constant ceiling
f_0 = eta.  With a the nonlinearity's rate exponent and sigma0 the pointwise
minimum of f_2 / f_1, the iterates obey the squeeze

    sigma0**(a**(n-1)) * f_n <= f_{n+1} <= f_n,   n >= 1,

so, as 1 - s**c <= c log(1/s) and f_n <= eta, the geometric envelope

    |f_n - f_{n+1}| <= eta * a**(n-1) * log(1 / sigma0),   n >= 1.

The upper half, pointwise decrease, is asserted at every step by
:func:`iterate`, the package's one monotone loop, through its one per-step
guard :func:`_within`, which also bounds the combined solve's iterates and
every application's domain.  The lower half holds for every accepted spec,
so no run measures it.  With
T(f) = diag(row_scale) (W + diag(d)) G(f) + G(f_N) tail:

* Start: sigma0 <= min f_2 / f_1 (:func:`estimate_sigma0`'s clamp lowers a
  quotient above 1 and raises one only where f_2 underflows), so
  sigma0 f_1 <= f_2 up to the rounding of one quotient and one product.
* T preserves order and T(sigma u) >= sigma**a T(u), sigma in (0, 1]: W > 0
  (``kernels`` module docstring), W_ii + d_i > 0 (``kernels.discretise``
  refuses an operator otherwise), row_scale > 0 and tail >= 0 weigh G's
  values, and G increases with G(sigma u) >= sigma**a G(u) (``nonlinearity``
  module docstring).
* Induction: sigma0**(a**(n-1)) f_n <= f_{n+1} gives
  f_{n+2} = T(f_{n+1}) >= T(sigma0**(a**(n-1)) f_n) >= sigma0**(a**n) f_{n+1}.

The operator, ``kernels.OperatorMatrix`` from ``kernels.discretise``, is
never held as an N x N matrix: the weighted kernel is the block-Toeplitz
plus block-Hankel ``kernels.StructuredKernel``, applied with real FFTs in
O(N log N) time and O(N) memory; the cusp correction and the over-cap
rescale stay diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdownError, SpecRejectedError
from .kernels import (POSITIVITY_FLOOR, ConditionReport, KernelSpec,
                      OperatorMatrix, apply_kernel, discretise, tail_row_mass)
from .nonlinearity import NonlinearitySpec, eval_G
from .quadrature import HalfLineGrid


def assemble_operator(spec: KernelSpec, grid: HalfLineGrid, *,
                      report: ConditionReport | None = None) -> OperatorMatrix:
    """The operator of :func:`discretise`, once the kernel passes its checks.

    A failing ``report`` rejects the spec before the kernel is evaluated.
    The checks rerun on the kernel evaluation the operator is built from; a
    failure there rejects too.
    """
    if report is None or report.passed:
        disc = discretise(spec, grid)
        if disc.operator is not None:
            return disc.operator
        report = disc.report
    raise SpecRejectedError("kernel spec failed its condition checks; not assembling", report)


def apply_hammerstein(A: OperatorMatrix, G: NonlinearitySpec, f) -> np.ndarray:
    """One application f -> A G(f) + G(f[last]) * tail mass, for f in [0, eta].

    The tail term closes the integral past x_max with the last node's value
    (profiles are flat to the kernel-tail scale out there), so the ceiling
    maps to eta times the full row mass and zero stays a fixed point; the
    tail mass is >= 0, so the squeeze proof (module docstring) covers it.
    The product is one structured FFT application (``A @ g``); its result
    does not depend on the BLAS thread count.
    """
    f = np.asarray(f, dtype=float)
    eta = G.eta
    _within(max(-float(f.min()), float(f.max()) - eta), f"iterate leaves [0, {eta}]")
    g = eval_G(G, np.clip(f, 0.0, eta))
    return A @ g + g[-1] * A.tail_mass


@dataclass
class SolveReport:
    """Everything the ceiling iteration produced.

    ``sup_diffs[k]`` is the sup norm of iterate k minus iterate k+1 (the
    start step is k = 0).  ``monotone_ok`` is the upper half of the squeeze
    f_{n+1} <= f_n at every step taken, up to :func:`_within`; the lower
    half is proven (module docstring).  No iterate history is kept.
    """

    iterations: int
    sup_diffs: list[float]
    sigma0: float
    rate_bound_ok: bool
    monotone_ok: bool
    residual_inf: float
    profile: np.ndarray
    eta: float
    converged: bool


def estimate_sigma0(f1, f2) -> float:
    """Pointwise minimum of f2 / f1 over the grid, clamped into (0, 1].

    f1 and f2 are the first two iterates; f1 must be strictly positive.
    """
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    if f1.min() <= 0.0:
        raise NumericalBreakdownError("first iterate is not strictly positive")
    ratio = float((f2 / f1).min())
    return min(max(ratio, POSITIVITY_FLOOR), 1.0)


def rate_envelope(sigma0: float, eta: float, rate_exponent: float, steps: int) -> list[float]:
    """Envelope values eta * a**(n-1) * log(1/sigma0) for n = 1 .. steps-1, the
    bounds on the sup differences of ``steps`` iterations past the start step."""
    if sigma0 >= 1.0:
        return [0.0] * max(steps - 1, 0)
    return [eta * rate_exponent ** (n - 1) * math.log(1.0 / sigma0)
            for n in range(1, steps)]


def verify_rate_bound(report: SolveReport, rate_exponent: float) -> bool:
    """True iff every recorded difference past the start step sits under the envelope.

    The start step (ceiling to first iterate) is not covered by the envelope
    and is excluded.  The comparison allows 1e-12 of additive slack.
    """
    if not report.converged:
        raise ValueError("rate bound is only defined for converged reports")
    diffs = report.sup_diffs[1:]
    if report.sigma0 >= 1.0 and any(d > 1e-12 for d in diffs):
        raise NumericalBreakdownError(
            "unit ratio floor with nonzero differences past the start step")
    envelope = rate_envelope(report.sigma0, report.eta, rate_exponent, len(report.sup_diffs))
    return all(d <= env + 1e-12 for d, env in zip(diffs, envelope))


def _within(excess: float, what: str) -> bool:
    """The per-step guard: True iff ``excess`` is rounding, at most 1e-12;
    past 1e-9 it raises, naming ``what`` and the size of the breach."""
    if excess > 1e-9:
        raise NumericalBreakdownError(f"{what} by {excess:.3e}")
    return excess <= 1e-12


def iterate(step, start: np.ndarray, *, direction: int, tol: float, max_iter: int,
            upper: np.ndarray | None = None
            ) -> tuple[np.ndarray, list[float], bool, bool, bool]:
    """Apply ``step`` from ``start`` until a sup-norm difference reaches ``tol`` > 0.

    Direction -1 (+1) asserts pointwise decrease (increase), a theorem, not a
    heuristic; direction 0 checks nothing.  An ``upper`` envelope is asserted
    first: every iterate stays under it.  Each check goes through
    :func:`_within`, which clears the check's flag or raises.
    Returns (last iterate, sup differences, monotone_ok, envelope_ok,
    converged).
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    crossed = "iterate crossed the upper envelope"
    moved = f"iterate {'increased' if direction < 0 else 'decreased'} pointwise"
    cur = start
    sup_diffs: list[float] = []
    monotone_ok = envelope_ok = True
    for _ in range(max_iter):
        nxt = step(cur)
        if upper is not None:
            envelope_ok &= _within(float((nxt - upper).max()), crossed)
        diff = nxt - cur
        if direction:
            monotone_ok &= _within(-float((direction * diff).min()), moved)
        sup = float(np.abs(diff).max())
        sup_diffs.append(sup)
        cur = nxt
        if sup <= tol:
            return cur, sup_diffs, monotone_ok, envelope_ok, True
    return cur, sup_diffs, monotone_ok, envelope_ok, False


def solve_picard(A: OperatorMatrix, G: NonlinearitySpec, tol: float = 1e-10,
                 max_iter: int = 500) -> SolveReport:
    """Iterate from the ceiling f_0 = eta until successive sup differences reach tol.

    Monotone decrease is asserted at every step (see :func:`iterate`), and
    the first two iterates fix sigma0, so the working memory is a few
    iterates whatever the iteration count.  The report carries the measured
    sigma0, the fixed-point residual from one extra operator application,
    and the envelope verdict.  Hitting ``max_iter`` raises nothing: it
    returns the partial report, ``converged`` and ``rate_bound_ok`` false.
    """
    eta = G.eta
    j, sigma0 = 0, 1.0

    def step(f: np.ndarray) -> np.ndarray:
        # f is f_j: f_1 and f_2 fix sigma0
        nonlocal j, sigma0
        nxt = apply_hammerstein(A, G, f)
        if j == 1:
            sigma0 = estimate_sigma0(f, nxt)
        j += 1
        return nxt

    f, sup_diffs, monotone_ok, _, converged = iterate(
        step, np.full(A.size, eta), direction=-1, tol=tol, max_iter=max_iter)
    residual_inf = float(np.abs(f - apply_hammerstein(A, G, f)).max())
    report = SolveReport(
        iterations=len(sup_diffs),
        sup_diffs=sup_diffs,
        sigma0=sigma0,
        rate_bound_ok=False,
        monotone_ok=monotone_ok,
        residual_inf=residual_inf,
        profile=f,
        eta=eta,
        converged=converged,
    )
    report.rate_bound_ok = converged and verify_rate_bound(report, G.rate_exponent)
    return report


def fixed_point_iterate(A: OperatorMatrix, G: NonlinearitySpec, f0, tol: float,
                        max_iter: int) -> tuple[np.ndarray, int, bool]:
    """Plain fixed-point iteration from an arbitrary admissible start.

    Used by restart probes; monotonicity is not expected and not enforced.
    Returns (profile, iterations, converged).
    """
    start = np.clip(np.asarray(f0, dtype=float), 0.0, G.eta)
    f, sup_diffs, _, _, converged = iterate(
        lambda g: apply_hammerstein(A, G, g), start, direction=0, tol=tol,
        max_iter=max_iter)
    return f, len(sup_diffs), converged


def evaluate_profile(spec: KernelSpec, grid: HalfLineGrid, G: NonlinearitySpec,
                     profile, x) -> np.ndarray:
    """Natural Nystrom extension of a converged profile to arbitrary points.

    f(x) = sum_j w_j K(x, t_j) G(f_j) plus the tail-closure term evaluates the
    solution anywhere, which is how profiles from different grids are compared.
    The sum gets no split panel, so for an ``exp-mixture`` base kernel,
    whose K0(x - t) has a cusp at t = x, the extension off the grid is only
    second order in the panel width.
    """
    g = eval_G(G, np.clip(np.asarray(profile, dtype=float), 0.0, G.eta))
    return (apply_kernel(spec, x, grid.nodes, grid.weights * g)
            + g[-1] * tail_row_mass(spec, grid, x))
