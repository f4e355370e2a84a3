"""Core solver: Nystrom operator assembly and the monotone ceiling iteration.

The integral equation f(x) = int_0^inf K(x, t) G(f(t)) dt is discretised as
f_i = sum_j w_j K(x_i, t_j) G(f_j) and iterated from the constant ceiling
f_0 = eta.  Iterates decrease pointwise, stay strictly positive, and the
sup-norm differences obey the geometric envelope

    |f_n - f_{n+1}| <= eta * a**(n-1) * log(1 / sigma0),   n >= 1,

where a is the nonlinearity's rate exponent and sigma0 is the pointwise
minimum of the ratio of the second to the first iterate.  Because the
discrete system inherits positivity, monotonicity, concavity and the scaling
bound verbatim, the envelope is certified with the sigma0 measured on the
grid itself.

The operator is ``kernels.OperatorMatrix`` from ``kernels.discretise``
(both re-exported here).  It is never held as an N x N matrix: the weighted
kernel is the block-Toeplitz plus block-Hankel ``kernels.StructuredKernel``,
applied with real FFTs in O(N log N) time and O(N) memory; the cusp
correction and the over-cap rescale stay diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainViolationError, InconsistentReportError,
                     NonConvergenceError, NumericalBreakdownError,
                     SpecRejectedError)
from .kernels import (POSITIVITY_FLOOR, ConditionReport, KernelSpec,
                      OperatorMatrix, apply_kernel, discretise, tail_row_mass)
from .nonlinearity import NonlinearitySpec, eval_G
from .quadrature import HalfLineGrid


def assemble_operator(spec: KernelSpec, grid: HalfLineGrid, *,
                      report: ConditionReport | None = None,
                      probe_count: int = 32, tol: float = 1e-9) -> OperatorMatrix:
    """The operator of :func:`discretise`, once the kernel passes its checks.

    A failing ``report`` rejects the spec before the kernel is evaluated, a
    passing one sets ``tol``.  The checks rerun on the kernel evaluation the
    operator is built from; a failure there rejects too.
    """
    if report is None or report.passed:
        disc = discretise(spec, grid, probe_count=probe_count,
                          tol=tol if report is None else report.tol)
        if disc.operator is not None:
            return disc.operator
        report = disc.report
    raise SpecRejectedError("kernel spec failed its condition checks; not assembling", report)


def apply_hammerstein(A: OperatorMatrix, G: NonlinearitySpec, f) -> np.ndarray:
    """One application f -> A G(f) + G(f[last]) * tail mass; f inside [0, eta] up to 1e-9.

    The tail term closes the integral past x_max with the last node's value
    (profiles are flat to the kernel-tail scale out there), so the ceiling
    maps to eta times the full row mass and zero stays a fixed point.  G is
    monotone, hence the closed map keeps the monotone and squeeze machinery
    verbatim.  The product is one structured FFT application (``A @ g``); its
    result does not depend on the BLAS thread count.
    """
    f = np.asarray(f, dtype=float)
    eta = G.eta
    if f.min() < -1e-9 or f.max() > eta + 1e-9:
        raise DomainViolationError(
            f"iterate leaves [0, {eta}]: min={f.min()!r}, max={f.max()!r}")
    g = eval_G(G, np.clip(f, 0.0, eta))
    return A @ g + g[-1] * A.tail_mass


@dataclass
class SolveReport:
    """Everything the ceiling iteration produced.

    ``sup_diffs[k]`` is the sup norm of iterate k minus iterate k+1 (the
    start step is k = 0).  ``iterates`` keeps the full history, ceiling
    included, for the squeeze and envelope checks.
    """

    iterations: int
    sup_diffs: list[float]
    sigma0: float
    rate_bound_ok: bool
    monotone_ok: bool
    residual_inf: float
    profile: np.ndarray
    eta: float
    converged: bool = True
    iterates: list[np.ndarray] = field(default_factory=list, repr=False)


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


def _rate_envelope_term(eta: float, rate_exponent: float, sigma0: float, n: int) -> float:
    return eta * rate_exponent ** (n - 1) * math.log(1.0 / sigma0)


def rate_envelope(report: SolveReport, rate_exponent: float) -> list[float]:
    """Envelope values eta * a**(n-1) * log(1/sigma0) for n = 1 .. len(sup_diffs)-1."""
    if report.sigma0 >= 1.0:
        return [0.0] * max(len(report.sup_diffs) - 1, 0)
    return [_rate_envelope_term(report.eta, rate_exponent, report.sigma0, n)
            for n in range(1, len(report.sup_diffs))]


def verify_rate_bound(report: SolveReport, rate_exponent: float) -> bool:
    """True iff every recorded difference past the start step sits under the envelope.

    The start step (ceiling to first iterate) is not covered by the envelope
    and is excluded.  The comparison allows 1e-12 of additive slack.
    """
    if not report.converged:
        raise ValueError("rate bound is only defined for converged reports")
    diffs = report.sup_diffs
    if report.sigma0 >= 1.0:
        if any(d > 1e-12 for d in diffs[1:]):
            raise InconsistentReportError(
                "unit ratio floor with nonzero differences past the start step")
        return True
    return all(
        diffs[n] <= _rate_envelope_term(report.eta, rate_exponent, report.sigma0, n) + 1e-12
        for n in range(1, len(diffs)))


def iterate(step, start: np.ndarray, *, direction: int, tol: float,
            max_iter: int) -> tuple[np.ndarray, list[float], bool, bool]:
    """Apply ``step`` from ``start`` until a sup-norm difference reaches ``tol``.

    Direction -1 (+1) asserts pointwise decrease (increase), a theorem, not a
    heuristic: drift the wrong way past 1e-12 clears ``monotone_ok``, past
    1e-9 raises.  Direction 0 checks nothing.  Returns (last iterate,
    sup differences, monotone_ok, converged).
    """
    cur = start
    sup_diffs: list[float] = []
    monotone_ok = True
    for _ in range(max_iter):
        nxt = step(cur)
        diff = nxt - cur
        if direction:
            wrong = -float((direction * diff).min())
            if wrong > 1e-9:
                moved = "increased" if direction < 0 else "decreased"
                raise NumericalBreakdownError(
                    f"iterate {moved} pointwise by {wrong:.3e}")
            if wrong > 1e-12:
                monotone_ok = False
        sup = float(np.abs(diff).max())
        sup_diffs.append(sup)
        cur = nxt
        if sup <= tol:
            return cur, sup_diffs, monotone_ok, True
    return cur, sup_diffs, monotone_ok, False


def solve_picard(A: OperatorMatrix, G: NonlinearitySpec, tol: float = 1e-10,
                 max_iter: int = 500) -> SolveReport:
    """Iterate from the ceiling f_0 = eta until successive sup differences reach tol.

    Monotone decrease is asserted at every step (see :func:`iterate`).  On
    convergence the report carries the measured sigma0, the fixed-point
    residual from one extra operator application, and the envelope verdict.
    Hitting ``max_iter`` raises with the partial report attached.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    eta = G.eta
    iterates: list[np.ndarray] = [np.full(A.size, eta)]

    def step(f: np.ndarray) -> np.ndarray:
        iterates.append(apply_hammerstein(A, G, f))
        return iterates[-1]

    f, sup_diffs, monotone_ok, converged = iterate(
        step, iterates[0], direction=-1, tol=tol, max_iter=max_iter)
    sigma0 = (estimate_sigma0(iterates[1], iterates[2])
              if len(iterates) >= 3 else 1.0)
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
        iterates=iterates,
    )
    if not converged:
        raise NonConvergenceError(
            f"no convergence to {tol} within {max_iter} iterations", report)
    report.rate_bound_ok = verify_rate_bound(report, G.rate_exponent)
    return report


def fixed_point_iterate(A: OperatorMatrix, G: NonlinearitySpec, f0, tol: float,
                        max_iter: int) -> tuple[np.ndarray, int, bool]:
    """Plain fixed-point iteration from an arbitrary admissible start.

    Used by restart probes; monotonicity is not expected and not enforced.
    Returns (profile, iterations, converged).
    """
    start = np.clip(np.asarray(f0, dtype=float), 0.0, G.eta)
    f, sup_diffs, _, converged = iterate(
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
