"""Post-hoc certification of the solver's analytic bounds.

Each certificate computes both sides of an inequality independently of the
solve path and reports whether the bound holds:

* excess integral: int (G(f*) - f*) dx is capped by eta times the kernel's
  mass-defect constant (needs a symmetric kernel);
* tail integral: int_r^inf (eta - f*) dx is capped by
  (eta - eps) eta / (G(eps) - eps) times the same constant, with r the first
  node past which the profile stays above eta / 2 and eps its minimum there;
* Jensen margin: row-wise convexity of the inverse nonlinearity under the
  operator's positive weights;
* asymptote: the profile's gap to eta at the last node;
* uniqueness probe: perturbed restarts of the iteration on the solve's own
  operator must all return to the same profile (a heuristic check -- the
  underlying uniqueness argument is non-constructive).  The probe evaluates
  no kernel; convergence under grid refinement is a separate question.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisNotMetError
from .kernels import ConditionReport
from .nonlinearity import NonlinearitySpec, eval_G, eval_Q
from .picard import OperatorMatrix, fixed_point_iterate
from .quadrature import HalfLineGrid, integrate


@dataclass(frozen=True)
class ExcessIntegralCertificate:
    lhs: float
    rhs: float
    passed: bool


def excess_integral_certificate(fstar, report: ConditionReport, G: NonlinearitySpec,
                                grid: HalfLineGrid, tol: float = 1e-8,
                                symmetry_tol: float = 1e-12) -> ExcessIntegralCertificate:
    """Certify int (G(f*) - f*) <= eta * mass-defect constant.

    The bound only holds for symmetric kernels, so a report with probe
    symmetry residual above ``symmetry_tol`` is refused.
    """
    if report.symmetry_residual > symmetry_tol:
        raise HypothesisNotMetError(
            f"kernel symmetry residual {report.symmetry_residual:.3e} exceeds "
            f"{symmetry_tol:.3e}; the bound needs a symmetric kernel")
    fstar = np.asarray(fstar, dtype=float)
    lhs = integrate(grid, eval_G(G, fstar) - fstar)
    rhs = G.eta * report.mass_defect_constant
    return ExcessIntegralCertificate(lhs=lhs, rhs=rhs, passed=bool(lhs <= rhs + tol))


@dataclass(frozen=True)
class TailIntegralCertificate:
    lhs: float
    rhs: float
    r: float
    epsilon: float
    passed: bool | None
    degenerate: bool            # eps within 1e-6 of eta: rhs not computed


def tail_integral_certificate(fstar, grid: HalfLineGrid, G: NonlinearitySpec,
                              report: ConditionReport,
                              tol: float = 1e-8) -> TailIntegralCertificate:
    """Certify int_r^{x_max} (eta - f*) <= (eta - eps) eta / (G(eps) - eps) * constant."""
    fstar = np.asarray(fstar, dtype=float)
    eta = G.eta
    if fstar.min() <= 0.0:
        raise HypothesisNotMetError("profile must be strictly positive")
    above = fstar >= 0.5 * eta
    suffix_all = np.logical_and.accumulate(above[::-1])[::-1]
    if not suffix_all.any():
        raise HypothesisNotMetError(
            "profile never stays above eta / 2; pathological run")
    i0 = int(np.argmax(suffix_all))
    r = float(grid.nodes[i0])
    eps = float(fstar[i0:].min())
    lhs = math.fsum(grid.weights[i0:] * (eta - fstar[i0:]))
    if eta - eps <= 1e-6:
        # the slope quotient degenerates to 0/0; flag instead of computing
        return TailIntegralCertificate(lhs=lhs, rhs=math.nan, r=r, epsilon=eps,
                                       passed=None, degenerate=True)
    rhs = ((eta - eps) * eta / (float(eval_G(G, eps)) - eps)) * report.mass_defect_constant
    return TailIntegralCertificate(lhs=lhs, rhs=rhs, r=r, epsilon=eps,
                                   passed=bool(lhs <= rhs + tol), degenerate=False)


def jensen_certificate(A: OperatorMatrix, G: NonlinearitySpec, g) -> float:
    """Minimum over rows of  sum_j A_ij Q(g_j) - (row weight) * Q(weighted mean of g).

    Nonnegative for the convex inverse nonlinearity under positive weights;
    returns the worst margin.  The statement is about the matrix weights
    alone, so the rows are normalised by their own sums (no tail term).
    """
    g = np.asarray(g, dtype=float)
    eta = G.eta
    if g.min() <= 0.0 or g.max() >= eta:
        raise ValueError(f"g must lie strictly inside (0, {eta})")
    weight = A @ np.ones(A.size)
    lhs = A @ eval_Q(G, g)
    mean = (A @ g) / weight
    rhs = weight * eval_Q(G, np.clip(mean, 0.0, eta))
    return float((lhs - rhs).min())


@dataclass(frozen=True)
class AsymptoteCertificate:
    gap: float                  # eta - f*(x_max)
    bound: float
    passed: bool


def asymptote_certificate(fstar, gamma, eta: float) -> AsymptoteCertificate:
    """Check eta - f*(x_max) <= max(5 * eta * gamma(x_max), 1e-6)."""
    fstar = np.asarray(fstar, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    gap = float(eta - fstar[-1])
    bound = max(5.0 * eta * float(gamma[-1]), 1e-6)
    return AsymptoteCertificate(gap=gap, bound=bound, passed=bool(gap <= bound))


def _weight_asymmetry(A: OperatorMatrix) -> float:
    """Relative gap |u^T W A v - v^T W A u| / max of the two, W = diag(weights).

    Zero up to rounding when w_i A[i, j] == w_j A[j, i]; two fixed positive
    probe vectors read it through two operator products, with no N x N
    temporary.  Scaling one row of A moves it far past 1e-9.
    """
    u, v = np.random.default_rng(0).random((2, A.size))
    w = A.grid.weights
    uwav = math.fsum(u * w * (A @ v))
    vwau = math.fsum(v * w * (A @ u))
    return abs(uwav - vwau) / max(abs(uwav), abs(vwau))


@dataclass(frozen=True)
class UniquenessProbeReport:
    """Sup-norm deviation of each perturbed restart from f*; ``max_dev``, the
    largest finite one, gates the verdict."""

    max_dev: float
    deviations: list[float]
    inconclusive: bool
    passed: bool


def uniqueness_probe(A: OperatorMatrix, G: NonlinearitySpec, fstar,
                     perturbation_scale: float = 0.1, trials: int = 5, *,
                     seed: int = 0, tol: float = 1e-10,
                     max_iter: int = 2000) -> UniquenessProbeReport:
    """Re-run the iteration from perturbed starts; all must return to f*.

    Each trial restarts from clip(f* + positive bump, 0, eta) on the
    operator's own grid with a per-trial generator spawned from ``seed``; the
    probe passes iff every deviation stays within 10 * tol.  Only the
    operator is applied; no kernel is evaluated.  A restart that fails to
    converge marks the probe inconclusive rather than failing it.
    """
    fstar = np.asarray(fstar, dtype=float)
    residual = _weight_asymmetry(A)
    if residual > 1e-9:
        raise HypothesisNotMetError(
            f"operator is not weight-symmetric (relative residual {residual:.3e}); "
            "the uniqueness argument needs a symmetric kernel")

    eta = G.eta
    deviations: list[float] = []
    inconclusive = False
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        start = np.clip(fstar + perturbation_scale * rng.random(fstar.size), 0.0, eta)
        profile, _, ok = fixed_point_iterate(A, G, start, tol, max_iter)
        if not ok:
            inconclusive = True
            deviations.append(math.nan)
            continue
        deviations.append(float(np.abs(profile - fstar).max()))

    finite = [d for d in deviations if not math.isnan(d)]
    max_dev = max(finite) if finite else math.nan
    passed = bool(not inconclusive and finite and max_dev <= 10.0 * tol)
    return UniquenessProbeReport(max_dev=max_dev, deviations=deviations,
                                 inconclusive=inconclusive, passed=passed)


@dataclass
class CertificateBundle:
    """All enabled certificates for one run; members are None when disabled."""

    excess: ExcessIntegralCertificate | None = None
    tail: TailIntegralCertificate | None = None
    jensen_min_margin: float | None = None
    jensen_passed: bool | None = None
    asymptote: AsymptoteCertificate | None = None
    uniqueness: UniquenessProbeReport | None = None

    @property
    def all_passed(self) -> bool:
        verdicts = []
        if self.excess is not None:
            verdicts.append(self.excess.passed)
        if self.tail is not None and self.tail.passed is not None:
            verdicts.append(self.tail.passed)
        if self.jensen_passed is not None:
            verdicts.append(self.jensen_passed)
        if self.asymptote is not None:
            verdicts.append(self.asymptote.passed)
        if self.uniqueness is not None:
            verdicts.append(self.uniqueness.passed)
        return all(verdicts)
