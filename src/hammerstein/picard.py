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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainViolationError, InconsistentReportError,
                     NonConvergenceError, NumericalBreakdownError,
                     SpecRejectedError)
from .kernels import (POSITIVITY_FLOOR, ConditionReport, KernelSpec,
                      apply_kernel, condition_report, kernel_matrix,
                      tail_row_mass)
from .nonlinearity import NonlinearitySpec, eval_G
from .quadrature import HalfLineGrid

# The true kernel is strictly sub-stochastic (its mass defect is positive),
# but measured row masses carry ~2e-15 of quadrature and rounding noise and
# can poke above 1, which would park the discrete fixed point above eta at
# far nodes.  The closure term is capped so every full row mass stays at or
# below 1 - MASS_MARGIN; condition checks still see the raw masses.
MASS_MARGIN = 1e-14


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense Nystrom operator A[i, j] = w_j * K(x_i, t_j), all entries positive.

    The kernel itself is symmetric, so the weighted entries satisfy
    A[i, j] * w_i == A[j, i] * w_j up to rounding; the matrix is not.
    ``tail_mass`` holds the kernel mass past the truncation point per row;
    applications close the half-line integral there with the last node's
    integrand value (profiles are flat past x_max to the kernel-tail scale).
    ``row_mass`` is the full half-line row mass, equal to 1 - gamma at the
    nodes.  Its quadrature part is ``entries @ ones``: the same BLAS
    matrix-vector product that applies the operator, so the ceiling maps to
    eta times ``row_mass`` bit for bit.
    """

    entries: np.ndarray
    tail_mass: np.ndarray
    row_mass: np.ndarray
    grid: HalfLineGrid
    kernel: KernelSpec

    def __post_init__(self) -> None:
        self.entries.setflags(write=False)
        self.tail_mass.setflags(write=False)
        self.row_mass.setflags(write=False)

    @property
    def size(self) -> int:
        return int(self.row_mass.size)


@dataclass(frozen=True)
class Discretisation:
    """One kernel evaluation on one grid and everything built from it.

    ``gamma`` is the raw mass defect 1 - (K @ w + tail) at the nodes, the
    same values the condition checks read.  ``operator`` is None when the
    report fails.
    """

    report: ConditionReport
    gamma: np.ndarray
    operator: OperatorMatrix | None


def discretise(spec: KernelSpec, grid: HalfLineGrid, *, probe_count: int = 32,
               tol: float = 1e-9) -> Discretisation:
    """Evaluate K once on the grid: condition report, raw gamma and operator.

    The operator is assembled only when the report passes, in the storage of
    K itself, so one N x N matrix is alive at a time.
    """
    k = kernel_matrix(spec, grid)
    tail = tail_row_mass(spec, grid, grid.nodes)
    masses = k @ grid.weights + tail
    report = condition_report(spec, grid, k, masses, probe_count, tol)
    operator = _operator_from_kernel(spec, grid, k, tail) if report.passed else None
    return Discretisation(report=report, gamma=1.0 - masses, operator=operator)


def assemble_operator(spec: KernelSpec, grid: HalfLineGrid, *,
                      report: ConditionReport | None = None,
                      probe_count: int = 32, tol: float = 1e-9) -> OperatorMatrix:
    """Assemble the operator after the kernel passes its condition checks.

    A failing report rejects the spec.  Without a ``report`` the checks run on
    the kernel evaluation the operator is built from.
    """
    if report is None:
        disc = discretise(spec, grid, probe_count=probe_count, tol=tol)
        if disc.operator is not None:
            return disc.operator
        report = disc.report
    if not report.passed:
        raise SpecRejectedError(
            "kernel spec failed its condition checks; not assembling", report)
    return _operator_from_kernel(spec, grid, kernel_matrix(spec, grid),
                                 tail_row_mass(spec, grid, grid.nodes))


def _operator_from_kernel(spec: KernelSpec, grid: HalfLineGrid, k: np.ndarray,
                          tail: np.ndarray) -> OperatorMatrix:
    """Weight K in place into A = max(K * w, floor) and close the rows with the tail."""
    entries = np.multiply(k, grid.weights, out=k)
    np.maximum(entries, POSITIVITY_FLOOR, out=entries)
    cap = 1.0 - MASS_MARGIN
    ones = np.ones(grid.size)
    quad_mass = entries @ ones
    over = quad_mass > cap
    if over.any():
        # rows whose true mass defect sits below double resolution; scale by
        # ~1e-14 so the projected system keeps a representable gap under eta
        entries[over] *= (cap / quad_mass[over])[:, None]
        quad_mass = entries @ ones
    tail = np.clip(tail, 0.0, np.maximum(cap - quad_mass, 0.0))
    return OperatorMatrix(entries=entries, tail_mass=tail,
                          row_mass=quad_mass + tail,
                          grid=grid, kernel=spec)


def apply_hammerstein(A: OperatorMatrix, G: NonlinearitySpec, f) -> np.ndarray:
    """One application f -> A G(f) + G(f[last]) * tail mass; f inside [0, eta] up to 1e-9.

    The tail term closes the integral past x_max with the last node's value
    (profiles are flat to the kernel-tail scale out there), so the ceiling
    maps to eta times the full row mass and zero stays a fixed point.  G is
    monotone, hence the closed map keeps the monotone and squeeze machinery
    verbatim.  The product is one BLAS matrix-vector product; its result does
    not depend on the BLAS thread count.
    """
    f = np.asarray(f, dtype=float)
    eta = G.eta
    if f.min() < -1e-9 or f.max() > eta + 1e-9:
        raise DomainViolationError(
            f"iterate leaves [0, {eta}]: min={f.min()!r}, max={f.max()!r}")
    g = eval_G(G, np.clip(f, 0.0, eta))
    return A.entries @ g + g[-1] * A.tail_mass


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


def solve_picard(A: OperatorMatrix, G: NonlinearitySpec, tol: float = 1e-10,
                 max_iter: int = 500) -> SolveReport:
    """Iterate from the ceiling f_0 = eta until successive sup differences reach tol.

    Monotone decrease is asserted at every step: drift past 1e-12 clears
    ``monotone_ok``, drift past 1e-9 aborts (the decrease is a theorem, not a
    heuristic).  On convergence the report carries the measured sigma0, the
    fixed-point residual from one extra operator application, and the
    envelope verdict.  Hitting ``max_iter`` raises with the partial report
    attached.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    eta = G.eta
    f = np.full(A.size, eta)
    iterates: list[np.ndarray] = [f]
    sup_diffs: list[float] = []
    monotone_ok = True
    converged = False
    for _ in range(max_iter):
        nxt = apply_hammerstein(A, G, f)
        drop = f - nxt
        rise = -float(drop.min())
        if rise > 1e-9:
            raise NumericalBreakdownError(
                f"iterate increased pointwise by {rise:.3e}")
        if rise > 1e-12:
            monotone_ok = False
        sup = float(np.abs(drop).max())
        sup_diffs.append(sup)
        iterates.append(nxt)
        f = nxt
        if sup <= tol:
            converged = True
            break

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
    f = np.clip(np.asarray(f0, dtype=float), 0.0, G.eta)
    for k in range(max_iter):
        nxt = apply_hammerstein(A, G, f)
        sup = float(np.abs(f - nxt).max())
        f = nxt
        if sup <= tol:
            return f, k + 1, True
    return f, max_iter, False


def evaluate_profile(spec: KernelSpec, grid: HalfLineGrid, G: NonlinearitySpec,
                     profile, x) -> np.ndarray:
    """Natural Nystrom extension of a converged profile to arbitrary points.

    f(x) = sum_j w_j K(x, t_j) G(f_j) plus the tail-closure term evaluates the
    solution anywhere, which is how profiles from different grids are compared.
    """
    g = eval_G(G, np.clip(np.asarray(profile, dtype=float), 0.0, G.eta))
    return (apply_kernel(spec, x, grid.nodes, grid.weights * g)
            + g[-1] * tail_row_mass(spec, grid, x))
