"""Post-hoc certification of the solver's analytic bounds.

Each certificate computes both sides of an inequality independently of the
solve path and reports whether the bound holds:

* excess integral: int (G(f*) - f*) dx is capped by eta times the kernel's
  mass-defect constant;
* tail integral: int_r^inf (eta - f*) dx is capped by (eta - eps) eta /
  (G(eps) - eps), formed without cancellation, times the same constant;
* Jensen margin: Jensen's inequality for the concave nonlinearity under
  the operator's positive weights, row by row at the profile;
* asymptote: the profile's gap to eta at the last node;
* uniqueness probe: ``PROBE_TRIALS`` perturbed restarts of the iteration on
  the solve's own operator, each from f* plus a bump in [0, ``PROBE_SCALE``),
  must all return to the same profile.  It evaluates no kernel; convergence
  under grid refinement is a separate question.  Its bumps are numpy's PCG64
  stream, computed here bit for bit, so a run never imports ``numpy.random``
  (nor OpenSSL, which comes with it).

A certificate whose hypotheses fail reports ``passed: False``; none raises.

The probe tests a theorem: the discrete system has one nonzero solution.
The solves iterate T(f) = L G(f), L the product ``kernels.OperatorMatrix @``,
whose entries the FFT applies up to rounding, the unfloored K0 tables within
the bound of ``kernels.structured_kernel``.  They are positive: W > 0
(``kernels`` module docstring), a corrected diagonal that is not positive is
refused, and row_scale > 0, tail >= 0 (``kernels.discretise``).  As G
increases with G(sigma u) >= sigma**a G(u), a < 1 (``nonlinearity`` module
docstring), a nonzero solution f in [0, eta]^N is positive, and for two,
sigma = max{s <= 1 : s g <= f} gives f >= L G(sigma g) >= sigma**a g, so
sigma**a <= sigma, sigma = 1, and f = g by symmetry.  None exceeds eta: row
mass <= 1 - MASS_MARGIN (``kernels.discretise``) and G(u) <= u above eta.
See Krasnosel'skii (1964); Lemmens & Nussbaum (2012), ch. 2.  The probe
stays only because ``perfbench/gate.py`` reads its ``passed`` and ``max_dev``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import ConditionReport, OperatorMatrix
from .nonlinearity import NonlinearitySpec, eval_G
from .picard import fixed_point_iterate
from .quadrature import HalfLineGrid, integrate

# Additive slack of the excess and tail integral bounds.
INTEGRAL_TOL = 1e-8
# Restarts of the uniqueness probe, and the width of each restart's bump.
PROBE_TRIALS = 5
PROBE_SCALE = 0.1


@dataclass(frozen=True)
class ExcessIntegralCertificate:
    """``lhs`` = int (G(f*) - f*) dx over the grid, ``rhs`` = eta times the
    kernel's mass-defect constant; ``passed`` is lhs <= rhs + INTEGRAL_TOL."""

    lhs: float
    rhs: float
    passed: bool


def excess_integral_certificate(fstar, report: ConditionReport, G: NonlinearitySpec,
                                grid: HalfLineGrid) -> ExcessIntegralCertificate:
    """Certify int (G(f*) - f*) <= eta * mass-defect constant; the bound needs
    a symmetric kernel, which every catalog kernel is (``kernels`` docstring)."""
    fstar = np.asarray(fstar, dtype=float)
    lhs = integrate(grid, eval_G(G, fstar) - fstar)
    rhs = G.eta * report.mass_defect_constant
    return ExcessIntegralCertificate(lhs=lhs, rhs=rhs, passed=bool(lhs <= rhs + INTEGRAL_TOL))


@dataclass(frozen=True)
class TailIntegralCertificate:
    """``lhs`` = int_r^{x_max} (eta - f*) dx, ``rhs`` = (eta - epsilon) eta /
    (G(epsilon) - epsilon) times the mass-defect constant, ``r`` the first node
    from which f* stays >= eta / 2, ``epsilon`` < eta its minimum there; ``passed``
    is lhs <= rhs + INTEGRAL_TOL.  A profile not strictly positive, never above
    eta / 2 up to x_max, or at eta all through that tail fails with all four NaN."""

    lhs: float
    rhs: float
    r: float
    epsilon: float
    passed: bool


def tail_integral_certificate(fstar, grid: HalfLineGrid, G: NonlinearitySpec,
                              report: ConditionReport) -> TailIntegralCertificate:
    """Certify int_r^{x_max} (eta - f*) <= (eta - eps) eta / (G(eps) - eps) * constant.

    With eta = 1, eps - eta is exact (eps >= eta / 2), and G's powers c give
    G(eps) - eps = eps sum_c expm1((c - 1) log1p(eps - eta)) / 2: terms of one sign, so the
    quotient keeps its precision up to its limit eta / (1 - a) as eps -> eta."""
    fstar = np.asarray(fstar, dtype=float)
    eta = G.eta
    suffix_all = np.logical_and.accumulate((fstar >= 0.5 * eta)[::-1])[::-1]
    i0 = int(np.argmax(suffix_all))
    eps = float(fstar[i0:].min())
    if fstar.min() <= 0.0 or not suffix_all.any() or eps >= eta:
        return TailIntegralCertificate(lhs=math.nan, rhs=math.nan, r=math.nan,
                                       epsilon=math.nan, passed=False)
    lhs = math.fsum(grid.weights[i0:] * (eta - fstar[i0:]))
    excess = eps * sum(math.expm1((c - 1.0) * math.log1p(eps - eta)) for c in G.powers) / 2
    rhs = ((eta - eps) * eta / excess) * report.mass_defect_constant
    return TailIntegralCertificate(lhs=lhs, rhs=rhs, r=float(grid.nodes[i0]), epsilon=eps,
                                   passed=bool(lhs <= rhs + INTEGRAL_TOL))


def jensen_certificate(A: OperatorMatrix, G: NonlinearitySpec, u) -> float:
    """Minimum over rows of  w_i G(sum_j A_ij u_j / w_i) - sum_j A_ij G(u_j),
    with A the closed operator the solves iterate and w_i = sum_j A_ij its
    row mass ``A.row_mass``.

    Jensen's inequality for concave G under positive weights makes it
    nonnegative up to rounding: G is concave (``nonlinearity`` module
    docstring) and every A_ij is positive (``kernels`` module docstring;
    the tail closure only adds tail_i >= 0 to the last column).
    Row by row it is G, which increases, applied to both sides of the
    inverse form sum_j A_ij Q(g_j) >= w_i Q(sum_j A_ij g_j / w_i) at
    g = G(u), Q = G^{-1}; Q's slope 1 / G'(eta) near eta (1 / alpha for
    family I) would multiply the rounding of u.
    """
    u = np.asarray(u, dtype=float)
    eta = G.eta
    if u.min() <= 0.0 or u.max() >= eta:
        raise ValueError(f"u must lie strictly inside (0, {eta})")
    weight = A.row_mass
    mean = (A @ u) / weight
    return float((weight * eval_G(G, np.clip(mean, 0.0, eta)) - A @ eval_G(G, u)).min())


@dataclass(frozen=True)
class AsymptoteCertificate:
    """``gap`` = eta - f*(x_max) against ``bound`` = max(5 eta gamma(x_max),
    1e-6); ``passed`` is gap <= bound."""

    gap: float
    bound: float
    passed: bool


def asymptote_certificate(fstar, gamma, eta: float) -> AsymptoteCertificate:
    """Check eta - f*(x_max) <= max(5 * eta * gamma(x_max), 1e-6)."""
    fstar = np.asarray(fstar, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    gap = float(eta - fstar[-1])
    bound = max(5.0 * eta * float(gamma[-1]), 1e-6)
    return AsymptoteCertificate(gap=gap, bound=bound, passed=bool(gap <= bound))


# numpy's SeedSequence and PCG64 constants: numpy/random/bit_generator.pyx;
# M. E. O'Neill, PCG, Harvey Mudd College report HMC-CS-2014-0905 (2014)
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(h: int, mult: int):
    """SeedSequence's 32-bit hash, its constant advanced by ``mult`` per call."""
    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = h * mult & _M32
        value = value * h & _M32
        return value ^ value >> 16
    return hashmix


def _seed_state(words) -> list[int]:
    """``SeedSequence(words).generate_state(4, np.uint64)``: the words'
    uint32 digits, low first, mixed into a pool of four and hashed out."""
    if min(words) < 0:
        raise ValueError(f"seed words must be nonnegative, got {list(words)}")
    entropy = [w >> 32 * k & _M32 for w in words for k in range((w.bit_length() + 31) // 32 or 1)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * hashmix(y)) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in (d for d in range(4) if d != src):
            pool[dst] = mix(pool[dst], pool[src])
    for word in entropy[4:]:
        pool = [mix(p, word) for p in pool]
    draw = _hasher(0x8B51F9DD, 0x58F38DED)     # eight uint32 words, low one first
    return [draw(pool[i % 4]) | draw(pool[i % 4 + 1]) << 32 for i in range(0, 8, 2)]


def _uniform_stream(seed: int, trial: int, n: int) -> np.ndarray:
    """``np.random.default_rng([seed, trial]).random(n)``, bit for bit: PCG64's
    recurrence state <- state * _PCG_MULT + inc mod 2**128 (O'Neill 2014), each new
    state output as XSL-RR (hi ^ lo rotated right by hi >> 58) to its top 53 bits."""
    words = _seed_state([seed, trial])
    inc = (words[2] << 65 | words[3] << 1 | 1) & _M128
    state = ((inc + (words[0] << 64 | words[1])) * _PCG_MULT + inc) & _M128
    states = bytearray()
    for _ in range(n):
        state = (state * _PCG_MULT + inc) & _M128
        states += state.to_bytes(16, "little")
    lo, hi = np.frombuffer(states, "<u8").reshape(n, 2).T
    rot, xored = hi >> np.uint64(58), hi ^ lo
    rotated = xored >> rot | xored << (-rot & np.uint64(63))
    return (rotated >> np.uint64(11)) * 2.0 ** -53


@dataclass(frozen=True)
class UniquenessProbeReport:
    """Sup-norm deviation of each perturbed restart from f*; ``max_dev``, the
    largest finite one, gates the verdict."""

    max_dev: float
    deviations: list[float]
    inconclusive: bool
    passed: bool


def uniqueness_probe(A: OperatorMatrix, G: NonlinearitySpec, fstar, *, seed: int = 0,
                     tol: float = 1e-10, max_iter: int = 500) -> UniquenessProbeReport:
    """Re-run the iteration from ``PROBE_TRIALS`` perturbed starts; all must
    return to f*.

    Each trial restarts from clip(f* + positive bump, 0, eta) on the
    operator's own grid, the bump ``PROBE_SCALE`` times the PCG64 stream that
    numpy's ``default_rng([seed, trial]).random`` draws (``_uniform_stream``); the
    probe passes iff every deviation stays within 10 * tol.  Only the
    operator is applied; no kernel is evaluated.  A restart that fails to
    converge marks the probe inconclusive.
    """
    fstar = np.asarray(fstar, dtype=float)
    deviations: list[float] = []
    inconclusive = False
    for trial in range(PROBE_TRIALS):
        bump = PROBE_SCALE * _uniform_stream(seed, trial, fstar.size)
        profile, _, ok = fixed_point_iterate(A, G, fstar + bump, tol, max_iter)
        inconclusive |= not ok
        deviations.append(float(np.abs(profile - fstar).max()) if ok else math.nan)

    finite = [d for d in deviations if not math.isnan(d)]
    max_dev = max(finite) if finite else math.nan
    passed = bool(not inconclusive and finite and max_dev <= 10.0 * tol)
    return UniquenessProbeReport(max_dev=max_dev, deviations=deviations,
                                 inconclusive=inconclusive, passed=passed)
