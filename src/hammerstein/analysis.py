"""Post-hoc certification of the solver's analytic bounds.

Each certificate computes both sides of an inequality independently of the
solve path and reports whether the bound holds:

* excess integral: int (G(f*) - f*) dx is capped by eta times the kernel's
  mass-defect constant;
* tail integral: int_r^inf (eta - f*) dx is capped by
  (eta - eps) eta / (G(eps) - eps) times the same constant, with r the first
  node past which the profile stays above eta / 2 and eps its minimum there;
* Jensen margin: Jensen's inequality for the concave nonlinearity under
  the operator's positive weights, row by row at the profile;
* asymptote: the profile's gap to eta at the last node;
* uniqueness probe: perturbed restarts of the iteration on the solve's own
  operator must all return to the same profile (a heuristic check -- the
  underlying uniqueness argument is non-constructive).  The probe evaluates
  no kernel; convergence under grid refinement is a separate question.  Its
  bumps are numpy's PCG64 stream, computed here bit for bit, so a run never
  imports ``numpy.random`` (nor OpenSSL, which comes with it).

A certificate whose hypotheses fail reports ``passed: False``; none raises.
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


@dataclass(frozen=True)
class ExcessIntegralCertificate:
    lhs: float
    rhs: float
    passed: bool


def excess_integral_certificate(fstar, report: ConditionReport, G: NonlinearitySpec,
                                grid: HalfLineGrid) -> ExcessIntegralCertificate:
    """Certify int (G(f*) - f*) <= eta * mass-defect constant.

    The bound needs a symmetric kernel, which every catalog kernel is
    (``kernels`` module docstring).
    """
    fstar = np.asarray(fstar, dtype=float)
    lhs = integrate(grid, eval_G(G, fstar) - fstar)
    rhs = G.eta * report.mass_defect_constant
    return ExcessIntegralCertificate(lhs=lhs, rhs=rhs, passed=bool(lhs <= rhs + INTEGRAL_TOL))


@dataclass(frozen=True)
class TailIntegralCertificate:
    lhs: float
    rhs: float
    r: float
    epsilon: float
    passed: bool | None         # None: eps within 1e-6 of eta, rhs not computed


def tail_integral_certificate(fstar, grid: HalfLineGrid, G: NonlinearitySpec,
                              report: ConditionReport) -> TailIntegralCertificate:
    """Certify int_r^{x_max} (eta - f*) <= (eta - eps) eta / (G(eps) - eps) * constant.

    A profile not strictly positive, or never above eta / 2 up to x_max, fails
    with every number NaN."""
    fstar = np.asarray(fstar, dtype=float)
    eta = G.eta
    suffix_all = np.logical_and.accumulate((fstar >= 0.5 * eta)[::-1])[::-1]
    if fstar.min() <= 0.0 or not suffix_all.any():
        return TailIntegralCertificate(lhs=math.nan, rhs=math.nan, r=math.nan,
                                       epsilon=math.nan, passed=False)
    i0 = int(np.argmax(suffix_all))
    r = float(grid.nodes[i0])
    eps = float(fstar[i0:].min())
    lhs = math.fsum(grid.weights[i0:] * (eta - fstar[i0:]))
    if eta - eps <= 1e-6:
        # the slope quotient degenerates to 0/0; no verdict instead of computing
        return TailIntegralCertificate(lhs=lhs, rhs=math.nan, r=r, epsilon=eps, passed=None)
    rhs = ((eta - eps) * eta / (float(eval_G(G, eps)) - eps)) * report.mass_defect_constant
    return TailIntegralCertificate(lhs=lhs, rhs=rhs, r=r, epsilon=eps,
                                   passed=bool(lhs <= rhs + INTEGRAL_TOL))


def jensen_certificate(A: OperatorMatrix, G: NonlinearitySpec, u) -> float:
    """Minimum over rows of  w_i G(sum_j A_ij u_j / w_i) - sum_j A_ij G(u_j),
    with w_i = sum_j A_ij the row weight (no tail term).

    Jensen's inequality for concave G under positive weights makes it
    nonnegative up to rounding: G is concave (``nonlinearity`` module
    docstring) and every A_ij is positive (``kernels`` module docstring).
    Row by row it is G, which increases, applied to both sides of the
    inverse form sum_j A_ij Q(g_j) >= w_i Q(sum_j A_ij g_j / w_i) at
    g = G(u), Q = G^{-1}; Q's slope 1 / G'(eta) near eta (1 / alpha for
    family I) would multiply the rounding of u.
    """
    u = np.asarray(u, dtype=float)
    eta = G.eta
    if u.min() <= 0.0 or u.max() >= eta:
        raise ValueError(f"u must lie strictly inside (0, {eta})")
    weight = A.quad_mass
    mean = (A @ u) / weight
    return float((weight * eval_G(G, np.clip(mean, 0.0, eta)) - A @ eval_G(G, u)).min())


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


# numpy's SeedSequence and PCG64 constants: numpy/random/bit_generator.pyx;
# M. E. O'Neill, PCG, Harvey Mudd College report HMC-CS-2014-0905 (2014)
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
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


def _mulhi(x: np.ndarray, y: int) -> np.ndarray:
    """High 64 bits of each uint64 product x * y, from 32-bit halves."""
    m32, s32 = np.uint64(_M32), np.uint64(32)
    x0, x1, y0, y1 = x & m32, x >> s32, np.uint64(y & _M32), np.uint64(y >> 32)
    p00, p01, p10 = x0 * y0, x0 * y1, x1 * y0
    mid = (p00 >> s32) + (p01 & m32) + (p10 & m32)
    return x1 * y1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)


def _uniform_stream(seed: int, trial: int, n: int) -> np.ndarray:
    """``np.random.default_rng([seed, trial]).random(n)``, bit for bit: the
    XSL-RR outputs of PCG64's 128-bit LCG states, to 53 bits.  The states
    are hi/lo uint64 pairs, filled by doubling: states [t, 2t) are the
    affine map of t steps, s -> M**t s + c_t mod 2**128, of states [0, t)."""
    words = _seed_state([seed, trial])
    inc = (words[2] << 65 | words[3] << 1 | 1) & _M128
    state = ((inc + (words[0] << 64 | words[1])) * _PCG_MULT + inc) & _M128
    first = (state * _PCG_MULT + inc) & _M128
    hi, lo = np.empty(n, np.uint64), np.empty(n, np.uint64)
    hi[:1], lo[:1] = first >> 64, first & _M64
    mult, add, done = _PCG_MULT, inc, 1     # the map of `done` steps
    while done < n:
        k = min(done, n - done)
        m_lo, m_hi = mult & _M64, np.uint64(mult >> 64)
        prod = lo[:k] * np.uint64(m_lo)
        new_lo = np.add(prod, np.uint64(add & _M64), out=lo[done:done + k])
        hi[done:done + k] = (_mulhi(lo[:k], m_lo) + lo[:k] * m_hi + hi[:k] * np.uint64(m_lo)
                             + np.uint64(add >> 64) + (new_lo < prod))
        mult, add, done = mult * mult & _M128, (mult * add + add) & _M128, 2 * done
    rot, xored = hi >> np.uint64(58), np.bitwise_xor(hi, lo, out=lo)
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


def uniqueness_probe(A: OperatorMatrix, G: NonlinearitySpec, fstar,
                     perturbation_scale: float = 0.1, trials: int = 5, *,
                     seed: int = 0, tol: float = 1e-10,
                     max_iter: int = 500) -> UniquenessProbeReport:
    """Re-run the iteration from perturbed starts; all must return to f*.

    Each trial restarts from clip(f* + positive bump, 0, eta) on the
    operator's own grid, the bump scaled from the PCG64 stream that numpy's
    ``default_rng([seed, trial]).random`` draws (``_uniform_stream``); the
    probe passes iff every deviation stays within 10 * tol.  Only the
    operator is applied; no kernel is evaluated.  A restart that fails to
    converge marks the probe inconclusive.
    """
    if trials < 1 or not perturbation_scale > 0.0:
        raise ValueError("trials must be at least 1 and perturbation_scale positive, "
                         f"got {trials!r} and {perturbation_scale!r}")
    fstar = np.asarray(fstar, dtype=float)
    deviations: list[float] = []
    inconclusive = False
    for trial in range(trials):
        bump = perturbation_scale * _uniform_stream(seed, trial, fstar.size)
        profile, _, ok = fixed_point_iterate(A, G, fstar + bump, tol, max_iter)
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
