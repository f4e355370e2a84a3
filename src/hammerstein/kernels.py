"""Kernel catalog on the quarter-plane and its discretisation on a grid.

Three symmetric kernel families are built from an even base kernel ``K0``
with half-line mass 1/2 and a modulation profile ``lambda`` with infimum
``d_star``:

* family ``A``: ``mu(x, t) * K0(x - t)``
* family ``B``: ``mu(x, t) * (K0(x - t) - delta * K0(x + t))``
* family ``C``: ``0.5 * (lam(x) + lam(t)) * (K0(x - t) + epsilon * K0(x + t))``

where ``mu(x, t) = lam(x) + lam(t) - lam(x) * lam(t)``.  All three are
strictly positive, symmetric, have row mass at most 1 approaching 1 at
infinity, and are dominated by ``lam_star(t) * kstar(x - t)``.

Each family is a diagonal scaling of ``K0(x - t)`` and ``K0(x + t)``, so on
the equal panels of a quadrature grid its Nystrom matrix is block-Toeplitz
plus block-Hankel.  :func:`structured_kernel` keeps it as the real-FFT
spectra of those blocks (O(N) memory) and applies it in O(N log N), also
for the tail past x_max at the nodes; :func:`kernel_matrix`, the dense
N x N form, is kept as a test oracle.

:func:`discretise` is the one entry from a kernel and a grid: the condition
checks on the raw node masses, the :class:`OperatorMatrix` on the capped
ones and the one gamma every later stage reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecRejectedError
from .quadrature import GAUSS, TRAPEZOID, HalfLineGrid, build_grid, integrate

# Smallest positive normal double.  Base-kernel, kernel, and operator values
# are floored here so strict-positivity contracts survive tail underflow
# (a Gaussian underflows past |x| ~ 27); the quadrature perturbation is
# below 1e-300 per row and therefore invisible at every stated tolerance.
POSITIVITY_FLOOR = float(np.finfo(float).tiny)

# Kernel values are evaluated one block of rows at a time, about this many
# entries per block, so the temporaries of eval_kernel stay a few MB instead of
# N x N each.  The arithmetic is elementwise, so the blocking does not change
# a single value.
BLOCK_ENTRIES = 1 << 18

FAMILIES = ("A", "B", "C")

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class BaseKernel:
    """Even, positive, non-increasing-on-R+ base kernel with half-line mass 1/2.

    ``variant="gaussian"`` is ``exp(-x^2) / sqrt(pi)``; ``variant="exp-mixture"``
    is a finite mixture ``sum_j c_j * exp(-|x| * s_j)`` whose atoms must satisfy
    the normalisation ``sum_j 2 c_j / s_j = 1`` to within 1e-12.
    """

    variant: str = "gaussian"
    atoms: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.variant == "gaussian":
            if self.atoms is not None:
                raise ValueError("gaussian base kernel takes no atoms")
            return
        if self.variant != "exp-mixture":
            raise ValueError(f"unknown base kernel variant {self.variant!r}")
        if not self.atoms:
            raise ValueError("exp-mixture base kernel needs at least one (c, s) atom")
        atoms = tuple((float(c), float(s)) for c, s in self.atoms)
        for c, s in atoms:
            if c <= 0 or s <= 0:
                raise ValueError(f"mixture atoms need c > 0 and s > 0, got ({c}, {s})")
        object.__setattr__(self, "atoms", atoms)
        mass = math.fsum(2.0 * c / s for c, s in atoms)
        if abs(mass - 1.0) > 1e-12:
            raise ValueError(
                f"mixture half-line mass must be 1/2: sum 2c/s = {mass!r} != 1")

    def eval(self, x):
        """Evaluate the base kernel; even in x, floored to stay positive."""
        x = np.asarray(x, dtype=float)
        if self.variant == "gaussian":
            val = np.exp(-x * x) / _SQRT_PI
        else:
            ax = np.abs(x)
            val = sum(c * np.exp(-ax * s) for c, s in self.atoms)
        return np.maximum(val, POSITIVITY_FLOOR)

    def tail_mass(self, x: float) -> float:
        """Closed form of the tail integral of the base kernel from x to infinity (x >= 0)."""
        if self.variant == "gaussian":
            return 0.5 * math.erfc(float(x))
        return math.fsum((c / s) * math.exp(-float(x) * s) for c, s in self.atoms)

    @property
    def has_cusp(self) -> bool:
        """True when K0 has a derivative jump at 0, so K0(x - t) has one at t = x.

        The exponential mixture does; the Gaussian is smooth.  Row masses of a
        cusped kernel are integrated with :func:`cusp_correction`.
        """
        return self.variant == "exp-mixture"

    def min_decay_rate(self) -> float:
        """Slowest exponential decay rate of the base kernel (used to size internal grids)."""
        if self.variant == "gaussian":
            return math.inf
        return min(s for _, s in self.atoms)


@dataclass(frozen=True)
class ModulationSet:
    """Modulation profile lambda, the derived mu, and the domination envelope lam_star.

    ``lambda_form="exp-gap"`` takes ``lam(x) = 1 - (1 - d_star) * exp(-x)``;
    ``"rational-gap"`` takes ``lam(x) = 1 - (1 - d_star) / (1 + x^2)``.  Both
    satisfy ``d_star <= lam <= 1``.  The envelope is
    ``lam_star(t) = 1 + exp(-t) / t**l`` with ``l`` in (0, 1); it is singular
    at t = 0, which is why domination probes skip that node.
    """

    lambda_form: str = "exp-gap"
    d_star: float = 0.5
    l: float = 0.5

    def __post_init__(self) -> None:
        if self.lambda_form not in ("exp-gap", "rational-gap"):
            raise ValueError(f"unknown lambda form {self.lambda_form!r}")
        if not 0.0 < self.d_star <= 1.0:
            raise ValueError(f"d_star must lie in (0, 1], got {self.d_star!r}")
        if not 0.0 < self.l < 1.0:
            raise ValueError(f"l must lie in (0, 1), got {self.l!r}")

    def lam_gap(self, x):
        """1 - lam(x), evaluated in closed form to keep the mu identity exact."""
        x = np.asarray(x, dtype=float)
        if self.lambda_form == "exp-gap":
            return (1.0 - self.d_star) * np.exp(-x)
        return (1.0 - self.d_star) / (1.0 + x * x)

    def lam(self, x):
        return 1.0 - self.lam_gap(x)

    def one_minus_mu(self, x, t):
        # the defining identity: 1 - mu = (1 - lam(x)) * (1 - lam(t))
        return self.lam_gap(x) * self.lam_gap(t)

    def mu(self, x, t):
        return 1.0 - self.one_minus_mu(x, t)

    def sup_one_minus_mu(self, x):
        """sup over t of (1 - mu(x, t)); the gap profile is largest at t = 0."""
        return self.lam_gap(x) * (1.0 - self.d_star)

    @property
    def epsilon0(self) -> float:
        """Lower bound of mu: d_star * (2 - d_star) > 0."""
        return self.d_star * (2.0 - self.d_star)

    def lam_star(self, t):
        t = np.asarray(t, dtype=float)
        return 1.0 + self.lam_star_excess(t)

    def lam_star_excess(self, t):
        """lam_star(t) - 1 = exp(-t) / t**l; integrable with zero limit, singular at 0."""
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return np.exp(-t) * t ** (-self.l)


@dataclass(frozen=True)
class KernelSpec:
    """Declarative description of one catalog kernel."""

    family: str
    base: BaseKernel
    modulation: ModulationSet
    delta: float | None = None      # family B image-term weight
    epsilon: float | None = None    # family C image-term weight

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.family == "B":
            if self.delta is None or not 0.0 < self.delta < 1.0:
                raise ValueError(f"family B needs delta in (0, 1), got {self.delta!r}")
        if self.family == "C":
            if self.epsilon is None or not 0.0 < self.epsilon < 1.0:
                raise ValueError(f"family C needs epsilon in (0, 1), got {self.epsilon!r}")

    def kstar_scale(self) -> float:
        """Scale of the dominating difference kernel: (1 + epsilon) K0 for family C, K0 otherwise."""
        return 1.0 + self.epsilon if self.family == "C" else 1.0

    def eval_kstar(self, y):
        return self.kstar_scale() * self.base.eval(y)


def eval_kernel(spec: KernelSpec, x, t):
    """Evaluate K(x, t) for x, t >= 0 (arrays broadcast); strictly positive."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(x < 0.0) or np.any(t < 0.0):
        raise ValueError("kernel arguments must be nonnegative")
    base = spec.base
    k_diff = base.eval(x - t)
    if spec.family == "A":
        val = spec.modulation.mu(x, t) * k_diff
    elif spec.family == "B":
        val = spec.modulation.mu(x, t) * (k_diff - spec.delta * base.eval(x + t))
    else:
        lam = spec.modulation.lam
        val = 0.5 * (lam(x) + lam(t)) * (k_diff + spec.epsilon * base.eval(x + t))
    return np.maximum(val, POSITIVITY_FLOOR)


def _row_blocks(n_rows: int, n_cols: int):
    step = max(1, BLOCK_ENTRIES // n_cols)
    for start in range(0, n_rows, step):
        yield slice(start, start + step)


def kernel_matrix(spec: KernelSpec, grid: HalfLineGrid) -> np.ndarray:
    """Dense K(x_i, t_j) over the grid nodes, filled one row block at a time.

    The program itself never builds it (see :func:`structured_kernel`); it
    is the dense oracle the structured products are tested against.
    """
    nodes = grid.nodes
    k = np.empty((nodes.size, nodes.size))
    for rows in _row_blocks(nodes.size, nodes.size):
        k[rows] = eval_kernel(spec, nodes[rows, None], nodes[None, :])
    return k


def apply_kernel(spec: KernelSpec, x, nodes: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_j K(x, t_j) v_j at every point x, without holding K(x, t) whole.

    Rows are evaluated in blocks and each block is applied with one BLAS
    matrix-vector product; the result has the shape of ``x``.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    out = np.empty(flat.size)
    for rows in _row_blocks(flat.size, nodes.size):
        out[rows] = eval_kernel(spec, flat[rows, None], nodes[None, :]) @ v
    return out.reshape(x.shape)


def _fft_size(n: int) -> int:
    """Smallest 5-smooth integer >= n; pocketfft is fastest on those lengths."""
    size = max(n, 1)
    while True:
        rest = size
        for factor in (2, 3, 5):
            while rest % factor == 0:
                rest //= factor
        if rest == 1:
            return size
        size += 1


@dataclass(frozen=True)
class StructuredKernel:
    """The weighted Nystrom matrix w_j K(x_i, t_j) of an equal-panel grid, in O(N).

    Node i = P p + k (panel P, point k of p; the trapezoid rule is one point
    per panel) sits at x_i = h P + c_k, so K0(x_i - t_j) = T_kl[P - Q] and
    K0(x_i + t_j) = H_kl[P + Q]: p^2 Toeplitz and p^2 Hankel blocks of side
    m = N / p, each fixed by 2m - 1 values of K0.  Every family is

        sum_r diag(left[r]) (T + image * H) diag(right[r]),

    with the quadrature weights folded into ``right``.  ``spectra[k, l]``
    holds the real FFT of the circulant embedding of T_kl and
    ``spectra[k, p + l]`` the image weight times that of the zero-padded
    H_kl; a family without an image term has only the first p columns.
    ``kernel @ v`` takes one batch of forward real FFTs, a p x 2p
    contraction per frequency (a Hankel block acts through the conjugate
    spectrum of v) and one batch of inverse FFTs: O(N log N) time, and no
    BLAS call, so no dependence on the BLAS thread count.

    ``positive`` is the positivity verdict: every K(x_i, t_j) bounded below
    from the floored K0 tables and the modulation factors.
    """

    spectra: np.ndarray
    left: np.ndarray
    right: np.ndarray
    fft_size: int
    positive: bool

    def __post_init__(self) -> None:
        for array in (self.spectra, self.left, self.right):
            array.setflags(write=False)

    @property
    def nbytes(self) -> int:
        """Bytes one product reads: the spectra and the scalings."""
        return self.spectra.nbytes + self.left.nbytes + self.right.nbytes

    def __matmul__(self, v) -> np.ndarray:
        terms, p = self.left.shape[0], self.spectra.shape[0]
        # (terms, p, m): the scaled v, one row per Gauss point, panels along the last axis
        u = (self.right * v).reshape(terms, -1, p).transpose(0, 2, 1)
        u_hat = np.fft.rfft(u, n=self.fft_size, axis=-1)
        if self.spectra.shape[1] > p:
            u_hat = np.concatenate([u_hat, u_hat.conj()], axis=1)
        y_hat = np.einsum("kjf,rjf->rkf", self.spectra, u_hat)
        y = np.fft.irfft(y_hat, n=self.fft_size, axis=-1)[..., :u.shape[-1]]
        return (self.left * y.transpose(0, 2, 1).reshape(terms, -1)).sum(axis=0)


def structured_kernel(spec: KernelSpec, grid: HalfLineGrid) -> StructuredKernel:
    """The grid's weighted Nystrom matrix from K0 at its Toeplitz and Hankel arguments.

    K0 is evaluated at the 2 (2m - 1) p^2 distinct arguments only, never on
    the N x N node pairs.  The grid must have the equal panels of
    ``build_grid``.
    """
    p = grid.points_per_panel or 1
    n = grid.size
    m = n // p
    h = grid.x_max / grid.n_panels
    offsets = grid.nodes[:p]
    lattice = h * np.arange(m)[:, None] + offsets[None, :]
    if m * p != n or np.abs(lattice.ravel() - grid.nodes).max() > 1e-12 * grid.x_max:
        raise ValueError("structured_kernel needs the equal-panel grid of build_grid")
    lag = np.arange(2 * m - 1)
    toeplitz = spec.base.eval(h * (lag - (m - 1))
                              + (offsets[:, None] - offsets[None, :])[..., None])
    size = _fft_size(2 * m - 1)
    embedded = np.zeros((p, p, size))
    embedded[..., :m] = toeplitz[..., m - 1:]
    embedded[..., size - m + 1:] = toeplitz[..., :m - 1]
    spectra = [np.fft.rfft(embedded, axis=-1)]

    w = grid.weights
    if spec.family == "C":
        image = spec.epsilon
        lam = spec.modulation.lam(grid.nodes)
        left, right = (0.5 * lam, np.full(n, 0.5)), (w, lam * w)
        modulation_floor = float(lam.min())
    else:
        image = 0.0 if spec.family == "A" else -spec.delta
        gap = spec.modulation.lam_gap(grid.nodes)
        left, right = (np.ones(n), -gap), (w, gap * w)
        modulation_floor = 1.0 - float(gap.max()) ** 2      # mu = 1 - gap(x) gap(t)

    combined = toeplitz
    if image:
        hankel = spec.base.eval(h * lag + (offsets[:, None] + offsets[None, :])[..., None])
        spectra.append(image * np.fft.rfft(hankel, n=size, axis=-1))
        # the node pairs with P - Q = d have s = P + Q >= |d|, so the image
        # term of T_kl[d] + image * H_kl[s] is bounded by its extreme over s >= |d|
        accumulate = np.maximum if image < 0.0 else np.minimum
        extreme = accumulate.accumulate(hankel[..., ::-1], axis=-1)[..., ::-1]
        combined = toeplitz + image * extreme[..., np.abs(lag - (m - 1))]
    positive = bool(combined.min() > 0.0 and modulation_floor > 0.0)
    return StructuredKernel(spectra=np.concatenate(spectra, axis=1), left=np.stack(left),
                            right=np.stack(right), fft_size=size, positive=positive)


def _tail_extension(base: BaseKernel, grid: HalfLineGrid) -> tuple[HalfLineGrid, np.ndarray]:
    """The grid continued past x_max by ceil(pad / h) or more panels of its width h
    and rule, and each node's share of the tail: 1 past x_max, 1/2 at x_max on
    a trapezoid grid.  The panel count k grows until (h k) / k == h (a power
    of two always passes), so the first N nodes are the grid's, bit for bit.
    """
    rate = base.min_decay_rate()
    pad = 12.0 if math.isinf(rate) else max(12.0, 40.0 / rate)
    h = grid.x_max / grid.n_panels
    k = grid.n_panels + math.ceil(pad / h)
    while h * k / k != h:
        k += 1
    extended = build_grid(h * k, k, grid.rule, grid.points_per_panel or 4)
    share = (np.arange(extended.size) >= grid.size).astype(float)
    share[grid.size - 1] = 0.5 if grid.rule == TRAPEZOID else 0.0
    return extended, share


def tail_row_mass(spec: KernelSpec, grid: HalfLineGrid, x):
    """Kernel mass beyond the truncation point, int_{x_max}^inf K(x, t) dt, at any x.

    Row masses must cover the whole half-line; for x near x_max roughly half
    of the kernel bump sits past the truncation point, and dropping it would
    fake a mass defect of order 1/2 there.  The rule is the grid's own,
    continued (:func:`_tail_extension`).  This row-by-row form serves
    off-grid points and is the oracle of the structured :func:`node_masses`.
    """
    extended, share = _tail_extension(spec.base, grid)
    past = share > 0.0
    return apply_kernel(spec, x, extended.nodes[past], (share * extended.weights)[past])


def cusp_correction(spec: KernelSpec, grid: HalfLineGrid, x):
    """Split-panel correction to the grid's row mass at each x, or None.

    For a base kernel with a cusp, K(x, .) has a derivative jump at t = x, and
    the p-point Gauss rule on the panel [a, a + h] that holds x drops to
    second order.  The correction is the same p-point rule on [a, x] and on
    [x, a + h] minus the grid's own rule on that panel, so grid quadrature
    plus correction integrates every piece of the row with a rule on which
    the integrand is smooth (singularity subtraction at a located kink).
    Points past x_max get 0: their cusp lies in the tail quadrature.

    Returns None for a smooth base kernel, and on trapezoid grids, where the
    cusp of a node's row sits at a panel end and no split changes the rule.
    """
    if not spec.base.has_cusp or grid.rule != GAUSS:
        return None
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    p = grid.points_per_panel
    h = grid.x_max / grid.n_panels
    panel = np.clip(np.floor(flat / h).astype(int), 0, grid.n_panels - 1)
    a = h * panel
    left = np.clip(flat - a, 0.0, h)[:, None]
    right = np.clip(a + h - flat, 0.0, h)[:, None]
    xi, wi = np.polynomial.legendre.leggauss(p)
    u, wu = 0.5 * (xi + 1.0), 0.5 * wi
    own = panel[:, None] * p + np.arange(p)
    t = np.concatenate([a[:, None] + left * u, flat[:, None] + right * u,
                        grid.nodes[own]], axis=1)
    w = np.concatenate([left * wu, right * wu, -grid.weights[own]], axis=1)
    out = (eval_kernel(spec, flat[:, None], t) * w).sum(axis=1)
    out[flat > grid.x_max] = 0.0
    return out.reshape(x.shape)


def node_tail(spec: KernelSpec, grid: HalfLineGrid) -> np.ndarray:
    """int_{x_max}^inf K(x_i, t) dt at the nodes: (extended kernel @ share)[:N] on
    the continued grid of :func:`_tail_extension`, one structured product."""
    extended, share = _tail_extension(spec.base, grid)
    return (structured_kernel(spec, extended) @ share)[:grid.size]


def weight_asymmetry(operand, weights: np.ndarray) -> float:
    """Relative gap |u^T W (M v) - v^T W (M u)| / max of the two, W = diag(weights),
    for any ``operand`` M with ``M @ v`` (structured kernel or operator).

    Zero up to rounding when w_i M[i, j] == w_j M[j, i]; two fixed positive
    probe vectors (Weyl sequences, no random generator) read it through two
    products.  Scaling one row of M moves it far past 1e-9.
    """
    k = np.arange(1, weights.size + 1)
    u, v = 0.5 + (k * 0.6180339887498949) % 1.0, 0.5 + (k * 0.4142135623730951) % 1.0
    uwav = math.fsum(u * weights * (operand @ v))
    vwau = math.fsum(v * weights * (operand @ u))
    return abs(uwav - vwau) / max(abs(uwav), abs(vwau))


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the structural checks plus the certificate constants.

    ``passed`` requires positivity over every node pair, raw row mass at
    most ``1 + tol``, raw mass defect at least ``-tol`` everywhere but not
    identically zero (a conservative kernel is flagged, not solved), weight
    symmetry (:func:`weight_asymmetry`) within ``tol`` and a domination
    margin no worse than ``-tol``.
    """

    positivity_ok: bool
    sup_row_mass: float
    gamma_min: float
    gamma_max: float
    gamma_tail: float
    symmetry_residual: float
    domination_margin: float
    gamma_integral: float
    lambda_star_excess_integral: float
    kstar_total_mass: float
    kstar_abs_moment: float
    tol: float

    @property
    def mass_defect_constant(self) -> float:
        """int gamma + int (lam_star - 1) * int kstar + int |y| kstar(y) dy."""
        return (self.gamma_integral
                + self.lambda_star_excess_integral * self.kstar_total_mass
                + self.kstar_abs_moment)

    @property
    def passed(self) -> bool:
        return bool(self.positivity_ok
                    and self.sup_row_mass <= 1.0 + self.tol
                    and self.gamma_min >= -self.tol
                    and self.gamma_max > self.tol
                    and self.symmetry_residual <= self.tol
                    and self.domination_margin >= -self.tol)


def lambda_star_excess_integral(modulation: ModulationSet) -> float:
    """int_0^inf (lam_star(t) - 1) dt by quadrature.

    The integrand has a t**(-l) endpoint singularity, so the substitution
    t = u**m with m = max(4, ceil(2 / (1 - l))) is applied first; the
    transformed integrand is at least C^1 at the origin and the fixed
    composite Gauss rule converges far past 1e-10.  Truncation at t = 40
    leaves a tail below 1e-17.
    """
    l = modulation.l
    m = max(4, math.ceil(2.0 / (1.0 - l)))
    u_max = 40.0 ** (1.0 / m)
    g = build_grid(u_max, 300, GAUSS, 8)
    u = g.nodes
    vals = m * u ** (m * (1.0 - l) - 1.0) * np.exp(-u ** m)
    return integrate(g, vals)


def _base_half_line_moments(base: BaseKernel) -> tuple[float, float]:
    """(int_0^inf K0, int_0^inf y K0(y) dy) by quadrature on an internal grid."""
    rate = base.min_decay_rate()
    x_max = 40.0 if math.isinf(rate) else max(40.0, 45.0 / rate)
    g = build_grid(x_max, max(400, int(math.ceil(x_max * 10.0))), GAUSS, 8)
    k = base.eval(g.nodes)
    return integrate(g, k), integrate(g, g.nodes * k)


# The true kernel is strictly sub-stochastic (its mass defect is positive),
# but measured row masses carry ~2e-15 of quadrature and rounding noise and
# can poke above 1, which would park the discrete fixed point above eta at
# far nodes.  The closure term is capped so every full row mass stays at or
# below 1 - MASS_MARGIN; condition checks still see the raw masses.
MASS_MARGIN = 1e-14


@dataclass(frozen=True)
class OperatorMatrix:
    """Nystrom operator A = diag(row_scale) (W + diag(diagonal)), applied as ``A @ v``.

    ``entries`` is the weighted kernel W[i, j] = w_j * K(x_i, t_j) as a
    :class:`StructuredKernel`: block-Toeplitz and block-Hankel spectra, O(N)
    memory and one O(N log N) FFT product per application.  No N x N matrix
    exists.  The kernel is symmetric, so the weighted operator satisfies
    w_i A[i, j] == w_j A[j, i] up to rounding.

    ``diagonal`` is the split-panel correction of :func:`cusp_correction`
    (the checked mass minus the Nystrom row sum) for a cusped base kernel,
    zeros otherwise, so ``A @ ones + tail_mass`` is the checked row mass.
    The corrected diagonal w_i K(x_i, x_i) + diagonal_i must stay positive;
    an operator whose diagonal does not is refused, never floored.
    ``row_scale`` is 1 except on rows whose quadrature mass exceeded
    1 - MASS_MARGIN, which are scaled down to it.

    ``tail_mass`` holds the kernel mass past the truncation point per row,
    :func:`node_tail` clipped under the cap; applications close the
    half-line integral there with the last node's integrand value (profiles
    are flat past x_max to the kernel-tail scale).  ``row_mass`` is the full
    half-line row mass, equal to 1 - gamma at the nodes.  Its quadrature
    part is ``A @ ones``: the same product that applies the operator, so the
    ceiling maps to eta times ``row_mass`` bit for bit.
    """

    entries: StructuredKernel
    diagonal: np.ndarray
    row_scale: np.ndarray
    tail_mass: np.ndarray
    row_mass: np.ndarray
    grid: HalfLineGrid
    kernel: KernelSpec

    def __post_init__(self) -> None:
        for array in (self.diagonal, self.row_scale, self.tail_mass, self.row_mass):
            array.setflags(write=False)

    @property
    def size(self) -> int:
        return int(self.row_mass.size)

    def __matmul__(self, v) -> np.ndarray:
        return self.row_scale * (self.entries @ v + self.diagonal * v)


@dataclass(frozen=True)
class Discretisation:
    """One kernel evaluation on one grid and everything built from it.

    ``gamma`` is the mass defect 1 - row_mass of the capped masses, set
    whether or not the report passes; it is ``1 - operator.row_mass`` bit
    for bit.  ``operator`` is None when the report fails.
    """

    report: ConditionReport
    gamma: np.ndarray
    operator: OperatorMatrix | None


def discretise(spec: KernelSpec, grid: HalfLineGrid, *, probe_count: int = 32,
               tol: float = 1e-9) -> Discretisation:
    """Evaluate K once on the grid: condition report, gamma and operator.

    One structured product gives the tail past x_max (:func:`node_tail`)
    and one ``kernel @ ones`` the quadrature masses, the cusp correction
    (:func:`cusp_correction`) on the diagonal.  The report reads the raw
    masses, so every mass check can fail.  Positivity is the structured
    kernel's bound over every node pair, symmetry its
    :func:`weight_asymmetry`; domination is evaluated on a lattice of grid
    nodes subsampled to at most ``probe_count`` per axis, skipping t = 0
    where the envelope is singular.

    The closure caps the masses under 1 - MASS_MARGIN, and gamma is read
    from the capped ones.  The operator is assembled only when the report
    passes; a corrected diagonal entry max(w_i K(x_i, x_i), floor) +
    correction_i at or below 0 then raises :class:`SpecRejectedError`.
    """
    if probe_count < 2:
        raise ValueError(f"probe_count must be at least 2, got {probe_count!r}")
    n = grid.size
    tail = node_tail(spec, grid)
    kernel = structured_kernel(spec, grid)
    correction = cusp_correction(spec, grid, grid.nodes)
    diagonal = np.zeros(n) if correction is None else correction
    # A @ ones before the row rescale, as OperatorMatrix.__matmul__ forms it
    quad = kernel @ np.ones(n) + diagonal
    masses = quad + tail
    raw_gamma = 1.0 - masses

    # the probe indices are sorted; np.unique would import numpy.ma for this
    idx = np.linspace(0, n - 1, min(probe_count, n)).round().astype(int)
    idx = idx[np.r_[True, np.diff(idx) > 0]]
    probe_x = grid.nodes[idx]
    probe_t = probe_x[probe_x > 0.0]
    envelope = (spec.modulation.lam_star(probe_t)[None, :]
                * spec.eval_kstar(probe_x[:, None] - probe_t[None, :]))
    sub = eval_kernel(spec, probe_x[:, None], probe_t[None, :])
    half_mass, half_moment = _base_half_line_moments(spec.base)
    scale = spec.kstar_scale()
    report = ConditionReport(
        positivity_ok=kernel.positive,
        sup_row_mass=float(masses.max()),
        gamma_min=float(raw_gamma.min()),
        gamma_max=float(raw_gamma.max()),
        gamma_tail=float(raw_gamma[-1]),
        symmetry_residual=weight_asymmetry(kernel, grid.weights),
        domination_margin=float((envelope - sub).min()),
        gamma_integral=integrate(grid, raw_gamma),
        lambda_star_excess_integral=lambda_star_excess_integral(spec.modulation),
        kstar_total_mass=2.0 * scale * half_mass,
        kstar_abs_moment=2.0 * scale * half_moment,
        tol=float(tol),
    )

    if report.passed and correction is not None:
        own = np.maximum(grid.weights * eval_kernel(spec, grid.nodes, grid.nodes),
                         POSITIVITY_FLOOR) + correction
        worst = int(own.argmin())
        if not own[worst] > 0.0:
            raise SpecRejectedError(
                f"cusp-corrected operator diagonal A[{worst}, {worst}] = "
                f"{float(own[worst])!r} at x = {float(grid.nodes[worst])!r} "
                "is not positive; refine the grid", report)
    cap = 1.0 - MASS_MARGIN
    # rows whose true mass defect sits below double resolution; scale by
    # ~1e-14 so the projected system keeps a representable gap under eta
    row_scale = np.where(quad > cap, cap / quad, 1.0)
    quad_mass = row_scale * quad
    tail = np.clip(tail, 0.0, np.maximum(cap - quad_mass, 0.0))
    row_mass = quad_mass + tail
    operator = (OperatorMatrix(entries=kernel, diagonal=diagonal, row_scale=row_scale,
                               tail_mass=tail, row_mass=row_mass, grid=grid, kernel=spec)
                if report.passed else None)
    return Discretisation(report=report, gamma=1.0 - row_mass, operator=operator)


def check_kernel_conditions(spec: KernelSpec, grid: HalfLineGrid,
                            probe_count: int = 32, tol: float = 1e-9) -> ConditionReport:
    """The condition report of :func:`discretise` (which raises for a refused
    operator); the report carries verdicts, callers decide what to do."""
    return discretise(spec, grid, probe_count=probe_count, tol=tol).report


def gamma_profile(spec: KernelSpec, grid: HalfLineGrid) -> np.ndarray:
    """Mass defect gamma(x_i) = 1 - row mass at every grid node, the
    ``gamma`` of :func:`discretise`."""
    return discretise(spec, grid).gamma
