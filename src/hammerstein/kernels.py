"""Kernel catalog on the quarter-plane and its discretisation on a grid.

Three symmetric kernel families are built from an even base kernel ``K0``
with half-line mass 1/2 and a modulation profile ``lambda`` with infimum
``d_star``:

* family ``A``: ``mu(x, t) * K0(x - t)``
* family ``B``: ``mu(x, t) * (K0(x - t) - delta * K0(x + t))``
* family ``C``: ``0.5 * (lam(x) + lam(t)) * (K0(x - t) + epsilon * K0(x + t))``

where ``mu(x, t) = lam(x) + lam(t) - lam(x) * lam(t)``.  All three are
strictly positive, symmetric, have row mass at most 1 approaching 1 at
infinity, and are dominated by ``lam_star(t) * kstar(x - t)``, where
``lam_star(t) = 1 + exp(-t) / t**l >= 1`` and ``kstar = kstar_scale * K0``.

Positivity, symmetry and domination hold for every (x, t) in R+ x R+ and
every spec ``KernelSpec`` accepts, so no run checks them.  K0 is even,
positive and non-increasing on R+ (a mixture's atoms have c, s > 0), also
floored at ``POSITIVITY_FLOOR``, and |x - t| <= x + t, so K0(x + t) <= K0(x - t).
With gap = 1 - lam in [0, 1 - d_star], mu = 1 - gap(x) gap(t).

* Positivity: 0.5 (lam(x) + lam(t)) >= d_star > 0 for C and
  mu >= 1 - (1 - d_star)**2 > 0 for A and B.  So A is positive, C adds
  epsilon K0(x + t) >= 0 and B has K0(x - t) - delta K0(x + t) >=
  (1 - delta) K0(x - t) > 0.  In floating point fl(delta b) <= b <= a for
  a = K0(x - t), b = K0(x + t), so every tabulated T - delta H entry is >= 0.
  It is 0 only where a = b = the floor and delta = 1 - 2**-53, whose product
  with the floor rounds to it; ``eval_kernel`` floors its values again.  The
  rounded modulation is positive while 1 - d_star rounds below 1, that is
  for d_star > 2**-54; below that it rounds to 0 at x = t = 0.
* Symmetry: ``eval_kernel(x, t) == eval_kernel(t, x)`` bit for bit, as
  x - t == -(t - x), K0 is even in its argument and lam(x) + lam(t) and
  gap(x) gap(t) commute.  In :func:`structured_kernel`, T_lk[-d] and T_kl[d]
  take exactly negated arguments and H_lk = H_kl, so w_i W_ij = w_j W_ji
  and a product adds only FFT rounding.
* Domination: lam <= 1, mu <= 1 and delta, epsilon < 1, so
  K <= kstar(x - t) <= lam_star(t) kstar(x - t), by
  A: mu K0(x - t) <= K0(x - t); B: mu (K0(x - t) - delta K0(x + t)) <= K0(x - t);
  C: 0.5 (lam(x) + lam(t)) (K0(x - t) + epsilon K0(x + t)) <= (1 + epsilon) K0(x - t).
  The floors keep this order, and rounding keeps it to a few ulps.

Each family is a diagonal scaling of ``K0(x - t)`` and ``K0(x + t)`` (its
row of the one family table, ``_factors``), so on the equal panels every
quadrature grid has its Nystrom matrix is block-Toeplitz
plus block-Hankel.  :func:`structured_kernel` keeps it as the real-FFT
spectra of those blocks (O(N) memory) and applies it in O(N log N).  The
same builder gives the tail past x_max at the nodes as one N x pad product
whose columns continue the grid's panels (:func:`node_tail`), without the
image term where its bound is below 2**-53: that table is at the floor
there, and its FFT would run on subnormals.  :func:`kernel_matrix`, the
dense N x N form, is kept as a test oracle.

:func:`discretise` is the one entry from a kernel and a grid: the condition
checks on the raw node masses, the :class:`OperatorMatrix` on the capped
ones and the one gamma every later stage reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FieldError, NumericalBreakdownError, SpecRejectedError
from .quadrature import GAUSS, HalfLineGrid, build_grid, gauss_legendre, integrate

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

# structured_kernel tabulates its Toeplitz and Hankel sequences a few block
# pairs at a time, at most this many values per table (64 KiB) or one pair:
# the 16 pairs of a 1600-node 4-point Gauss grid take 2 tables, a large grid
# one pair per table.  A table per pair costs about 1 ms more per call on
# small grids, in loop overhead.
FFT_BLOCK_ENTRIES = 1 << 13

# Tolerance of the kernel checks.  Every accepted kernel's row masses reach it
# (a cusp is integrated split), so a failed check points at the grid.
CHECK_TOL = 1e-9

FAMILIES = ("A", "B", "C")
VARIANTS = ("gaussian", "exp-mixture")
LAMBDA_FORMS = ("exp-gap", "rational-gap")

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
                raise FieldError("atoms", "are taken only by the exp-mixture variant")
            return
        if self.variant not in VARIANTS:
            raise FieldError("variant", f"must be one of {VARIANTS}, got {self.variant!r}")
        if not self.atoms:
            raise FieldError("atoms", "must hold at least one (c, s) pair for an exp-mixture")
        try:
            atoms = tuple((float(c), float(s)) for c, s in self.atoms)
        except OverflowError:       # an integer beyond float range
            raise FieldError("atoms", f"must be finite numbers, got {self.atoms!r}") from None
        for c, s in atoms:
            if not (0.0 < c < math.inf and 0.0 < s < math.inf):
                raise FieldError(
                    None, f"mixture atoms need finite c > 0 and s > 0, got ({c}, {s})")
        object.__setattr__(self, "atoms", atoms)
        mass = math.fsum(2.0 * c / s for c, s in atoms)
        if abs(mass - 1.0) > 1e-12:
            raise FieldError(None, f"mixture half-line mass must be 1/2: sum 2c/s = {mass!r} != 1")

    def eval(self, x):
        """Evaluate the base kernel; even in x, floored to stay positive."""
        x = np.asarray(x, dtype=float)
        if self.variant == "gaussian":
            val = np.exp(-x * x) / _SQRT_PI
        else:
            ax = np.abs(x)
            val = sum(c * np.exp(-ax * s) for c, s in self.atoms)
        return np.maximum(val, POSITIVITY_FLOOR)

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
    """Modulation profile lambda and the envelope exponent l.

    ``lambda_form="exp-gap"`` takes ``lam(x) = 1 - (1 - d_star) * exp(-x)``;
    ``"rational-gap"`` takes ``lam(x) = 1 - (1 - d_star) / (1 + x^2)``.  Both
    satisfy ``d_star <= lam <= 1``.  The domination envelope
    ``lam_star(t) = 1 + exp(-t) / t**l``, with ``l`` in (0, 1), enters a run
    only through :func:`lambda_star_excess_integral`.
    """

    lambda_form: str = "exp-gap"
    d_star: float = 0.5
    l: float = 0.5

    def __post_init__(self) -> None:
        if self.lambda_form not in LAMBDA_FORMS:
            raise FieldError("lambda_form",
                             f"must be one of {LAMBDA_FORMS}, got {self.lambda_form!r}")
        if not 0.0 < self.d_star <= 1.0:
            raise FieldError("d_star", f"must lie in (0, 1], got {self.d_star!r}")
        if not 0.0 < self.l < 1.0:
            raise FieldError("l", f"must lie in (0, 1), got {self.l!r}")

    def lam_gap(self, x):
        """1 - lam(x), evaluated in closed form to keep the mu identity exact."""
        x = np.asarray(x, dtype=float)
        if self.lambda_form == "exp-gap":
            return (1.0 - self.d_star) * np.exp(-x)
        return (1.0 - self.d_star) / (1.0 + x * x)

    def lam(self, x):
        return 1.0 - self.lam_gap(x)


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
            raise FieldError("family", f"must be one of {FAMILIES}, got {self.family!r}")
        if self.family == "B" and (self.delta is None or not 0.0 < self.delta < 1.0):
            raise FieldError("delta", f"must lie in (0, 1), got {self.delta!r}")
        if self.family == "C" and (self.epsilon is None or not 0.0 < self.epsilon < 1.0):
            raise FieldError("epsilon", f"must lie in (0, 1), got {self.epsilon!r}")

    def kstar_scale(self) -> float:
        """Scale of the dominating difference kernel: (1 + epsilon) K0 for family C, K0 otherwise."""
        return 1.0 + self.epsilon if self.family == "C" else 1.0


def _factors(spec: KernelSpec, x: np.ndarray):
    """The family table: (image, left(x), right(x)), two terms each, with
    K(x, t) = sum_r left_r(x) right_r(t) (K0(x - t) + image * K0(x + t))."""
    if spec.family == "C":
        lam = spec.modulation.lam(x)
        return spec.epsilon, (0.5 * lam, np.full_like(x, 0.5)), (np.ones_like(x), lam)
    gap = spec.modulation.lam_gap(x)
    image = 0.0 if spec.family == "A" else -spec.delta
    return image, (np.ones_like(x), -gap), (np.ones_like(x), gap)


def eval_kernel(spec: KernelSpec, x, t):
    """Evaluate K(x, t) for x, t >= 0 (arrays broadcast); strictly positive."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(x < 0.0) or np.any(t < 0.0):
        raise ValueError("kernel arguments must be nonnegative")
    (image, left, _), (_, _, right) = _factors(spec, x), _factors(spec, t)
    # 1 * 1 + (-gap(x)) gap(t) rounds as mu, 0.5 lam(x) + 0.5 lam(t) as 0.5 (lam(x) + lam(t))
    k = spec.base.eval(x - t)
    if image:
        k = k + image * spec.base.eval(x + t)
    return np.maximum((left[0] * right[0] + left[1] * right[1]) * k, POSITIVITY_FLOOR)


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

    Row node i = P p + k (panel P < m, point k of p) sits at x_i = h P + c_k
    and column node j = Q p + l (Q < n) at t_j = h (shift + Q) + c_l, so
    K0(x_i - t_j) = T_kl[P - Q] and K0(x_i + t_j) = H_kl[P + Q]: p^2 Toeplitz
    and p^2 Hankel blocks of m x n panels, each fixed by m + n - 1 values of
    K0.  Every family is

        sum_r diag(left[r]) (T + image * H) diag(right[r]),

    with the quadrature weights folded into ``right``.  ``spectra[k, l]``
    holds the real FFT of the circulant embedding of T_kl and
    ``spectra[k, p + l]`` the image weight times that of the zero-padded
    H_kl; a kernel without an image term has only the first p columns.
    ``kernel @ v`` takes one batch of forward real FFTs, a p x 2p
    contraction per frequency (a Hankel block acts through the conjugate
    spectrum of v) and one batch of inverse FFTs: O((m + n) p log(m + n))
    time, and no BLAS call; it returns the m p row values.  With the panel
    rule of :func:`~.quadrature.gauss_legendre`, the whole run makes no BLAS
    or LAPACK call, so its results depend neither on the BLAS build nor on
    its thread count.
    """

    spectra: np.ndarray
    left: np.ndarray
    right: np.ndarray
    fft_size: int

    def __post_init__(self) -> None:
        for array in (self.spectra, self.left, self.right):
            array.setflags(write=False)

    @property
    def nbytes(self) -> int:
        """Bytes one product reads: the spectra and the scalings."""
        return self.spectra.nbytes + self.left.nbytes + self.right.nbytes

    def __matmul__(self, v) -> np.ndarray:
        terms, (p, columns, freqs) = self.left.shape[0], self.spectra.shape
        # (terms, p, n): the scaled v, one row per Gauss point, panels along the last axis
        u = (self.right * v).reshape(terms, -1, p).transpose(0, 2, 1)
        m = self.left.shape[1] // p
        # each temporary is dropped once the next step has read it, so a
        # product holds at most about two spectra of v besides the output
        u_hat = np.fft.rfft(u, n=self.fft_size, axis=-1)
        del u
        if columns > p:     # then their conjugates, for the Hankel blocks, in one buffer
            forward, u_hat = u_hat, np.empty((terms, columns, freqs), dtype=complex)
            u_hat[:, :p] = forward
            np.conjugate(forward, out=u_hat[:, p:])
            del forward
        y_hat = np.einsum("kjf,rjf->rkf", self.spectra, u_hat)
        del u_hat
        y = np.fft.irfft(y_hat, n=self.fft_size, axis=-1)[..., :m]
        del y_hat
        return (self.left * y.transpose(0, 2, 1).reshape(terms, -1)).sum(axis=0)


def structured_kernel(spec: KernelSpec, grid: HalfLineGrid, shift: int = 0,
                      panels: int | None = None) -> StructuredKernel:
    """The weighted Nystrom matrix from K0 at its Toeplitz and Hankel arguments.

    The rows are the grid's nodes.  The columns are ``panels`` panels (the
    grid's own count by default) of the grid's width and rule, starting
    ``shift`` panels in: the default is the grid's square matrix, and
    ``shift = grid.n_panels`` a run of panels past x_max (:func:`node_tail`).
    K0 is evaluated at the 2 (m + n - 1) p^2 distinct arguments only, never
    on the node pairs, and a few block pairs (k, l) at a time: the memory
    beyond the returned spectra and scalings is a few tables of at most
    max(FFT_BLOCK_ENTRIES, m + n) values.

    The image term is dropped when its bound |image| K0(h shift) n h is at
    most 2**-53: K0 is non-increasing on R+ and every Hankel argument is at
    least h shift, the modulation is at most 1 (mu <= 1, 0.5 (lam(x) +
    lam(t)) <= 1) and the column weights sum to n h, so no row changes by
    more than the product's own rounding.  Past x_max that table is at or
    near the floor, and its FFT and contraction would run on subnormals,
    tens of times slower than on normal values.
    """
    p, m, h = grid.points_per_panel, grid.n_panels, grid.h
    n = m if panels is None else panels
    offsets = grid.nodes[:p]
    image, left = _factors(spec, grid.nodes)[:2]
    left = np.stack(left)
    columns = (h * np.arange(shift, shift + n)[:, None] + offsets).ravel()
    right = np.stack(_factors(spec, columns)[2]) * np.tile(grid.weights[:p], n)
    del columns     # not held while the spectra are built
    if abs(image) * float(spec.base.eval(h * shift)) * (n * h) <= 2.0 ** -53:
        image = 0.0

    # the p x p block pairs (k, l) are tabulated a few at a time, at most
    # FFT_BLOCK_ENTRIES values per table; pocketfft transforms each sequence
    # on its own, so the spectra are bit for bit those of one batch
    size = _fft_size(m + n - 1)
    spectra = np.empty((p, 2 * p if image else p, size // 2 + 1), dtype=complex)
    chunk = max(1, FFT_BLOCK_ENTRIES // size)
    embedded = np.zeros((min(chunk, p * p), size))
    lags = h * np.arange(1 - n - shift, m - shift)      # h (P - Q - shift) over the lags
    for start in range(0, p * p, chunk):
        k, l = np.divmod(np.arange(start, min(start + chunk, p * p)), p)
        toeplitz = spec.base.eval(lags + (offsets[k] - offsets[l])[:, None])
        circulant = embedded[:k.size]
        circulant[:, :m] = toeplitz[:, n - 1:]
        circulant[:, size - n + 1:] = toeplitz[:, :n - 1]
        spectra[k, l] = np.fft.rfft(circulant, axis=-1)
        if image:
            hankel = spec.base.eval(h * np.arange(shift, shift + m + n - 1)
                                    + (offsets[k] + offsets[l])[:, None])
            spectra[k, p + l] = image * np.fft.rfft(hankel, n=size, axis=-1)
    return StructuredKernel(spectra=spectra, left=left, right=right, fft_size=size)


def _tail_extension(base: BaseKernel, grid: HalfLineGrid) -> HalfLineGrid:
    """The grid continued past x_max by ceil(pad / h) or more panels of its width h.
    The panel count k grows until (h k) / k == h (a power of two always passes),
    so the first N nodes and weights are the grid's, bit for bit; the rest lie
    past x_max.  No memory holds 2**53 nodes, nor would the search for k end
    past them, so such a continuation is a :class:`NumericalBreakdownError`.

    Its panels past x_max are the columns of :func:`node_tail`'s N x pad
    product, which drops the image term where |image| K0(x_max) pad <=
    2**-53 (that table's FFT would run on subnormals), and the nodes past
    x_max of the dense :func:`tail_row_mass`.
    """
    rate = base.min_decay_rate()
    pad = 12.0 if math.isinf(rate) else max(12.0, 40.0 / rate)
    h = grid.h
    nodes = (grid.n_panels + pad / h) * grid.points_per_panel     # inf past float range
    if not nodes < 2.0 ** 53:
        raise NumericalBreakdownError(f"the tail continuation past x_max = {grid.x_max!r} "
                                      f"needs {nodes:.3g} nodes at panel width {h!r}")
    k = grid.n_panels + math.ceil(pad / h)
    while h * k / k != h:
        k += 1
    return build_grid(h * k, k, GAUSS, grid.points_per_panel)


def tail_row_mass(spec: KernelSpec, grid: HalfLineGrid, x):
    """Kernel mass beyond the truncation point, int_{x_max}^inf K(x, t) dt, at any x.

    Row masses must cover the whole half-line; for x near x_max roughly half
    of the kernel bump sits past the truncation point, and dropping it would
    fake a mass defect of order 1/2 there.  The rule is the grid's own,
    continued (:func:`_tail_extension`).  This row-by-row form serves
    off-grid points and is the oracle of :func:`node_tail`, the same sum as
    one N x pad structured product.  It always keeps the image term, which
    that product drops where |image| K0(x_max) pad <= 2**-53 because its
    table there is at the floor and its FFT would run on subnormals.
    """
    extended, n = _tail_extension(spec.base, grid), grid.size
    return apply_kernel(spec, x, extended.nodes[n:], extended.weights[n:])


def cusp_correction(spec: KernelSpec, grid: HalfLineGrid, x):
    """Split-panel correction to the grid's row mass at each x, or None.

    For a base kernel with a cusp, K(x, .) has a derivative jump at t = x, and
    the p-point Gauss rule on the panel [a, a + h] that holds x drops to
    second order.  The correction is the same p-point rule on [a, x] and on
    [x, a + h] minus the grid's own rule on that panel, so grid quadrature
    plus correction integrates every piece of the row with a rule on which
    the integrand is smooth (singularity subtraction at a located kink).
    Points past x_max get 0: their cusp lies in the tail quadrature.

    Returns None for a smooth base kernel.
    """
    if not spec.base.has_cusp:
        return None
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    p = grid.points_per_panel
    h = grid.h
    panel = np.clip(np.floor(flat / h).astype(int), 0, grid.n_panels - 1)
    a = h * panel
    left = np.clip(flat - a, 0.0, h)[:, None]
    right = np.clip(a + h - flat, 0.0, h)[:, None]
    xi, wi = gauss_legendre(p)
    u, wu = 0.5 * (xi + 1.0), 0.5 * wi
    own = panel[:, None] * p + np.arange(p)
    t = np.concatenate([a[:, None] + left * u, flat[:, None] + right * u,
                        grid.nodes[own]], axis=1)
    w = np.concatenate([left * wu, right * wu, -grid.weights[own]], axis=1)
    out = (eval_kernel(spec, flat[:, None], t) * w).sum(axis=1)
    out[flat > grid.x_max] = 0.0
    return out.reshape(x.shape)


def node_tail(spec: KernelSpec, grid: HalfLineGrid) -> np.ndarray:
    """int_{x_max}^inf K(x_i, t) dt at the nodes: one N x pad product of
    :func:`structured_kernel`, the grid's nodes as rows and the continuation
    panels of :func:`_tail_extension` as columns, applied to ones.  The image
    term is dropped where |image| K0(x_max) pad <= 2**-53, below the
    product's rounding: there its table is at or near the floor, and its FFT
    and contraction would run on subnormals, tens of times slower."""
    shift, p = grid.n_panels, grid.points_per_panel
    panels = _tail_extension(spec.base, grid).n_panels - shift
    return structured_kernel(spec, grid, shift, panels) @ np.ones(panels * p)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the structural checks plus the certificate constants.

    ``passed`` requires raw row mass at most ``1 + CHECK_TOL`` (so raw
    mass defect at least ``-CHECK_TOL`` everywhere) and a largest defect
    above ``CHECK_TOL`` (a conservative kernel is flagged, not solved).
    Positivity, symmetry and domination are proven for every spec (module
    docstring), so they have no verdict here.
    """

    sup_row_mass: float
    gamma_max: float
    gamma_tail: float
    gamma_integral: float
    lambda_star_excess_integral: float
    kstar_total_mass: float
    kstar_abs_moment: float

    @property
    def mass_defect_constant(self) -> float:
        """int gamma + int (lam_star - 1) * int kstar + int |y| kstar(y) dy."""
        return (self.gamma_integral
                + self.lambda_star_excess_integral * self.kstar_total_mass
                + self.kstar_abs_moment)

    @property
    def passed(self) -> bool:
        return bool(self.sup_row_mass <= 1.0 + CHECK_TOL and self.gamma_max > CHECK_TOL)


def lambda_star_excess_integral(modulation: ModulationSet) -> float:
    """int_0^inf (lam_star(t) - 1) dt = int_0^inf exp(-t) t**(-l) dt = Gamma(1 - l)."""
    return math.gamma(1.0 - modulation.l)


def _base_half_line_moments(base: BaseKernel) -> tuple[float, float]:
    """(int_0^inf K0, int_0^inf y K0(y) dy) in closed form: (1/2, 1/(2 sqrt(pi)))
    for the Gaussian, (sum c/s, sum c/s^2) for the exponential mixture."""
    if base.variant == "gaussian":
        return 0.5, 0.5 / _SQRT_PI
    return (math.fsum(c / s for c, s in base.atoms),
            math.fsum(c / (s * s) for c, s in base.atoms))


# The true kernel is strictly sub-stochastic (its mass defect is positive),
# but measured row masses carry ~2e-15 of quadrature and rounding noise and
# can poke above 1, which would park the discrete fixed point above eta at
# far nodes.  The closure term is capped so every full row mass stays at or
# below 1 - MASS_MARGIN; condition checks still see the raw masses.
MASS_MARGIN = 1e-14


@dataclass(frozen=True)
class OperatorMatrix:
    """Closed Nystrom operator L = diag(row_scale) (W + diag(diagonal)) + tail e_N^T,
    applied as ``L @ v``; the iterated map is T(f) = L G(f).

    ``entries`` is the weighted kernel W[i, j] = w_j * K(x_i, t_j) as a
    :class:`StructuredKernel`: block-Toeplitz and block-Hankel spectra, O(N)
    memory and one O(N log N) FFT product per application.  No N x N matrix
    exists.  The kernel is symmetric, so the open part A = diag(row_scale)
    (W + diag(diagonal)) satisfies w_i A[i, j] == w_j A[j, i] up to rounding.

    ``diagonal`` is the split-panel correction of :func:`cusp_correction`
    (the checked mass minus the Nystrom row sum) for a cusped base kernel,
    zeros otherwise.  The corrected diagonal w_i K(x_i, x_i) + diagonal_i
    must stay positive; an operator whose diagonal does not is refused,
    never floored.  ``row_scale`` is 1 except on rows whose quadrature mass
    exceeded 1 - MASS_MARGIN, which are scaled down to it.

    ``tail_mass`` holds the kernel mass past the truncation point per row,
    :func:`node_tail` clipped to keep the row mass in [0, 1 - MASS_MARGIN];
    the product closes the half-line integral there with the last entry of
    ``v`` (profiles are flat past x_max to the kernel-tail scale), so every
    entry of L is positive and zero stays a fixed point of T.
    ``row_mass`` is ``L @ ones`` bit for bit, the full half-line row mass,
    and ``gamma`` = 1 - row_mass the mass defect at the nodes: the ceiling
    maps to eta times ``row_mass`` bit for bit.
    """

    entries: StructuredKernel
    diagonal: np.ndarray
    row_scale: np.ndarray
    tail_mass: np.ndarray
    row_mass: np.ndarray
    grid: HalfLineGrid

    def __post_init__(self) -> None:
        for array in (self.diagonal, self.row_scale, self.tail_mass, self.row_mass):
            array.setflags(write=False)

    @property
    def size(self) -> int:
        return self.grid.size

    @property
    def gamma(self) -> np.ndarray:
        return 1.0 - self.row_mass

    def __matmul__(self, v) -> np.ndarray:
        return self.row_scale * (self.entries @ v + self.diagonal * v) + v[-1] * self.tail_mass


@dataclass(frozen=True)
class Discretisation:
    """One kernel evaluation on one grid and everything built from it.

    ``gamma`` is ``OperatorMatrix.gamma``, set whether or not the report
    passes; ``operator`` is None when the report fails.
    """

    report: ConditionReport
    gamma: np.ndarray
    operator: OperatorMatrix | None


def discretise(spec: KernelSpec, grid: HalfLineGrid) -> Discretisation:
    """Evaluate K once on the grid: condition report, gamma and operator.

    One structured product gives the tail past x_max (:func:`node_tail`)
    and one ``kernel @ ones`` the quadrature masses, the cusp correction
    (:func:`cusp_correction`) on the diagonal.  The report reads the raw
    masses, so every mass check can fail.  Positivity, symmetry and
    domination are proven (module docstring), so a smooth base kernel is
    never evaluated pointwise; a cusped one is, in its cusp correction and
    on the diagonal: (3p + 1) N values.

    The closure caps the masses under cap = 1 - MASS_MARGIN, and gamma is
    read from the capped ones.  The operator is returned only when the
    report passes; a corrected diagonal entry max(w_i K(x_i, x_i), floor) +
    correction_i at or below 0 then raises :class:`SpecRejectedError`.

    The cap proves 0 <= gamma <= 1 for every spec and grid, passed or not,
    all that the combined equation's conditions 1)-4) need (the nemytsky
    module docstring), so no run checks it:

    * ``quad`` >= 0: every entry w_j K(x_i, t_j) is positive (module
      docstring), and the cusp correction only swaps the own panel's rule
      for a split rule with positive weights.  A row whose mass is below the
      FFT product's rounding (a tiny d_star, a coarse grid) reads about
      -1e-15 at worst, and the tail's clip lifts it to 0;
    * ``quad_mass`` = row_scale quad <= cap, and the tail is clipped into
      [max(-quad_mass, 0), max(cap - quad_mass, 0)], so ``row_mass`` =
      quad_mass + tail, which is ``operator @ ones`` bit for bit, lies in
      [0, cap], the lower end exactly and the upper to a few ulps of 1;
    * so gamma = 1 - row_mass lies in [MASS_MARGIN, 1] up to those ulps.
    """
    n = grid.size
    tail = node_tail(spec, grid)
    kernel = structured_kernel(spec, grid)
    correction = cusp_correction(spec, grid, grid.nodes)
    diagonal = np.zeros(n) if correction is None else correction
    # the open part of operator @ ones before the row rescale, as __matmul__ forms it
    quad = kernel @ np.ones(n) + diagonal
    masses = quad + tail
    raw_gamma = 1.0 - masses
    half_mass, half_moment = _base_half_line_moments(spec.base)
    scale = spec.kstar_scale()
    report = ConditionReport(
        sup_row_mass=float(masses.max()),
        gamma_max=float(raw_gamma.max()),
        gamma_tail=float(raw_gamma[-1]),
        gamma_integral=integrate(grid, raw_gamma),
        lambda_star_excess_integral=lambda_star_excess_integral(spec.modulation),
        kstar_total_mass=2.0 * scale * half_mass,
        kstar_abs_moment=2.0 * scale * half_moment,
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
    row_scale = cap / np.maximum(quad, cap)
    quad_mass = row_scale * quad
    tail = np.clip(tail, np.maximum(-quad_mass, 0.0), np.maximum(cap - quad_mass, 0.0))
    operator = OperatorMatrix(entries=kernel, diagonal=diagonal, row_scale=row_scale,
                              tail_mass=tail, row_mass=quad_mass + tail, grid=grid)
    return Discretisation(report=report, gamma=operator.gamma,
                          operator=operator if report.passed else None)


def check_kernel_conditions(spec: KernelSpec, grid: HalfLineGrid) -> ConditionReport:
    """The condition report of :func:`discretise` (which raises for a refused
    operator); the report carries verdicts, callers decide what to do."""
    return discretise(spec, grid).report


def gamma_profile(spec: KernelSpec, grid: HalfLineGrid) -> np.ndarray:
    """Mass defect gamma(x_i) = 1 - row mass at every grid node, the
    ``gamma`` of :func:`discretise`."""
    return discretise(spec, grid).gamma
