"""Working-memory bounds of the stages that set a run's peak, by tracemalloc.

numpy reports its array buffers to tracemalloc, so a traced peak counts every
temporary a stage allocates.  Each bound is one the stage meets by walking its
tables in blocks or dropping its temporaries early: the structured kernel's
block pairs, one structured product's spectra of v, the tail past x_max as
one N x pad product and the ceiling iteration's two-iterate window.
"""

import tracemalloc

import numpy as np
import pytest

import hammerstein as hs
from hammerstein.kernels import node_tail, structured_kernel

from conftest import make_G, make_kernel

MIB = 1 << 20


def traced_peak(call):
    """(call(), bytes allocated at the peak of the call above its start)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_structured_kernel_peak_near_its_spectra(family):
    grid = hs.build_grid(400.0, 10000, hs.GAUSS, 4)      # N = 40000
    kernel, peak = traced_peak(lambda: structured_kernel(make_kernel(family), grid))
    assert peak <= 2 * kernel.spectra.nbytes, (
        f"peak {peak / MIB:.2f} MiB against spectra {kernel.spectra.nbytes / MIB:.2f} MiB")


@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_structured_product_peak_near_its_spectra(family):
    # a product keeps the forward transforms and their conjugates in one
    # buffer and drops each temporary once read: it holds at most about two
    # spectra of v at a time, which is 1.0 times the kernel's spectra for A
    # and 0.75 times them for B and C (their spectra carry the Hankel half)
    grid = hs.build_grid(400.0, 10000, hs.GAUSS, 4)      # N = 40000
    kernel = structured_kernel(make_kernel(family), grid)
    _, peak = traced_peak(lambda: kernel @ np.ones(grid.size))
    assert peak <= 1.25 * kernel.spectra.nbytes, (
        f"peak {peak / MIB:.2f} MiB against spectra {kernel.spectra.nbytes / MIB:.2f} MiB")


@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_node_tail_peak_below_the_grid_kernel(family):
    # the tail's columns are its 3000 pad panels, and past x_max = 40 the
    # image term of B and C is dropped
    grid = hs.build_grid(40.0, 10000, hs.GAUSS, 4)       # N = 40000
    spec = make_kernel(family)
    spectra = structured_kernel(spec, grid).spectra.nbytes
    _, peak = traced_peak(lambda: node_tail(spec, grid))
    assert peak <= 2.5 * spectra, (
        f"peak {peak / MIB:.2f} MiB against the grid's spectra {spectra / MIB:.2f} MiB")


def test_solve_picard_peak_independent_of_iteration_count():
    grid = hs.build_grid(100.0, 2500, hs.GAUSS, 4)       # N = 10000
    A = hs.discretise(make_kernel("C"), grid).operator
    G = make_G("I")

    # max_iter raises nothing: the capped solve returns its partial report
    partial, short_peak = traced_peak(lambda: hs.solve_picard(A, G, tol=1e-10, max_iter=10))
    solve, full_peak = traced_peak(lambda: hs.solve_picard(A, G, tol=1e-10, max_iter=500))
    assert partial.converged is False and partial.rate_bound_ok is False
    assert partial.iterations == 10 and solve.converged and solve.iterations >= 25
    # a kept history would add one N-vector per iteration past the tenth
    assert full_peak <= short_peak + A.size * np.dtype(float).itemsize
