"""Certified monotone solvers for nonlinear integral equations on the half-line.

The package discretises f(x) = int_0^inf K(x, t) G(f(t)) dt on a truncated
grid, iterates from the constant ceiling, and certifies the structural
conditions, the geometric convergence envelope and the analytic bounds
numerically.  A companion solver handles the combined pointwise-plus-integral
equation built on top of the same kernel.
"""

__version__ = "0.1.0"

import os

# No stage calls BLAS or LAPACK, yet the first import below loads numpy and
# OpenBLAS starts its worker pool with it; an idle worker then spins for
# 2**28 cycles.  4 is OpenBLAS's least timeout.  The pool keeps its size, a
# value set in the environment wins, and once numpy is loaded this is inert.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .analysis import (AsymptoteCertificate, ExcessIntegralCertificate,
                       TailIntegralCertificate, UniquenessProbeReport,
                       asymptote_certificate, excess_integral_certificate,
                       jensen_certificate, tail_integral_certificate,
                       uniqueness_probe)
from .errors import (ConfigError, FieldError, HammersteinError,
                     NumericalBreakdownError, SpecRejectedError)
from .kernels import (BaseKernel, ConditionReport, Discretisation, KernelSpec,
                      ModulationSet, OperatorMatrix, check_kernel_conditions,
                      discretise, eval_kernel, gamma_profile, kernel_matrix,
                      lambda_star_excess_integral)
from .nemytsky import (NemytskyReport, NemytskySpec, check_nemytsky_conditions,
                       solve_nemytsky)
from .nonlinearity import (GConditionReport, NonlinearitySpec,
                           check_G_conditions, eval_G)
from .picard import (SolveReport, apply_hammerstein, assemble_operator,
                     estimate_sigma0, evaluate_profile, fixed_point_iterate,
                     rate_envelope, solve_picard, verify_rate_bound)
from .quadrature import GAUSS, HalfLineGrid, build_grid, integrate, refine
