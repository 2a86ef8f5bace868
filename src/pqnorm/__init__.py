"""Certified approximation bounds and Gaussian Holder-dual rounding for
p->q operator norms."""

from ._kernels import BACKEND
from .errors import AccuracyError, CertificationError, DomainError, NumericalError
from .krivine import NormPair, approx_ratio, compute_c_ab
from .relaxation import ProblemInstance, brute_force_norm, solve_cp
from .specfun import euler_continuation, gamma_fn, gaussian_moment

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "BACKEND",
    "CertificationError",
    "DomainError",
    "NormPair",
    "NumericalError",
    "ProblemInstance",
    "approx_ratio",
    "brute_force_norm",
    "compute_c_ab",
    "euler_continuation",
    "gamma_fn",
    "gaussian_moment",
    "solve_cp",
    "__version__",
]
