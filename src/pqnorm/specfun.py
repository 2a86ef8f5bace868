"""Gamma function, Gaussian moments, hypergeometric coefficients, and the
Euler-integral continuation of the correlation function off the unit disk."""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import AccuracyError, DomainError

# Lanczos approximation, g = 7, 9 terms (double precision set).
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_PI = 0.5 * math.log(math.pi)


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0 by the Lanczos series (reflection below 1/2)."""
    if not x > 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        # log Gamma(x) = log(pi / sin(pi x)) - log Gamma(1 - x)
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.log(_SQRT_2PI) + (z + 0.5) * math.log(t) - t + math.log(acc)


def gamma_fn(x: float) -> float:
    """Gamma(x) for x > 0, accurate to comfortably more than 12 digits."""
    if not x > 0:
        raise DomainError(f"gamma_fn requires x > 0, got {x}")
    if x == float(int(x)) and x <= 20:
        return float(math.factorial(int(x) - 1))
    return math.exp(log_gamma(x))


def _log_moment(r: float) -> float:
    """log E|g|^r, exactly 0 at r = 0.  Working in logs keeps large r (e.g.
    Steinberg's bound for big p) safe."""
    if r < 0:
        raise DomainError(f"gaussian moment requires r >= 0, got {r}")
    if r == 0:
        return 0.0
    return (r / 2.0) * math.log(2.0) - _LOG_SQRT_PI + log_gamma((1.0 + r) / 2.0)


def gaussian_moment_pow(r: float) -> float:
    """E|g|^r for standard Gaussian g, i.e. the r-th absolute moment."""
    return math.exp(_log_moment(r))


def gaussian_moment(r: float) -> float:
    """The Gaussian moment norm (E|g|^r)^(1/r); the r = 0 limit is 1."""
    logpow = _log_moment(r)
    return math.exp(logpow / r) if r else 1.0


@dataclass(frozen=True)
class GaussianMoment:
    """The pair (r, gamma_r); gamma_2 = 1 and gamma_r is nondecreasing in r."""

    r: float
    value: float

    @classmethod
    def compute(cls, r: float) -> "GaussianMoment":
        return cls(r=float(r), value=gaussian_moment(r))

    def __post_init__(self):
        if self.r < 0:
            raise DomainError("exponent must be nonnegative")
        if not self.value > 0:
            raise ValueError("moment norm must be positive")


def _validate_lower_param(beta) -> None:
    if beta <= 0 and abs(beta - round(beta)) < 1e-12:
        raise DomainError(f"denominator parameter {beta} is a nonpositive integer")


def hyp_coeffs(kind: str, params, K: int):
    """Taylor coefficients of 1F1(alpha; beta; x) or 2F1(w, alpha; beta; x).

    ``params`` is (alpha, beta) for ``kind='1F1'`` and (w, alpha, beta) for
    ``kind='2F1'``.  Coefficient k is (alpha)_k/((beta)_k k!), resp.
    (w)_k (alpha)_k/((beta)_k k!), by the rising-factorial recurrence.
    Returns a :class:`~pqnorm.series.TruncatedSeries` of order K.
    """
    from .series import TruncatedSeries

    if K < 0:
        raise DomainError("order K must be >= 0")
    if kind == "1F1":
        alpha, beta = params
        _validate_lower_param(beta)
        c = np.zeros(K + 1)
        c[0] = 1.0
        for k in range(K):
            c[k + 1] = c[k] * (alpha + k) / ((beta + k) * (k + 1))
    elif kind == "2F1":
        w, alpha, beta = params
        _validate_lower_param(beta)
        c = np.zeros(K + 1)
        c[0] = 1.0
        for k in range(K):
            c[k + 1] = c[k] * (w + k) * (alpha + k) / ((beta + k) * (k + 1))
    else:
        raise DomainError(f"unknown hypergeometric kind {kind!r}")
    return TruncatedSeries(c)


def _on_excluded_ray(z: complex) -> bool:
    return abs(z.imag) <= 1e-13 * max(1.0, abs(z)) and abs(z.real) >= 1.0 - 1e-13


def euler_continuation(z: complex, a: float, b: float) -> complex:
    """Analytic continuation of rho * 2F1((1-a)/2, (1-b)/2; 3/2; rho^2).

    Evaluates  B((1-b)/2, 1+b/2)^{-1} * z * int_0^1 (1-t)^{b/2} /
    (t^{(1+b)/2} (1-z^2 t)^{(1-a)/2}) dt  after the substitution t = s^2,
    valid on the plane cut along (-inf,-1] and [1,inf).  Relative accuracy
    1e-8 for |z| <= 10; complex powers take the principal branch.
    """
    if not (0 <= a < 1 and 0 <= b < 1):
        raise DomainError(f"exponents must lie in [0,1), got a={a}, b={b}")
    z = complex(z)
    if _on_excluded_ray(z):
        raise DomainError(f"z={z} lies on the excluded real rays |Re z| >= 1")
    if z == 0:
        return 0.0 + 0.0j

    beta_norm = gamma_fn((1.0 - b) / 2.0) * gamma_fn(1.0 + b / 2.0) / gamma_fn(1.5)
    z2 = z * z

    def integrand(s, part):
        t = s * s
        val = 2.0 * (1.0 - t) ** (b / 2.0) * s ** (-b) * (1.0 - z2 * t) ** (-(1.0 - a) / 2.0)
        return val.real if part == 0 else val.imag

    total = 0.0 + 0.0j
    err = 0.0
    for part in (0, 1):
        out = integrate.quad(
            integrand, 0.0, 1.0, args=(part,), epsabs=1e-13, epsrel=1e-12,
            limit=200, full_output=1,
        )
        val, abserr = out[0], out[1]
        total += val if part == 0 else 1j * val
        err += abserr
    result = z * total / beta_norm
    if err > max(1e-8 * abs(result), 1e-11):
        raise AccuracyError(
            f"quadrature did not converge to target accuracy at z={z}",
            achieved=result, error_estimate=err,
        )
    return result
