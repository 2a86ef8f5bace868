"""Gamma function, Gaussian moments, hypergeometric coefficients, and the
Euler-integral continuation of the correlation function off the unit disk."""

import math
import sys

import numpy as np

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
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _exp_in_range(logval: float, what: str) -> float:
    """exp(logval); DomainError naming ``what`` past the float64 range."""
    if logval > _LOG_FLOAT_MAX:
        raise DomainError(f"{what} exceeds the float64 maximum {sys.float_info.max:.4g}")
    return math.exp(logval)


def log_gamma(x: float) -> float:
    """log Gamma(x) for finite x > 0 by the Lanczos series (reflection
    below 1/2)."""
    if not 0 < x < math.inf:
        raise DomainError(f"log_gamma requires finite x > 0, got {x}")
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
    """Gamma(x) for finite x > 0, accurate to comfortably more than 12
    digits.  DomainError past x ~ 171.6, where Gamma exceeds the float64
    range."""
    if not 0 < x < math.inf:
        raise DomainError(f"gamma_fn requires finite x > 0, got {x}")
    if x == float(int(x)) and x <= 20:
        return float(math.factorial(int(x) - 1))
    return _exp_in_range(log_gamma(x), f"Gamma(x) at x={x}")


def _log_moment(r: float) -> float:
    """log E|g|^r, exactly 0 at r = 0.  Working in logs keeps large r (e.g.
    Steinberg's bound for big p) safe."""
    if not 0 <= r < math.inf:
        raise DomainError(f"gaussian moment requires finite r >= 0, got {r}")
    if r == 0:
        return 0.0
    return (r / 2.0) * math.log(2.0) - _LOG_SQRT_PI + log_gamma((1.0 + r) / 2.0)


def gaussian_moment_pow(r: float) -> float:
    """E|g|^r for standard Gaussian g, i.e. the r-th absolute moment.

    DomainError past r ~ 301, where the moment exceeds the float64 range."""
    return _exp_in_range(_log_moment(r), f"E|g|^r at r={r}")


def gaussian_moment(r: float) -> float:
    """The Gaussian moment norm (E|g|^r)^(1/r); the r = 0 limit is 1."""
    logpow = _log_moment(r)
    if math.isinf(logpow):
        # log Gamma((1 + r) / 2), and so log E|g|^r, passes the float64 range
        # from r ~ 5.1e305 on; divided by r, the terms of order 1/r vanish
        # and what is left is sqrt(2 t / e), with t the Lanczos point
        # (1 + r) / 2 + g - 1/2 of log_gamma
        return math.sqrt(2.0 * ((1.0 + r) / 2.0 + _LANCZOS_G - 0.5) / math.e)
    return math.exp(logpow / r) if r else 1.0


def _validate_lower_param(beta) -> None:
    if beta <= 0 and abs(beta - round(beta)) < 1e-12:
        raise DomainError(f"denominator parameter {beta} is a nonpositive integer")


def hyp_coeffs(kind: str, params, K: int):
    """Taylor coefficients of 1F1(alpha; beta; x) or 2F1(w, alpha; beta; x).

    ``params`` is (alpha, beta) for ``kind='1F1'`` and (w, alpha, beta) for
    ``kind='2F1'``.  Coefficient k is (alpha)_k/((beta)_k k!), resp.
    (w)_k (alpha)_k/((beta)_k k!), by the rising-factorial recurrence.
    Returns the K + 1 coefficients of degrees 0..K as an array.
    """
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
    return c


def _on_excluded_ray(z):
    """Elementwise: z lies on (-inf, -1] or [1, inf), up to 1e-13 relative."""
    z = np.asarray(z, dtype=complex)
    return ((np.abs(z.imag) <= 1e-13 * np.maximum(1.0, np.abs(z)))
            & (np.abs(z.real) >= 1.0 - 1e-13))


#: nodes of the Gauss-Jacobi rule; the error check reruns with half as many
_GJ_NODES = 192
#: points per block, which bounds the (points, nodes) work arrays (~3 MB each)
_GJ_BLOCK = 1024


def _gauss_jacobi(n: int, alpha: float, beta: float):
    """Nodes and weights of the n-point Gauss rule for (1-x)^alpha (1+x)^beta
    on [-1, 1], scaled so the weights sum to 1.

    The nodes are scipy's; the weights are the Christoffel numbers
    1 / sum_k p_k(x)^2 of the orthonormal Jacobi polynomials.  scipy's own
    weights lose accuracy at the node next to a strong endpoint singularity
    (their first moment is off by 3e-9 at beta = -0.975, n = 192); these
    hold it to a few 1e-12.
    """
    from scipy import special

    x = special.roots_jacobi(n, alpha, beta)[0]
    k = np.arange(n, dtype=float)
    s = 2.0 * k + alpha + beta
    # the three-term recurrence: diagonal diag[k], off-diagonal off[k] (off[0] = 0)
    diag = (beta * beta - alpha * alpha) / (s * (s + 2.0))
    diag[0] = (beta - alpha) / (alpha + beta + 2.0)
    off = np.zeros(n)
    off[1:] = np.sqrt(4.0 * k[1:] * (k[1:] + alpha) * (k[1:] + beta) * (k[1:] + alpha + beta)
                      / (s[1:] ** 2 * (s[1:] + 1.0) * (s[1:] - 1.0)))
    p_prev, p, acc = np.zeros(n), np.ones(n), np.ones(n)
    for j in range(n - 1):
        p_prev, p = p, ((x - diag[j]) * p - off[j] * p_prev) / off[j + 1]
        acc += p * p
    w = 1.0 / acc
    return x, w / w.sum()


def _euler_rule(n: int, a: float, b: float):
    """The n-point rule for the normalised Euler integral along the parabola
    t(s) = s (1 + i (1 - s)): the t-values at the nodes and the weights times
    the smooth path factors (1 - i s)^{b/2} (1 + i (1 - s))^{-(1+b)/2}
    (1 + i (1 - 2 s)).  The weights absorb (1-s)^{b/2} s^{-(1+b)/2}."""
    x, w = _gauss_jacobi(n, b / 2.0, -(1.0 + b) / 2.0)
    s = (1.0 + x) / 2.0
    bend = 1.0 + 1j * (1.0 - s)
    t = s * bend
    path = (1.0 - 1j * s) ** (b / 2.0) * bend ** (-(1.0 + b) / 2.0) * (1.0 + 1j * (1.0 - 2.0 * s))
    return t, w * path


def _euler_quad(z: complex, a: float, b: float) -> complex:
    """The continuation at one point by adaptive quadrature on [0, 1]."""
    from scipy import integrate

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


def euler_continuation(z, a: float, b: float):
    """Analytic continuation of rho * 2F1((1-a)/2, (1-b)/2; 3/2; rho^2).

    Evaluates  B((1-b)/2, 1+b/2)^{-1} * z * int_0^1 (1-t)^{b/2} /
    (t^{(1+b)/2} (1-z^2 t)^{(1-a)/2}) dt,  valid on the plane cut along
    (-inf,-1] and [1,inf).  Relative accuracy 1e-8 for |z| <= 10, except
    within about 1e-6 of the branch points +-1 (e.g. z = 0.999999 at
    a = 0.2, b = 0.9), where AccuracyError is raised: the quadrature fallback
    cannot meet 1e-8 there.  Complex powers take the principal branch.

    ``z`` is a scalar or an array: a scalar gives a Python complex, an array
    an ndarray of its shape.  Any point on the excluded rays raises
    DomainError.

    Method: a 192-node Gauss-Jacobi rule, whose weight absorbs both endpoint
    singularities, along the parabola t(s) = s (1 + i sigma (1-s)) with
    sigma = sign Im(z^2) (+1 when that is 0).  The parabola bends away from
    the branch point 1/z^2, and the cut {u/z^2 : u >= 1} lies on the other
    side of [0, 1], so by Cauchy's theorem the value is unchanged.  A point
    is accepted when the 192- and 96-node values agree to 1e-9 relative;
    every other point (in practice z next to +-1, where 1/z^2 sits just past
    t = 1) falls back to adaptive ``scipy.integrate.quad``, which raises
    AccuracyError when its own error estimate misses the target.  Each call
    builds its node rules (a few ms), so pass many points as one array.
    """
    if not (0 <= a < 1 and 0 <= b < 1):
        raise DomainError(f"exponents must lie in [0,1), got a={a}, b={b}")
    scalar = np.ndim(z) == 0
    z = np.asarray(z, dtype=complex)
    on_ray = _on_excluded_ray(z)
    if on_ray.any():
        raise DomainError(f"z={z[on_ray].flat[0]} lies on the excluded real rays |Re z| >= 1")
    flat = z.ravel()
    out = np.zeros_like(flat)
    todo = np.flatnonzero(flat)
    if todo.size:
        rules = [_euler_rule(n, a, b) for n in (_GJ_NODES, _GJ_NODES // 2)]
        for lo in range(0, todo.size, _GJ_BLOCK):
            idx = todo[lo:lo + _GJ_BLOCK]
            z2 = flat[idx] ** 2
            flip = z2.imag < 0  # sigma = -1: integrate at conj(z^2), conjugate back
            z2[flip] = z2[flip].conjugate()
            full, half = (((1.0 - z2[:, None] * t) ** (-(1.0 - a) / 2.0) * hw).sum(axis=1)
                          for t, hw in rules)
            ok = np.abs(full - half) <= 1e-9 * np.abs(full)
            full[flip] = full[flip].conjugate()
            out[idx[ok]] = flat[idx[ok]] * full[ok]
            for i in idx[~ok]:
                out[i] = _euler_quad(complex(flat[i]), a, b)
    if scalar:
        return complex(out[0])
    return out.reshape(z.shape)
