"""Independent numeric verification of the identities behind the bounds:
a quadrature check of the correlation formula, an exact-sum check of the
Hermite coefficients, contour magnitude checks, and a contour-integral
oracle for the inverse-series coefficients."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError
from .krivine import NormPair, f_bar_w_coeffs
from .series import odd_horner
from .specfun import euler_continuation, gamma_fn, gaussian_moment_pow

_CIRCLE_RADIUS, _CIRCLE_NODES = 0.5, 64  # contour_inverse_coeff's circle
# the expanding contour: radius, height^2 of the leg's end, points per leg
_CONTOUR_RADIUS, _CONTOUR_EPS, _CONTOUR_SAMPLES = 6.0, 1e-4, 25
_CORRELATION_ORDER = 400  # correlation_reference's series cut
# polar_f_ab's tanh-sinh rule on [0, 1] (Takahasi & Mori, Publ. RIMS 9, 1974):
# nodes u = 1 / (1 + e^{-2s}), s = (pi/2) sinh t, at step 1/16 on |t| <= 4;
# 1 - u is formed on its own, never by subtraction
_TS_T = np.arange(-64, 65) / 16.0
_TS_S = (math.pi / 2.0) * np.sinh(_TS_T)
_TS_U, _TS_V = 1.0 / (1.0 + np.exp(-2.0 * _TS_S)), 1.0 / (1.0 + np.exp(2.0 * _TS_S))
_TS_W = (math.pi / 16.0) * np.cosh(_TS_T) * _TS_U * _TS_V


@dataclass
class IdentityCheckResult:
    target: str
    estimate: float
    reference: float


def correlation_reference(a: float, b: float, rho):
    """gamma_{a+1}^{a+1} gamma_{b+1}^{b+1} * rho * 2F1(...; rho^2), the
    closed form the quadrature is checked against, for |rho| <= 1: a float
    for a scalar ``rho``, and for an array one series evaluated at all its
    entries, each equal to its scalar call.

    The series is cut at order K = 400, which is exact at a = 1 or b = 1.
    Every ratio of consecutive coefficients F[m+1] / F[m] is below 1, so the
    cut tail is at most F[M] |rho|^(2M+3) / (1 - rho^2), M = (K - 1) // 2.
    Past 1e-13 of the value (from |rho| ~ 0.945 on at a = b = 0) the value
    is euler_continuation's, and Gauss's sum at |rho| = 1."""
    r = np.array(rho, dtype=np.float64, ndmin=1)
    if not np.all(np.abs(r) <= 1.0):
        raise DomainError("correlation must lie in [-1, 1]")
    pair = NormPair.from_ab(a, b)
    F = f_bar_w_coeffs(pair.a, pair.b, (_CORRELATION_ORDER - 1) // 2)
    val, r2 = odd_horner(F, r), r * r
    with np.errstate(divide="ignore", invalid="ignore"):  # inf or nan at r2 = 1: far
        far = ~(F[-1] * np.abs(r) ** (2 * F.size + 1) / (1.0 - r2) <= 1e-13 * np.abs(val))
    cont, edge = far & (r2 < 1.0), far & (r2 == 1.0)
    if cont.any():
        val[cont] = euler_continuation(r[cont], pair.a, pair.b).real
    A, B = (1.0 - pair.a) / 2.0, (1.0 - pair.b) / 2.0
    val[edge] = np.copysign(gamma_fn(1.5) * gamma_fn(1.5 - A - B)
                            / (gamma_fn(1.5 - A) * gamma_fn(1.5 - B)), r[edge])
    ref = gaussian_moment_pow(a + 1.0) * gaussian_moment_pow(b + 1.0) * val
    return float(ref[0]) if np.ndim(rho) == 0 else ref


def polar_f_ab(a: float, b: float, rho: float) -> float:
    """E sgn(g1)|g1|^a sgn(g2)|g2|^b over rho-correlated standard Gaussians,
    by quadrature in polar coordinates.

    With (g2, g3) = r (cos t, sin t) and g1 = rho g2 + sqrt(1 - rho^2) g3 =
    r cos(t - phi), cos phi = rho, the expectation is the radial moment
    2^{(a+b)/2} Gamma(1 + (a+b)/2) times (1/pi) int_{-pi/2}^{pi/2} of the
    angular factor.  That integral splits at t = phi - pi/2, where cos(t - phi)
    changes sign, into two pieces of lengths phi and pi - phi, each
    L int_0^1 sin(L (1-u))^e1 sin(L u)^e2 du by one fixed 129-node tanh-sinh
    rule.  At rho = +-1, where the two zeros merge, g1 = rho g2 and the value
    is the moment +-E|g|^{a+b}.  At rho = 0 it is 0, which the pieces meet
    only to rounding.

    The rule's nodes crowd double-exponentially into both ends, so neither
    the endpoint powers nor the branch point of sin(L u)^e at u = pi/L, just
    past u = 1 on the long piece as |rho| -> 1, slows it: the value is within
    1.4e-15 relative of 30-digit mpmath on a in [0, 1], b in [0, 1] and
    |rho| <= 1 - 1e-12.  Near rho = 0 the two pieces cancel: at rho = 1e-9
    up to 3e-7 relative is lost, 2e-16 absolute."""
    if not -1.0 <= rho <= 1.0:
        raise DomainError("correlation must lie in [-1, 1]")
    if abs(rho) == 1.0:
        return math.copysign(gaussian_moment_pow(a + b), rho)
    if rho == 0.0:
        return 0.0
    phi = math.acos(rho)

    def piece(length, e1, e2):
        return length * float(np.dot(_TS_W, np.sin(length * _TS_V) ** e1
                                     * np.sin(length * _TS_U) ** e2))

    radial = 2.0 ** ((a + b) / 2.0) * gamma_fn(1.0 + (a + b) / 2.0)
    return radial * (piece(math.pi - phi, b, a) - piece(phi, a, b)) / math.pi


def hermite_coeff_reference(c: float, k: int) -> float:
    """Closed form for the k-th (orthonormal) Hermite coefficient of
    sgn(tau)|tau|^c: zero for even k, and for k = 2j+1

        sqrt((2j+1)!) * gamma_{c+1}^{c+1} * ((1-c)/2)_j (-1/2)^j / ((3/2)_j j!).
    """
    if k % 2 == 0:
        return 0.0
    j = (k - 1) // 2
    term = 1.0
    for i in range(j):
        term *= ((1.0 - c) / 2.0 + i) * (-0.5) / ((1.5 + i) * (i + 1))
    return math.sqrt(math.factorial(k)) * gaussian_moment_pow(c + 1.0) * term


def hermite_coeff_numeric(c: float, k: int) -> float:
    """Gaussian inner product <sgn |tau|^c, He_k> / sqrt(k!) as an exact sum.

    Even k is 0 by symmetry.  For odd k, with He_k = sum_j h_j tau^j and
    E|g|^{r+2} = (r+1) E|g|^r, it is E|g|^{c+1} / sqrt(k!) times
    sum_{odd j <= k} h_j prod_{i=1}^{(j-1)/2} (c + 2i).  The integers h_j
    come from He_{n+1} = tau He_n - n He_{n-1}, and with c = N / 2^s the
    sum is one integer over 2^{s(k-1)/2}, rounded once: in floats the
    coefficients of He_35 pass 2^53 and the sum loses up to 9e-12.
    """
    if k % 2 == 0:
        return 0.0
    prev, he = [1], [0, 1]
    for n in range(1, k):
        prev, he = he, [x - n * y for x, y in zip([0] + he, prev + [0, 0])]
    N, D = float(c).as_integer_ratio()
    M = (k - 1) // 2
    total, prod = 0, 1
    for m in range(M + 1):
        total += he[2 * m + 1] * prod * D ** (M - m)
        prod *= N + 2 * (m + 1) * D
    return gaussian_moment_pow(c + 1.0) * (total / D ** M) / math.sqrt(math.factorial(k))


def hermite_coeff_check(c: float) -> list:
    """Exact-sum Hermite coefficients against the closed form for k <= 15."""
    if not 0.0 <= c <= 1.0:
        raise DomainError("exponent must lie in [0, 1]")
    return [IdentityCheckResult(target=f"hermite(c={c:g},k={k})",
                                estimate=hermite_coeff_numeric(c, k),
                                reference=hermite_coeff_reference(c, k))
            for k in range(16)]


def noise_correlation_crosscheck(a: float, b: float, rhos) -> list:
    """Rebuild the correlation from numeric Hermite coefficients at each rho
    of ``rhos``: sum_k hat_a_k hat_b_k rho^k over odd k <= 35 must match the
    closed form, which one correlation_reference call gives for all of them.

    The slowest coefficient decay (a = b = 0) needs k up to 35 to push the
    truncated tail below 1e-6 at rho = 0.8."""
    refs = correlation_reference(a, b, np.asarray(rhos, dtype=np.float64))
    return [IdentityCheckResult(
        target=f"noise-correlation(a={a:g},b={b:g},rho={rho:g})",
        estimate=sum(hermite_coeff_numeric(a, k) * hermite_coeff_numeric(b, k) * rho ** k
                     for k in range(1, 36, 2)),
        reference=float(ref)) for rho, ref in zip(rhos, refs)]


@dataclass
class ContourReport:
    a: float
    b: float
    min_arc: float
    min_segment: float

    @property
    def min_magnitude(self) -> float:
        return min(self.min_arc, self.min_segment)


def _contour_points():
    """The arc and the near-real leg of the expanding contour, 25 points
    each; both end at the arc start, at height 1e-2."""
    alpha, eps = _CONTOUR_RADIUS, _CONTOUR_EPS
    end = complex(math.sqrt(alpha * alpha - eps), math.sqrt(eps))
    theta = np.linspace(math.atan2(end.imag, end.real), math.pi / 2.0, _CONTOUR_SAMPLES)
    arc = alpha * (np.cos(theta) + 1j * np.sin(theta))
    start = complex(1.0 - eps, 0.0)
    return arc, start + np.linspace(0.0, 1.0, _CONTOUR_SAMPLES) * (end - start)


def contour_magnitude_check(a, b: float):
    """Minimum of |F(z)| over the expanding contour's arc and near-real leg,
    25 points each.

    The arc runs along |z| = 6 from just above the real axis to the
    imaginary axis; the leg runs from 1 - 1e-4 out to the arc start at
    height 1e-2.  That start keeps the leg far enough from the branch point
    at 1 for the continuation to hold its accuracy target, and every point
    off the excluded rays.

    A scalar ``a`` gives one ContourReport.  A 1-D ``a`` gives a list of
    reports, one per entry and each equal to its scalar call, from a single
    continuation call.
    """
    if np.ndim(a) > 1:
        raise DomainError(f"a must be a scalar or 1-D, got {np.ndim(a)} dimensions")
    a_col = np.asarray(a, dtype=float).reshape(-1, 1)
    mag = np.abs(euler_continuation(np.concatenate(_contour_points()), a_col, b))
    n = _CONTOUR_SAMPLES
    reports = [ContourReport(a=float(a_i), b=b, min_arc=float(row[:n].min()),
                             min_segment=float(row[n:].min()))
               for a_i, row in zip(a_col[:, 0], mag)]
    return reports[0] if np.ndim(a) == 0 else reports


def beta_bound_expression(b: float) -> float:
    """The closed-form lower-bound expression for the arc magnitude at the
    contour's radius r = 6; it stays above 1.003 for all b in [0, 1)."""
    if not 0.0 <= b < 1.0:
        raise DomainError("b must lie in [0, 1)")
    r = _CONTOUR_RADIUS
    beta_norm = gamma_fn((1.0 - b) / 2.0) * gamma_fn(1.0 + b / 2.0) / gamma_fn(1.5)
    return (math.log(r / math.sqrt(2.0)) / math.sqrt(2.0)
            + r ** b * math.sqrt(1.0 - 1.0 / (r * r)) / (1.0 - b)) / beta_norm


def contour_inverse_coeff(a: float, b: float, k):
    """Inverse-series coefficient g_k = (1/k) mean_j z_j f(z_j)^(-k), the
    inversion formula (1 / (2 pi i k)) oint f(z)^(-k) dz by the equal-weight
    rule at 64 nodes of the full circle |z| = 0.5, which converges
    geometrically (Trefethen & Weideman, SIAM Rev. 56 (2014)).  There f is
    its own 101-term series (0.25^100 ~ 6e-61).  A smaller radius costs
    rounding, as the terms grow like r^(-k); at 0.6 (0, 0, k = 15), 4e-2
    relative off, already passes under the 1e-12 absolute floor.

    ``k`` is one odd order >= 1, giving a float, or a sequence of them,
    giving a list in the same order; f is evaluated once per call.  ``a``
    and ``b`` lie in [0, 1].  The error estimate is |mean - mean over every
    other node|, for aliasing, plus log2(64) eps mean |term|, for rounding;
    AccuracyError names k when it exceeds max(1e-6 |g_k|, 1e-12).
    """
    ks = [k] if np.ndim(k) == 0 else list(k)
    if not all(kk >= 1 and kk % 2 == 1 for kk in ks):
        raise DomainError(f"the contour formula applies to odd k >= 1, got {k}")
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise DomainError(f"exponents must lie in [0, 1], got a={a}, b={b}")
    z = _CIRCLE_RADIUS * np.exp(2j * math.pi * np.arange(_CIRCLE_NODES) / _CIRCLE_NODES)
    fz = odd_horner(f_bar_w_coeffs(a, b, 100), z)
    out = []
    for kk in ks:
        terms = z * fz ** (-kk)
        mean = terms.mean()
        g = float(mean.real) / kk
        err = float(abs(mean - terms[::2].mean())
                    + math.log2(_CIRCLE_NODES) * np.finfo(float).eps * np.abs(terms).mean()) / kk
        if err > max(1e-6 * abs(g), 1e-12):
            raise AccuracyError(f"contour quadrature unstable at k={kk}: {g:.3e}, "
                                f"error estimate {err:.2e}", achieved=g, error_estimate=err)
        out.append(g)
    return out[0] if np.ndim(k) == 0 else out
