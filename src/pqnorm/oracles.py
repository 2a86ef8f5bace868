"""Independent numeric verification of the identities behind the bounds:
quadrature checks of the correlation formula and of the Hermite
coefficients, contour magnitude checks, and a contour-integral oracle for
the inverse-series coefficients."""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import hermite_e

from .errors import AccuracyError, DomainError
from .krivine import NormPair, f_bar_w_coeffs
from .series import odd_horner
from .specfun import (_gauss_jacobi, _gauss_laguerre, euler_continuation, gamma_fn,
                      gaussian_moment_pow)

_CIRCLE_RADIUS, _CIRCLE_NODES = 0.5, 64  # contour_inverse_coeff's circle
# the expanding contour: radius, height^2 of the leg's end, points per leg
_CONTOUR_RADIUS, _CONTOUR_EPS, _CONTOUR_SAMPLES = 6.0, 1e-4, 25
_CORRELATION_ORDER = 400  # correlation_reference's series cut


@dataclass
class IdentityCheckResult:
    target: str
    estimate: float
    reference: float


def correlation_reference(a: float, b: float, rho: float) -> float:
    """gamma_{a+1}^{a+1} gamma_{b+1}^{b+1} * rho * 2F1(...; rho^2), the
    closed form the quadrature is checked against, for |rho| <= 1.

    The series is cut at order K = 400, which is exact at a = 1 or b = 1.
    Every ratio of consecutive coefficients F[m+1] / F[m] is below 1, so the
    cut tail is at most F[M] |rho|^(2M+3) / (1 - rho^2), M = (K - 1) // 2.
    Past 1e-13 of the value (from |rho| ~ 0.945 on at a = b = 0) the value
    is euler_continuation's, and Gauss's sum at |rho| = 1."""
    if not -1.0 <= rho <= 1.0:
        raise DomainError("correlation must lie in [-1, 1]")
    K = _CORRELATION_ORDER
    pair = NormPair.from_ab(a, b)
    F = f_bar_w_coeffs(pair.a, pair.b, (K - 1) // 2)
    val = float(odd_horner(F, rho))
    r2 = rho * rho
    tail = float(F[-1]) * abs(rho) ** (2 * F.size + 1) / (1.0 - r2) if r2 < 1.0 else math.inf
    if not tail <= 1e-13 * abs(val):
        A, B = (1.0 - pair.a) / 2.0, (1.0 - pair.b) / 2.0
        val = (euler_continuation(rho, pair.a, pair.b).real if r2 < 1.0 else math.copysign(
            gamma_fn(1.5) * gamma_fn(1.5 - A - B) / (gamma_fn(1.5 - A) * gamma_fn(1.5 - B)), rho))
    return gaussian_moment_pow(a + 1.0) * gaussian_moment_pow(b + 1.0) * val


def polar_f_ab(a: float, b: float, rho: float) -> float:
    """E sgn(g1)|g1|^a sgn(g2)|g2|^b over rho-correlated standard Gaussians,
    by quadrature in polar coordinates.

    With (g2, g3) = r (cos t, sin t) and g1 = rho g2 + sqrt(1 - rho^2) g3 =
    r cos(t - phi), cos phi = rho, the expectation is the radial moment
    2^{(a+b)/2} Gamma(1 + (a+b)/2) times (1/pi) int_{-pi/2}^{pi/2} of the
    angular factor.  That integral splits at t = phi - pi/2, where cos(t - phi)
    changes sign, into two pieces of lengths phi and pi - phi, each a
    Gauss-Jacobi rule whose weight absorbs the endpoint powers.  At rho = +-1,
    where the two zeros merge, g1 = rho g2 and the value is the moment
    +-E|g|^{a+b}.  At rho = 0 it is 0, which the pieces meet only to rounding.

    With 64 nodes a piece the value is within 1e-14 relative of
    rho 2F1((1-a)/2, (1-b)/2; 3/2; rho^2) for |rho| <= 0.999.  Closer to +-1
    the rule converges slowly: (sin(L u)/u)^e on the long piece has a branch
    point at u = pi/L, only phi/(pi - phi) beyond u = 1.  The error grows to
    about 5e-12 at |rho| = 0.9999 and 6e-9 at 0.99999."""
    if not -1.0 <= rho <= 1.0:
        raise DomainError("correlation must lie in [-1, 1]")
    if abs(rho) == 1.0:
        return math.copysign(gaussian_moment_pow(a + b), rho)
    if rho == 0.0:
        return 0.0
    phi = math.acos(rho)

    def piece(length, e1, e2):
        # int_0^1 sin(length (1-u))^e1 sin(length u)^e2 du, weight (1-u)^e1 u^e2
        x, w = _gauss_jacobi(64, e1, e2)
        v, u = (1.0 - x) / 2.0, (1.0 + x) / 2.0
        smooth = (np.sin(length * v) / v) ** e1 * (np.sin(length * u) / u) ** e2
        mass = gamma_fn(e1 + 1.0) * gamma_fn(e2 + 1.0) / gamma_fn(e1 + e2 + 2.0)
        return length * mass * float(np.dot(w, smooth))

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


def hermite_coeff_numeric(c: float, k: int):
    """Gaussian inner product <sgn |tau|^c, H_k> by Gauss-Laguerre quadrature.

    Even k is 0 by symmetry.  For odd k, s = tau^2 / 2 turns twice the
    half-line integral into int_0^inf s^{c/2} e^{-s} P(s) ds with P of degree
    (k-1)/2, which the 24-node rule for weight s^{c/2} e^{-s} integrates
    exactly for k <= 95.  What remains is rounding, so the error estimate
    returned with the value is its scale: eps times the sum of |w_i P(s_i)|.
    """
    if k % 2 == 0:
        return 0.0, 0.0
    coef = np.zeros(k + 1)
    coef[k] = 1.0
    s, w = _gauss_laguerre(24, c / 2.0)
    t = np.sqrt(2.0 * s)
    terms = w * hermite_e.hermeval(t, coef) / t
    scale = 2.0 ** (c / 2.0) * math.sqrt(2.0 / math.pi) / math.sqrt(math.factorial(k))
    return scale * float(terms.sum()), scale * np.finfo(float).eps * float(np.abs(terms).sum())


def hermite_coeff_check(c: float) -> list:
    """Quadrature Hermite coefficients against the closed form for k <= 15."""
    if not 0.0 <= c <= 1.0:
        raise DomainError("exponent must lie in [0, 1]")
    out = []
    for k in range(16):
        est, err = hermite_coeff_numeric(c, k)
        if err > 1e-8:
            raise AccuracyError(f"quadrature error {err:.2e} at k={k}", achieved=est,
                                error_estimate=err)
        out.append(IdentityCheckResult(
            target=f"hermite(c={c:g},k={k})",
            estimate=est,
            reference=hermite_coeff_reference(c, k),
        ))
    return out


def noise_correlation_crosscheck(a: float, b: float, rho: float) -> IdentityCheckResult:
    """Rebuild the correlation from numeric Hermite coefficients:
    sum_k hat_a_k hat_b_k rho^k over odd k <= 35 must match the closed form.

    The slowest coefficient decay (a = b = 0) needs k up to 35 to push the
    truncated tail below 1e-6 at rho = 0.8."""
    total = sum(hermite_coeff_numeric(a, k)[0] * hermite_coeff_numeric(b, k)[0] * rho ** k
                for k in range(1, 36, 2))
    return IdentityCheckResult(
        target=f"noise-correlation(a={a:g},b={b:g},rho={rho:g})",
        estimate=total,
        reference=correlation_reference(a, b, rho),
    )


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
