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
from .specfun import (_gauss_jacobi, _gauss_laguerre, _on_excluded_ray, euler_continuation,
                      gamma_fn, gaussian_moment_pow)

# numpy renamed trapz to trapezoid in 2.0
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass
class IdentityCheckResult:
    target: str
    estimate: float
    reference: float


def correlation_reference(a: float, b: float, rho: float, K: int = 400) -> float:
    """gamma_{a+1}^{a+1} gamma_{b+1}^{b+1} * rho * 2F1(...; rho^2), the
    closed form the quadrature is checked against.

    The series is cut at order K.  Every ratio of consecutive coefficients
    F[m+1] / F[m] is below 1, so the cut tail is at most
    F[M] |rho|^(2M+3) / (1 - rho^2), M = (K - 1) // 2; AccuracyError when
    that passes 1e-13 of the value: at K = 400, from |rho| ~ 0.945 on at
    a = b = 0 and later for larger a, b."""
    pair = NormPair.from_ab(a, b)
    F = f_bar_w_coeffs(pair.a, pair.b, (K - 1) // 2)
    val = float(odd_horner(F, rho))
    r2 = rho * rho
    tail = float(F[-1]) * abs(rho) ** (2 * F.size + 1) / (1.0 - r2) if r2 < 1.0 else math.inf
    if not tail <= 1e-13 * abs(val):
        raise AccuracyError(f"series cut at K={K} leaves a tail up to {tail:.2e} at rho={rho}",
                            achieved=val, error_estimate=tail)
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


def hermite_coeff_check(c: float, k_max: int) -> list:
    """Quadrature Hermite coefficients against the closed form for k <= k_max."""
    if not 0.0 <= c <= 1.0:
        raise DomainError("exponent must lie in [0, 1]")
    if k_max > 35:
        raise DomainError("quadrature validated for k <= 35 only")
    out = []
    for k in range(0, k_max + 1):
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


def noise_correlation_crosscheck(a: float, b: float, rho: float,
                                 k_max: int = 35) -> IdentityCheckResult:
    """Rebuild the correlation from numeric Hermite coefficients:
    sum_k hat_a_k hat_b_k rho^k must match the closed form.

    The slowest coefficient decay (a = b = 0) needs k_max = 35 to push the
    truncated tail below 1e-6 at rho = 0.8."""
    total = sum(hermite_coeff_numeric(a, k)[0] * hermite_coeff_numeric(b, k)[0] * rho ** k
                for k in range(1, k_max + 1, 2))
    return IdentityCheckResult(
        target=f"noise-correlation(a={a:g},b={b:g},rho={rho:g})",
        estimate=total,
        reference=correlation_reference(a, b, rho),
    )


@dataclass
class ContourReport:
    a: float
    b: float
    alpha: float
    eps: float
    min_arc: float
    min_segment: float
    skipped: int

    @property
    def min_magnitude(self) -> float:
        return min(self.min_arc, self.min_segment)


def _contour_points(alpha: float, eps: float, samples: int):
    """The arc and the near-real leg of the expanding contour, ``samples``
    points each; both end at the arc start, at height sqrt(eps)."""
    end = complex(math.sqrt(alpha * alpha - eps), math.sqrt(eps))
    theta = np.linspace(math.atan2(end.imag, end.real), math.pi / 2.0, samples)
    arc = alpha * (np.cos(theta) + 1j * np.sin(theta))
    start = complex(1.0 - eps, 0.0)
    return arc, start + np.linspace(0.0, 1.0, samples) * (end - start)


def contour_magnitude_check(a, b: float, alpha: float = 6.0,
                            eps: float = 1e-4, samples: int = 80):
    """Minimum of |F(z)| over the expanding contour's arc and near-real leg.

    The arc runs along |z| = alpha from just above the real axis to the
    imaginary axis; the leg runs from 1-eps out to the arc start at height
    sqrt(eps).  Points that fall on the excluded rays are skipped; a leg
    with no point left is a DomainError, since it would check nothing.  The
    default eps keeps the leg start far enough from the branch point at 1
    for the continuation to hold its accuracy target.

    A scalar ``a`` gives one ContourReport.  A 1-D ``a`` gives a list of
    reports, one per entry and each equal to its scalar call, from a single
    continuation call.
    """
    if np.ndim(a) > 1:
        raise DomainError(f"a must be a scalar or 1-D, got {np.ndim(a)} dimensions")
    if not 1.0 <= alpha < math.inf:
        raise DomainError(f"contour radius must be finite and >= 1, got {alpha}")
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    if samples < 2:
        raise DomainError(f"need samples >= 2 on each leg, got {samples}")
    z = np.concatenate(_contour_points(alpha, eps, samples))
    keep = ~_on_excluded_ray(z)
    if not (keep[:samples].any() and keep[samples:].any()):
        raise DomainError(f"every point of a contour leg lies on the excluded rays (eps={eps})")
    a_col = np.asarray(a, dtype=float).reshape(-1, 1)
    mag = np.full((a_col.shape[0], z.size), math.inf)
    mag[:, keep] = np.abs(euler_continuation(z[keep], a_col, b))
    reports = [ContourReport(a=float(a_i), b=b, alpha=alpha, eps=eps,
                             min_arc=float(row[:samples].min()),
                             min_segment=float(row[samples:].min()),
                             skipped=int(z.size - keep.sum()))
               for a_i, row in zip(a_col[:, 0], mag)]
    return reports[0] if np.ndim(a) == 0 else reports


def beta_bound_expression(b: float, r: float = 6.0) -> float:
    """The closed-form lower-bound expression for the arc magnitude at
    radius r; it stays above 1.003 at r = 6 for all b in [0, 1)."""
    if not 0.0 <= b < 1.0:
        raise DomainError("b must lie in [0, 1)")
    beta_norm = gamma_fn((1.0 - b) / 2.0) * gamma_fn(1.0 + b / 2.0) / gamma_fn(1.5)
    return (math.log(r / math.sqrt(2.0)) / math.sqrt(2.0)
            + r ** b * math.sqrt(1.0 - 1.0 / (r * r)) / (1.0 - b)) / beta_norm


def contour_inverse_coeff(a: float, b: float, k, delta: float = 0.3,
                          nodes: int = 10_000):
    """Inverse-series coefficient by the contour formula
    (2 / (pi k)) Im int_{C+_delta} f(z)^(-k) dz on the quarter circle.

    ``k`` is one odd order >= 1, giving a float, or a sequence of them,
    giving a list in the same order; a sequence evaluates f once per node
    count and forms each power f^(-k) from it.  ``a`` and ``b`` lie in
    [0, 1].  The integrand grows like delta^(-k), so large k loses
    precision; the halved-node comparison, made for every k, guards against
    silent degradation.
    """
    ks = [k] if np.ndim(k) == 0 else list(k)
    if not all(kk >= 1 and kk % 2 == 1 for kk in ks):
        raise DomainError(f"the contour formula applies to odd k >= 1, got {k}")
    if not 0.0 < delta < 1.0:
        raise DomainError("radius must lie in (0, 1)")
    if nodes < 4:
        raise DomainError(f"need nodes >= 4 for the halved-node check, got {nodes}")
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise DomainError(f"exponents must lie in [0, 1], got a={a}, b={b}")
    M = 100
    w = f_bar_w_coeffs(a, b, M)

    def f_on_arc(npts):
        theta = np.linspace(0.0, math.pi / 2.0, npts)
        z = delta * np.exp(1j * theta)
        return theta, z, odd_horner(w, z)

    def value(arc, kk):
        theta, z, fz = arc
        integrand = fz ** (-kk) * 1j * z  # dz = i z dtheta
        return 2.0 / (math.pi * kk) * float(np.imag(_trapezoid(integrand, theta)))

    arcs = [f_on_arc(nodes), f_on_arc(nodes // 2)]
    out = []
    for kk in ks:
        full, half = (value(arc, kk) for arc in arcs)
        if abs(full - half) > max(1e-6 * abs(full), 1e-12):
            raise AccuracyError(
                f"contour quadrature unstable at k={kk}: {full:.3e} vs {half:.3e}",
                achieved=full, error_estimate=abs(full - half),
            )
        out.append(full)
    return out[0] if np.ndim(k) == 0 else out
