"""Independent numeric verification of the identities behind the bounds:
Monte-Carlo checks of the correlation formula, quadrature checks of the
Hermite coefficients, contour magnitude checks, and a contour-integral
oracle for the inverse-series coefficients."""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import hermite_e

from .errors import AccuracyError, DomainError
from .krivine import NormPair, f_bar_w_coeffs
from .series import odd_horner
from .specfun import _on_excluded_ray, euler_continuation, gamma_fn, gaussian_moment_pow

# numpy renamed trapz to trapezoid in 2.0
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass
class IdentityCheckResult:
    target: str
    estimate: float
    reference: float
    std_error: float

    @property
    def sigmas(self) -> float:
        if self.std_error > 0:
            return abs(self.estimate - self.reference) / self.std_error
        return 0.0 if self.estimate == self.reference else math.inf

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "estimate": self.estimate,
            "reference": self.reference,
            "std_error": self.std_error,
            "sigmas": self.sigmas,
        }


def correlation_reference(a: float, b: float, rho: float, K: int = 400) -> float:
    """gamma_{a+1}^{a+1} gamma_{b+1}^{b+1} * rho * 2F1(...; rho^2), the
    closed form the Monte Carlo is checked against."""
    pair = NormPair.from_ab(a, b)
    val = float(odd_horner(f_bar_w_coeffs(pair.a, pair.b, (K - 1) // 2), rho))
    return gaussian_moment_pow(a + 1.0) * gaussian_moment_pow(b + 1.0) * val


def mc_f_ab(a: float, b: float, rho: float, N: int, seed: int = 0) -> IdentityCheckResult:
    """Monte Carlo estimate of E sgn(g1)|g1|^a sgn(g2)|g2|^b over
    rho-correlated standard Gaussians, versus the hypergeometric formula."""
    if N < 10_000:
        raise DomainError("need N >= 1e4 samples")
    if not -1.0 <= rho <= 1.0:
        raise DomainError("correlation must lie in [-1, 1]")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(17,)))
    g2 = rng.standard_normal(N)
    g3 = rng.standard_normal(N)
    g1 = rho * g2 + math.sqrt(max(0.0, 1.0 - rho * rho)) * g3
    prod = np.sign(g1) * np.abs(g1) ** a * np.sign(g2) * np.abs(g2) ** b
    return IdentityCheckResult(
        target=f"correlation(a={a:g},b={b:g},rho={rho:g})",
        estimate=float(prod.mean()),
        reference=correlation_reference(a, b, rho),
        std_error=float(prod.std() / math.sqrt(N)),
    )


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
    """Gaussian inner product <sgn |tau|^c, H_k> by adaptive quadrature.

    The integrand has a kink at 0, so odd k integrates twice the half-line
    (the full integrand is even there); even k integrates the full line,
    whose exact value is 0.  Returns (value, error_estimate).
    """
    from scipy import integrate

    coef = np.zeros(k + 1)
    coef[k] = 1.0
    norm = math.sqrt(2.0 * math.pi) * math.sqrt(math.factorial(k))

    def f(t):
        return abs(t) ** c * hermite_e.hermeval(t, coef) * math.exp(-t * t / 2.0)

    with warnings.catch_warnings():
        # tight epsabs trips the roundoff detector on near-zero results; the
        # returned error estimate is what we act on downstream
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if k % 2 == 1:
            val, err = integrate.quad(f, 0.0, 40.0, limit=300, epsabs=1e-12)
            return 2.0 * val / norm, 2.0 * err / norm
        val, err = integrate.quad(lambda t: math.copysign(1.0, t) * f(t), -40.0, 40.0,
                                  limit=300, epsabs=1e-12)
    return val / norm, err / norm


def hermite_coeff_check(c: float, k_max: int) -> list:
    """Quadrature Hermite coefficients against the closed form for k <= k_max."""
    if not 0.0 <= c <= 1.0:
        raise DomainError("exponent must lie in [0, 1]")
    if k_max > 25:
        raise DomainError("quadrature validated for k <= 25 only")
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
            std_error=max(err, 1e-13),
        ))
    return out


def noise_correlation_crosscheck(a: float, b: float, rho: float,
                                 k_max: int = 35) -> IdentityCheckResult:
    """Rebuild the correlation from numeric Hermite coefficients:
    sum_k hat_a_k hat_b_k rho^k must match the closed form.

    The slowest coefficient decay (a = b = 0) needs k_max = 35 to push the
    truncated tail below 1e-6 at rho = 0.8."""
    total = 0.0
    err = 0.0
    for k in range(1, k_max + 1, 2):
        ca, ea = hermite_coeff_numeric(a, k)
        cb, eb = hermite_coeff_numeric(b, k)
        total += ca * cb * rho ** k
        err += (abs(ca) * eb + abs(cb) * ea) * rho ** k
    return IdentityCheckResult(
        target=f"noise-correlation(a={a:g},b={b:g},rho={rho:g})",
        estimate=total,
        reference=correlation_reference(a, b, rho),
        std_error=max(err, 1e-12),
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
        acc = np.zeros_like(z)
        for cm in w[::-1]:
            acc = acc * z * z + cm
        return theta, z, z * acc

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
