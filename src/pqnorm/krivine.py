"""Bounds engine: the correlation series, its inversion constant c_{a,b},
approximation ratios, coefficient conditions, and the defect certificate.
Series are odd and compressed as in :mod:`pqnorm.series`."""

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import _kernels, series
from .errors import CertificationError, DomainError
from .series import CERT_ORDER
from .specfun import gaussian_moment

#: Krivine's classical bound (pi/2) / asinh(1), flat in (p, q).
KRIVINE_RATIO = math.pi / (2.0 * math.asinh(1.0))

_CONDITION_TOL = 1e-12


@dataclass(frozen=True)
class NormPair:
    """Exponent pair with 1 <= q <= 2 <= p <= inf and a = p*-1, b = q-1."""

    p: float
    q: float

    def __post_init__(self):
        if not (self.p >= 2.0):
            raise DomainError(f"p must satisfy p >= 2, got {self.p}")
        if not (1.0 <= self.q <= 2.0):
            raise DomainError(f"q must satisfy 1 <= q <= 2, got {self.q}")

    @property
    def p_star(self) -> float:
        return 1.0 if math.isinf(self.p) else self.p / (self.p - 1.0)

    @property
    def q_star(self) -> float:
        return math.inf if self.q == 1.0 else self.q / (self.q - 1.0)

    @property
    def a(self) -> float:
        return self.p_star - 1.0

    @property
    def b(self) -> float:
        return self.q - 1.0

    @classmethod
    def from_ab(cls, a: float, b: float) -> "NormPair":
        if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
            raise DomainError(f"need a, b in [0, 1], got a={a}, b={b}")
        p = math.inf if a == 0.0 else (1.0 + a) / a
        return cls(p=p, q=1.0 + b)


@dataclass
class BoundReport:
    pair: NormPair
    c_ab: float
    ratio: float
    krivine_ratio: float
    steinberg_ratio: float
    K: int
    tail_bound: float
    # compressed coefficients of f_bar^{-1}, signed; fixed by pair and K
    inverse: np.ndarray = field(repr=False, compare=False)


def f_bar_w_coeffs(a, b, M: int) -> np.ndarray:
    """Compressed coefficients of the normalized correlation series.

    Row-wise for array-valued a, b: entry m is
    ((1-a)/2)_m ((1-b)/2)_m / ((3/2)_m m!), the coefficient of rho^(2m+1).
    """
    A = (1.0 - np.asarray(a, dtype=np.float64)) / 2.0
    B = (1.0 - np.asarray(b, dtype=np.float64)) / 2.0
    A, B = np.broadcast_arrays(A, B)
    F = np.zeros(A.shape + (M + 1,))
    F[..., 0] = 1.0
    for m in range(M):
        F[..., m + 1] = F[..., m] * (A + m) * (B + m) / ((1.5 + m) * (m + 1))
    return F


def compute_c_ab(pair: NormPair, K: int = CERT_ORDER, tol: float = 1e-4):
    """Solve hhat(c) = 1 where hhat has the absolute inverse coefficients.

    Returns (c_ab, g, tail): g is the signed compressed inverse of f_bar at
    order K, and tail the tail bound of hhat at c_ab.  The root is bracketed
    by bisection on [0, 1] against hhat plus its tail estimate, so hhat(c_ab)
    lands in [1-tol, 1] including the discarded tail; hhat is strictly
    increasing there because all its coefficients are nonnegative and the
    linear one equals 1.

    The root approaches the convergence radius as a or b approach 1, where
    the K = 60 tail certifies only to about 4e-5; hence the loose default.
    Away from that edge much tighter tolerances hold at the same K.
    """
    if K < 30:
        raise DomainError("certification needs K >= 30")
    if not tol > 0:
        raise DomainError("tol must be positive")
    g = series.revert(f_bar_w_coeffs(pair.a, pair.b, (K - 1) // 2))
    h = np.abs(g)

    def bisect(fn):
        lo, hi = 0.0, 1.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if fn(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        return lo

    tail = series.tail_fit(h, K)
    c = bisect(lambda x: series.evaluate(h, x) + tail(x))
    if series.evaluate(h, c) < 1.0 - tol:
        plain_root = bisect(lambda x: series.evaluate(h, x))
        raise CertificationError(
            f"tail estimate {tail(c):.3e} too large to certify hhat(c) within {tol:.1e}",
            uncertified=plain_root,
        )
    return c, g, tail(c)


def steinberg_ratio(pair: NormPair) -> float:
    """min(gamma_p/gamma_q, gamma_{q*}/gamma_{p*}); infinite exponents send
    their branch to +inf."""
    branch1 = math.inf if math.isinf(pair.p) else gaussian_moment(pair.p) / gaussian_moment(pair.q)
    branch2 = math.inf if math.isinf(pair.q_star) else gaussian_moment(pair.q_star) / gaussian_moment(pair.p_star)
    return min(branch1, branch2)


def approx_ratio(pair: NormPair, K: int = CERT_ORDER, tol: float = 1e-4) -> BoundReport:
    """Approximation-factor report 1/(gamma_{p*} gamma_q c_{a,b}) with the
    Krivine and Steinberg comparison values, and the inverse series that
    the rounding transform applies.

    ``tol`` is passed to :func:`compute_c_ab`; it only decides whether the
    tail certifies c_ab (``CertificationError`` if not), not c_ab itself.
    """
    c, g, tail = compute_c_ab(pair, K, tol=tol)
    ratio = 1.0 / (gaussian_moment(pair.p_star) * gaussian_moment(pair.q) * c)
    return BoundReport(
        pair=pair,
        c_ab=c,
        ratio=ratio,
        krivine_ratio=KRIVINE_RATIO,
        steinberg_ratio=steinberg_ratio(pair),
        K=K,
        tail_bound=tail,
        inverse=g,
    )


class CoeffGrid(NamedTuple):
    """Inverse-series coefficients on an (a, b) grid: G[i, m] is the
    coefficient of y^(2m+1) in the inverse series at (a[i], b[i])."""

    a: np.ndarray
    b: np.ndarray
    G: np.ndarray


def inverse_coeff_grid(grid, K: int = CERT_ORDER) -> CoeffGrid:
    """Inverse-series coefficients at every point of ``grid``, as a CoeffGrid.

    ``grid`` is an int n (the n x n uniform grid on [0,1]^2) or explicit
    (a, b) arrays of one shape.  The certification functions below take the
    result, so one reversion can serve several of them.
    """
    if K < 1:
        raise DomainError("order K must be >= 1")
    if isinstance(grid, int):
        vals = np.linspace(0.0, 1.0, grid)
        a, b = np.meshgrid(vals, vals, indexing="ij")
    else:
        a, b = (np.asarray(v, dtype=np.float64) for v in grid)
        if a.shape != b.shape:
            raise DomainError(f"grid arrays differ in shape: a {a.shape}, b {b.shape}")
    if a.size == 0:
        raise DomainError(f"grid {grid!r} has no points")
    a, b = a.ravel(), b.ravel()
    return CoeffGrid(a, b, _kernels.revert_odd_batch(f_bar_w_coeffs(a, b, (K - 1) // 2)))


@dataclass
class ConditionMargin:
    k: int
    kind: str  # "C1" or "C2"
    worst_margin: float
    at_a: float
    at_b: float

    @property
    def passed(self) -> bool:
        return self.worst_margin >= -_CONDITION_TOL


@dataclass
class ConditionsReport:
    k_max: int
    margins: list
    all_pass: bool


def check_conditions(cg: CoeffGrid, k_max: int = 29) -> ConditionsReport:
    """Check the sign/size conditions on the inverse coefficients.

    For every grid point and odd k <= k_max: coefficient <= 1/k! when
    k = 1 mod 4 (C1), coefficient <= 0 when k = 3 mod 4 (C2).  Margins are
    the distances to the constraint; violations are data, not errors.
    """
    a, b, G = cg
    if k_max > 2 * G.shape[1] - 1:
        raise DomainError("k_max must not exceed the truncation order")
    margins = []
    all_pass = True
    for k in range(1, k_max + 1, 2):
        m = (k - 1) // 2
        coeff = G[:, m]
        if k % 4 == 1:
            marg = 1.0 / math.factorial(k) - coeff
            kind = "C1"
        else:
            marg = -coeff
            kind = "C2"
        i = int(np.argmin(marg))
        entry = ConditionMargin(k=k, kind=kind, worst_margin=float(marg[i]),
                                at_a=float(a[i]), at_b=float(b[i]))
        margins.append(entry)
        all_pass = all_pass and entry.passed
    return ConditionsReport(k_max=k_max, margins=margins, all_pass=all_pass)


@dataclass
class DefectCertificate:
    t_odd: int
    delta: float
    h_err_max: float
    rho_certified: float
    hhat_at_rho_max: float
    conditions_ok: bool
    ok: bool
    grid_size: int


def _odd_tail_estimate(absG: np.ndarray, x: float) -> np.ndarray:
    """Row-wise geometric tail for sum_{m>M} absG[:, m] x^(2m+1).

    The ratio fit of :func:`pqnorm.series.tail_fit`, vectorised across grid
    rows and taken per w = x^2 degree, so the geometric tail runs over odd
    degrees only.  Entries below the noise floor of the reversion are not
    used as ratio data.  The ratio per w-degree is the
    largest gap ratio among each row's last <= 10 significant entries; the
    tail is inf when that ratio times x^2 reaches 1, and 0 for rows with
    fewer than two significant entries.
    """
    B, Mp1 = absG.shape
    M = Mp1 - 1
    top = np.max(absG, axis=1)
    thresh = 1e-14 * np.maximum(top, 1e-300)
    # each row's last <= 10 significant indices, ascending, -1 padding the
    # left; the smallest index type that holds every difference keeps the
    # temporaries of a 10^4-row grid small
    cols = np.arange(Mp1, dtype=np.min_scalar_type(-2 * Mp1))
    idx = np.where(absG >= thresh[:, None], cols, -1)
    idx.sort(axis=1)
    idx = idx[:, -10:]
    vals = np.take_along_axis(absG, np.maximum(idx, 0), axis=1)
    gap = idx[:, :-1] >= 0  # both ends of the gap are significant
    with np.errstate(divide="ignore", invalid="ignore"):  # padded gaps, masked below
        ratios = vals[:, 1:] / vals[:, :-1]
        ratios **= 1.0 / np.diff(idx, axis=1)
    ratios[~gap] = -np.inf
    rw = np.max(ratios, axis=1) * x * x  # per-w-degree ratio times x^2
    fit = gap[:, -1]
    tails = np.where(fit & (rw >= 1.0), math.inf, 0.0)
    ok = fit & (rw < 1.0)
    m_last = idx[ok, -1]
    rw = rw[ok]
    tails[ok] = vals[ok, -1] * x ** (2 * m_last + 1) * rw ** (M + 1 - m_last) / (1.0 - rw)
    return tails


def odd_horner(coeffs: np.ndarray, x) -> np.ndarray:
    """sum_m coeffs[..., m] x^(2m+1) by Horner in w = x^2.

    Broadcasts: grid rows ``coeffs`` of shape (B, M+1) against a scalar or
    one ``x`` per row, or one coefficient vector against a matrix ``x``
    (entrywise)."""
    w = x * x
    acc = 0.0
    for m in range(coeffs.shape[-1] - 1, -1, -1):
        acc = acc * w + coeffs[..., m]
    return x * acc


def certify_defect(cg: CoeffGrid, t_odd: int = 31,
                   delta: Optional[float] = None) -> DefectCertificate:
    """Certify a lower bound on hhat^{-1}(1) from the coefficient tail.

    For each grid point: h_err(t, delta) sums |inverse coefficient| * delta^k
    over odd k >= t (computed coefficients plus a geometric tail estimate),
    rho = min(delta, asinh(1 - 2 h_err)), and the certificate requires
    hhat(rho) <= 1.  Conditions C1/C2 must hold for k < t on the same grid.
    """
    if t_odd % 2 == 0:
        raise DomainError("t must be odd")
    if delta is None:
        delta = math.asinh(0.974203)
    conds = check_conditions(cg, k_max=t_odd - 2)
    absG = np.abs(cg.G)
    M = absG.shape[1] - 1
    m0 = (t_odd - 1) // 2
    powers = delta ** (2 * np.arange(m0, M + 1) + 1)
    h_err = absG[:, m0:] @ powers + _odd_tail_estimate(absG, delta)
    rho = np.minimum(delta, np.arcsinh(1.0 - 2.0 * h_err))
    hhat_at_rho = odd_horner(absG, rho)
    ok = bool(conds.all_pass and np.all(hhat_at_rho <= 1.0 + 1e-9))
    return DefectCertificate(
        t_odd=t_odd,
        delta=float(delta),
        h_err_max=float(np.max(h_err)),
        rho_certified=float(np.min(rho)),
        hhat_at_rho_max=float(np.max(hhat_at_rho)),
        conditions_ok=conds.all_pass,
        ok=ok,
        grid_size=int(cg.a.size),
    )


def hhat_grid_max(cg: CoeffGrid, x0: float) -> float:
    """max over the (a,b) grid of hhat(x0) at the grid's truncation order."""
    return float(np.max(odd_horner(np.abs(cg.G), x0)))


def cotype2_constant(exponent: float) -> float:
    """Cotype-2 constant of the sequence space with the given exponent <= 2:
    max(2^(1/q - 1/2), 1/gamma_q)."""
    q = exponent
    if q > 2.0:
        raise DomainError("cotype-2 constant implemented only for exponent <= 2")
    if q < 1.0:
        raise DomainError("exponent must be >= 1")
    return max(2.0 ** (1.0 / q - 0.5), 1.0 / gaussian_moment(q))


def bounds_sweep(p_values, q_rule: str = "dual", K: int = CERT_ORDER,
                 q_fixed: Optional[float] = None, tol: float = 1e-4):
    """BoundReports for a sweep over p; q is p* under the default rule.
    ``tol`` certifies each c_ab as in :func:`approx_ratio`."""
    reports = []
    for p in p_values:
        if q_rule == "dual":
            q = 1.0 if math.isinf(p) else p / (p - 1.0)
        elif q_rule == "fixed":
            if q_fixed is None:
                raise DomainError("fixed q-rule needs q_fixed")
            q = q_fixed
        else:
            raise DomainError(f"unknown q rule {q_rule!r}")
        reports.append(approx_ratio(NormPair(p=p, q=q), K=K, tol=tol))
    return reports
