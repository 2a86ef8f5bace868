"""Bounds engine: the correlation series, its inversion constant c_{a,b},
approximation ratios, coefficient conditions, and the defect certificate.
Series are odd and compressed as in :mod:`pqnorm.series`."""

import math
import numbers
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


def dual_exponent(r: float) -> float:
    """The Holder conjugate r / (r - 1) of r >= 1, with 1* = inf and inf* = 1."""
    if math.isinf(r):
        return 1.0
    if r == 1.0:
        return math.inf
    return r / (r - 1.0)


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
        return dual_exponent(self.p)

    @property
    def q_star(self) -> float:
        return dual_exponent(self.q)

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


def _series_tail(fit: series.TailFit, K: int):
    """The fitted geometric bound on sum_{k > K} |g_k| |x|^k, over every
    degree, odd and even, at the per-degree ratio rho = sqrt(ratio_w), as a
    function of x; inf once rho|x| reaches 1."""
    rho = np.sqrt(fit.ratio_w)
    k_last = 2 * fit.m_last + 1
    k_rest = K + 1 - k_last

    def tail(x):
        x = np.abs(x)
        r = rho * x
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # r >= 1, masked
            t = fit.last * x ** k_last * r ** k_rest / (1.0 - r)
        return np.where(r >= 1.0, math.inf, t)

    return tail


def _bisect(H: np.ndarray, tail) -> np.ndarray:
    """Per row of H, the root on [0, 1] of hhat(x) + tail(x) = 1 from below,
    by halving until no row's midpoint moves (about 53 halvings)."""
    n = H.shape[0]
    lo, hi, mid = np.zeros(n), np.ones(n), np.full(n, -1.0)
    for _ in range(100):
        prev, mid = mid, 0.5 * (lo + hi)
        if np.array_equal(mid, prev):
            break
        below = series.odd_horner(H, mid) + tail(mid) < 1.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return lo


def _solve_c(pairs, K: int, tol: float):
    """c_ab, the signed inverse rows G and the tail bound at c_ab for every
    pair, from one reversion, one tail fit and one row-wise bisection.
    Raises CertificationError for the first pair, in order, whose c_ab the
    tail does not certify within tol."""
    if K < 30:
        raise DomainError("certification needs K >= 30")
    if not tol > 0:
        raise DomainError("tol must be positive")
    G = inverse_coeff_grid(([p.a for p in pairs], [p.b for p in pairs]), K).G
    H = np.abs(G)
    tail = _series_tail(series.tail_fit(H), K)
    c = _bisect(H, tail)
    bad = np.flatnonzero(series.odd_horner(H, c) < 1.0 - tol)
    if bad.size:
        i = bad[0]
        raise CertificationError(
            f"tail estimate {tail(c)[i]:.3e} too large to certify hhat(c) within {tol:.1e}",
            uncertified=float(_bisect(H[i:i + 1], lambda x: 0.0)[0]),
        )
    return c, G, tail(c)


def compute_c_ab(pair: NormPair, K: int = CERT_ORDER, tol: float = 1e-4):
    """Solve hhat(c) = 1 where hhat has the absolute inverse coefficients.

    Returns (c_ab, g, tail): g is the signed compressed inverse of f_bar at
    order K, and tail the tail bound of hhat at c_ab.  The root is bracketed
    by bisection on [0, 1] against hhat plus its tail estimate, so hhat(c_ab)
    lands in [1-tol, 1] including the discarded tail; hhat is strictly
    increasing there because all its coefficients are nonnegative and the
    linear one equals 1.  This is the one-row case of :func:`bounds_sweep`.

    The root approaches the convergence radius as a or b approach 1, where
    the K = 60 tail certifies only to about 4e-5; hence the loose default.
    Away from that edge much tighter tolerances hold at the same K.
    """
    c, G, tail = _solve_c([pair], K, tol)
    return float(c[0]), G[0], float(tail[0])


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
    return _report(pair, K, *compute_c_ab(pair, K, tol=tol))


def _report(pair: NormPair, K: int, c: float, g: np.ndarray, tail: float) -> BoundReport:
    ratio = 1.0 / (gaussian_moment(pair.p_star) * gaussian_moment(pair.q) * c)
    return BoundReport(pair=pair, c_ab=c, ratio=ratio, krivine_ratio=KRIVINE_RATIO,
                       steinberg_ratio=steinberg_ratio(pair), K=K, tail_bound=tail,
                       inverse=g)


class CoeffGrid(NamedTuple):
    """Inverse-series coefficients on an (a, b) grid: G[i, m] is the
    coefficient of y^(2m+1) in the inverse series at (a[i], b[i])."""

    a: np.ndarray
    b: np.ndarray
    G: np.ndarray


def inverse_coeff_grid(grid, K: int = CERT_ORDER) -> CoeffGrid:
    """Inverse-series coefficients at every point of ``grid``, as a CoeffGrid.

    ``grid`` is an integer n (any ``numbers.Integral`` but a bool: the n x n
    uniform grid on [0,1]^2, point (i, j) at row i*n + j with a = vals[i],
    b = vals[j]) or explicit (a, b) arrays of one shape.  The certification
    functions below take the result, so one reversion can serve several of
    them.

    f_bar is symmetric in a <-> b, so the int grid reverts only its a >= b
    triangle, n(n+1)/2 rows, and writes each row to both (a, b) and (b, a).
    The reversion at (b, a) differs from that at (a, b) only by round-off
    (at most 3.4e-16 absolute at K 60 on the 101 grid, 3.8e-8 at K 200), so
    a max over the grid can move in its last digits against a reversion of
    every point.  Explicit arrays revert every point as given.
    """
    if K < 1:
        raise DomainError("order K must be >= 1")
    M = (K - 1) // 2
    if isinstance(grid, (bool, np.bool_)):
        raise DomainError(f"grid {grid!r} is not a grid size")
    if isinstance(grid, numbers.Integral):
        grid = int(grid)
        if grid < 1:
            raise DomainError(f"grid {grid!r} has no points")
        vals = np.linspace(0.0, 1.0, grid)
        i, j = np.tril_indices(grid)  # i >= j, so a >= b
        G = np.empty((grid, grid, M + 1))
        G[i, j] = G[j, i] = _kernels.revert_odd_batch(f_bar_w_coeffs(vals[i], vals[j], M))
        a, b = np.meshgrid(vals, vals, indexing="ij")
        return CoeffGrid(a.ravel(), b.ravel(), G.reshape(-1, M + 1))
    a, b = (np.asarray(v, dtype=np.float64) for v in grid)
    if a.shape != b.shape:
        raise DomainError(f"grid arrays differ in shape: a {a.shape}, b {b.shape}")
    if a.size == 0:
        raise DomainError(f"grid {grid!r} has no points")
    a, b = a.ravel(), b.ravel()
    return CoeffGrid(a, b, _kernels.revert_odd_batch(f_bar_w_coeffs(a, b, M)))


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


def _odd_tail(fit: series.TailFit, M: int, x: float) -> np.ndarray:
    """Geometric bound on sum_{m > M} |G[:, m]| x^(2m+1), over odd degrees
    only; inf once the ratio per w-degree times x^2 reaches 1."""
    rw = fit.ratio_w * x * x
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # rw >= 1, masked
        tail = fit.last * x ** (2 * fit.m_last + 1) * rw ** (M + 1 - fit.m_last) / (1.0 - rw)
    return np.where(rw >= 1.0, math.inf, tail)


def certify_defect(cg: CoeffGrid, t_odd: int = 31,
                   delta: Optional[float] = None) -> DefectCertificate:
    """Certify a lower bound on hhat^{-1}(1) from the coefficient tail.

    For each grid point: h_err(t, delta) sums |inverse coefficient| * delta^k
    over odd k >= t (computed coefficients plus a geometric tail estimate),
    rho = min(delta, asinh(1 - 2 h_err)), and the certificate requires
    h_err < 1/2 and hhat(rho) <= 1.  A point with h_err >= 1/2 (or not a
    number) fails and gets rho = 0, so hhat is never evaluated at a negative
    or NaN radius.  Conditions C1/C2 must hold for k < t on the same grid.
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
    h_err = absG[:, m0:] @ powers + _odd_tail(series.tail_fit(absG), M, delta)
    small = h_err < 0.5
    rho = np.minimum(delta, np.arcsinh(1.0 - 2.0 * np.where(small, h_err, 0.5)))
    hhat_at_rho = series.odd_horner(absG, rho)
    ok = bool(conds.all_pass and np.all(small) and np.all(hhat_at_rho <= 1.0 + 1e-9))
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
    return float(np.max(series.odd_horner(np.abs(cg.G), x0)))


def bounds_sweep(pairs, K: int = CERT_ORDER, tol: float = 1e-4):
    """BoundReports for a list of NormPairs, in order.

    All pairs share one reversion and one row-wise bisection; each row is
    bit for bit what :func:`approx_ratio` gives its pair.  ``tol`` certifies
    each c_ab, and the first pair in order that fails raises."""
    if not pairs:
        return []
    c, G, tail = _solve_c(pairs, K, tol)
    return [_report(pair, K, float(c[i]), G[i], float(tail[i])) for i, pair in enumerate(pairs)]
