"""Gamma function, Gaussian moments, and the continuation of the correlation
function off the unit disk by Gauss's hypergeometric series."""

import math
import sys

import numpy as np

from .errors import DomainError

_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _past_float_range(what: str) -> DomainError:
    return DomainError(f"{what} exceeds the float64 maximum {sys.float_info.max:.4g}")


def gamma_fn(x: float) -> float:
    """Gamma(x) for finite x > 0, the stdlib's.  DomainError past x ~ 171.6,
    where Gamma exceeds the float64 range."""
    if not 0 < x < math.inf:
        raise DomainError(f"gamma_fn requires finite x > 0, got {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise _past_float_range(f"Gamma(x) at x={x}") from None


def _log_moment(r: float) -> float:
    """log E|g|^r, exactly 0 at r = 0, and inf from r ~ 5.1e305 on, where
    log Gamma((1 + r) / 2) passes the float64 range.  Working in logs keeps
    large r (e.g. Steinberg's bound for big p) safe."""
    if not 0 <= r < math.inf:
        raise DomainError(f"gaussian moment requires finite r >= 0, got {r}")
    if r == 0:
        return 0.0
    try:
        lgam = math.lgamma((1.0 + r) / 2.0)
    except OverflowError:
        return math.inf
    return (r / 2.0) * math.log(2.0) - _LOG_SQRT_PI + lgam


def gaussian_moment_pow(r: float) -> float:
    """E|g|^r for standard Gaussian g, i.e. the r-th absolute moment.

    DomainError past r ~ 301, where the moment exceeds the float64 range."""
    logpow = _log_moment(r)
    if logpow > _LOG_FLOAT_MAX:
        raise _past_float_range(f"E|g|^r at r={r}")
    return math.exp(logpow)


def gaussian_moment(r: float) -> float:
    """The Gaussian moment norm (E|g|^r)^(1/r); the r = 0 limit is 1."""
    logpow = _log_moment(r)
    if math.isinf(logpow):
        # log E|g|^r is past the float64 range; by Stirling the moment norm
        # is sqrt((1 + r) / e) up to a factor 1 + O(log(r) / r), here 1
        return math.sqrt((1.0 + r) / math.e)
    return math.exp(logpow / r) if r else 1.0


def _on_excluded_ray(z):
    """Elementwise: z lies on (-inf, -1] or [1, inf), up to 1e-13 relative."""
    z = np.asarray(z, dtype=complex)
    return ((np.abs(z.imag) <= 1e-13 * np.maximum(1.0, np.abs(z)))
            & (np.abs(z.real) >= 1.0 - 1e-13))


# f(z) = z 2F1(A, B; _C; w), w = z^2, A = (1-a)/2, B = (1-b)/2; each point
# sums one series in x, its kind.  A point takes the first four kinds' x = w,
# w/(w-1), 1-w, 1/w of least modulus if that is at most _RATIO; the rest,
# |w| in [0.8, 1.25] at arguments of 40-87 degrees and their mirror images,
# lie within 0.63 _W0_RADIUS of _W0 or its conjugate, and take x = w - _W0
_DIRECT, _PFAFF, _ONE, _INV, _GAP, _ONE_LOG, _INV_LOG = range(7)
_C, _RATIO = 1.5, 0.8
_W0, _W0_RADIUS = 0.9 * np.exp(math.radians(64.0) * 1j), 0.9
#: each series stops where |x|^n falls below this; for a connection formula
#: also times its distance to the log case, by which its two terms cancel
_TAIL = 1e-17
#: within this distance of its log case, but not at it, a connection formula
#: interpolates in A through six Chebyshev nodes of this radius around it
_NEAR_LOG = 2e-3
_NEAR_NODES = _NEAR_LOG * np.cos((2.0 * np.arange(6) + 1.0) * np.pi / 12.0)
_gamma = np.vectorize(math.gamma, otypes=[float])


def _digamma(x):
    """psi(x) for x > 0, elementwise: twelve steps of psi(x) = psi(x+1) - 1/x,
    then the asymptotic series at x + 12; within 1e-15 of max(1, |psi|)."""
    y = x + 12.0
    r = 1.0 / (y * y)
    tail = r * (1 / 12 - r * (1 / 120 - r * (1 / 252 - r * (1 / 240 - r * (
        1 / 132 - r * (691 / 32760 - r / 12))))))
    return np.log(y) - 0.5 / y - tail - sum(1.0 / (x + k) for k in range(12))


def _hyp_terms(n, alpha, beta, gamma):
    """Rows k < n of (alpha)_k (beta)_k / ((gamma)_k k!), a column per parameter."""
    k = np.arange(n - 1.0)[:, None]
    step = (alpha + k) * (beta + k) / ((gamma + k) * (k + 1.0))
    return np.cumprod(np.vstack([np.ones((1, step.shape[1])), step]), axis=0)


def _formula(kind, A, B, n):
    """A kind's coefficient columns, (n, A.size) each, and constant factors."""
    G, C, k = _gamma, _C, np.arange(n)[:, None]
    if kind in (_DIRECT, _PFAFF):
        return [_hyp_terms(n, A, B if kind == _DIRECT else C - B, C)], []
    if kind == _GAP:  # Taylor coefficients about _W0 by the hypergeometric equation,
        # from the value and derivative there (400 terms, 0.9^400 ~ 5e-19)
        j = np.arange(400.0)  # one sum per value, in an order no other value sets
        t = [_hyp_terms(400, a, B, C)[:, 0] * _W0 ** j for a in A.tolist()]
        c = [np.array([ti.sum() for ti in t]), np.array([(j * ti).sum() for ti in t]) / _W0]
        p0, p1, q0 = _W0 * (1.0 - _W0), 1.0 - 2.0 * _W0, C - (A + B + 1.0) * _W0
        for i in range(n - 2):
            c.append(((i + A) * (i + B) * c[i] - (i + 1) * (p1 * i + q0) * c[i + 1])
                     / (p0 * (i + 1) * (i + 2)))
        return [np.array(c[:n])], []
    if kind == _ONE:  # A&S 15.3.6; every Gamma of s - 1 from the one s
        s = (C - A) - B
        return ([_hyp_terms(n, A, B, 1.0 - s), _hyp_terms(n, C - A, C - B, 1.0 + s)],
                [G(C) * G(s) / (G(C - A) * G(C - B)), G(C) * G(-s) / (G(A) * G(B))])
    if kind == _INV:  # A&S 15.3.7
        d = B - A
        return ([_hyp_terms(n, A, A - C + 1.0, 1.0 - d), _hyp_terms(n, B, B - C + 1.0, 1.0 + d)],
                [G(C) * G(d) / (G(B) * G(C - A)), G(C) * G(-d) / (G(A) * G(C - B))])
    if kind == _ONE_LOG:  # A&S 15.3.11 with m = 1
        u = _hyp_terms(n, A + 1.0, B + 1.0, 2.0)
        psi = _digamma(A + k + 1.0) + _digamma(B + k + 1.0) - _digamma(k + 1.0) - _digamma(k + 2.0)
        return [u, u * psi], [G(C) / (G(A + 1.0) * G(B + 1.0)), G(C) / (G(A) * G(B))]
    # A&S 15.3.13, with e = C - A - 1 and the pole of psi(C - A - k) taken out:
    # (-e)_k psi(1 + e - k) = (-e)_k (psi(1 + e) + H_k) + (1 - e)_{k-1}, with
    # H_k = sum_{0<j<k} 1/(j - e); so c - a = 1 (a = b = 0) needs no limit
    e = (C - A) - 1.0
    u = _hyp_terms(n, A, -e, 1.0)
    q = np.vstack([np.zeros((1, A.size)), A * _hyp_terms(n - 1, A + 1.0, 1.0 - e, 2.0) / k[1:]])
    H = np.cumsum(np.vstack([np.zeros((2, A.size)), 1.0 / (k[1:-1] - e)]), axis=0)
    psi = 2.0 * _digamma(k + 1.0) - _digamma(A + k) - _digamma(1.0 + e) - H
    return [u, u * psi - q], [G(C) / (G(A) * G(C - A))]


def _log_distance(kind, A, B):
    """Distance to the log case a + b = 1 (x = 1 - w) or a = b (x = 1/w)."""
    return np.where(kind == _ONE, ((_C - A) - B) - 1.0, np.where(kind == _INV, B - A, 1.0))


def _hyp(w, A, B):
    """2F1(A, B; 3/2; w) at the arrays w (nonzero) and A, all in one Horner loop."""
    cand = np.stack([w, w / (w - 1.0), 1.0 - w, 1.0 / w])
    kind = np.where(np.abs(cand).min(axis=0) <= _RATIO, np.abs(cand).argmin(axis=0), _GAP)
    dist = _log_distance(kind, A, B)
    is_near = (dist != 0.0) & (np.abs(dist) < _NEAR_LOG)
    far, near = np.flatnonzero(~is_near), np.flatnonzero(is_near)
    # each near point gives six rows at its own w, with A moved to the nodes
    A_node = np.where(kind[near] == _ONE, (_C - B - 1.0) - _NEAR_NODES[:, None],
                      B - _NEAR_NODES[:, None])
    rows = np.concatenate([far, np.tile(near, 6)])
    x, w, kind = cand[np.minimum(kind, _INV), np.arange(w.size)][rows], w[rows], kind[rows]
    A = np.concatenate([A[far], A_node.ravel()])
    d = _log_distance(kind, A, B)
    kind = np.where(d == 0.0, kind + 3, kind)  # _ONE, _INV -> their log forms
    up, gap = w.imag >= 0.0, kind == _GAP
    x[gap] = np.where(up, w, w.conj())[gap] - _W0
    rho = np.abs(x) / np.where(gap, _W0_RADIUS, 1.0)
    cut = _TAIL * np.where((kind == _ONE) | (kind == _INV), np.minimum(1.0, np.abs(d)), 1.0)
    n = np.maximum(np.ceil(np.log(cut) / np.log(np.maximum(rho, 1e-16))), 2.0)
    coef = np.zeros((int(n.max()), 2, w.size), dtype=complex if gap.any() else float)
    fac = np.zeros((2, w.size))
    kinds = np.unique(kind).tolist()
    for k in kinds:
        sel = kind == k
        vals, of = np.unique(A[sel], return_inverse=True)
        cols, facs = _formula(k, vals, B, len(coef))
        coef[:, :len(cols), sel] = np.stack(cols, axis=1)[:, :, of]
        if facs:
            fac[:len(facs), sel] = np.array(facs)[:, of]
    # Horner, each row cut after its own n terms: the zeros above the cut
    # leave the bits of the row's own shorter sum
    coef = np.where(np.arange(len(coef))[:, None, None] < n, coef, 0.0)
    S = coef[-1]
    for c in coef[-2::-1]:
        S = S * x + c
    val = S[0].copy()  # _DIRECT and _GAP
    for k in kinds:
        sel = kind == k
        xs, a, s0, s1, g0, g1 = x[sel], A[sel], S[0, sel], S[1, sel], fac[0, sel], fac[1, sel]
        if k == _PFAFF:
            val[sel] = np.exp(-a * np.log(1.0 - w[sel])) * s0
        elif k == _ONE:
            val[sel] = g0 * s0 + g1 * np.exp(((_C - a) - B) * np.log(xs)) * s1
        elif k == _ONE_LOG:
            val[sel] = g0 + g1 * xs * (np.log(xs) * s0 + s1)
        elif k in (_INV, _INV_LOG):
            L = np.log(-w[sel])
            val[sel] = (g0 * np.exp(-a * L) * (L * s0 + s1) if k == _INV_LOG
                        else g0 * np.exp(-a * L) * s0 + g1 * np.exp(-B * L) * s1)
    val = np.where(gap & ~up, val.conj(), val)
    out = np.empty(far.size + near.size, dtype=complex)
    out[far] = val[:far.size]
    if near.size:  # Lagrange interpolation to each near point's own distance
        t, node_val = d[far.size:].reshape(6, -1), val[far.size:].reshape(6, -1)
        out[near] = sum(math.prod((dist[near] - t[k]) / (t[j] - t[k]) for k in range(6) if k != j)
                        * node_val[j] for j in range(6))
    return out


def euler_continuation(z, a, b: float):
    """Analytic continuation of rho * 2F1((1-a)/2, (1-b)/2; 3/2; rho^2) to
    the plane cut along (-inf,-1] and [1,inf), on principal branches: within
    1e-14 relative of 30-digit mpmath on the `verify contours` points and
    1e-12 for |z| <= 10, next to +-1 and to the log cases a = b and a + b =
    1 included.

    ``z`` and ``a`` are scalars or arrays that broadcast against each other;
    ``b`` is one scalar.  Two scalars give a Python complex, anything else an
    ndarray of the broadcast shape, and each point's value has the same bits
    as a scalar call with its own ``z`` and ``a``.  Any non-finite point,
    any point whose square z*z is not finite (from |z| ~ 1.34e154 on), any
    point on the excluded rays and any ``a`` or ``b`` outside [0, 1) raises
    DomainError.

    Method: with w = z^2, A = (1-a)/2 and B = (1-b)/2, a point takes the
    series of least ratio |x| if that is at most 0.8: the power series
    (x = w), Pfaff's (1-w)^{-A} 2F1(A, 3/2-B; 3/2; w/(w-1)), or Gauss's
    connection formulas in x = 1 - w and 1/w (Abramowitz & Stegun 15.3.6,
    15.3.7), which take their log forms at a + b = 1 and a = b (A&S 15.3.11
    with m = 1; 15.3.13, with the pole of psi taken out for a = b = 0) and
    interpolate in A through six Chebyshev nodes within 2e-3 of either.
    The rest, near |w| = 1 at arguments 40-87 degrees and their mirror
    images, take one Taylor step of the hypergeometric equation about 0.9
    e^{+-64i deg}.  A series stops after the terms its own |x| needs, and
    the Gamma factors are taken once per distinct ``a``.  Below |z| = 1e-100
    the value is z.
    """
    if np.ndim(b) != 0 or not 0 <= b < 1:
        raise DomainError(f"exponent b must be a scalar in [0,1), got b={b}")
    b = float(b)
    scalar = np.ndim(z) == 0 and np.ndim(a) == 0
    z, a = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(a, dtype=float))
    bad_a = ~((a >= 0) & (a < 1))
    if bad_a.any():
        raise DomainError(f"exponent a must lie in [0,1), got a={a[bad_a].flat[0]}")
    bad_z = ~np.isfinite(z)
    if bad_z.any():
        raise DomainError(f"z={z[bad_z].flat[0]} is not finite")
    on_ray = _on_excluded_ray(z)
    if on_ray.any():
        raise DomainError(f"z={z[on_ray].flat[0]} lies on the excluded real rays |Re z| >= 1")
    flat = z.ravel()
    out = flat.copy()
    big = np.flatnonzero(np.abs(flat) >= 1e-100)
    if big.size:
        with np.errstate(over="ignore", invalid="ignore"):  # raised just below
            w = flat[big] ** 2
        bad_w = ~np.isfinite(w)
        if bad_w.any():
            raise _past_float_range(f"z^2 at z={flat[big][bad_w][0]}")
        A = (1.0 - a.ravel()[big]) / 2.0
        out[big] = flat[big] * _hyp(w, A, (1.0 - b) / 2.0)
    return complex(out[0]) if scalar else out.reshape(z.shape)
