"""Gamma function, Gaussian moments, and the Euler-integral continuation of
the correlation function off the unit disk."""

import functools
import math
import sys

import numpy as np

from .errors import AccuracyError, DomainError

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


#: nodes of the Gauss-Jacobi rule; the error check reruns with half as many
_GJ_NODES = 192
#: points per block, which bounds the (points, nodes) work arrays (~3 MB each;
#: three times wider for the points of a block that take the graded rule)
_GJ_BLOCK = 1024
#: relative agreement of the two node counts that accepts a value
_ACCEPT = 1e-9
#: points with |1 - z^2| up to this skip that check for the graded rule: below
#: ~3e-3 the Gauss-Jacobi error leaves its 1.4e-14 floor, up to 1.2e-10 by +-1
_NEAR_BRANCH = 1e-2
#: nodes per panel of the graded fallback rule, fine and coarse
_GRADED_NODES = (20, 16)
#: width ratio of neighbouring panels of the graded rule, and its panel levels
_GRADE_RATIO = 0.25
_GRADE_LEVELS = 28
#: node rules each builder keeps per process, a few kB each (verify all uses 36)
_RULE_CACHE = 64


def _read_only(*arrays):
    """The arrays of a cached rule, locked: every caller shares them."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _gauss_rule(diag, off, mass=1.0):
    """The Gauss rule, weights summing to ``mass``, of the orthonormal p_k with
    p_0 = 1 and off[k+1] p_{k+1} = (x - diag[k]) p_k - off[k] p_{k-1} (Golub &
    Welsch, Math. Comp. 23, 1969): the Jacobi matrix's eigenvalues after one
    Newton step on p_n, and the Christoffel numbers 1 / sum_{k<n} p_k^2."""
    n = diag.size
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[1:], -1))
    d, o = diag.tolist(), off.tolist() + [1.0]  # off[n] := 1 keeps the zeros of p_n
    p_prev, p, dp_prev, dp = np.zeros(n), np.ones(n), np.zeros(n), np.zeros(n)
    for j in range(n):
        t = x - d[j]
        p_prev, p, dp_prev, dp = (p, (t * p - o[j] * p_prev) / o[j + 1],
                                  dp, (p + t * dp - o[j] * dp_prev) / o[j + 1])
    x = x - p / dp
    p_prev, p, acc = np.zeros(n), np.ones(n), np.ones(n)
    for j in range(n - 1):
        p_prev, p = p, ((x - d[j]) * p - o[j] * p_prev) / o[j + 1]
        acc += p * p
    w = 1.0 / acc
    return _read_only(x, w / w.sum() * mass)


@functools.lru_cache(maxsize=_RULE_CACHE)
def _gauss_jacobi(n: int, alpha: float, beta: float):
    """Nodes and weights of the n-point Gauss rule for (1-x)^alpha (1+x)^beta
    on [-1, 1], scaled so the weights sum to 1, as read-only arrays built once
    per process by _gauss_rule.  Its Christoffel weights hold the first moment
    to a few 1e-12 next to a strong endpoint singularity, where weights taken
    from eigenvectors lose it (3e-9 off at beta = -0.975, n = 192)."""
    k = np.arange(n, dtype=float)
    s = 2.0 * k + alpha + beta
    # diag[0] apart: the general form is 0/0 there when alpha + beta = 0
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (alpha + beta + 2.0)
    diag[1:] = (beta * beta - alpha * alpha) / (s[1:] * (s[1:] + 2.0))
    off = np.zeros(n)
    off[1:] = np.sqrt(4.0 * k[1:] * (k[1:] + alpha) * (k[1:] + beta) * (k[1:] + alpha + beta)
                      / (s[1:] ** 2 * (s[1:] + 1.0) * (s[1:] - 1.0)))
    return _gauss_rule(diag, off)


@functools.lru_cache(maxsize=_RULE_CACHE)
def _gauss_laguerre(n: int, alpha: float):
    """Nodes and weights of the n-point Gauss rule for s^alpha e^{-s} on
    [0, inf), summing to the weight's mass Gamma(alpha + 1), as read-only
    arrays built once per process by _gauss_rule."""
    k = np.arange(n, dtype=float)
    return _gauss_rule(2.0 * k + 1.0 + alpha, np.sqrt(k * (k + alpha)), math.gamma(alpha + 1.0))


@functools.lru_cache(maxsize=_RULE_CACHE)
def _euler_rule(n: int, b: float):
    """The n-point rule for the normalised Euler integral along the parabola
    t(s) = s (1 + i (1 - s)): the t-values at the nodes and the weights times
    the smooth path factors (1 - i s)^{b/2} (1 + i (1 - s))^{-(1+b)/2}
    (1 + i (1 - 2 s)).  The weights absorb (1-s)^{b/2} s^{-(1+b)/2}."""
    x, w = _gauss_jacobi(n, b / 2.0, -(1.0 + b) / 2.0)
    s = (1.0 + x) / 2.0
    bend = 1.0 + 1j * (1.0 - s)
    t = s * bend
    path = (1.0 - 1j * s) ** (b / 2.0) * bend ** (-(1.0 + b) / 2.0) * (1.0 + 1j * (1.0 - 2.0 * s))
    return _read_only(t, w * path)


@functools.lru_cache(maxsize=_RULE_CACHE)
def _graded_rule(n: int, expo: float):
    """One side of the graded fallback rule, n nodes per panel: nodes v in
    (0, 1) and weights, as read-only arrays.  The panels shrink by
    _GRADE_RATIO toward v = 0, over _GRADE_LEVELS levels.  The panel
    [_GRADE_RATIO, 1] is Gauss-Jacobi, its weight absorbing (1-v)^expo; every
    other panel is Gauss-Legendre, with that factor folded into its weights."""
    x, w = _gauss_jacobi(n, 0.0, 0.0)
    hi = _GRADE_RATIO ** np.arange(1, _GRADE_LEVELS + 1)
    lo = np.append(hi[1:], 0.0)
    v = (lo[:, None] + (hi - lo)[:, None] * (1.0 + x) / 2.0).ravel()
    wv = ((hi - lo)[:, None] * w).ravel()
    xj, wj = _gauss_jacobi(n, expo, 0.0)
    vj = _GRADE_RATIO + (1.0 - _GRADE_RATIO) * (1.0 + xj) / 2.0
    wj = wj * (1.0 - _GRADE_RATIO) ** (1.0 + expo) / (1.0 + expo)
    return _read_only(np.concatenate([vj, v]), np.concatenate([wj, wv * (1.0 - v) ** expo]))


def _euler_graded(z, power, b: float):
    """The continuation at the points ``z``, each with its own exponent
    ``power`` = -(1-a)/2, by graded rules (see _graded_rule) on the real
    segment, in s = sqrt(t):  2 int_0^1 (1-s^2)^{b/2} s^{-b}
    (1-z^2 s^2)^power ds.  AccuracyError where the two node counts of
    _GRADED_NODES disagree."""
    w = np.where(z.real < 0, -z, z)[:, None]  # w^2 = z^2 and Re w >= 0
    # the grading point, next to the branch point 1/w; kept off 0 by the
    # finest panel width, so that the endpoint singularity s^{-b} stays in
    # the left side's Gauss-Jacobi weight
    c = np.clip((1.0 / w).real, _GRADE_RATIO ** _GRADE_LEVELS, 1.0)
    p = power[:, None]

    def side(s, u, edge, wt):
        # 1 - z^2 s^2 = (u + (1 - w) s)(1 + w s), each factor accurate
        f = ((u + (1.0 - w) * s) * (1.0 + w * s)) ** p * (1.0 + s) ** (b / 2.0)
        return (f * edge * wt).sum(axis=1)

    vals = []
    for n in _GRADED_NODES:
        # [0, 1] splits at c: s = c (1 - v) to its left, s = c + (1 - c) v to
        # its right, and u = 1 - s keeps its digits next to s = 1
        v, wt = _graded_rule(n, -b)
        s, u = c * (1.0 - v), (1.0 - c) + c * v
        val = c[:, 0] ** (1.0 - b) * side(s, u, u ** (b / 2.0), wt)
        if (c < 1.0).any():  # the right side is empty at c = 1 and adds 0
            v, wt = _graded_rule(n, b / 2.0)
            s, u = c + (1.0 - c) * v, (1.0 - c) * (1.0 - v)
            val = val + (1.0 - c[:, 0]) ** (1.0 + b / 2.0) * side(s, u, s ** -b, wt)
        vals.append(val)
    # B((1-b)/2, 1+b/2)
    beta = math.gamma((1.0 - b) / 2.0) * math.gamma(1.0 + b / 2.0) / math.gamma(1.5)
    result, coarse = (2.0 * z * val / beta for val in vals)
    miss = ~(np.abs(result - coarse) <= _ACCEPT * np.abs(result))
    if miss.any():
        i = np.flatnonzero(miss)[0]
        raise AccuracyError(
            f"graded quadrature did not converge to target accuracy at z={z[i]}",
            achieved=complex(result[i]), error_estimate=float(abs(result[i] - coarse[i])),
        )
    return result


def euler_continuation(z, a, b: float):
    """Analytic continuation of rho * 2F1((1-a)/2, (1-b)/2; 3/2; rho^2).

    Evaluates  B((1-b)/2, 1+b/2)^{-1} * z * int_0^1 (1-t)^{b/2} /
    (t^{(1+b)/2} (1-z^2 t)^{(1-a)/2}) dt,  valid on the plane cut along
    (-inf,-1] and [1,inf).  Relative accuracy 1e-8 for |z| <= 10, next to
    the branch points +-1 included.  Complex powers take the principal branch.

    ``z`` and ``a`` are scalars or arrays that broadcast against each other;
    ``b`` is a scalar, because the node rules depend on it alone.  Two
    scalars give a Python complex, anything else an ndarray of the broadcast
    shape, and each point's value has the same bits as a scalar call with
    its own ``z`` and ``a``.  Any non-finite point, any point on the
    excluded rays and any ``a`` or ``b`` outside [0, 1) raises DomainError.

    Method: a 192-node Gauss-Jacobi rule, whose weight absorbs both endpoint
    singularities, along the parabola t(s) = s (1 + i sigma (1-s)) with
    sigma = sign Im(z^2) (+1 when that is 0).  The parabola bends away from
    the branch point 1/z^2, and the cut {u/z^2 : u >= 1} lies on the other
    side of [0, 1], so by Cauchy's theorem the value is unchanged.  The
    power is exp(power * log(1 - z^2 t)), the same bits as the complex
    power, with each log taken once per distinct z and shared by every
    ``a``.  A point with |1 - z^2| <= 1e-2 (next to +-1, where 1/z^2 sits
    just past t = 1) goes straight, at its own ``a``, to a graded composite
    rule on the real segment, in s = sqrt(t); any other point goes there
    unless its 192- and 96-node values agree to 1e-9 relative.  [0, 1]
    splits at c = |Re(1/z)| clipped to [4^-28, 1], the foot of the nearer
    branch point, and each side is cut into 29 panels whose widths shrink
    by 4 toward c.
    The panels at 0 and 1 are Gauss-Jacobi with weights s^{-b} and
    (1-s)^{b/2}, the rest Gauss-Legendre, and 1 - z^2 s^2 is formed as a
    product of two factors that keep their digits next to the branch point.
    Its 20- and 16-node values must agree to 1e-9 relative, or AccuracyError
    is raised.  The node rules are built once per process (a few ms each)
    and shared by every later call; pass many points and exponents as one
    array, which shares each log across every ``a``.
    """
    if np.ndim(b) != 0 or not 0 <= b < 1:
        raise DomainError(f"exponent b must be a scalar in [0,1), got b={b}")
    b = float(b)  # a key of the cached node rules
    scalar = np.ndim(z) == 0 and np.ndim(a) == 0
    z_in = np.asarray(z, dtype=complex)
    z, a = np.broadcast_arrays(z_in, np.asarray(a, dtype=float))
    bad_a = ~((a >= 0) & (a < 1))
    if bad_a.any():
        raise DomainError(f"exponent a must lie in [0,1), got a={a[bad_a].flat[0]}")
    bad_z = ~np.isfinite(z)
    if bad_z.any():
        raise DomainError(f"z={z[bad_z].flat[0]} is not finite")
    on_ray = _on_excluded_ray(z)
    if on_ray.any():
        raise DomainError(f"z={z[on_ray].flat[0]} lies on the excluded real rays |Re z| >= 1")
    flat, a_flat = z.ravel(), a.ravel()
    # each point's index into z_in: the points of one z share its logarithms
    z_of = np.broadcast_to(np.arange(z_in.size).reshape(z_in.shape), z.shape).ravel()
    z_in = z_in.ravel()
    power = -(1.0 - a_flat) / 2.0
    out = np.zeros_like(flat)
    todo = np.flatnonzero(flat)
    if todo.size:
        rules = [_euler_rule(n, b) for n in (_GJ_NODES, _GJ_NODES // 2)]
        for lo in range(0, todo.size, _GJ_BLOCK):
            idx = todo[lo:lo + _GJ_BLOCK]
            near = np.abs(1.0 - flat[idx] ** 2) <= _NEAR_BRANCH
            miss, idx = idx[near], idx[~near]
            distinct, of = np.unique(z_of[idx], return_inverse=True)
            z2 = z_in[distinct] ** 2
            down = z2.imag < 0  # sigma = -1: integrate at conj(z^2), conjugate back
            z2[down] = z2[down].conjugate()
            # (1 - z^2 t)^power as exp(power log(1 - z^2 t)), the same bits
            full, half = ((np.exp(power[idx, None] * np.log(1.0 - z2[:, None] * t)[of]) * hw)
                          .sum(axis=1) for t, hw in rules)
            ok = np.abs(full - half) <= _ACCEPT * np.abs(full)
            flip = down[of]
            full[flip] = full[flip].conjugate()
            out[idx[ok]] = flat[idx[ok]] * full[ok]
            miss = np.concatenate([miss, idx[~ok]])
            if miss.size:
                out[miss] = _euler_graded(flat[miss], power[miss], b)
    if scalar:
        return complex(out[0])
    return out.reshape(z.shape)
