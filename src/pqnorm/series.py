"""Odd truncated power series in compressed form: reversion, Horner
evaluation, and a fitted geometric tail bound.

Every series here is odd.  The 1-d array ``g`` stands for
``sum_m g[m] x^(2m+1)``: entry m is the coefficient of degree 2m+1.  A series
truncated at order K keeps the ``(K - 1) // 2 + 1`` odd degrees up to K.
"""

import math

import numpy as np

from . import _kernels
from .errors import DomainError

#: orders used by default: certification keeps grids fast, identity tests
#: want long expansions.
CERT_ORDER = 60
IDENTITY_ORDER = 200


def revert(F) -> np.ndarray:
    """Compressed inverse g with g(f(x)) = x up to the order of f.

    ``F`` is a compressed odd series with a nonzero linear coefficient
    ``F[0]``; the batched kernel runs on the one row.
    """
    F = np.asarray(F, dtype=np.float64)
    if F.ndim != 1 or F.size == 0 or F[0] == 0.0:
        raise DomainError("reversion requires a nonzero linear coefficient")
    if not np.all(np.isfinite(F)):
        raise DomainError("coefficients must be finite")
    return _kernels.revert_odd_batch(F[None, :])[0]


#: coefficients below this fraction of the largest one are treated as the
#: float-noise floor of upstream arithmetic, not as data for ratio fitting
_NOISE_REL = 1e-14


def tail_fit(g: np.ndarray, K: int):
    """Geometric tail bound past the truncation order K, as a function of x.

    Fits the per-degree growth ratio from the last up-to-10 significant
    coefficients (nonzero and above the noise floor) once; the returned
    function bounds the discarded tail, every degree above K, at x by the
    geometric sum it implies.  That bound is inf when the fitted ratio times
    |x| reaches 1, and 0 when there are too few significant coefficients to
    fit a ratio (the series is then taken to be exact to working precision).
    """
    absg = np.abs(g)
    top = float(np.max(absg))
    sig = np.flatnonzero(absg >= _NOISE_REL * top)
    if top == 0.0 or sig.size < 2:
        return lambda x: 0.0
    idx = 2 * sig[-10:] + 1  # the degrees
    vals = absg[sig[-10:]]
    # per-degree ratio; consecutive significant entries may be degrees apart
    ratios = (vals[1:] / vals[:-1]) ** (1.0 / np.diff(idx))
    rho_hat = float(np.max(ratios))
    c_last, k_last = vals[-1], int(idx[-1])

    def tail(x: float) -> float:
        r = rho_hat * abs(x)
        if r >= 1.0:
            return math.inf
        # sum_{k > K} |c_last| * rho_hat^(k - k_last) * |x|^k
        return float(c_last * abs(x) ** k_last * r ** (K + 1 - k_last) / (1.0 - r))

    return tail


def evaluate(g: np.ndarray, x: float) -> float:
    """Horner evaluation at x: bit for bit the dense Horner over the
    interleaved zero even coefficients."""
    acc = 0.0
    for c in g[::-1]:
        acc = acc * x * x + c
    return float(acc * x)
