"""Truncated power series: reversion of odd series, coefficient-wise
absolute value, Horner evaluation, and a fitted geometric tail estimate."""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DomainError

#: orders used by default: certification keeps grids fast, identity tests
#: want long expansions.
CERT_ORDER = 60
IDENTITY_ORDER = 200

_ODD_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class TruncatedSeries:
    """Real coefficients indexed by degree 0..K.

    When ``odd`` is set all even-degree coefficients are exactly zero; the
    flag is preserved by the operations that preserve oddness.
    """

    coeffs: np.ndarray
    odd: bool = field(default=False)

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.float64, copy=True)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        if self.odd:
            even = c[0::2]
            scale = max(1.0, float(np.max(np.abs(c))))
            if np.any(np.abs(even) > _ODD_ZERO_TOL * scale):
                raise ValueError("odd flag set but even-degree coefficients are not ~0")
            c[0::2] = 0.0
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    @classmethod
    def identity(cls, K: int) -> "TruncatedSeries":
        c = np.zeros(K + 1)
        if K >= 1:
            c[1] = 1.0
        return cls(c, odd=(K >= 1))

    def odd_compressed(self) -> np.ndarray:
        if not self.odd:
            raise ValueError("series is not flagged odd")
        return self.coeffs[1::2].copy()

    def eval(self, x: float) -> float:
        return evaluate(self, x)

    def __repr__(self):
        head = np.array2string(self.coeffs[: min(6, self.coeffs.size)], precision=6)
        return f"TruncatedSeries(K={self.order}, odd={self.odd}, coeffs={head}...)"


def abs_map(s: TruncatedSeries) -> TruncatedSeries:
    """Coefficient-wise absolute value; preserves the odd flag."""
    return TruncatedSeries(np.abs(s.coeffs), odd=s.odd)


def revert(s: TruncatedSeries) -> TruncatedSeries:
    """Functional inverse g with g(s(x)) = x + O(x^(K+1)) of an odd series.

    Requires the odd flag and a nonzero linear coefficient; runs the batched
    compressed kernel on the one series, so the inverse is exactly odd.
    """
    c = s.coeffs
    if not s.odd:
        raise DomainError("reversion requires a series flagged odd")
    if s.order < 1 or c[1] == 0.0:
        raise DomainError("reversion requires a nonzero linear coefficient")
    g = np.zeros(s.order + 1)
    g[1::2] = _kernels.revert_odd_batch(c[None, 1::2])[0]
    return TruncatedSeries(g, odd=True)


#: coefficients below this fraction of the largest one are treated as the
#: float-noise floor of upstream arithmetic, not as data for ratio fitting
_NOISE_REL = 1e-14


def tail_fit(s: TruncatedSeries):
    """Geometric tail bound past the truncation order, as a function of x.

    Fits the per-degree growth ratio from the last up-to-10 significant
    coefficients (nonzero and above the noise floor) once; the returned
    function bounds the discarded tail at x by the geometric sum it implies.
    That bound is inf when the fitted ratio times |x| reaches 1, and 0 when
    there are too few significant coefficients to fit a ratio (the series is
    then taken to be exact to working precision).
    """
    absc = np.abs(s.coeffs)
    top = float(np.max(absc))
    sig = np.flatnonzero(absc >= _NOISE_REL * top)
    if top == 0.0 or sig.size < 2:
        return lambda x: 0.0
    idx = sig[-10:]
    vals = absc[idx]
    # per-degree ratio; consecutive significant entries may be degrees apart
    ratios = (vals[1:] / vals[:-1]) ** (1.0 / np.diff(idx))
    rho_hat = float(np.max(ratios))
    c_last, k_last, K = vals[-1], int(idx[-1]), s.order

    def tail(x: float) -> float:
        r = rho_hat * abs(x)
        if r >= 1.0:
            return math.inf
        # sum_{k > K} |c_last| * rho_hat^(k - k_last) * |x|^k
        return float(c_last * abs(x) ** k_last * r ** (K + 1 - k_last) / (1.0 - r))

    return tail


def tail_estimate(s: TruncatedSeries, x: float) -> float:
    """The :func:`tail_fit` bound of ``s`` at the one point x."""
    return tail_fit(s)(x)


def evaluate(s: TruncatedSeries, x: float) -> float:
    """Horner evaluation at x."""
    acc = 0.0
    for c in s.coeffs[::-1]:
        acc = acc * x + c
    return float(acc)
