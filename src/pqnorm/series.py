"""Odd truncated power series in compressed form: Horner evaluation and the
fitted geometric tail.

Every series here is odd.  A row ``g`` stands for ``sum_m g[m] x^(2m+1)``:
entry m is the coefficient of degree 2m+1.  A series truncated at order K
keeps the ``(K - 1) // 2 + 1`` odd degrees up to K.  The inverse of the
correlation series, the one series reverted, comes one row per (a, b) from
:func:`pqnorm._kernels.revert_odd_batch`.
"""

from typing import NamedTuple

import numpy as np

#: default truncation order: certification keeps grids fast.
CERT_ORDER = 60


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


class TailFit(NamedTuple):
    """Per-row geometric tail fit; a row with fewer than two significant
    entries has ``last`` = ``ratio_w`` = 0, so its tail sums are 0."""

    last: np.ndarray  # the last significant |coefficient|
    m_last: np.ndarray  # its index m (degree 2m+1)
    ratio_w: np.ndarray  # the fitted ratio per w = x^2 degree


def tail_fit(absG: np.ndarray) -> TailFit:
    """Fit a geometric tail to every row of ``absG`` (absolute compressed
    coefficients, shape (B, M+1)).

    Entries below 1e-14 of their row's largest are the float-noise floor of
    the reversion, not ratio data.  The ratio per w-degree is the largest
    per-step gap ratio among each row's last <= 10 significant entries."""
    Mp1 = absG.shape[1]
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
    fit = gap[:, -1]
    return TailFit(last=np.where(fit, vals[:, -1], 0.0),
                   m_last=np.where(fit, idx[:, -1], 0).astype(np.int64),
                   ratio_w=np.where(fit, np.max(ratios, axis=1), 0.0))
