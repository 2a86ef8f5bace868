"""Hot numeric kernel: batched reversion of odd power series.

Grid certification reverts one truncated series per grid point with a >= b
(the correlation series is symmetric in a and b, so the other half is
mirrored), which dominates the runtime of the certification commands.  The
kernel is pure numpy, vectorised across the batch dimension; the loops run
over the series order only.

The kernel works in the compressed representation of an odd series: the
series ``f(rho) = sum_m F[m] * rho**(2m+1)`` is stored as the coefficient
array ``F`` of ``F(w) = f(sqrt(w))/sqrt(w)`` in the variable ``w = rho**2``.
Reversion solves ``G(H(w)) = 1/F(w)`` with ``H(w) = w*F(w)**2``, which is the
compressed form of ``g(f(rho)) = rho``; the inverse series is then
``f^{-1}(y) = sum_m G[m] * y**(2m+1)``.
"""

import numpy as np

from .errors import DomainError

#: the one kernel implementation, recorded in benchmark machine records
BACKEND = "numpy"


def revert_odd_batch(F):
    """Invert a batch of odd series given in compressed form.

    ``F`` has shape (B, M+1) with ``F[:, 0] != 0`` and finite entries; row
    ``r`` encodes ``f(rho) = sum_m F[r, m] rho**(2m+1)``.  Returns ``G`` of
    the same shape with ``f^{-1}(y) = sum_m G[r, m] y**(2m+1)`` up to order
    ``2M+1``.  Rows are independent: a row reverts to the same bits alone or
    in any batch.
    """
    F = np.ascontiguousarray(F, dtype=np.float64)
    if F.ndim != 2 or F.shape[1] == 0:
        raise DomainError("expected a 2-d batch of compressed coefficients")
    if np.any(F[:, 0] == 0.0):
        raise DomainError("reversion requires a nonzero linear coefficient")
    if not np.all(np.isfinite(F)):
        raise DomainError("coefficients must be finite")
    B, Mp1 = F.shape
    M = Mp1 - 1
    # Work arrays are coefficient-major, (M+1, B): row m holds coefficient m
    # of every series, so each convolution term is one pass over contiguous
    # length-B rows.  A real copy: F.T of a one-row batch is a view of the
    # caller's array, and this buffer is reused below.
    Ft = F.T.copy()
    R = np.zeros_like(Ft)
    R[0] = 1.0 / Ft[0]
    for m in range(1, Mp1):
        R[m] = -np.einsum("ib,ib->b", Ft[1 : m + 1], R[m - 1 :: -1]) / Ft[0]
    H = np.zeros_like(Ft)
    for m in range(M):
        np.einsum("ib,ib->b", Ft[: m + 1], Ft[m::-1], out=H[m + 1])
    G = np.empty((B, Mp1))
    G[:, 0] = R[0]
    acc = np.zeros_like(Ft)
    # P holds H^j; newP (the spent F buffer) receives H^(j+1).  Rows below
    # j+1 of either are never read again, so neither is cleared.
    P, newP = H.copy(), Ft
    for j in range(1, Mp1):
        g = (R[j] - acc[j]) / P[j]
        G[:, j] = g
        if j < M:
            # the acc update's product goes into newP's rows still free
            np.multiply(g, P[j + 1 :], out=newP[j + 1 :])
            acc[j + 1 :] += newP[j + 1 :]
            for m in range(j + 1, Mp1):
                # [w^m] H^(j+1) = sum_{i=j..m-1} P[i] * H[m-i]
                np.einsum("ib,ib->b", P[j:m], H[m - j : 0 : -1], out=newP[m])
            P, newP = newP, P
    return G
