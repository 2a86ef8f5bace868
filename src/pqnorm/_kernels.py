"""Hot numeric kernel: the inverse of the correlation series
``f(rho) = rho * 2F1((1-a)/2, (1-b)/2; 3/2; rho^2)``, batched over (a, b),
which dominates the certification commands.  Pure numpy, vectorised across
the batch; the loops run over the series order only.

Derivation.  By the hypergeometric equation (Abramowitz & Stegun 15.5.1),
(1 - rho^2) f'' - (1 - a - b) rho f' - ab f = 0.  The inverse g (g(0) = 0,
g'(0) = 1) has f'(g) = 1/g' and f''(g) = -g''/g'^3, so with rho = g(y) and
f = y, times -g'^3,

    (1 - g^2) g'' + (1 - a - b) g g'^2 + ab y g'^3 = 0,

which at a = b = 0 is solved by g = sin.  Write g = sum G_m y^(2m+1),
D_m = (2m+1) G_m (g' = sum D_m y^2m), W_m = ((1-a)(1-b) + 2m ab) G_m =
(1 - a - b + (2m+1) ab) G_m, and with ``*`` the Cauchy product T = D * D
(g'^2), S = G * G (g^2 / y^2) and E_n = -(2n+2)(2n+3) G_{n+1} (-g'' / y).
The coefficient of y^(2n+1) in -g'' = y (T * W)(y^2) + g^2 (-g'') is

    E_n = sum_{i<=n} T_i W_{n-i} + sum_{i<n} S_i E_{n-1-i},

which needs G up to G_n only: from G_0 = 1, an O(M^2) recurrence of four
dot products per degree.  (1-a)(1-b) is exactly 0 at a = 1 or b = 1, where
f is the identity, so those rows come out exactly (1, 0, 0, ...).
"""

import numpy as np

from .errors import DomainError

#: the one kernel implementation, recorded in benchmark machine records
BACKEND = "numpy"


def revert_odd_batch(a, b, M: int):
    """Compressed inverse series of f at B pairs (a, b), to order 2M+1.

    ``a`` and ``b`` are arrays of one shape (read flattened) with entries in
    [0, 1].  Returns ``G``, (B, M+1) and C-contiguous, with
    ``f^{-1}(y) = sum_m G[r, m] y^(2m+1)`` at pair r.  A row gets the same
    bits alone or in any batch, and at (a, b) as at (b, a): the recurrence
    sees the pair only through (1-a)(1-b) and ab.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DomainError(f"exponent arrays differ in shape: a {a.shape}, b {b.shape}")
    if not np.all(np.isfinite(a) & np.isfinite(b)):
        raise DomainError("exponents must be finite")
    if not np.all((a >= 0.0) & (a <= 1.0) & (b >= 0.0) & (b <= 1.0)):
        raise DomainError("exponents must lie in [0, 1]")
    if not M >= 0:
        raise DomainError(f"order M must be >= 0, got {M}")
    a, b = a.ravel(), b.ravel()
    u, ab = (1.0 - a) * (1.0 - b), a * b
    # Work arrays are coefficient-major, (M+1, B): row m holds coefficient m
    # of every series, so each dot product is one pass over contiguous
    # length-B rows.  No row is read before it is written.
    G = np.empty((M + 1, a.size))
    D, W, T, S, E = np.empty((5, M, a.size))
    se = np.empty(a.size)
    G[0] = 1.0
    for n in range(M):
        np.multiply(2 * n + 1, G[n], out=D[n])
        np.multiply(u + 2 * n * ab, G[n], out=W[n])
        np.einsum("ib,ib->b", D[: n + 1], D[n::-1], out=T[n])
        np.einsum("ib,ib->b", T[: n + 1], W[n::-1], out=E[n])
        if n:
            np.einsum("ib,ib->b", G[:n], G[n - 1 :: -1], out=S[n - 1])
            E[n] += np.einsum("ib,ib->b", S[:n], E[n - 1 :: -1], out=se)
        np.divide(E[n], -(2 * n + 2) * (2 * n + 3), out=G[n + 1])
    del D, W, T, S, E  # free the work arrays before the transposed copy
    return G.T.copy()
