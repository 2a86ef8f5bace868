"""Dual of the convex relaxation and the explicit factorization through
Hilbert space it certifies: A = D1 B D2 with ||B||_{2->2} <= 1."""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, NumericalError
from .krivine import NormPair
from .relaxation import ProblemInstance, RelaxationSolution, lp_norm, solve_cp


def _dual_exponent(r: float) -> float:
    if math.isinf(r):
        return 1.0
    if r == 1.0:
        return math.inf
    return r / (r - 1.0)


def _outer_exponents(pair: NormPair):
    """Norms of the dual objective: ||s||_{(q*/2)*} and ||t||_{(p/2)*}."""
    alpha = _dual_exponent(pair.q_star / 2.0) if not math.isinf(pair.q_star) else 1.0
    beta = _dual_exponent(pair.p / 2.0) if not math.isinf(pair.p) else 1.0
    return alpha, beta


def _block_matrix(A: np.ndarray, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    m, n = A.shape
    M = np.zeros((m + n, m + n))
    M[:m, :m] = np.diag(s)
    M[m:, m:] = np.diag(t)
    M[:m, m:] = -A
    M[m:, :m] = -A.T
    return M


def _min_eig_scaled(A, s, t):
    """lambda_min of D^{-1/2} M D^{-1/2} restricted to the support of (s, t).

    The restriction is sound only when every row/column of A outside the
    support vanishes (a zero weight against a nonzero row makes a 2x2 minor
    indefinite no matter how the rest scales); such weights report -inf.
    """
    m = A.shape[0]
    d = np.concatenate([s, t])
    sup = d > 0
    if np.any(A[~sup[:m], :] != 0.0) or np.any(A[:, ~sup[m:]] != 0.0):
        return -math.inf
    M = _block_matrix(A, s, t)
    Ms = M[np.ix_(sup, sup)]
    if Ms.size == 0:
        return 0.0
    ds = 1.0 / np.sqrt(d[sup])
    return float(np.linalg.eigvalsh(ds[:, None] * Ms * ds[None, :])[0])


def dual_value(pair: NormPair, s: np.ndarray, t: np.ndarray) -> float:
    alpha, beta = _outer_exponents(pair)
    return 0.5 * (lp_norm(s, alpha) + lp_norm(t, beta))


@dataclass
class DualSolution:
    s: np.ndarray
    t: np.ndarray
    value: float
    min_eigenvalue: float
    primal_value: float


def _cs_weights(A: np.ndarray, U: np.ndarray, V: np.ndarray):
    """Complementary-slackness dual weights from the primal factors U, V.

    s_i = ||(AV)_i|| / ||u^i|| and t_j = ||(A^T U)_j|| / ||v^j|| (zero on zero
    rows and columns of A) meet the primal value at a primal optimum.  They
    are always scaled by the least c >= 1 that makes the scaled block matrix
    PSD, plus a hair, so the bound is rounded outward even when lambda_min
    comes out just above 0.  Returns (s, t, lambda_min after the repair), the
    latter in closed form: D^{-1/2} M D^{-1/2} is I - K on the support, so
    scaling (s, t) by c makes it I - K / c.
    """
    row_zero = np.all(A == 0.0, axis=1)
    col_zero = np.all(A == 0.0, axis=0)
    un = np.linalg.norm(U, axis=1)
    vn = np.linalg.norm(V, axis=1)
    wu = np.linalg.norm(A @ V, axis=1)
    wv = np.linalg.norm(A.T @ U, axis=1)
    s = np.where(row_zero, 0.0, wu / np.maximum(un, 1e-280))
    t = np.where(col_zero, 0.0, wv / np.maximum(vn, 1e-280))
    lam = _min_eig_scaled(A, s, t)
    if math.isfinite(lam):
        c = 1.0 - min(lam, 0.0) * (1.0 + 1e-10) + 1e-14
        s, t = c * s, c * t
        lam = 1.0 - (1.0 - lam) / c
    return s, t, lam


def solve_dual(inst: ProblemInstance, tol: float = 1e-9,
               primal: Optional[RelaxationSolution] = None, seed: int = 0) -> DualSolution:
    """Feasible weights (s, t) for the dual block-PSD program.

    The weights are the repaired complementary-slackness point of the primal
    solution (``_cs_weights``); if its lambda_min is still below -tol,
    ``NumericalError`` is raised.  The solve runs on A / max |A_ij|, and s, t
    and the value are scaled back (feasibility is invariant under scaling A,
    s and t together), so any finite scale works.
    """
    m, n = inst.shape
    if max(m, n) > 200:
        raise DomainError("dense eigensolves support instances up to 200x200")
    if primal is None:
        primal = solve_cp(inst, seed=seed)
    amax = float(np.max(np.abs(inst.A))) or 1.0
    s, t, lam = _cs_weights(inst.A / amax, primal.U, primal.V)
    if lam < -tol:
        raise NumericalError(
            f"dual solver failed to reach feasibility; minimum eigenvalue {lam:.3e}",
            dump={"s": s, "t": t},
        )
    return DualSolution(s=amax * s, t=amax * t, value=amax * dual_value(inst.pair, s, t),
                        min_eigenvalue=lam, primal_value=primal.value)


@dataclass
class FactorizationCertificate:
    s: np.ndarray
    t: np.ndarray
    B: np.ndarray
    dual_value: float
    spectral_norm_B: float
    norm_product: float
    reconstruction_error: float
    min_eigenvalue: float


def build_certificate(inst: ProblemInstance, s: np.ndarray, t: np.ndarray,
                      psd_margin: float = 1e-6) -> FactorizationCertificate:
    """Certificate A = D_s^(1/2) B D_t^(1/2) from feasible dual weights.

    B is formed with pseudo-inverted square roots (zero weights stay zero;
    they force zero rows/columns of A).  Certifies ||B||_2 <= 1, the exact
    reconstruction, and norm_product = ||D2||_{X->2} ||D1||_{2->Y}
    = sqrt(||t||_{(p/2)*} ||s||_{(q*/2)*}) <= dual_value.
    """
    A = inst.A
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if np.any(s < 0) or np.any(t < 0):
        raise DomainError("dual weights must be nonnegative")
    M = _block_matrix(A, s, t)
    min_eig = float(np.linalg.eigvalsh(M)[0])
    scale = max(1.0, float(np.max(np.abs(A))))
    if min_eig < -psd_margin * scale:
        raise DomainError(
            f"dual weights are infeasible: minimum eigenvalue {min_eig:.3e}")
    rs = np.where(s > 0, 1.0 / np.sqrt(np.where(s > 0, s, 1.0)), 0.0)
    rt = np.where(t > 0, 1.0 / np.sqrt(np.where(t > 0, t, 1.0)), 0.0)
    B = rs[:, None] * A * rt[None, :]
    recon = np.sqrt(s)[:, None] * B * np.sqrt(t)[None, :]
    reconstruction_error = float(np.max(np.abs(recon - A)))
    alpha, beta = _outer_exponents(inst.pair)
    norm_product = math.sqrt(lp_norm(t, beta)) * math.sqrt(lp_norm(s, alpha))
    return FactorizationCertificate(
        s=s, t=t, B=B,
        dual_value=dual_value(inst.pair, s, t),
        spectral_norm_B=float(np.linalg.norm(B, 2)),
        norm_product=norm_product,
        reconstruction_error=reconstruction_error,
        min_eigenvalue=min_eig,
    )
