"""Dual of the convex relaxation and the explicit factorization through
Hilbert space it certifies: A = D1 B D2 with ||B||_{2->2} <= 1."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .krivine import NormPair, dual_exponent
from .relaxation import ProblemInstance, RelaxationSolution, lp_norm

#: solve_dual fails below this lambda_min after the repair
_FEASIBILITY_TOL = 1e-9
#: build_certificate rejects weights with ||B||_2 above 1 + this
_NORM_MARGIN = 1e-6


def _outer_exponents(pair: NormPair):
    """Norms of the dual objective: ||s||_{(q*/2)*} and ||t||_{(p/2)*}."""
    return dual_exponent(pair.q_star / 2.0), dual_exponent(pair.p / 2.0)


def _scaled(A: np.ndarray, s: np.ndarray, t: np.ndarray):
    """B = D_s^(-1/2) A D_t^(-1/2) and ||B||_2, the one spectral question of
    the dual.

    On the support of (s, t) the scaled dual block matrix
    D^(-1/2) [[D_s, -A], [-A^T, D_t]] D^(-1/2) is I - [[0, B], [B^T, 0]],
    whose lambda_min is 1 - ||B||_2: the weights are feasible exactly when
    ||B||_2 <= 1.  Zero weights give zero rows/columns of B.  A zero weight
    against a nonzero row/column of A makes a 2x2 minor indefinite however
    the rest scales; ||B||_2 is then inf.  ||B||_2 is the square root of the
    top eigenvalue of the smaller of B^T B and B B^T.
    """
    ps, pt = s > 0, t > 0
    rs = np.where(ps, 1.0 / np.sqrt(np.where(ps, s, 1.0)), 0.0)
    rt = np.where(pt, 1.0 / np.sqrt(np.where(pt, t, 1.0)), 0.0)
    B = rs[:, None] * A * rt[None, :]
    if np.any(A[~ps, :] != 0.0) or np.any(A[:, ~pt] != 0.0):
        return B, math.inf
    # a power-of-two scale keeps the Gram in float range, exactly
    e = int(np.frexp(np.max(np.abs(B)))[1])
    C = np.ldexp(B, -e)
    G = C.T @ C if C.shape[1] <= C.shape[0] else C @ C.T
    return B, math.ldexp(math.sqrt(max(float(np.linalg.eigvalsh(G)[-1]), 0.0)), e)


def dual_value(pair: NormPair, s: np.ndarray, t: np.ndarray) -> float:
    alpha, beta = _outer_exponents(pair)
    return 0.5 * lp_norm(s, alpha) + 0.5 * lp_norm(t, beta)  # halves first: no overflow


@dataclass
class DualSolution:
    s: np.ndarray
    t: np.ndarray
    value: float
    min_eigenvalue: float


def _cs_weights(A: np.ndarray, U: np.ndarray, V: np.ndarray):
    """Complementary-slackness dual weights from the primal factors U, V.

    s_i = ||(AV)_i|| / ||u^i|| and t_j = ||(A^T U)_j|| / ||v^j|| (zero on zero
    rows and columns of A) meet the primal value at a primal optimum.  They
    are always scaled by the least c >= 1 that makes the scaled block matrix
    PSD, plus a hair, so the bound is rounded outward even when lambda_min
    comes out just above 0.  Returns (s, t, lambda_min after the repair), the
    latter in closed form: lambda_min = 1 - ||B||_2 (``_scaled``), and
    scaling (s, t) by c divides ||B||_2 by c.
    """
    row_zero = np.all(A == 0.0, axis=1)
    col_zero = np.all(A == 0.0, axis=0)
    un = np.linalg.norm(U, axis=1)
    vn = np.linalg.norm(V, axis=1)
    wu = np.linalg.norm(A @ V, axis=1)
    wv = np.linalg.norm(A.T @ U, axis=1)
    s = np.where(row_zero, 0.0, wu / np.maximum(un, 1e-280))
    t = np.where(col_zero, 0.0, wv / np.maximum(vn, 1e-280))
    lam = 1.0 - _scaled(A, s, t)[1]
    if math.isfinite(lam):
        c = 1.0 - min(lam, 0.0) * (1.0 + 1e-10) + 1e-14
        s, t = c * s, c * t
        lam = 1.0 - (1.0 - lam) / c
    return s, t, lam


def solve_dual(inst: ProblemInstance, primal: RelaxationSolution) -> DualSolution:
    """Feasible weights (s, t) for the dual block-PSD program.

    The weights are the repaired complementary-slackness point of the primal
    solution (``_cs_weights``); if its lambda_min is still below
    -_FEASIBILITY_TOL, ``NumericalError`` is raised.  The solve runs on
    A / max |A_ij|, and s, t and the value are scaled back (feasibility is
    invariant under scaling A, s and t together), so any finite scale works.
    """
    amax = float(np.max(np.abs(inst.A))) or 1.0
    s, t, lam = _cs_weights(inst.A / amax, primal.U, primal.V)
    if lam < -_FEASIBILITY_TOL:
        raise NumericalError(
            f"dual solver failed to reach feasibility; minimum eigenvalue {lam:.3e}",
            dump={"s": s, "t": t},
        )
    return DualSolution(s=amax * s, t=amax * t, value=amax * dual_value(inst.pair, s, t),
                        min_eigenvalue=lam)


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


def build_certificate(inst: ProblemInstance, s: np.ndarray,
                      t: np.ndarray) -> FactorizationCertificate:
    """Certificate A = D_s^(1/2) B D_t^(1/2) from feasible dual weights.

    B and ||B||_2 come from ``_scaled``; weights with ||B||_2 above
    1 + _NORM_MARGIN raise ``DomainError``.  Certifies ||B||_2 <= 1, the
    exact reconstruction, and norm_product = ||D2||_{X->2} ||D1||_{2->Y}
    = sqrt(||t||_{(p/2)*} ||s||_{(q*/2)*}) <= dual_value, the last in exact
    arithmetic only: the two floats tie at the balanced point, and either can
    round above the other (1e308, 7e307 at (inf,1): ...173e308 against
    ...171e308) until item 1 of ROADMAP rounds the bounds outward.
    min_eigenvalue is the scaled block matrix's lambda_min, 1 - ||B||_2.
    """
    A = inst.A
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if np.any(s < 0) or np.any(t < 0):
        raise DomainError("dual weights must be nonnegative")
    B, norm_B = _scaled(A, s, t)
    if not norm_B <= 1.0 + _NORM_MARGIN:
        raise DomainError(f"dual weights are infeasible: ||B||_2 = {norm_B:.3e} > 1")
    recon = np.sqrt(s)[:, None] * B * np.sqrt(t)[None, :]
    reconstruction_error = float(np.max(np.abs(recon - A)))
    alpha, beta = _outer_exponents(inst.pair)
    norm_product = math.sqrt(lp_norm(t, beta)) * math.sqrt(lp_norm(s, alpha))
    return FactorizationCertificate(
        s=s, t=t, B=B,
        dual_value=dual_value(inst.pair, s, t),
        spectral_norm_B=norm_B,
        norm_product=norm_product,
        reconstruction_error=reconstruction_error,
        min_eigenvalue=1.0 - norm_B,
    )
