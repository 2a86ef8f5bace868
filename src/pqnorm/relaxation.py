"""The convex vector relaxation of the bilinear problem, solved by
alternating closed-form block maximization, plus brute-force lower bounds
on the true p->q norm for test instances."""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DomainError, NumericalError
from .krivine import NormPair


@dataclass(frozen=True)
class ProblemInstance:
    A: np.ndarray
    pair: NormPair

    def __post_init__(self):
        A = np.array(self.A, dtype=np.float64, copy=True)
        if A.ndim != 2 or A.size == 0:
            raise DomainError("matrix must be 2-d and nonempty")
        if not np.all(np.isfinite(A)):
            raise DomainError("matrix entries must be finite")
        A.setflags(write=False)
        object.__setattr__(self, "A", A)

    @property
    def shape(self):
        return self.A.shape


@dataclass
class RelaxationSolution:
    U: np.ndarray
    V: np.ndarray
    value: float
    converged: bool
    iterations: int
    fallbacks: int = 0
    objective_trace: np.ndarray = field(repr=False, default=None)


def lp_norm(x: np.ndarray, r: float) -> float:
    """||x||_r, computed on x / max|x_i| so that x ** r cannot overflow or
    underflow for any finite x."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    top = float(np.max(x)) if x.size else 0.0
    if math.isinf(r) or top == 0.0:
        return top
    return top * float(np.sum((x / top) ** r) ** (1.0 / r))


def unit_rows(W: np.ndarray):
    """The rows of W scaled to unit length, and those lengths; zero rows stay zero."""
    norms = np.linalg.norm(W, axis=1)
    return W / np.where(norms > 0, norms, 1.0)[:, None], norms


def _holder_rows(Z: np.ndarray, r: float, e: float = 0.0):
    """sgn(Z)|Z|^(r-1) and, along the last axis, the row factors ||Z||_r^(-e).

    One pow per call: ||Z||_r^r is the row sum of sgn(Z)|Z|^(r-1) * Z.  r = 1
    is the sign map and r = 2 the identity, with no pow; e = 0 computes no
    norm and gives factors of one.  A zero row gets factor 1.
    """
    if r == 1.0:
        D = np.sign(Z)
    elif r == 2.0:
        D = Z
    else:
        D = np.copysign(np.abs(Z) ** (r - 1.0), Z)
    if e == 0.0:
        return D, np.ones(Z.shape[:-1])
    S = np.einsum("...i,...i->...", D, Z)
    return D, np.where(S > 0.0, S, 1.0) ** (-e / r)


def holder_dual(z: np.ndarray, r: float) -> np.ndarray:
    """sgn(z) |z|^(r-1): the maximizer of <., z> over the unit l_r ball.

    Satisfies <psi_r(z), z> = ||z||_r^r and ||psi_r(z)||_{r*} = ||z||_r^(r-1).
    r = 1 degenerates to the sign map.  Returns a new array.
    """
    z = np.array(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise DomainError("input must be finite")
    if math.isinf(r) or r < 1.0:
        raise DomainError(f"exponent must lie in [1, inf), got {r}")
    return _holder_rows(z, r)[0]


def _block_update(W: np.ndarray, r_constraint: float, r_value: float):
    """Maximize sum_i <x^i, w^i> over sum_i ||x^i||^r_constraint <= 1.

    W is a (rows, d) block.  The optimum aligns x^i with w^i and distributes
    lengths by Holder duality; the achieved objective is the r_value-norm of
    the row norms (1/r_constraint + 1/r_value = 1).  For r_constraint = inf
    every row saturates length 1.
    """
    Wn, norms = unit_rows(W)
    if math.isinf(r_constraint):
        return Wn, float(np.sum(norms))
    total = float(np.sum(norms ** r_value))
    if total == 0.0:
        return np.zeros_like(W), 0.0
    lam = norms ** (r_value - 1.0) / total ** (1.0 / r_constraint)
    return lam[:, None] * Wn, total ** (1.0 / r_value)


def _initial_V(rng, n: int, d: int, p: float) -> np.ndarray:
    """Gaussian start scaled feasible for sum ||v^j||^p <= 1."""
    V = rng.standard_normal((n, d))
    Vn, norms = unit_rows(V)
    return Vn if math.isinf(p) else V / lp_norm(norms, p)


def solve_cp(inst: ProblemInstance, d: Optional[int] = None,
             max_iters: int = 10_000, tol: float = 1e-12, seed: int = 0) -> RelaxationSolution:
    """Alternating maximization of <A, U V^T> under the row-norm power
    constraints sum ||u^i||^{q*} <= 1 and sum ||v^j||^p <= 1.

    One sweep runs the two exact Holder-dual block updates, A W -> U and
    then A^T U -> V.  Each iteration sweeps from the extrapolated point
    W = 2 V - V_prev (beta = 1); an iteration whose objective falls below
    the last one is redone as a plain sweep from V, which cannot lose
    objective (O'Donoghue & Candes 2015, restart on decrease).  So the
    objective is nondecreasing along iterations; ``fallbacks`` counts the
    redone steps.  The solver stops once the objective stalls (gain below
    tol relative).

    The relaxation is convex for p, q* >= 2, so it has an optimal solution
    of rank about sqrt(2(m+n)), and at that rank the second-order points of
    the Burer-Monteiro factorization are global for generic A (Boumal,
    Voroninski & Bandeira 2016): d defaults to
    min(m+n, ceil(sqrt(2(m+n))) + 1) and one start suffices.  It is drawn
    from the seed stream SeedSequence(seed, spawn_key=(0,)).  A is divided
    by max |A_ij| for the solve and the value and trace are scaled back, so
    any finite scale works; U and V do not depend on the scale.
    """
    m, n = inst.shape
    p, qs = inst.pair.p, inst.pair.q_star
    q = inst.pair.q
    ps = inst.pair.p_star
    if d is None:
        d = min(m + n, math.ceil(math.sqrt(2 * (m + n))) + 1)
    scale = float(np.max(np.abs(inst.A)))
    if scale == 0.0:
        return RelaxationSolution(U=np.zeros((m, d)), V=np.zeros((n, d)), value=0.0,
                                  converged=True, iterations=0,
                                  objective_trace=np.zeros(1))
    A = inst.A / scale
    V = _initial_V(np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,))),
                   n, d, p)

    def sweep(W):
        # the two exact block updates A W -> U, then A^T U -> V
        U, obj_u = _block_update(A @ W, qs, q)
        V, obj = _block_update(A.T @ U, p, ps)
        return U, V, obj_u, obj

    U, V_prev = np.zeros((m, d)), V
    trace = []
    fallbacks = 0
    converged = False
    obj_prev = -math.inf
    for it in range(max_iters):
        U, V_new, obj_u, obj = sweep(2.0 * V - V_prev)
        if obj < obj_prev:
            U, V_new, obj_u, obj = sweep(V)
            fallbacks += 1
        V_prev, V = V, V_new
        if not (math.isfinite(obj_u) and math.isfinite(obj)):
            raise NumericalError("non-finite objective in alternating solver",
                                 dump={"U": U, "V": V, "iteration": it})
        size = max(1.0, abs(obj))
        if obj < obj_prev - 1e-9 * size:
            raise NumericalError("objective decreased across a block update",
                                 dump={"U": U, "V": V, "iteration": it})
        trace.append(obj)
        if obj - obj_prev < tol * size:
            converged = True
            break
        obj_prev = obj
    return RelaxationSolution(U=U, V=V, value=float(np.sum(A * (U @ V.T))) * scale,
                              converged=converged, iterations=len(trace),
                              fallbacks=fallbacks,
                              objective_trace=np.asarray(trace) * scale)


def holder_ascent(A: np.ndarray, pair: NormPair, x0: np.ndarray,
                  max_iters: int = 500, tol: float = 1e-14) -> tuple:
    """Nonlinear power iteration x <- psi_{p*}(A^T psi_q(A x)) on the unit
    p-sphere; each half-step is a block optimum so ||Ax||_q ascends."""
    p, q, ps = pair.p, pair.q, pair.p_star
    x = x0 / max(lp_norm(x0, p), 1e-300)
    val_prev = -math.inf
    for _ in range(max_iters):
        y = holder_dual(A @ x, q)
        z = A.T @ y
        if math.isinf(p):
            x = np.sign(z)
            x[x == 0.0] = 1.0
        else:
            x = holder_dual(z, ps)
            x /= max(lp_norm(x, p), 1e-300)
        val = lp_norm(A @ x, q)
        if val - val_prev < tol * max(1.0, val):
            break
        val_prev = val
    return x, lp_norm(A @ x, q)


def _enumerate_sign_norm(A: np.ndarray, q: float) -> float:
    """Exact max of ||A x||_q over the sign cube; valid p = inf answer."""
    n = A.shape[1]
    # fix x[0] = +1; the objective is sign-symmetric
    count = 1 << (n - 1)
    best = 0.0
    chunk = 1 << 14
    for start in range(0, count, chunk):
        idx = np.arange(start, min(start + chunk, count), dtype=np.uint64)
        bits = ((idx[:, None] >> np.arange(n - 1, dtype=np.uint64)) & 1).astype(np.float64)
        X = np.hstack([np.ones((idx.size, 1)), 1.0 - 2.0 * bits])
        vals = np.sum(np.abs(X @ A.T) ** q, axis=1) ** (1.0 / q)
        best = max(best, float(np.max(vals)))
    return best


def brute_force_norm(inst: ProblemInstance, restarts: int = 64, seed: int = 0) -> float:
    """Lower bound on the true p->q norm.

    p = inf with n <= 20 is enumerated exactly over the sign cube; anything
    else takes the best of seeded multistart Holder ascents.
    """
    A, pair = inst.A, inst.pair
    n = A.shape[1]
    if math.isinf(pair.p) and n <= 20:
        return _enumerate_sign_norm(A, pair.q)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xB0,)))
    starts = [rng.standard_normal(n) for _ in range(restarts)]
    starts += [np.sign(rng.standard_normal(n)) for _ in range(4)]
    return max(holder_ascent(A, pair, x0)[1] for x0 in starts)


def _is_count(v) -> bool:
    """v is a JSON number with an integer value >= 1 (2 and 2.0, not 2.7 or true)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    return v >= 1 and (isinstance(v, int) or v.is_integer())


def load_matrix(path) -> np.ndarray:
    """Read a matrix from CSV rows of decimals or the JSON object format
    {"rows": m, "cols": n, "data": [...row-major...]}."""
    path = Path(path)
    text = path.read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(text)
        try:
            m, n = obj["rows"], obj["cols"]
            data = np.asarray(obj["data"], dtype=np.float64)
        except (KeyError, TypeError) as exc:
            raise DomainError(f"bad JSON matrix in {path}: {exc}") from exc
        if not (_is_count(m) and _is_count(n)):
            raise DomainError(f"JSON matrix in {path}: rows and cols must be integers >= 1, "
                              f"got rows={m!r}, cols={n!r}")
        m, n = int(m), int(n)
        if data.size != m * n:
            raise DomainError(f"JSON matrix in {path}: {data.size} entries for {m}x{n}")
        return data.reshape(m, n)
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append([float(tok) for tok in line.split(",")])
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise DomainError(f"ragged or empty CSV matrix in {path}")
    return np.asarray(rows, dtype=np.float64)
