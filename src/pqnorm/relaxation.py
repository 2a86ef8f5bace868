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
    """W scaled to unit length along its last axis, and those lengths.

    Works on a single (rows, d) matrix and on stacks such as (rows, R, d);
    zero rows stay zero.
    """
    norms = np.linalg.norm(W, axis=-1)
    return W / np.where(norms > 0, norms, 1.0)[..., None], norms


def _block_update(W: np.ndarray, r_constraint: float, r_value: float):
    """Maximize sum_i <x^i, w^i> over sum_i ||x^i||^r_constraint <= 1.

    W is a (rows, R, d) stack of R independent problems, one per restart.
    The optimum aligns x^i with w^i and distributes lengths by Holder
    duality; the achieved objective, one per problem, is the r_value-norm of
    the row norms (1/r_constraint + 1/r_value = 1).  For r_constraint = inf
    every row saturates length 1.
    """
    Wn, norms = unit_rows(W)
    if math.isinf(r_constraint):
        return Wn, np.sum(norms, axis=0)
    total = np.sum(norms ** r_value, axis=0)
    live = total > 0.0
    safe = np.where(live, total, 1.0)
    lam = np.where(live, norms ** (r_value - 1.0) / safe ** (1.0 / r_constraint), 0.0)
    return lam[..., None] * Wn, total ** (1.0 / r_value)


def _initial_V(rng, n: int, d: int, p: float) -> np.ndarray:
    """Gaussian start scaled feasible for sum ||v^j||^p <= 1."""
    V = rng.standard_normal((n, d))
    Vn, norms = unit_rows(V)
    return Vn if math.isinf(p) else V / lp_norm(norms, p)


def solve_cp(inst: ProblemInstance, d: Optional[int] = None, restarts: int = 4,
             max_iters: int = 10_000, tol: float = 1e-10, seed: int = 0) -> RelaxationSolution:
    """Alternating maximization of <A, U V^T> under the row-norm power
    constraints sum ||u^i||^{q*} <= 1 and sum ||v^j||^p <= 1.

    Each block update is the exact Holder-dual optimum, so the objective is
    nondecreasing along iterations.  The relaxation is convex for
    p, q* >= 2, so it has an optimal solution of rank about sqrt(2(m+n)),
    and a Burer-Monteiro factorization of that rank reaches the optimum: d
    defaults to min(m+n, ceil(sqrt(2(m+n))) + 1).

    Restart r starts from the seed stream SeedSequence(seed, spawn_key=(r,)).
    All restarts still running are stacked, so each half-step A V and A^T U
    is one matrix product over the stack; a restart is frozen once its
    objective stalls (gain below tol relative), and the best one is
    returned, with the iterations, convergence flag and objective trace of
    that restart.  A is divided by max |A_ij| for the solve and the value
    and trace are scaled back, so any finite scale works; U and V do not
    depend on the scale.
    """
    m, n = inst.shape
    p, qs = inst.pair.p, inst.pair.q_star
    q = inst.pair.q
    ps = inst.pair.p_star
    if restarts < 1:
        raise DomainError(f"restart count must be at least 1, got {restarts}")
    if d is None:
        d = min(m + n, math.ceil(math.sqrt(2 * (m + n))) + 1)
    scale = float(np.max(np.abs(inst.A)))
    if scale == 0.0:
        return RelaxationSolution(U=np.zeros((m, d)), V=np.zeros((n, d)), value=0.0,
                                  converged=True, iterations=0,
                                  objective_trace=np.zeros(1))
    A = inst.A / scale
    # stacks are (rows, restart, d), so a stack is one (rows, R*d) matrix
    V = np.stack([_initial_V(np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(r,))), n, d, p)
        for r in range(restarts)], axis=1)
    U = np.zeros((m, restarts, d))
    active = np.arange(restarts)
    traces = [[] for _ in range(restarts)]
    final = [None] * restarts
    obj_prev = np.full(restarts, -math.inf)
    for it in range(max_iters):
        R = active.size
        U, obj_u = _block_update((A @ V.reshape(n, R * d)).reshape(m, R, d), qs, q)
        V, obj = _block_update((A.T @ U.reshape(m, R * d)).reshape(n, R, d), p, ps)
        bad = ~(np.isfinite(obj_u) & np.isfinite(obj))
        if bad.any():
            k = int(np.argmax(bad))
            raise NumericalError("non-finite objective in alternating solver",
                                 dump={"U": U[:, k], "V": V[:, k], "iteration": it,
                                       "restart": int(active[k])})
        size = np.maximum(1.0, np.abs(obj))
        fell = obj < obj_prev - 1e-9 * size
        if fell.any():
            k = int(np.argmax(fell))
            raise NumericalError("objective decreased across a block update",
                                 dump={"U": U[:, k], "V": V[:, k], "iteration": it,
                                       "restart": int(active[k])})
        for r, o in zip(active, obj):
            traces[r].append(o)
        stalled = obj - obj_prev < tol * size
        for k in np.flatnonzero(stalled):
            final[active[k]] = (U[:, k], V[:, k], True)
        keep = ~stalled
        if not keep.any():
            break
        active, U, V, obj_prev = active[keep], U[:, keep], V[:, keep], obj[keep]
    else:
        for k, r in enumerate(active):
            final[r] = (U[:, k], V[:, k], False)
    best = None
    for (Ur, Vr, converged), trace in zip(final, traces):
        value = float(np.sum(A * (Ur @ Vr.T))) * scale
        if best is None or value > best.value:
            best = RelaxationSolution(U=np.ascontiguousarray(Ur), V=np.ascontiguousarray(Vr),
                                      value=value, converged=converged,
                                      iterations=len(trace),
                                      objective_trace=np.asarray(trace) * scale)
    return best


def holder_ascent(A: np.ndarray, pair: NormPair, x0: np.ndarray,
                  max_iters: int = 500, tol: float = 1e-14) -> tuple:
    """Nonlinear power iteration x <- psi_{p*}(A^T psi_q(A x)) on the unit
    p-sphere; each half-step is a block optimum so ||Ax||_q ascends."""
    from .rounding import holder_dual

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


def _sample_p_sphere(rng, n: int, p: float, count: int) -> np.ndarray:
    """Rows on the l_p unit sphere via the normalized generalized normal."""
    if math.isinf(p):
        X = rng.uniform(-1.0, 1.0, size=(count, n))
        return X / np.max(np.abs(X), axis=1, keepdims=True)
    signs = rng.choice([-1.0, 1.0], size=(count, n))
    mags = rng.gamma(1.0 / p, 1.0, size=(count, n)) ** (1.0 / p)
    X = signs * mags
    norms = np.sum(np.abs(X) ** p, axis=1) ** (1.0 / p)
    return X / norms[:, None]


def brute_force_norm(inst: ProblemInstance, restarts: int = 64, seed: int = 0,
                     mode: str = "auto", samples: int = 1_000_000) -> float:
    """Lower bound on the true p->q norm.

    p = inf with small n is enumerated exactly over the sign cube.  Grid
    mode samples the l_p sphere (up to ``samples`` points) and refines the
    leaders by Holder ascent; multistart mode runs seeded ascents only.
    """
    A, pair = inst.A, inst.pair
    n = A.shape[1]
    if mode == "auto":
        if math.isinf(pair.p) and n <= 20:
            mode = "enumerate"
        elif n <= 6:
            mode = "grid"
        else:
            mode = "multistart"
    if mode == "enumerate":
        if not math.isinf(pair.p):
            raise DomainError("sign enumeration is exact only for p = inf")
        return _enumerate_sign_norm(A, pair.q)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xB0,)))
    best = 0.0
    starts = []
    if mode == "grid":
        if n > 6:
            raise DomainError("grid mode supported for n <= 6")
        X = _sample_p_sphere(rng, n, pair.p, samples)
        vals = np.sum(np.abs(X @ A.T) ** pair.q, axis=1)
        best = float(np.max(vals) ** (1.0 / pair.q))
        leaders = np.argsort(vals)[-10:]
        starts = [X[i] for i in leaders]
    elif mode != "multistart":
        raise DomainError(f"unknown mode {mode!r}")
    starts += [rng.standard_normal(n) for _ in range(restarts)]
    starts += [np.sign(rng.standard_normal(n)) for _ in range(4)]
    for x0 in starts:
        _, val = holder_ascent(A, pair, x0)
        best = max(best, val)
    return best


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
