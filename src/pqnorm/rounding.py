"""Generalized Krivine rounding: entrywise-transformed Gram matrix, its
factorization, Gaussian sampling, and the Holder-dual map back to feasible
points on the unit spheres."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError
from .krivine import NormPair, odd_horner
from .relaxation import ProblemInstance, RelaxationSolution, unit_rows
from .specfun import gaussian_moment_pow

_REPAIR_LIMIT = 1e-6

#: Gaussian samples drawn and scored per block in sample_round
_CHUNK = 65536


def holder_dual(z: np.ndarray, r: float) -> np.ndarray:
    """sgn(z) |z|^(r-1): the maximizer of <., z> over the unit l_r ball.

    Satisfies <psi_r(z), z> = ||z||_r^r and ||psi_r(z)||_{r*} = ||z||_r^(r-1).
    r = 1 degenerates to the sign map.
    """
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise DomainError("input must be finite")
    if math.isinf(r) or r < 1.0:
        raise DomainError(f"exponent must lie in [1, inf), got {r}")
    if r == 1.0:
        return np.sign(z)
    if r == 2.0:
        return z.copy()
    return np.sign(z) * np.abs(z) ** (r - 1.0)


@dataclass
class TransformedGram:
    """Gram matrix of the transformed embeddings plus the row-scale data.

    The row scales are the solution row norms raised to 1/b (u side) and
    1/a (v side); an exponent of 0 leaves its side unscaled, which
    sidesteps the 0^inf trap because the sign map ignores row scaling.
    """

    M: np.ndarray
    factor: np.ndarray  # L with L L^T = M (after repair)
    u_norms: np.ndarray
    v_norms: np.ndarray
    pair: NormPair
    c_ab: float
    psd_repair_shift: float

    @property
    def m(self) -> int:
        return self.u_norms.size

    @property
    def n(self) -> int:
        return self.v_norms.size

    def scaled_factors(self):
        """The factor rows of the u and v blocks times their row scales."""
        def scale(norms, e):
            return np.ones_like(norms) if e == 0.0 else norms ** (1.0 / e)

        m = self.m
        return (self.factor[:m] * scale(self.u_norms, self.pair.b)[:, None],
                self.factor[m:] * scale(self.v_norms, self.pair.a)[:, None])


def build_transformed_gram(sol: RelaxationSolution, pair: NormPair, c_ab: float,
                           g: np.ndarray) -> TransformedGram:
    """Assemble the PSD matrix whose Gram rows realize the transformation.

    ``g`` is the compressed inverse series that compute_c_ab returns.
    Off-diagonal block: inverse series applied entrywise to c * UhatVhat^T;
    diagonal blocks: the absolute series on c * UhatUhat^T and on
    c * VhatVhat^T, so every unit-row diagonal entry equals hhat(c).
    Truncation can leave slightly negative eigenvalues, repaired by clipping
    at zero and rescaling the diagonal back to target.
    """
    absg = np.abs(g)

    Uh, u_norms = unit_rows(sol.U)
    Vh, v_norms = unit_rows(sol.V)
    m, n = Uh.shape[0], Vh.shape[0]
    clip = lambda X: np.clip(X, -1.0, 1.0)
    top = odd_horner(absg, c_ab * clip(Uh @ Uh.T))
    bot = odd_horner(absg, c_ab * clip(Vh @ Vh.T))
    off = odd_horner(g, c_ab * clip(Uh @ Vh.T))
    M = np.block([[top, off], [off.T, bot]])
    M = 0.5 * (M + M.T)
    target = np.diag(M).copy()

    evals, evecs = np.linalg.eigh(M)
    shift = max(0.0, -float(evals[0]))
    if shift > _REPAIR_LIMIT:
        raise AccuracyError(
            f"Gram repair shift {shift:.3e} exceeds {_REPAIR_LIMIT}; "
            f"increase the truncation order (now degree {2 * g.size - 1})",
            achieved=shift,
        )
    if shift > 0.0:
        evals = np.clip(evals, 0.0, None)
        M = (evecs * evals) @ evecs.T
        M = 0.5 * (M + M.T)
        # renormalize diagonal blocks to their target values
        d = np.diag(M)
        scale = np.where(d > 0, np.sqrt(np.maximum(target, 0.0) / np.where(d > 0, d, 1.0)), 0.0)
        M = M * np.outer(scale, scale)
        evals, evecs = np.linalg.eigh(M)
        evals = np.clip(evals, 0.0, None)
    factor = evecs * np.sqrt(evals)
    return TransformedGram(M=M, factor=factor, u_norms=u_norms, v_norms=v_norms,
                           pair=pair, c_ab=c_ab, psd_repair_shift=shift)


@dataclass
class RoundedSolution:
    y: np.ndarray
    x: np.ndarray
    value: float
    sample_count: int
    empirical_mean_value: float


def _feasible_points(P, Q, pair):
    """Map Gaussian projections to unit-sphere points (y on l_{q*}, x on l_p)."""
    q, ps, a, b = pair.q, pair.p_star, pair.a, pair.b
    yu = holder_dual(P, q)
    xu = holder_dual(Q, ps)
    qn = np.sum(np.abs(P) ** q, axis=1) ** (1.0 / q)
    pn = np.sum(np.abs(Q) ** ps, axis=1) ** (1.0 / ps)
    y = yu / np.where(qn > 0, qn, 1.0)[:, None] ** b
    x = xu / np.where(pn > 0, pn, 1.0)[:, None] ** a
    return y, x, qn, pn


def sample_round(inst: ProblemInstance, tg: TransformedGram, num_samples: int,
                 seed: int = 0) -> RoundedSolution:
    """Sample the rounding: Gaussian projections of the Gram factor rows,
    Holder-dual maps, normalization to the unit spheres, best and mean of
    y^T A x across samples.  Deterministic for fixed seed and sample count."""
    if num_samples < 1:
        raise DomainError(f"sample count must be at least 1, got {num_samples}")
    A, pair = inst.A, tg.pair
    Lu, Lv = tg.scaled_factors()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0x5A,)))
    d = tg.factor.shape[1]
    best_val = -math.inf
    best_y = best_x = None
    total = 0.0
    done = 0
    while done < num_samples:
        count = min(_CHUNK, num_samples - done)
        G = rng.standard_normal((count, d))
        P = G @ Lu.T
        Q = G @ Lv.T
        # resample the measure-zero event of an all-zero projection
        dead = (np.all(P == 0.0, axis=1) & (tg.u_norms > 0).any()) | \
               (np.all(Q == 0.0, axis=1) & (tg.v_norms > 0).any())
        while np.any(dead):
            G2 = rng.standard_normal((int(dead.sum()), d))
            P[dead] = G2 @ Lu.T
            Q[dead] = G2 @ Lv.T
            dead[dead] = (np.all(P[dead] == 0.0, axis=1)) | (np.all(Q[dead] == 0.0, axis=1))
        y, x, _, _ = _feasible_points(P, Q, pair)
        vals = np.einsum("ij,ij->i", y @ A, x)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_y, best_x = y[i].copy(), x[i].copy()
        total += float(np.sum(vals))
        done += count
    return RoundedSolution(y=best_y, x=best_x, value=best_val,
                           sample_count=num_samples,
                           empirical_mean_value=total / num_samples)


@dataclass
class RoundingMomentStats:
    """Empirical moments of the unnormalized Holder duals against their
    exact references; the identity check and the denominator bound."""

    numerator_mean: np.ndarray
    numerator_se: np.ndarray
    numerator_ref: np.ndarray
    denominator_mean: float
    denominator_se: float
    denominator_bound: float
    sample_count: int

    @property
    def numerator_max_sigmas(self) -> float:
        se = np.where(self.numerator_se > 0, self.numerator_se, np.inf)
        return float(np.max(np.abs(self.numerator_mean - self.numerator_ref) / se))


def rounding_identity_stats(inst: ProblemInstance, tg: TransformedGram,
                            sol: RelaxationSolution, num_samples: int,
                            seed: int = 0) -> RoundingMomentStats:
    """Monte Carlo check of the design identities of the rounding.

    The expectation of psi_q(phi(U) g) psi_{p*}(psi(V) g)^T equals
    gamma_{p*}^{p*} gamma_q^q * c_ab * S_u (Uhat Vhat^T) S_v, where S_u, S_v
    carry the row norms when the matching exponent is positive and are
    identity when it is 0 (the sign map forgets scale).  The denominator
    satisfies E ||phi(U) g||_q^b ||psi(V) g||_{p*}^a <= gamma_{p*}^a gamma_q^b.
    """
    A, pair = inst.A, tg.pair
    m, n = tg.m, tg.n
    q, ps, a, b = pair.q, pair.p_star, pair.a, pair.b
    Lu, Lv = tg.scaled_factors()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0x1D,)))
    G = rng.standard_normal((num_samples, tg.factor.shape[1]))
    P = G @ Lu.T
    Q = G @ Lv.T
    YU = holder_dual(P, q)
    XU = holder_dual(Q, ps)
    prod = np.einsum("si,sj->sij", YU, XU)
    num_mean = prod.mean(axis=0)
    num_se = prod.std(axis=0) / math.sqrt(num_samples)

    su = tg.u_norms if b > 0 else np.ones(m)
    sv = tg.v_norms if a > 0 else np.ones(n)
    gam = gaussian_moment_pow(ps) * gaussian_moment_pow(q)
    ref = gam * tg.c_ab * (su[:, None] * (unit_rows(sol.U)[0] @ unit_rows(sol.V)[0].T) * sv[None, :])

    qn = np.sum(np.abs(P) ** q, axis=1) ** (1.0 / q)
    pn = np.sum(np.abs(Q) ** ps, axis=1) ** (1.0 / ps)
    den = qn ** b * pn ** a
    den_bound = gaussian_moment_pow(ps) ** (a / ps) * gaussian_moment_pow(q) ** (b / q)
    return RoundingMomentStats(
        numerator_mean=num_mean,
        numerator_se=num_se,
        numerator_ref=ref,
        denominator_mean=float(den.mean()),
        denominator_se=float(den.std() / math.sqrt(num_samples)),
        denominator_bound=den_bound,
        sample_count=num_samples,
    )
