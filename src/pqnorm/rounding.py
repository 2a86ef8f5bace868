"""Generalized Krivine rounding: entrywise-transformed Gram matrix, its
factorization, Gaussian sampling, and the Holder-dual map back to feasible
points on the unit spheres."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError
from .krivine import NormPair
from .relaxation import ProblemInstance, RelaxationSolution, _holder_rows, unit_rows
from .series import odd_horner
from .specfun import gaussian_moment_pow

_REPAIR_LIMIT = 1e-6

#: Gaussian samples drawn, mapped and scored per block (see _blocks)
_CHUNK = 512


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


def _blocks(tg: TransformedGram, num_samples: int, rng):
    """Gaussian samples g in blocks of _CHUNK, projected to P = Lu g and
    Q = Lv g (the scaled factor rows): yields (D_y, s_y, D_x, s_x) per block,
    D_y = psi_q(P) and s_y = ||P||_q^(-b) per row, D_x and s_x the same for
    Q at p*, a.  Consecutive block draws are the numbers one draw of all
    samples would give.  An all-zero projection on a side with a nonzero row
    (a measure-zero event) is redrawn."""
    if num_samples < 1:
        raise DomainError(f"sample count must be at least 1, got {num_samples}")
    pair, m = tg.pair, tg.m
    Lt = np.vstack(tg.scaled_factors()).T
    live_u, live_v = (tg.u_norms > 0).any(), (tg.v_norms > 0).any()
    d = tg.factor.shape[1]

    def dead_rows(PQ):
        return (live_u & ~PQ[:, :m].any(axis=1)) | (live_v & ~PQ[:, m:].any(axis=1))

    for done in range(0, num_samples, _CHUNK):
        PQ = rng.standard_normal((min(_CHUNK, num_samples - done), d)) @ Lt
        dead = dead_rows(PQ)
        while dead.any():
            PQ[dead] = rng.standard_normal((int(dead.sum()), d)) @ Lt
            dead[dead] = dead_rows(PQ[dead])
        if not np.all(np.isfinite(PQ)):
            raise DomainError("input must be finite")
        yield (*_holder_rows(PQ[:, :m], pair.q, pair.b),
               *_holder_rows(PQ[:, m:], pair.p_star, pair.a))


def sample_round(inst: ProblemInstance, tg: TransformedGram, num_samples: int,
                 seed: int = 0) -> RoundedSolution:
    """Sample the rounding: best and mean of y^T A x over Gaussian samples.

    A sample rounds to y = D_y s_y on the unit l_{q*} sphere and x = D_x s_x
    on the unit l_p sphere (see _blocks), so its value is D_y^T A D_x s_y s_x
    and only the winner is scaled onto the spheres.  Memory does not grow
    with num_samples.  Deterministic for fixed seed and sample count."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0x5A,)))
    best_val = -math.inf
    best_y = best_x = None
    total = 0.0
    for Dy, sy, Dx, sx in _blocks(tg, num_samples, rng):
        vals = np.einsum("ij,ij->i", Dy @ inst.A, Dx) * sy * sx
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_y, best_x = Dy[i] * sy[i], Dx[i] * sx[i]
        total += float(np.sum(vals))
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
    pair = tg.pair
    m, n = tg.m, tg.n
    q, ps, a, b = pair.q, pair.p_star, pair.a, pair.b
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0x1D,)))
    num_sum, num_sq = np.zeros((m, n)), np.zeros((m, n))
    den_sum = den_sq = 0.0
    for YU, sy, XU, sx in _blocks(tg, num_samples, rng):
        num_sum += YU.T @ XU
        num_sq += (YU * YU).T @ (XU * XU)
        den = 1.0 / (sy * sx)
        den_sum += float(np.sum(den))
        den_sq += float(den @ den)
    num_mean = num_sum / num_samples
    num_se = np.sqrt(np.maximum(num_sq / num_samples - num_mean ** 2, 0.0) / num_samples)
    den_mean = den_sum / num_samples

    su = tg.u_norms if b > 0 else np.ones(m)
    sv = tg.v_norms if a > 0 else np.ones(n)
    gam = gaussian_moment_pow(ps) * gaussian_moment_pow(q)
    ref = gam * tg.c_ab * (su[:, None] * (unit_rows(sol.U)[0] @ unit_rows(sol.V)[0].T) * sv[None, :])

    den_bound = gaussian_moment_pow(ps) ** (a / ps) * gaussian_moment_pow(q) ** (b / q)
    return RoundingMomentStats(
        numerator_mean=num_mean,
        numerator_se=num_se,
        numerator_ref=ref,
        denominator_mean=den_mean,
        denominator_se=math.sqrt(max(den_sq / num_samples - den_mean ** 2, 0.0) / num_samples),
        denominator_bound=den_bound,
        sample_count=num_samples,
    )
