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

_REPAIR_LIMIT = 1e-6

#: Gaussian samples drawn, mapped and scored per block (see sample_round)
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


def sample_round(inst: ProblemInstance, tg: TransformedGram, num_samples: int,
                 seed: int = 0) -> RoundedSolution:
    """Sample the rounding: best and mean of y^T A x over Gaussian samples.

    Samples g are drawn, mapped and scored in blocks of _CHUNK, and
    consecutive block draws are the numbers one draw of all samples would
    give.  Each g projects to P = Lu g and Q = Lv g (the scaled factor rows);
    an all-zero projection on a side with a nonzero row (a measure-zero
    event) is redrawn.  A sample rounds to y = D_y s_y on the unit l_{q*}
    sphere and x = D_x s_x on the unit l_p sphere, with D_y = psi_q(P),
    s_y = ||P||_q^(-b) and D_x, s_x the same for Q at p*, a; so its value is
    D_y^T A D_x s_y s_x and only the winner is scaled onto the spheres.
    Memory does not grow with num_samples.  Deterministic for fixed seed and
    sample count."""
    if num_samples < 1:
        raise DomainError(f"sample count must be at least 1, got {num_samples}")
    pair, m = tg.pair, tg.m
    Lt = np.vstack(tg.scaled_factors()).T
    live_u, live_v = (tg.u_norms > 0).any(), (tg.v_norms > 0).any()
    d = tg.factor.shape[1]

    def dead_rows(PQ):
        return (live_u & ~PQ[:, :m].any(axis=1)) | (live_v & ~PQ[:, m:].any(axis=1))

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0x5A,)))
    # values and their sum are kept in units of a power of two near
    # max |A_ij|: exact, and nothing overflows unless the value itself does
    unit = math.ldexp(1.0, math.frexp(float(np.max(np.abs(inst.A))))[1] - 1)
    A = inst.A / unit
    best_val = -math.inf
    best_y = best_x = None
    total = 0.0
    for done in range(0, num_samples, _CHUNK):
        PQ = rng.standard_normal((min(_CHUNK, num_samples - done), d)) @ Lt
        dead = dead_rows(PQ)
        while dead.any():
            PQ[dead] = rng.standard_normal((int(dead.sum()), d)) @ Lt
            dead[dead] = dead_rows(PQ[dead])
        if not np.all(np.isfinite(PQ)):
            raise DomainError("input must be finite")
        Dy, sy = _holder_rows(PQ[:, :m], pair.q, pair.b)
        Dx, sx = _holder_rows(PQ[:, m:], pair.p_star, pair.a)
        vals = np.einsum("ij,ij->i", Dy @ A, Dx) * sy * sx
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_y, best_x = Dy[i] * sy[i], Dx[i] * sx[i]
        total += float(np.sum(vals))
    return RoundedSolution(y=best_y, x=best_x, value=best_val * unit,
                           sample_count=num_samples,
                           empirical_mean_value=total / num_samples * unit)
