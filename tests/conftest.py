"""Fixtures shared by the test modules."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from pqnorm import specfun
from pqnorm.errors import DomainError
from pqnorm.oracles import polar_f_ab
from pqnorm.relaxation import _holder_rows, unit_rows
from pqnorm.specfun import gaussian_moment_pow


@pytest.fixture
def cold_rules():
    """Empties every node-rule cache of specfun, so that a test counts the
    rules a command builds from a cold start whatever ran before it."""
    for rule in (specfun._gauss_jacobi, specfun._gauss_laguerre):
        rule.cache_clear()


@dataclass
class SampledIdentity:
    """A Monte Carlo estimate of an identity, with its standard error."""

    target: str
    estimate: float
    reference: float
    std_error: float

    @property
    def sigmas(self) -> float:
        return abs(self.estimate - self.reference) / self.std_error


def _mc_f_ab(a: float, b: float, rho: float, N: int, seed: int = 0) -> SampledIdentity:
    if N < 10_000:
        raise DomainError("need N >= 1e4 samples")
    if not -1.0 <= rho <= 1.0:
        raise DomainError("correlation must lie in [-1, 1]")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(17,)))
    g2 = rng.standard_normal(N)
    g3 = rng.standard_normal(N)
    g1 = rho * g2 + math.sqrt(max(0.0, 1.0 - rho * rho)) * g3
    prod = np.sign(g1) * np.abs(g1) ** a * np.sign(g2) * np.abs(g2) ** b
    return SampledIdentity(
        target=f"correlation(a={a:g},b={b:g},rho={rho:g})",
        estimate=float(prod.mean()),
        reference=polar_f_ab(a, b, rho),
        std_error=float(prod.std() / math.sqrt(N)),
    )


@pytest.fixture
def mc_f_ab():
    """Monte Carlo estimate of E sgn(g1)|g1|^a sgn(g2)|g2|^b over N pairs of
    rho-correlated standard Gaussians, against the polar quadrature
    reference, which holds 1e-12 up to |rho| = 0.999."""
    return _mc_f_ab


@dataclass
class RoundingMoments:
    """Sample moments of the unnormalized Holder duals of the rounding
    against their exact references: the numerator identity and the
    denominator bound."""

    numerator_mean: np.ndarray
    numerator_se: np.ndarray
    numerator_ref: np.ndarray
    denominator_mean: float
    denominator_se: float
    denominator_bound: float

    @property
    def numerator_max_sigmas(self) -> float:
        se = np.where(self.numerator_se > 0, self.numerator_se, np.inf)
        return float(np.max(np.abs(self.numerator_mean - self.numerator_ref) / se))


def _rounding_moments(tg, sol, num_samples: int, seed: int = 0) -> RoundingMoments:
    pair = tg.pair
    m, n = tg.m, tg.n
    q, ps, a, b = pair.q, pair.p_star, pair.a, pair.b
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0x1D,)))
    PQ = rng.standard_normal((num_samples, tg.factor.shape[1])) @ np.vstack(tg.scaled_factors()).T
    Y, sy = _holder_rows(PQ[:, :m], q, b)
    X, sx = _holder_rows(PQ[:, m:], ps, a)
    num_mean = Y.T @ X / num_samples
    num_se = np.sqrt(np.maximum((Y * Y).T @ (X * X) / num_samples - num_mean ** 2, 0.0)
                     / num_samples)
    den = 1.0 / (sy * sx)

    su = tg.u_norms if b > 0 else np.ones(m)
    sv = tg.v_norms if a > 0 else np.ones(n)
    gam = gaussian_moment_pow(ps) * gaussian_moment_pow(q)
    ref = gam * tg.c_ab * (su[:, None] * (unit_rows(sol.U)[0] @ unit_rows(sol.V)[0].T) * sv[None, :])
    return RoundingMoments(
        numerator_mean=num_mean,
        numerator_se=num_se,
        numerator_ref=ref,
        denominator_mean=float(den.mean()),
        denominator_se=float(den.std() / math.sqrt(num_samples)),
        denominator_bound=gaussian_moment_pow(ps) ** (a / ps) * gaussian_moment_pow(q) ** (b / q),
    )


@pytest.fixture
def rounding_moments():
    """Monte Carlo check of the design identities of the rounding, from one
    draw of Gaussian samples g projected as sample_round projects them: to
    P = Lu g and Q = Lv g, the scaled factor rows of the transformed Gram.

    The expectation of psi_q(P) psi_{p*}(Q)^T equals
    gamma_{p*}^{p*} gamma_q^q * c_ab * S_u (Uhat Vhat^T) S_v, where S_u, S_v
    carry the row norms when the matching exponent is positive and are
    identity when it is 0 (the sign map forgets scale).  The denominator
    satisfies E ||P||_q^b ||Q||_{p*}^a <= gamma_{p*}^a gamma_q^b."""
    return _rounding_moments
