"""Fixtures shared by the test modules."""

import math

import numpy as np
import pytest

from pqnorm import specfun
from pqnorm.errors import DomainError
from pqnorm.oracles import IdentityCheckResult, polar_f_ab


@pytest.fixture
def cold_rules():
    """Empties every node-rule cache of specfun, so that a test counts the
    rules a command builds from a cold start whatever ran before it."""
    for rule in (specfun._gauss_jacobi, specfun._gauss_laguerre, specfun._euler_rule,
                 specfun._graded_rule):
        rule.cache_clear()


def _mc_f_ab(a: float, b: float, rho: float, N: int, seed: int = 0) -> IdentityCheckResult:
    if N < 10_000:
        raise DomainError("need N >= 1e4 samples")
    if not -1.0 <= rho <= 1.0:
        raise DomainError("correlation must lie in [-1, 1]")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(17,)))
    g2 = rng.standard_normal(N)
    g3 = rng.standard_normal(N)
    g1 = rho * g2 + math.sqrt(max(0.0, 1.0 - rho * rho)) * g3
    prod = np.sign(g1) * np.abs(g1) ** a * np.sign(g2) * np.abs(g2) ** b
    return IdentityCheckResult(
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
