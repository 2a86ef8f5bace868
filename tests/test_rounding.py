import math

import numpy as np
import pytest

from pqnorm.errors import DomainError
from pqnorm.krivine import NormPair, approx_ratio, compute_c_ab
from pqnorm.relaxation import (
    ProblemInstance,
    brute_force_norm,
    lp_norm,
    solve_cp,
)
from pqnorm.rounding import (
    build_transformed_gram,
    holder_dual,
    rounding_identity_stats,
    sample_round,
)

ASINH1 = math.asinh(1.0)


def pipeline(A, p, q, K=60, restarts=8, seed=0):
    inst = ProblemInstance(A, NormPair(p, q))
    sol = solve_cp(inst, restarts=restarts, seed=seed)
    c, g, _ = compute_c_ab(inst.pair, K=K)
    tg = build_transformed_gram(sol, inst.pair, c, g)
    return inst, sol, c, tg


class TestHolderDual:
    def test_sign_map_at_one(self):
        z = np.array([0.5, -2.0, 0.0])
        assert np.array_equal(holder_dual(z, 1.0), [1.0, -1.0, 0.0])

    def test_identity_at_two(self):
        z = np.array([3.0, -4.0])
        assert np.array_equal(holder_dual(z, 2.0), z)

    def test_r3_example(self):
        z = np.array([1.0, -2.0])
        psi = holder_dual(z, 3.0)
        assert np.allclose(psi, [1.0, -4.0])
        # ||psi||_{3/2} = ||z||_3^2 = 9^(2/3)
        assert lp_norm(psi, 1.5) == pytest.approx(9.0 ** (2.0 / 3.0), rel=1e-12)

    def test_duality_identities(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(6)
        for r in [1.0, 1.3, 2.0, 1.9]:
            psi = holder_dual(z, r)
            assert float(psi @ z) == pytest.approx(lp_norm(z, r) ** r, rel=1e-12)
            rs = math.inf if r == 1.0 else r / (r - 1.0)
            assert lp_norm(psi, rs) == pytest.approx(lp_norm(z, r) ** (r - 1.0), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            holder_dual(np.ones(2), 0.5)
        with pytest.raises(DomainError):
            holder_dual(np.array([np.nan]), 2.0)


class TestTransformedGram:
    def test_classical_construction(self):
        # a = b = 0 with unit rows: off block sin(c <u,v>), diagonal entries
        # sinh(c) = sinh(asinh(1)) = 1
        rng = np.random.default_rng(3)
        inst, sol, c, tg = pipeline(rng.standard_normal((3, 3)), math.inf, 1.0)
        assert c == pytest.approx(ASINH1, abs=1e-10)
        m = tg.m
        d = np.diag(tg.M)
        assert np.allclose(d, 1.0, atol=1e-9)
        Uh = sol.U / np.linalg.norm(sol.U, axis=1)[:, None]
        Vh = sol.V / np.linalg.norm(sol.V, axis=1)[:, None]
        assert np.allclose(tg.M[:m, m:], np.sin(c * (Uh @ Vh.T)), atol=1e-9)
        assert np.allclose(tg.M[:m, :m], np.sinh(c * (Uh @ Uh.T)), atol=1e-9)

    def test_orthogonal_rows_zero_off_block(self):
        pair = NormPair(4.0, 4.0 / 3.0)
        U = np.array([[1.0, 0.0, 0.0, 0.0]]) * 0.9
        V = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]) * 0.7
        from pqnorm.relaxation import RelaxationSolution

        sol = RelaxationSolution(U=U, V=V, value=0.0, converged=True, iterations=0)
        c, g, _ = compute_c_ab(pair, K=60)
        tg = build_transformed_gram(sol, pair, c, g)
        assert np.allclose(tg.M[:1, 1:], 0.0, atol=1e-14)

    def test_random_instance_psd_before_repair(self):
        rng = np.random.default_rng(8)
        inst, sol, c, tg = pipeline(rng.standard_normal((4, 3)), 4.0, 4.0 / 3.0)
        assert tg.psd_repair_shift < 1e-8
        evals = np.linalg.eigvalsh(tg.M)
        assert evals[0] >= -1e-10
        assert np.allclose(tg.factor @ tg.factor.T, tg.M, atol=1e-10)
        # unscaled diagonal entries sit at hhat(c) in [1 - tol, 1]
        d = np.diag(tg.M)
        assert np.all(d <= 1.0 + 1e-12) and np.all(d >= 1.0 - 1e-4)
        assert np.allclose(d, d[0], atol=1e-12)


class TestSampleRound:
    def test_feasibility_on_unit_spheres(self):
        rng = np.random.default_rng(21)
        for p, q in [(math.inf, 1.0), (4.0, 4.0 / 3.0), (2.0, 2.0), (3.0, 1.5),
                     (2.0, 1.0), (math.inf, 2.0)]:
            inst, sol, c, tg = pipeline(rng.standard_normal((5, 4)), p, q)
            rs = sample_round(inst, tg, num_samples=64, seed=5)
            assert lp_norm(rs.y, inst.pair.q_star) == pytest.approx(1.0, abs=1e-9)
            assert lp_norm(rs.x, inst.pair.p) == pytest.approx(1.0, abs=1e-9)

    def test_sign_matrix_reaches_two(self):
        A = np.array([[1.0, 1.0], [1.0, -1.0]])
        inst, sol, c, tg = pipeline(A, math.inf, 1.0)
        rs = sample_round(inst, tg, num_samples=512, seed=7)
        true = brute_force_norm(inst)
        assert rs.value <= true + 1e-9
        assert rs.value == pytest.approx(2.0, abs=1e-9)

    def test_identity_p2q2(self):
        inst, sol, c, tg = pipeline(np.eye(3), 2.0, 2.0)
        rs = sample_round(inst, tg, num_samples=256, seed=9)
        assert rs.value <= 1.0 + 1e-9
        assert rs.value > 0.9

    def test_sandwich_on_random_instance(self):
        rng = np.random.default_rng(31)
        A = rng.standard_normal((10, 8))
        inst, sol, c, tg = pipeline(A, 4.0, 4.0 / 3.0)
        rs = sample_round(inst, tg, num_samples=10_000, seed=11)
        bf = brute_force_norm(inst, seed=12)
        ratio = approx_ratio(inst.pair, K=60).ratio
        assert rs.value <= bf + 1e-6
        assert rs.value >= sol.value / ratio * 0.95

    @pytest.mark.parametrize("p,q", [(3.0, 1.2), (8.0, 1.9), (math.inf, 1.5)])
    def test_sandwich_other_exponents(self, p, q):
        rng = np.random.default_rng(57)
        A = rng.standard_normal((6, 5))
        inst, sol, c, tg = pipeline(A, p, q)
        rs = sample_round(inst, tg, num_samples=4000, seed=3)
        bf = brute_force_norm(inst, seed=4)
        assert rs.value <= bf + 1e-6
        assert rs.value >= sol.value / approx_ratio(inst.pair, K=60).ratio * 0.9

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(41)
        inst, sol, c, tg = pipeline(rng.standard_normal((4, 4)), math.inf, 1.0)
        r1 = sample_round(inst, tg, num_samples=128, seed=13)
        r2 = sample_round(inst, tg, num_samples=128, seed=13)
        assert r1.value == r2.value
        assert np.array_equal(r1.y, r2.y)


class TestMomentIdentities:
    @pytest.mark.parametrize("p,q,seed", [(math.inf, 1.0, 1), (4.0, 4.0 / 3.0, 2)])
    def test_numerator_identity_within_4_sigma(self, p, q, seed):
        rng = np.random.default_rng(seed)
        inst, sol, c, tg = pipeline(rng.standard_normal((5, 4)), p, q)
        stats = rounding_identity_stats(inst, tg, sol, num_samples=100_000, seed=seed)
        assert stats.numerator_max_sigmas <= 4.0

    @pytest.mark.parametrize("p,q,seed", [(math.inf, 1.0, 3), (4.0, 4.0 / 3.0, 4), (3.0, 1.5, 5)])
    def test_denominator_bound(self, p, q, seed):
        rng = np.random.default_rng(seed + 70)
        inst, sol, c, tg = pipeline(rng.standard_normal((5, 4)), p, q)
        stats = rounding_identity_stats(inst, tg, sol, num_samples=100_000, seed=seed)
        assert stats.denominator_mean <= stats.denominator_bound + 4.0 * stats.denominator_se
