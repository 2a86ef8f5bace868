import math
import tracemalloc

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
    _CHUNK,
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


def one_draw_round(inst, tg, num_samples, seed):
    """The rounding in one piece: every sample drawn at once, every row put
    on the unit spheres, then scored.  Returns the winner's index and value,
    y and x, and the mean value."""
    pair = tg.pair
    Lu, Lv = tg.scaled_factors()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0x5A,)))
    G = rng.standard_normal((num_samples, tg.factor.shape[1]))
    P, Q = G @ Lu.T, G @ Lv.T
    qn = np.sum(np.abs(P) ** pair.q, axis=1) ** (1.0 / pair.q)
    pn = np.sum(np.abs(Q) ** pair.p_star, axis=1) ** (1.0 / pair.p_star)
    y = holder_dual(P, pair.q) / qn[:, None] ** pair.b
    x = holder_dual(Q, pair.p_star) / pn[:, None] ** pair.a
    vals = np.einsum("ij,ij->i", y @ inst.A, x)
    i = int(np.argmax(vals))
    return i, float(vals[i]), y[i], x[i], float(vals.mean())


PAIRS = [(math.inf, 1.0), (4.0, 4.0 / 3.0), (2.0, 2.0), (3.0, 1.5), (2.0, 1.0), (math.inf, 1.5)]


@pytest.fixture(scope="module", params=PAIRS, ids=lambda pq: f"{pq[0]}-{pq[1]:.3g}")
def rounded_pipeline(request):
    p, q = request.param
    return pipeline(np.random.default_rng(61).standard_normal((7, 5)), p, q, restarts=4)


class TestBlockedSampling:
    @pytest.mark.parametrize("count", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
    def test_matches_one_draw_rounding(self, rounded_pipeline, count):
        inst, sol, c, tg = rounded_pipeline
        i, value, y, x, mean = one_draw_round(inst, tg, count, seed=17)
        rs = sample_round(inst, tg, num_samples=count, seed=17)
        # the same winning sample, at the same value, and the same mean
        assert np.allclose(rs.y, y, rtol=1e-13, atol=0.0)
        assert np.allclose(rs.x, x, rtol=1e-13, atol=0.0)
        assert rs.value == pytest.approx(value, rel=1e-13)
        assert rs.empirical_mean_value == pytest.approx(mean, rel=1e-13)
        assert rs.sample_count == count
        if inst.pair.a == 0.0 and inst.pair.b == 0.0:
            # sign rounding: no norm is taken, so the value is the same float
            assert rs.value == value

    def test_memory_does_not_grow_with_samples(self):
        A = np.random.default_rng(100).standard_normal((100, 100))
        inst, sol, c, tg = pipeline(A, 4.0, 4.0 / 3.0, restarts=1)
        tracemalloc.start()
        try:
            sample_round(inst, tg, num_samples=10_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one draw of all 10,000 samples would hold 10,000 x 200 doubles
        # (16 MB) several times over
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("p,q", [(math.inf, 1.0), (4.0, 4.0 / 3.0)])
    def test_dead_projection_is_redrawn(self, monkeypatch, p, q):
        inst, sol, c, tg = pipeline(np.random.default_rng(62).standard_normal((6, 5)), p, q)
        count, row = 2 * _CHUNK + 3, 7
        plain = sample_round(inst, tg, num_samples=count, seed=4)
        real_rng = np.random.default_rng
        shapes = []

        class KillOneRow:
            """Zeroes one row of the second block; its first redraw is all
            zero again, the second returns the row that was zeroed."""

            def __init__(self, seed_seq):
                self.rng = real_rng(seed_seq)

            def standard_normal(self, shape):
                shapes.append(shape)
                if len(shapes) == 2:
                    G = self.rng.standard_normal(shape)
                    self.lost = G[row].copy()
                    G[row] = 0.0
                    return G
                if len(shapes) == 3:
                    return np.zeros(shape)
                if len(shapes) == 4:
                    return self.lost[None, :]
                return self.rng.standard_normal(shape)

        monkeypatch.setattr(np.random, "default_rng", KillOneRow)
        rs = sample_round(inst, tg, num_samples=count, seed=4)
        d = tg.factor.shape[1]
        assert shapes == [(_CHUNK, d), (_CHUNK, d), (1, d), (1, d), (3, d)]
        assert rs.sample_count == count
        assert np.all(np.isfinite(rs.y)) and np.all(np.isfinite(rs.x))
        assert lp_norm(rs.y, inst.pair.q_star) == pytest.approx(1.0, abs=1e-12)
        assert lp_norm(rs.x, inst.pair.p) == pytest.approx(1.0, abs=1e-12)
        # the redrawn row is the lost one, so the same samples were scored;
        # a row left at zero would score 0 and move the mean by ~1/count
        assert rs.value == pytest.approx(plain.value, rel=1e-13)
        assert rs.empirical_mean_value == pytest.approx(plain.empirical_mean_value, rel=1e-13)


class TestMomentIdentities:
    @pytest.mark.parametrize("p,q", [(math.inf, 1.0), (4.0, 4.0 / 3.0), (2.0, 2.0)])
    def test_moments_match_the_outer_product_tensor(self, p, q):
        rng = np.random.default_rng(9)
        inst, sol, c, tg = pipeline(rng.standard_normal((5, 4)), p, q)
        N = 3000
        stats = rounding_identity_stats(inst, tg, sol, num_samples=N, seed=6)
        pair = tg.pair
        Lu, Lv = tg.scaled_factors()
        draw = np.random.default_rng(np.random.SeedSequence(entropy=6, spawn_key=(0x1D,)))
        G = draw.standard_normal((N, tg.factor.shape[1]))
        P, Q = G @ Lu.T, G @ Lv.T
        prod = np.einsum("si,sj->sij", holder_dual(P, pair.q), holder_dual(Q, pair.p_star))
        assert np.allclose(stats.numerator_mean, prod.mean(axis=0), rtol=1e-12, atol=1e-14)
        assert np.allclose(stats.numerator_se, prod.std(axis=0) / math.sqrt(N), rtol=1e-8, atol=0.0)
        den = (np.sum(np.abs(P) ** pair.q, axis=1) ** (pair.b / pair.q)
               * np.sum(np.abs(Q) ** pair.p_star, axis=1) ** (pair.a / pair.p_star))
        assert stats.denominator_mean == pytest.approx(den.mean(), rel=1e-13)


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
