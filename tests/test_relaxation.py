import json
import math

import numpy as np
import pytest

from pqnorm.errors import DomainError
from pqnorm.krivine import NormPair
from pqnorm.relaxation import (
    ProblemInstance,
    brute_force_norm,
    load_matrix,
    lp_norm,
    solve_cp,
)


def power_iteration_top_sv(A, iters=2000):
    """Independent oracle for the spectral norm."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(A.shape[1])
    for _ in range(iters):
        x = A.T @ (A @ x)
        x /= np.linalg.norm(x)
    return float(np.linalg.norm(A @ x))


SIGN2 = np.array([[1.0, 1.0], [1.0, -1.0]])


class TestSolveCP:
    def test_identity_p2q2(self):
        sol = solve_cp(ProblemInstance(np.eye(2), NormPair(2.0, 2.0)), restarts=4)
        assert sol.value == pytest.approx(1.0, abs=1e-8)
        assert sol.converged

    def test_sign_matrix_grothendieck(self):
        inst = ProblemInstance(SIGN2, NormPair(math.inf, 1.0))
        sol = solve_cp(inst, restarts=8)
        # relaxation dominates the true norm 2; its optimum here is 2*sqrt(2)
        assert sol.value >= 2.0 - 1e-9
        assert sol.value == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-7)

    def test_p2q2_matches_power_iteration(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((7, 5))
        sol = solve_cp(ProblemInstance(A, NormPair(2.0, 2.0)), restarts=8)
        assert sol.value == pytest.approx(power_iteration_top_sv(A), abs=1e-8)

    def test_objective_monotone(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 6))
        sol = solve_cp(ProblemInstance(A, NormPair(4.0, 4.0 / 3.0)), restarts=2)
        tr = sol.objective_trace
        assert np.all(np.diff(tr) >= -1e-12 * np.maximum(1.0, np.abs(tr[:-1])))

    def test_extrapolation_cuts_iterations(self):
        # the round_dense benchmark pool's 100x100 base at (inf, 1); the plain
        # alternating solver took 829 iterations here
        A = np.random.default_rng([1804_03644, 1, 100]).standard_normal((100, 100))
        sol = solve_cp(ProblemInstance(A, NormPair(math.inf, 1.0)), seed=7)
        assert sol.converged and sol.iterations < 300
        assert sol.fallbacks >= 1
        assert np.all(np.diff(sol.objective_trace) >= 0.0)

    @pytest.mark.parametrize("n,seed", [(8, 0), (10, 1), (10, 2)])
    def test_spectral_value_reaches_norm(self, n, seed):
        # at (2, 2) the relaxation's optimum is ||A||_2; the plain solver
        # stalled up to 1.8e-9 relative below it on these instances
        A = np.random.default_rng(seed).standard_normal((n, n))
        sol = solve_cp(ProblemInstance(A, NormPair(2.0, 2.0)), seed=seed)
        assert sol.value == pytest.approx(np.linalg.norm(A, 2), rel=1e-10)

    def test_feasibility_and_value_reproducible(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((5, 4))
        pair = NormPair(4.0, 1.5)
        sol = solve_cp(ProblemInstance(A, pair), restarts=4)
        u_pow = np.sum(np.linalg.norm(sol.U, axis=1) ** pair.q_star)
        v_pow = np.sum(np.linalg.norm(sol.V, axis=1) ** pair.p)
        assert u_pow <= 1.0 + 1e-9 and v_pow <= 1.0 + 1e-9
        assert sol.value == pytest.approx(float(np.sum(A * (sol.U @ sol.V.T))), rel=1e-12)

    @pytest.mark.parametrize("p,q", [(math.inf, 1.0), (4.0, 4.0 / 3.0)])
    def test_invariance_under_permutation_and_signs(self, p, q):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((6, 5))
        pair = NormPair(p, q)
        base = solve_cp(ProblemInstance(A, pair), restarts=12, seed=3).value
        perm = rng.permutation(6)
        signs = rng.choice([-1.0, 1.0], 5)
        A2 = A[perm][:, ::-1] * signs[::-1]
        other = solve_cp(ProblemInstance(A2, pair), restarts=12, seed=4).value
        assert other == pytest.approx(base, rel=1e-6)

    def test_dominates_brute_force(self):
        rng = np.random.default_rng(23)
        for p, q in [(math.inf, 1.0), (4.0, 4.0 / 3.0), (2.0, 2.0)]:
            A = rng.standard_normal((6, 5))
            inst = ProblemInstance(A, NormPair(p, q))
            assert solve_cp(inst, restarts=8).value >= brute_force_norm(inst, seed=1) - 1e-6

    def test_rank_one_shapes(self):
        # single-row and single-column instances collapse to vector norms
        pair = NormPair(4.0, 1.5)
        v = np.array([[1.0, -2.0, 0.5]])
        sol = solve_cp(ProblemInstance(v, pair), restarts=4)
        assert sol.value == pytest.approx(lp_norm(v[0], pair.p_star), rel=1e-8)
        sol = solve_cp(ProblemInstance(v.T, pair), restarts=4)
        assert sol.value == pytest.approx(lp_norm(v[0], pair.q), rel=1e-8)

    def test_zero_matrix(self):
        sol = solve_cp(ProblemInstance(np.zeros((3, 2)), NormPair(3.0, 1.5)))
        assert sol.value == 0.0 and sol.converged


class TestLowRankBatched:
    @pytest.mark.parametrize("m,n", [(30, 40), (6, 5), (2, 2), (1, 3), (1, 1)])
    def test_default_rank(self, m, n):
        A = np.random.default_rng(m * n).standard_normal((m, n))
        sol = solve_cp(ProblemInstance(A, NormPair(4.0, 4.0 / 3.0)))
        rank = min(m + n, math.ceil(math.sqrt(2 * (m + n))) + 1)
        assert sol.U.shape == (m, rank) and sol.V.shape == (n, rank)

    @pytest.mark.parametrize("p,q", [(math.inf, 1.0), (4.0, 4.0 / 3.0), (3.0, 1.5)])
    def test_default_matches_full_rank(self, p, q):
        A = np.random.default_rng(30_40).standard_normal((30, 40))
        inst = ProblemInstance(A, NormPair(p, q))
        full = solve_cp(inst, d=70, restarts=16)
        low = solve_cp(inst)
        assert low.converged and full.converged
        assert low.value == pytest.approx(full.value, rel=1e-8)

    @pytest.mark.parametrize("p,q", [(math.inf, 1.0), (4.0, 4.0 / 3.0)])
    def test_more_restarts_never_worse(self, p, q):
        A = np.random.default_rng(8).standard_normal((9, 7))
        inst = ProblemInstance(A, NormPair(p, q))
        for seed in range(4):
            one = solve_cp(inst, restarts=1, seed=seed).value
            four = solve_cp(inst, restarts=4, seed=seed).value
            # restart 0 runs the same stream in both; stacking it with three
            # more may change the rounding of its matrix products
            assert four >= one * (1.0 - 1e-12)

    @pytest.mark.parametrize("p,q", [(math.inf, 1.0), (4.0, 4.0 / 3.0), (2.0, 2.0)])
    def test_trace_describes_winner(self, p, q):
        A = np.random.default_rng(3).standard_normal((12, 10))
        sol = solve_cp(ProblemInstance(A, NormPair(p, q)), seed=5)
        assert len(sol.objective_trace) == sol.iterations
        assert sol.objective_trace[-1] == pytest.approx(sol.value, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_scale_invariance(self, scale):
        A = np.random.default_rng(7).standard_normal((6, 5))
        pair = NormPair(4.0, 4.0 / 3.0)
        base = solve_cp(ProblemInstance(A, pair))
        scaled = solve_cp(ProblemInstance(scale * A, pair))
        assert scaled.value == pytest.approx(scale * base.value, rel=1e-12, abs=0.0)
        assert np.allclose(scaled.U, base.U, rtol=1e-12, atol=1e-14)


class TestBruteForce:
    def test_sign_matrix_enumeration(self):
        inst = ProblemInstance(SIGN2, NormPair(math.inf, 1.0))
        assert brute_force_norm(inst) == pytest.approx(2.0, abs=1e-12)

    def test_identity_closed_form(self):
        # max ||x||_q on the l_p sphere is n^(1/q - 1/p) by symmetry
        for n, p, q in [(3, 4.0, 1.5), (4, 3.0, 2.0), (3, math.inf, 1.0)]:
            inst = ProblemInstance(np.eye(n), NormPair(p, q))
            ref = n ** (1.0 / q - (0.0 if math.isinf(p) else 1.0 / p))
            assert brute_force_norm(inst, seed=2) == pytest.approx(ref, rel=1e-9)

    def test_rank_one_holder_tightness(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(5)
        v = rng.standard_normal(4)
        pair = NormPair(4.0, 1.25)
        inst = ProblemInstance(np.outer(u, v), pair)
        ref = lp_norm(u, pair.q) * lp_norm(v, pair.p_star)
        assert brute_force_norm(inst, seed=3) == pytest.approx(ref, rel=1e-9)

    def test_grid_mode_agrees_with_multistart(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((4, 3))
        inst = ProblemInstance(A, NormPair(4.0, 4.0 / 3.0))
        g = brute_force_norm(inst, mode="grid", samples=200_000, seed=5)
        ms = brute_force_norm(inst, mode="multistart", seed=6)
        assert g == pytest.approx(ms, rel=1e-7)


class TestMatrixIO:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.5,-2\n0,3.25\n")
        assert np.array_equal(load_matrix(path), [[1.5, -2.0], [0.0, 3.25]])

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": 2, "cols": 3, "data": [1, 2, 3, 4, 5, 6]}))
        assert np.array_equal(load_matrix(path), [[1, 2, 3], [4, 5, 6]])

    def test_bad_inputs(self, tmp_path):
        ragged = tmp_path / "r.csv"
        ragged.write_text("1,2\n3\n")
        with pytest.raises(DomainError):
            load_matrix(ragged)
        short = tmp_path / "s.json"
        short.write_text(json.dumps({"rows": 2, "cols": 2, "data": [1, 2, 3]}))
        with pytest.raises(DomainError):
            load_matrix(short)

    @pytest.mark.parametrize("rows,cols,data", [(-1, -1, [5]), (0, 0, []), (0, 3, []),
                                                (2.7, 1, [1, 2]), (True, 2, [1, 2])])
    def test_json_shape_must_be_positive_integers(self, rows, cols, data, tmp_path):
        # -1 used to reach reshape's "one unknown dimension", 2.7 was truncated to 2
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": rows, "cols": cols, "data": data}))
        with pytest.raises(DomainError, match=r"rows and cols must be integers >= 1"):
            load_matrix(path)

    def test_json_integral_float_shape(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": 2.0, "cols": 1, "data": [1, 2]}))
        assert np.array_equal(load_matrix(path), [[1], [2]])

    def test_instance_validation(self):
        with pytest.raises(DomainError):
            ProblemInstance(np.array([[np.inf, 1.0]]), NormPair(2.0, 2.0))
