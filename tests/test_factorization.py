import json
import math

import numpy as np
import pytest

from pqnorm.cli import main
from pqnorm.errors import DomainError
from pqnorm.factorization import _cs_weights, _scaled, build_certificate, solve_dual
from pqnorm.krivine import NormPair
from pqnorm.relaxation import ProblemInstance, brute_force_norm, lp_norm, solve_cp


def block_min_eig(A, s, t):
    """Reference: lambda_min of D^{-1/2} [[D_s, -A], [-A^T, D_t]] D^{-1/2}
    on the support of (s, t), from the (m+n)^2 block matrix."""
    m, n = A.shape
    M = np.block([[np.diag(s), -A], [-A.T, np.diag(t)]])
    d = np.concatenate([s, t])
    sup = d > 0
    ds = 1.0 / np.sqrt(d[sup])
    return float(np.linalg.eigvalsh(ds[:, None] * M[np.ix_(sup, sup)] * ds[None, :])[0])


class TestSolveDual:
    def test_identity_spectral(self):
        inst = ProblemInstance(np.eye(2), NormPair(2.0, 2.0))
        dual = solve_dual(inst, solve_cp(inst))
        assert dual.value == pytest.approx(1.0, abs=1e-7)
        assert dual.min_eigenvalue >= -1e-9
        # weights proportional to (1, 1): the PSD block [[D_s, -I], [-I, D_t]]
        assert np.allclose(dual.s, dual.s[0], atol=1e-6)

    def test_rank_one_matches_closed_form(self):
        rng = np.random.default_rng(6)
        u, v = rng.standard_normal(4), rng.standard_normal(3)
        pair = NormPair(4.0, 4.0 / 3.0)
        inst = ProblemInstance(np.outer(u, v), pair)
        dual = solve_dual(inst, solve_cp(inst))
        ref = lp_norm(u, pair.q) * lp_norm(v, pair.p_star)
        assert dual.value == pytest.approx(ref, rel=1e-6)

    def test_zero_row_gets_zero_weight(self):
        A = np.array([[0.0, 0.0], [1.0, 2.0]])
        inst = ProblemInstance(A, NormPair(math.inf, 1.0))
        dual = solve_dual(inst, solve_cp(inst))
        assert dual.s[0] == 0.0
        assert dual.min_eigenvalue >= -1e-9

    def test_weak_duality_and_gap(self):
        rng = np.random.default_rng(14)
        for seed in range(3):
            A = rng.standard_normal((6, 5))
            inst = ProblemInstance(A, NormPair(4.0, 4.0 / 3.0))
            primal = solve_cp(inst, seed=seed)
            dual = solve_dual(inst, primal=primal)
            assert dual.value >= primal.value - 1e-6
            assert dual.value - primal.value <= 1e-4 * dual.value

    @pytest.mark.parametrize("pair", [NormPair(math.inf, 1.0), NormPair(4.0, 4.0 / 3.0)])
    def test_dual_is_repaired_cs_point(self, pair):
        # s_i = c ||(AV)_i|| / ||u^i|| and t_j = c ||(A^T U)_j|| / ||v^j||
        # with one repair scalar c >= 1 for all weights
        A = np.random.default_rng(40).standard_normal((40, 40))
        inst = ProblemInstance(A, pair)
        primal = solve_cp(inst)
        dual = solve_dual(inst, primal=primal)
        cs_s = np.linalg.norm(A @ primal.V, axis=1) / np.linalg.norm(primal.U, axis=1)
        cs_t = np.linalg.norm(A.T @ primal.U, axis=1) / np.linalg.norm(primal.V, axis=1)
        c = dual.s[0] / cs_s[0]
        assert c > 1.0
        np.testing.assert_allclose(dual.s, c * cs_s, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(dual.t, c * cs_t, rtol=1e-12, atol=0.0)
        assert dual.min_eigenvalue >= -1e-9
        assert dual.value >= primal.value

    @pytest.mark.parametrize("pair", [NormPair(math.inf, 1.0), NormPair(4.0, 4.0 / 3.0),
                                      NormPair(2.0, 2.0)])
    def test_repaired_min_eigenvalue_in_closed_form(self, pair):
        # scaling (s, t) by c turns I - K into I - K / c; the repair always
        # scales, so the bound is rounded outward even from lambda_min >= 0
        for seed in range(3):
            A = np.random.default_rng(seed).standard_normal((12, 9))
            primal = solve_cp(ProblemInstance(A, pair), seed=seed)
            s, t, lam = _cs_weights(A, primal.U, primal.V)
            assert lam > 0.0
            assert lam == pytest.approx(block_min_eig(A, s, t), abs=1e-14)

    def test_spectral_stall_instance_is_covered(self):
        # solve_cp stops on an objective stall 2e-14 relative below ||A||_2
        # here; the dual value is still an upper bound, with a small gap
        A = np.random.default_rng(0).standard_normal((8, 8))
        inst = ProblemInstance(A, NormPair(2.0, 2.0))
        primal = solve_cp(inst)
        dual = solve_dual(inst, primal=primal)
        assert dual.value >= np.linalg.norm(A, 2)
        assert dual.value - primal.value <= 1e-4 * dual.value


SHAPES = {
    "rank-1": lambda rng: np.outer(rng.standard_normal(10), rng.standard_normal(10)),
    "sparse": lambda rng: rng.standard_normal((10, 10)) * (rng.random((10, 10)) < 0.3),
    "nonnegative": lambda rng: np.abs(rng.standard_normal((10, 10))),
    "gaussian": lambda rng: rng.standard_normal((10, 10)),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("pair", [NormPair(math.inf, 1.0), NormPair(4.0, 4.0 / 3.0),
                                  NormPair(2.0, 2.0)], ids=["inf-1", "4-4_3", "2-2"])
def test_sandwich_family(shape, pair):
    for seed in range(3):
        A = SHAPES[shape](np.random.default_rng(seed))
        inst = ProblemInstance(A, pair)
        primal = solve_cp(inst, seed=seed)
        dual = solve_dual(inst, primal=primal)
        lower = brute_force_norm(inst, seed=seed)
        assert lower <= dual.value
        # weak duality, up to rounding where the relaxation is tight (rank one)
        assert primal.value <= dual.value * (1.0 + 1e-12)
        # solve_cp stops on an objective stall, which leaves its value up to
        # 1.9e-12 relative below the Holder lower bound in this family
        assert lower <= primal.value * (1.0 + 1e-10)
        cert = build_certificate(inst, dual.s, dual.t)
        assert cert.spectral_norm_B <= 1.0 + 1e-9
        assert cert.reconstruction_error <= 1e-12 * np.max(np.abs(A))
        assert cert.norm_product <= cert.dual_value * (1.0 + 1e-12)


class TestCertificate:
    def test_identity(self):
        inst = ProblemInstance(np.eye(2), NormPair(2.0, 2.0))
        dual = solve_dual(inst, solve_cp(inst))
        cert = build_certificate(inst, dual.s, dual.t)
        assert cert.spectral_norm_B <= 1.0 + 1e-6
        assert cert.reconstruction_error < 1e-10
        assert cert.norm_product == pytest.approx(1.0, abs=1e-6)

    def test_diagonal_grothendieck(self):
        d = np.array([1.5, -0.5, 2.0])
        inst = ProblemInstance(np.diag(d), NormPair(math.inf, 1.0))
        dual = solve_dual(inst, solve_cp(inst))
        cert = build_certificate(inst, dual.s, dual.t)
        # ||A||_{inf->1} = sum |d_i|; the certificate is tight here
        assert cert.norm_product == pytest.approx(np.sum(np.abs(d)), rel=1e-6)
        assert cert.spectral_norm_B <= 1.0 + 1e-9
        assert cert.reconstruction_error < 1e-10

    def test_random_instances_full_chain(self):
        from pqnorm.krivine import approx_ratio

        rng = np.random.default_rng(77)
        ratio = approx_ratio(NormPair(4.0, 4.0 / 3.0)).ratio
        for seed in range(3):
            A = rng.standard_normal((6, 5))
            inst = ProblemInstance(A, NormPair(4.0, 4.0 / 3.0))
            dual = solve_dual(inst, solve_cp(inst, seed=seed))
            cert = build_certificate(inst, dual.s, dual.t)
            assert cert.reconstruction_error < 1e-8
            assert cert.spectral_norm_B <= 1.0 + 1e-6
            assert cert.norm_product <= cert.dual_value + 1e-6
            true_lb = brute_force_norm(inst, seed=seed)
            assert true_lb <= cert.norm_product + 1e-6
            # the factorization constant inherits the rounding guarantee
            assert cert.norm_product / true_lb <= ratio + 1e-4

    def test_scaling_covariance(self):
        rng = np.random.default_rng(15)
        A = rng.standard_normal((4, 4))
        pair = NormPair(4.0, 4.0 / 3.0)
        inst1 = ProblemInstance(A, pair)
        d1 = solve_dual(inst1, solve_cp(inst1))
        lam = 3.7
        inst2 = ProblemInstance(lam * A, pair)
        d2 = solve_dual(inst2, solve_cp(inst2))
        assert d2.value == pytest.approx(lam * d1.value, rel=1e-5)
        c2 = build_certificate(inst2, d2.s, d2.t)
        assert c2.spectral_norm_B <= 1.0 + 1e-6

    def test_infeasible_weights_rejected(self):
        # ||B||_2 = 1/w, also where B^T B would overflow
        inst = ProblemInstance(np.eye(2), NormPair(2.0, 2.0))
        for w, norm in [(1e-6, r"1\.000e\+06"), (1e-300, r"1\.000e\+300")]:
            with pytest.raises(DomainError, match=norm):
                build_certificate(inst, np.array([w, w]), np.array([w, w]))

    def test_zero_weight_against_nonzero_row_is_infeasible(self):
        # no scaling rescues a zero weight on a nonzero row: the 2x2 minor
        # [[0, -a], [-a, t]] is indefinite for a != 0
        A = np.eye(2)
        assert _scaled(A, np.array([0.0, 1.0]), np.array([1.0, 1.0]))[1] == math.inf
        assert _scaled(A, np.array([1.0, 1.0]), np.array([1.0, 0.0]))[1] == math.inf
        with pytest.raises(DomainError):
            build_certificate(ProblemInstance(A, NormPair(2.0, 2.0)),
                              np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        # s_i = t_i = 1 puts the diagonal blocks exactly at the boundary
        B, norm_B = _scaled(A, np.array([2.0, 1.0]), np.array([1.0, 1.0]))
        assert norm_B == 1.0
        assert B[0, 1] == B[1, 0] == 0.0 and B[1, 1] == 1.0


GAP_SHAPES = {
    "gaussian": lambda rng: rng.standard_normal((40, 40)),
    "rank-1": lambda rng: np.outer(rng.standard_normal(40), rng.standard_normal(40)),
    "sparse": lambda rng: rng.standard_normal((40, 40)) * (rng.random((40, 40)) < 0.1),
    "nonnegative": lambda rng: rng.random((40, 40)),
    "wide": lambda rng: rng.standard_normal((20, 120)),
}


@pytest.mark.parametrize("shape", list(GAP_SHAPES))
@pytest.mark.parametrize("pair", [NormPair(math.inf, 1.0), NormPair(4.0, 4.0 / 3.0),
                                  NormPair(3.0, 1.5), NormPair(2.0, 2.0),
                                  NormPair(math.inf, 1.5)],
                         ids=["inf-1", "4-4_3", "3-1.5", "2-2", "inf-1.5"])
def test_one_start_closes_the_gap(shape, pair):
    # one start of solve_cp reaches the relaxation's optimum: the repaired CS
    # dual is within the 1e-4 gap that verify factorization accepts
    for seed in range(6):
        inst = ProblemInstance(GAP_SHAPES[shape](np.random.default_rng([seed, 7])), pair)
        primal = solve_cp(inst, seed=seed)
        dual = solve_dual(inst, primal=primal)
        assert primal.value <= dual.value * (1.0 + 1e-12), seed
        assert dual.value - primal.value <= 1e-4 * dual.value, seed


@pytest.mark.parametrize("shape", list(GAP_SHAPES))
def test_scaled_norm_is_block_lambda_min(shape):
    # lambda_min of the scaled (m+n)^2 block matrix is 1 - ||B||_2, at the
    # repaired CS weights (just inside the boundary) and at random weights
    # (far outside it)
    rng = np.random.default_rng([11, 7])
    A = GAP_SHAPES[shape](rng)
    primal = solve_cp(ProblemInstance(A, NormPair(4.0, 4.0 / 3.0)))
    s, t, _ = _cs_weights(A, primal.U, primal.V)
    weights = [(s, t), (rng.random(A.shape[0]) + 0.5, rng.random(A.shape[1]) + 0.5)]
    for s, t in weights:
        norm_B = _scaled(A, s, t)[1]
        assert 1.0 - norm_B == pytest.approx(block_min_eig(A, s, t), abs=1e-13)


def factorize_cli(A, tmp_path, monkeypatch, capsys):
    """``pqnorm factorize`` on A: the stdout record and the shape of every
    matrix passed to numpy's eigensolvers."""
    path = tmp_path / "A.csv"
    np.savetxt(path, A, delimiter=",")
    shapes = []
    for name in ("eigh", "eigvalsh"):
        def recording(a, *args, _fn=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    assert main(["factorize", "--in", str(path)]) == 0
    return json.loads(capsys.readouterr().out), shapes


class TestFactorizeCommand:
    def test_eigensolves_are_on_the_small_gram(self, tmp_path, monkeypatch, capsys):
        # one ||B||_2 in the dual's repair, one in the certificate; each on
        # the min(m, n)-square Gram, never on the (m+n)^2 block matrix
        A = np.random.default_rng(20).standard_normal((20, 120))
        _, shapes = factorize_cli(A, tmp_path, monkeypatch, capsys)
        assert shapes == [(20, 20), (20, 20)]

    @pytest.mark.parametrize("m,n", [(6, 5), (20, 120), (40, 40)])
    def test_min_eigenvalue_is_one_minus_norm_B(self, m, n, tmp_path, monkeypatch, capsys):
        A = np.random.default_rng([m, n]).standard_normal((m, n))
        rec, _ = factorize_cli(A, tmp_path, monkeypatch, capsys)
        assert rec["min_eigenvalue"] == 1.0 - rec["spectral_norm_B"]
        assert 0.0 < rec["min_eigenvalue"] < 1e-9


def test_large_instance_norm_B_at_most_one():
    # the certificate reports the same ||B||_2 that the repair scaled below 1;
    # a separate SVD of B could read 1.000000000000006 here
    inst = ProblemInstance(np.random.default_rng(1000).standard_normal((1000, 1000)),
                           NormPair(4.0, 4.0 / 3.0))
    dual = solve_dual(inst, solve_cp(inst, seed=0))
    cert = build_certificate(inst, dual.s, dual.t)
    assert cert.spectral_norm_B <= 1.0
    assert cert.min_eigenvalue == 1.0 - cert.spectral_norm_B >= 0.0
