import math

import numpy as np
import pytest

from pqnorm import _kernels
from pqnorm.errors import CertificationError, DomainError
from pqnorm.krivine import (
    KRIVINE_RATIO,
    CoeffGrid,
    NormPair,
    _odd_tail,
    _series_tail,
    approx_ratio,
    bounds_sweep,
    certify_defect,
    check_conditions,
    compute_c_ab,
    dual_exponent,
    f_bar_w_coeffs,
    hhat_grid_max,
    inverse_coeff_grid,
    steinberg_ratio,
)
from pqnorm.series import odd_horner, tail_fit
from test_oracles import mp_inverse_coeffs

ASINH1 = math.asinh(1.0)


class TestNormPair:
    def test_duality(self):
        pair = NormPair(p=math.inf, q=1.0)
        assert pair.p_star == 1.0 and pair.a == 0.0 and pair.b == 0.0
        pair = NormPair(p=2.0, q=2.0)
        assert pair.a == 1.0 and pair.b == 1.0
        pair = NormPair(p=4.0, q=4.0 / 3.0)
        assert pair.a == pytest.approx(1.0 / 3.0)
        assert pair.b == pytest.approx(1.0 / 3.0)

    def test_dual_exponent_is_every_conjugate(self):
        # p*, q* and the dual-q sweep rule, bit for bit the formulas each
        # used to write out: 1 at r = inf, inf at r = 1, r / (r - 1) between
        assert dual_exponent(math.inf) == 1.0 and dual_exponent(1.0) == math.inf
        for p in list(np.geomspace(2.0, 1e6, 57)) + [math.inf]:
            q = 1.0 if math.isinf(p) else p / (p - 1.0)
            assert NormPair(p, q).p_star == dual_exponent(p) == q
        for q in np.linspace(1.0, 2.0, 41):
            q_star = math.inf if q == 1.0 else q / (q - 1.0)
            assert NormPair(4.0, q).q_star == dual_exponent(q) == q_star

    def test_validation(self):
        with pytest.raises(DomainError):
            NormPair(p=1.5, q=1.0)
        with pytest.raises(DomainError):
            NormPair(p=3.0, q=2.5)

    def test_from_ab(self):
        pair = NormPair.from_ab(0.0, 0.0)
        assert math.isinf(pair.p) and pair.q == 1.0
        pair = NormPair.from_ab(1.0, 0.5)
        assert pair.p == 2.0 and pair.q == 1.5
        with pytest.raises(DomainError):
            NormPair.from_ab(1.2, 0.0)
        with pytest.raises(DomainError):
            NormPair.from_ab(0.5, -0.1)


def revert(a, b, K):
    """The inverse series at one pair, truncated at order K, as a one-row
    batch."""
    return _kernels.revert_odd_batch([a], [b], (K - 1) // 2)[0]


def evaluate(g, x):
    return float(odd_horner(g, x))


def odd_tail(absG, x):
    """The odd-degree tail of every row, from the row-wise fit."""
    return _odd_tail(tail_fit(absG), absG.shape[1] - 1, x)


def f_bar(a, b, K):
    """Compressed coefficients of f_bar at (a, b), truncated at order K."""
    return f_bar_w_coeffs(a, b, (K - 1) // 2)


class TestFBarSeries:
    def test_grothendieck_case_is_arcsin(self):
        g = f_bar(0.0, 0.0, 9)
        assert g[0] == 1.0
        assert g[1] == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert g[2] == pytest.approx(3.0 / 40.0, rel=1e-15)

    def test_a_equal_one_is_identity(self):
        # a = 1 (or b = 1) zeroes the upper parameter (1 - a)/2
        pair = NormPair(p=2.0, q=1.3)
        for a, b in [(pair.a, pair.b), (pair.b, pair.a)]:
            g = f_bar(a, b, 15)
            assert g[0] == 1.0
            assert np.all(g[1:] == 0.0)

    def test_cubic_coefficient_formula(self):
        # [rho^3] = (1-a)(1-b)/6, at a = b = 1/2 equal to 1/24
        assert f_bar(0.5, 0.5, 5)[1] == pytest.approx(1.0 / 24.0, rel=1e-15)

    def test_nonnegative_coefficients_M2(self):
        for a, b in [(0.0, 0.0), (0.2, 0.9), (0.77, 0.13), (1.0, 0.4)]:
            assert np.all(f_bar(a, b, 41) >= 0.0)

    def test_coefficients_decreasing_in_a_M3(self):
        b = 0.35
        prev = f_bar(0.0, b, 31)
        for a in [0.2, 0.5, 0.8, 1.0]:
            cur = f_bar(a, b, 31)
            assert np.all(cur <= prev + 1e-15)
            prev = cur


class TestComputeC:
    def test_grothendieck_constant(self):
        c, g, tail = compute_c_ab(NormPair(p=math.inf, q=1.0), K=60, tol=1e-9)
        assert c == pytest.approx(math.log(1.0 + math.sqrt(2.0)), abs=1e-10)
        h = np.abs(g)
        assert tail == _series_tail(tail_fit(h[None, :]), 60)(c)[0]
        assert 1.0 - 1e-9 <= evaluate(h, c) + tail <= 1.0 + 1e-12

    def test_a_equal_one(self):
        c, _, _ = compute_c_ab(NormPair(p=2.0, q=1.0), K=60)
        assert c == pytest.approx(1.0, abs=1e-10)

    def test_midpoint_bracketed_and_cross_checked(self):
        # direct numeric inversion of f_bar as the oracle for the reverted series
        pair = NormPair.from_ab(0.5, 0.5)
        c, finv, _ = compute_c_ab(pair, K=60)
        assert ASINH1 - 1e-12 < c < 1.0
        fser = f_bar(pair.a, pair.b, 60)
        assert np.array_equal(finv, revert(pair.a, pair.b, 60))
        for y in [0.1, 0.35, 0.6, 0.8]:
            lo, hi = 0.0, 0.95
            for _ in range(70):
                mid = 0.5 * (lo + hi)
                if evaluate(fser, mid) < y:
                    lo = mid
                else:
                    hi = mid
            assert evaluate(finv, y) == pytest.approx(lo, abs=1e-10)

    def test_monotone_in_a_and_b_M4(self):
        cs = []
        for a in [0.0, 0.25, 0.5, 0.75, 1.0]:
            c, _, _ = compute_c_ab(NormPair.from_ab(a, 0.3), K=60)
            cs.append(c)
        assert all(c2 >= c1 - 1e-10 for c1, c2 in zip(cs, cs[1:]))
        cs = []
        for b in [0.0, 0.25, 0.5, 0.75, 1.0]:
            c, _, _ = compute_c_ab(NormPair.from_ab(0.3, b), K=60)
            cs.append(c)
        assert all(c2 >= c1 - 1e-10 for c1, c2 in zip(cs, cs[1:]))

    def test_low_order_rejected(self):
        with pytest.raises(DomainError):
            compute_c_ab(NormPair(p=4.0, q=4.0 / 3.0), K=10)

    def test_bisection_stopped_at_the_tail_radius_is_named(self, growing_rows, monkeypatch):
        # the fitted tail is tiny below its radius 1/2 and inf from it on, so
        # the bisection stops there with hhat(c) far below 1
        monkeypatch.setattr(_kernels, "revert_odd_batch", growing_rows)
        with pytest.raises(CertificationError) as exc:
            compute_c_ab(NormPair(p=4.0, q=4.0 / 3.0), K=60)
        msg = str(exc.value)
        assert msg.startswith("bisection stopped at the fitted tail's radius, short of "
                              "hhat(c) = 1: c = 0.500000, hhat(c) = 0.5000, tail at c ")
        assert msg.endswith("fitted tail radius 0.500000")
        # hhat alone, with no tail to stop it, reaches 1 near the interval's end
        assert 0.99 < exc.value.uncertified < 1.0

    def test_certification_error_carries_uncertified_root(self):
        from pqnorm.errors import CertificationError

        with pytest.raises(CertificationError) as exc:
            compute_c_ab(NormPair.from_ab(0.5, 0.5), K=60, tol=1e-12)
        # the uncertified root is the plain hhat(c) = 1 solution
        assert 0.95 < exc.value.uncertified < 0.96

    def test_benchmark_pairs_pinned(self):
        # the two exponent pairs of the benchmark, bit for bit
        assert compute_c_ab(NormPair(p=math.inf, q=1.0))[0] == 0.8813735870195429
        assert compute_c_ab(NormPair(p=4.0, q=4.0 / 3.0))[0] == 0.9306206617000219

    def test_certified_lower_bound_on_grid(self):
        # c_ab >= asinh(1)/1.00863 everywhere on [0, 1]^2
        floor = ASINH1 / 1.00863
        for a in np.linspace(0.0, 1.0, 11):
            for b in np.linspace(0.0, 1.0, 11):
                c, _, _ = compute_c_ab(NormPair.from_ab(a, b), K=60)
                assert c >= floor - 1e-4, (a, b, c)


class TestApproxRatio:
    def test_grothendieck_ratio(self):
        rep = approx_ratio(NormPair(p=math.inf, q=1.0))
        assert rep.ratio == pytest.approx(math.pi / (2.0 * math.log(1.0 + math.sqrt(2.0))), abs=1e-6)
        assert rep.krivine_ratio == pytest.approx(rep.ratio, abs=1e-6)

    def test_hilbertian_case(self):
        rep = approx_ratio(NormPair(p=2.0, q=2.0))
        assert rep.c_ab == pytest.approx(1.0, abs=1e-10)
        assert rep.ratio == pytest.approx(1.0, abs=1e-9)

    def test_p4_beats_krivine(self):
        rep = approx_ratio(NormPair(p=4.0, q=4.0 / 3.0))
        assert rep.ratio < rep.krivine_ratio
        assert rep.ratio < rep.steinberg_ratio

    def test_ratio_at_least_one_and_edge_formula(self):
        for a, b in [(0.0, 0.0), (0.4, 0.7), (1.0, 0.2), (0.6, 1.0)]:
            rep = approx_ratio(NormPair.from_ab(a, b))
            assert rep.ratio >= 1.0 - 1e-9
            if a == 1.0 or b == 1.0:
                from pqnorm.specfun import gaussian_moment

                direct = 1.0 / (gaussian_moment(rep.pair.p_star) * gaussian_moment(rep.pair.q))
                assert rep.ratio == pytest.approx(direct, rel=1e-9)

    def test_certified_report(self):
        # the report's c_ab lies above the pair's certified defect point, and
        # it carries the inverse series its c_ab was solved on
        pair = NormPair(p=math.inf, q=1.0)
        rep = approx_ratio(pair)
        cert = certify_defect(inverse_coeff_grid(([pair.a], [pair.b]), K=rep.K))
        assert cert.ok and cert.t_odd == 31
        assert rep.c_ab >= cert.rho_certified - 1e-12
        assert np.array_equal(rep.inverse, compute_c_ab(pair, K=rep.K)[1])
        assert approx_ratio(pair) == rep  # the array field stays out of ==

    def test_steinberg_infinite_branches(self):
        assert math.isinf(steinberg_ratio(NormPair(p=math.inf, q=1.0)))
        # p = inf, q = 2: first branch infinite, second finite
        val = steinberg_ratio(NormPair(p=math.inf, q=2.0))
        assert math.isfinite(val)


class TestConditions:
    def test_small_grid_passes(self):
        rep = check_conditions(inverse_coeff_grid(21, K=60))
        assert rep.all_pass
        ks = [m.k for m in rep.margins]
        assert ks == list(range(1, 30, 2))

    def test_sin_margins_at_origin(self):
        rep = check_conditions(inverse_coeff_grid(([0.0], [0.0]), K=60))
        by_k = {m.k: m for m in rep.margins}
        # k=5: f^{-1}_5 = 1/120, C1 at equality
        assert abs(by_k[5].worst_margin) < 1e-12
        # k=3: f^{-1}_3 = -1/6, C2 margin 1/6
        assert by_k[3].worst_margin == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_kmax_validation(self):
        # the conditions run to k = 29: order 29 keeps that degree, order 28
        # stops at 27, and the error names both
        assert check_conditions(inverse_coeff_grid(5, K=29)).margins[-1].k == 29
        with pytest.raises(DomainError, match=r"need order K >= 29, .* stop at degree 27$"):
            check_conditions(inverse_coeff_grid(5, K=28))


class TestDefectCertificate:
    def test_certificate_on_coarse_grid(self):
        cert = certify_defect(inverse_coeff_grid(31, K=60))
        assert cert.ok and cert.conditions.all_pass
        assert cert.h_err_max <= 0.0129
        assert cert.rho_certified >= math.asinh(0.974202) - 1e-9
        assert cert.hhat_at_rho_max <= 1.0 + 1e-9

    def test_trivial_at_a_equal_one(self):
        cert = certify_defect(inverse_coeff_grid(([1.0], [0.5]), K=60))
        assert cert.ok
        assert cert.h_err_max == 0.0
        assert cert.rho_certified == pytest.approx(math.asinh(0.974203), abs=1e-12)

    def test_large_h_err_is_no_certificate(self):
        # a finite h_err >= 1/2 puts asinh(1 - 2 h_err) at -1.246, where
        # hhat is negative too: no certificate, and radius 0
        G = np.zeros((1, 30))
        G[0, 0] = 1.0
        G[0, 15:] = 200.0 * 0.9 ** np.arange(15, 30)
        cert = certify_defect(CoeffGrid(np.zeros(1), np.zeros(1), G))
        assert 0.5 <= cert.h_err_max < math.inf
        assert not cert.ok
        assert cert.rho_certified == 0.0 and cert.hhat_at_rho_max == 0.0

    def test_divergent_tail_fails_with_finite_radius(self, growing_rows, monkeypatch):
        # where the fitted tail diverges at delta the certificate fails at
        # radius 0 instead of evaluating hhat at -inf; the other points keep
        # their hhat below 1
        revert = _kernels.revert_odd_batch

        def diverging_past_half(a, b, M):
            return np.where((np.asarray(a) > 0.5)[:, None], growing_rows(a, b, M), revert(a, b, M))

        monkeypatch.setattr(_kernels, "revert_odd_batch", diverging_past_half)
        cert = certify_defect(inverse_coeff_grid(21, K=60))
        assert not cert.ok and cert.h_err_max >= 0.5
        assert cert.rho_certified == 0.0
        assert 0.0 <= cert.hhat_at_rho_max <= 1.0

    def test_hhat_at_certified_point(self):
        x0 = ASINH1 / 1.00863
        worst = hhat_grid_max(inverse_coeff_grid(31, K=60), x0)
        assert worst <= 1.0 + 1e-9
        # extremal point is the Grothendieck corner where hhat = sinh
        assert worst == pytest.approx(math.sinh(x0), abs=1e-9)

    def test_batched_grid_matches_series_path(self):
        # the batched kernel route and the single-series route agree on hhat
        x0 = 0.7
        pts = (np.array([0.0, 0.3, 0.85]), np.array([0.6, 0.1, 0.85]))
        a, b, G = inverse_coeff_grid(pts, K=60)
        for i in range(a.size):
            h = np.abs(revert(a[i], b[i], 60))
            direct = evaluate(h, x0)
            batched = x0 * np.polynomial.polynomial.polyval(x0 * x0, np.abs(G[i]))
            assert batched == pytest.approx(direct, abs=1e-14)


class TestOddHorner:
    """The one odd Horner equals the per-entry scalar loop bit for bit."""

    @staticmethod
    def scalar(coeffs, x):
        w = x * x
        acc = 0.0
        for c in coeffs[::-1]:
            acc = acc * w + c
        return x * acc

    def test_one_vector_against_a_matrix(self):
        rng = np.random.default_rng(4)
        g = rng.uniform(-1.0, 1.0, 30) * 0.7 ** np.arange(30)
        X = rng.uniform(-1.0, 1.0, (7, 9))
        got = odd_horner(g, X)
        assert got.shape == X.shape
        ref = np.array([[self.scalar(g, float(x)) for x in row] for row in X])
        assert np.array_equal(got, ref)

    def test_grid_rows_against_per_row_and_scalar_x(self):
        absG = np.abs(inverse_coeff_grid(7, K=60).G)
        rho = np.linspace(0.1, 0.9, absG.shape[0])
        got = odd_horner(absG, rho)
        assert np.array_equal(got, [self.scalar(row, float(r)) for row, r in zip(absG, rho)])
        got = odd_horner(absG, 0.7)
        assert np.array_equal(got, [self.scalar(row, 0.7) for row in absG])


def odd_tail_reference(absG, x):
    """The per-row loop form of the odd tail fit, as a reference."""
    B, Mp1 = absG.shape
    M = Mp1 - 1
    top = np.max(absG, axis=1)
    thresh = 1e-14 * np.maximum(top, 1e-300)
    sig = absG >= thresh[:, None]
    tails = np.zeros(B)
    for r in range(B):
        idx = np.flatnonzero(sig[r])
        if idx.size < 2:
            continue
        idx = idx[-10:]
        vals = absG[r, idx]
        ratios = (vals[1:] / vals[:-1]) ** (1.0 / np.diff(idx))
        rw = float(np.max(ratios)) * x * x
        if rw >= 1.0:
            tails[r] = math.inf
            continue
        m_last = int(idx[-1])
        tails[r] = vals[-1] * x ** (2 * m_last + 1) * rw ** (M + 1 - m_last) / (1.0 - rw)
    return tails


class TestCoeffGrid:
    @pytest.fixture(scope="class")
    def grid21(self):
        return inverse_coeff_grid(21, K=60)

    def test_tuple_compatible(self, grid21):
        assert isinstance(grid21, CoeffGrid)
        a, b, G = grid21
        assert grid21[0].size == a.size == b.size == G.shape[0] == 231  # 21 * 22 / 2
        assert G.shape[1] == 30

    @pytest.mark.parametrize("x", [math.asinh(0.974203), 0.5, 1.2])
    def test_vectorised_tail_matches_loop(self, grid21, x):
        absG = np.abs(grid21.G)
        ref = odd_tail_reference(absG, x)
        got = odd_tail(absG, x)
        assert np.array_equal(np.isinf(got), np.isinf(ref))
        assert np.array_equal(got == 0.0, ref == 0.0)
        # the b = 1 rows (a = 1 only at b = 1 in the a <= b triangle) have
        # fewer than two significant entries
        assert np.count_nonzero(ref == 0.0) == 21
        assert np.count_nonzero(np.isinf(ref)) == (158 if x == 1.2 else 0)
        fit = np.isfinite(ref) & (ref != 0.0)
        assert np.all(np.abs(got[fit] - ref[fit]) <= 1e-15 * ref[fit])

    def test_vectorised_tail_on_synthetic_rows(self):
        decay = 0.5 ** np.arange(15.0)
        rows = np.array([
            decay,
            np.where(np.arange(15) >= 6, 1.8, 1.0) * decay,  # gap 5 -> 6 has ratio 0.9
            np.where(np.arange(15) % 3 == 1, 0.0, decay),  # gaps across zeros
            np.where(np.arange(15) == 0, 1.0, 1e-20),  # one significant entry
            np.zeros(15),
        ])
        ref = odd_tail_reference(rows, 0.9)
        assert ref[3] == ref[4] == 0.0 and np.all(ref[:3] > 0)
        got = odd_tail(rows, 0.9)
        assert np.all(np.abs(got - ref) <= 1e-15 * ref)

    def test_precomputed_grid_gives_equal_reports(self, grid21):
        # a grid shared by several checks gives what a fresh reversion gives
        assert check_conditions(grid21) == check_conditions(inverse_coeff_grid(21, K=60))
        assert certify_defect(grid21) == certify_defect(inverse_coeff_grid(21, K=60))
        x0 = ASINH1 / 1.00863
        assert hhat_grid_max(grid21, x0) == hhat_grid_max(inverse_coeff_grid(21, K=60), x0)

    def test_explicit_points_match_the_int_grid(self):
        # the int grid is its a <= b triangle in row-major order: bit for
        # bit, the explicit reversion of the triu arrays
        for n in (1, 2, 3, 21, 101):
            cg = inverse_coeff_grid(n, K=60)
            vals = np.linspace(0.0, 1.0, n)
            i, j = np.triu_indices(n)
            assert np.array_equal(cg.a, vals[i])
            assert np.array_equal(cg.b, vals[j])
            assert np.array_equal(cg.G, inverse_coeff_grid((vals[i], vals[j]), K=60).G), n

    def test_int_grid_matches_the_full_reversion(self):
        # the mirror is exact: (a, b) and (b, a) revert to the same bits
        cg = inverse_coeff_grid(101, K=60)
        assert np.array_equal(inverse_coeff_grid((cg.b, cg.a), K=60).G, cg.G)

    @pytest.mark.parametrize("K", [60, 100])
    @pytest.mark.parametrize("n", [1, 2, 3, 21, 31, 101])
    def test_triangle_checks_equal_the_full_square(self, n, K):
        # every check on the a <= b triangle reports what it reports on the
        # explicit n x n square, down to the point of each worst margin
        vals = np.linspace(0.0, 1.0, n)
        tri = inverse_coeff_grid(n, K=K)
        full = inverse_coeff_grid((np.repeat(vals, n), np.tile(vals, n)), K=K)
        assert check_conditions(tri) == check_conditions(full)
        assert certify_defect(tri) == certify_defect(full)
        x0 = ASINH1 / 1.00863
        assert hhat_grid_max(tri, x0) == hhat_grid_max(full, x0)

    def test_explicit_points_are_reverted_as_given(self):
        one = inverse_coeff_grid((0.25, 0.5), K=60)
        assert one.a.shape == one.b.shape == (1,) and one.G.shape == (1, 30)
        assert np.array_equal(one.G, _kernels.revert_odd_batch([0.25], [0.5], 29))

    def test_unequal_shapes_are_domain_error(self):
        with pytest.raises(DomainError, match="shape"):
            inverse_coeff_grid((np.zeros(3), np.zeros(2)), K=60)

    @pytest.mark.parametrize("grid", [0, (np.zeros(0), np.zeros(0)), -3])
    def test_empty_grid_is_domain_error(self, grid):
        with pytest.raises(DomainError, match="grid .* has no points"):
            inverse_coeff_grid(grid, K=60)

    def test_order_below_one_is_domain_error(self):
        with pytest.raises(DomainError):
            inverse_coeff_grid(5, K=0)

    @pytest.mark.parametrize("n", [np.int64(5), np.uint8(5), np.int32(1)])
    def test_numpy_integer_is_the_int_grid(self, n):
        cg, ref = inverse_coeff_grid(n, K=60), inverse_coeff_grid(int(n), K=60)
        for got, want in zip(cg, ref):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("grid", [True, False, np.True_])
    def test_bool_grid_is_domain_error(self, grid):
        with pytest.raises(DomainError, match="not a grid size"):
            inverse_coeff_grid(grid, K=60)


def dual_pairs(ps):
    """The pairs (p, p*) of the CLI's default --q dual."""
    return [NormPair(p, dual_exponent(p)) for p in ps]


class TestSweep:
    @pytest.mark.parametrize("q_rule,q_fixed,hi", [("dual", None, 100.0), ("fixed", 1.5, 32.0)])
    def test_rows_equal_single_pair_solves(self, q_rule, q_fixed, hi):
        # the default sweep and --q 1.5 on 2:32: one batched solve gives
        # every row what the one-row solve gives its pair, bit for bit
        ps = list(np.geomspace(2.0, hi, 101)) + [math.inf]
        pairs = dual_pairs(ps) if q_rule == "dual" else [NormPair(p, q_fixed) for p in ps]
        reports = bounds_sweep(pairs)
        assert [rep.pair.p for rep in reports] == ps
        for rep in reports:
            c, g, tail = compute_c_ab(rep.pair)
            assert rep.c_ab == c and rep.tail_bound == tail
            assert np.array_equal(rep.inverse, g)
            assert rep == approx_ratio(rep.pair)

    def test_one_reversion_for_all_pairs(self, monkeypatch):
        rows = []
        revert_batch = _kernels.revert_odd_batch

        def counting(a, b, M):
            rows.append(np.size(a))
            return revert_batch(a, b, M)

        monkeypatch.setattr(_kernels, "revert_odd_batch", counting)
        bounds_sweep(dual_pairs([2.0, 4.0, 8.0, math.inf]))
        assert rows == [4]

    def test_first_uncertified_pair_raises(self):
        # at tol 1e-9 the tails of p = 8 (4e-15) pass, those of p = 3
        # (1.2e-7) and 2.5 (5e-6) do not: the error is p = 3's
        with pytest.raises(CertificationError) as exc:
            bounds_sweep(dual_pairs([8.0, 3.0, 2.5, 16.0]), tol=1e-9)
        with pytest.raises(CertificationError) as one:
            compute_c_ab(NormPair(p=3.0, q=1.5), tol=1e-9)
        assert str(exc.value) == str(one.value)
        assert "1.209e-07" in str(exc.value)
        assert exc.value.uncertified == one.value.uncertified
        assert 0.95 < exc.value.uncertified < 0.96

    def test_empty_sweep(self):
        assert bounds_sweep([]) == []


    def test_figure_slice(self):
        ps = [2.0, 4.0, 8.0, 32.0, 64.0, math.inf]
        reports = bounds_sweep(dual_pairs(ps), K=60)
        for rep in reports:
            if 4.0 <= rep.pair.p <= 66.0:
                assert rep.ratio < rep.krivine_ratio
        last = reports[-1]
        assert last.ratio == pytest.approx(KRIVINE_RATIO, abs=1e-6)
        assert last.ratio < last.steinberg_ratio


class TestInverseAccuracy:
    """The inverse coefficients against 40-digit Lagrange inversion and
    closed forms, and c_ab as the order grows."""

    def test_against_mpmath_on_the_grid_and_at_order_200(self):
        # absolute, on the 11 x 11 grid at K 60 (both orientations of each
        # pair against one reference) and at four interior dyadic points at
        # K 200, where float noise that grows with the degree would show
        vals = np.linspace(0.0, 1.0, 11)
        i, j = np.tril_indices(11)
        cases = [(vals[i], vals[j], 60), (np.array([0.25, 0.5, 0.125, 0.75]),
                                          np.array([0.75, 0.5, 0.375, 0.5]), 200)]
        for a, b, K in cases:
            ref = np.array([list(mp_inverse_coeffs(x, y, K - 1).values()) for x, y in zip(a, b)])
            for pair in ((a, b), (b, a)):
                assert np.max(np.abs(inverse_coeff_grid(pair, K).G - ref)) <= 1e-16, K

    def test_sine_at_the_origin(self):
        # f_bar is arcsin at a = b = 0: the inverse is sin at every order
        for K in (60, 200, 400, 1000):
            G = inverse_coeff_grid(([0.0], [0.0]), K).G[0]
            ref = np.array([(-1) ** m / math.factorial(2 * m + 1) for m in range(G.size)])
            assert np.max(np.abs(G - ref)) <= 1e-16, K

    def test_mirrored_points_have_the_same_bits(self):
        a, b = np.meshgrid(np.linspace(0.0, 1.0, 21), np.linspace(0.0, 1.0, 21))
        for K in (60, 200):
            assert np.array_equal(inverse_coeff_grid((a, b), K).G, inverse_coeff_grid((b, a), K).G)

    def test_c_ab_never_falls_as_the_order_grows(self):
        # each order certifies, and the terms that replace the fitted tail
        # as K grows weigh no more than it: the root of hhat + tail = 1
        # never moves down
        for p, q in [(math.inf, 1.0), (4.0, 4.0 / 3.0), (3.0, 1.5)]:
            cs = [compute_c_ab(NormPair(p, q), K)[0] for K in (60, 100, 200, 300, 400)]
            assert cs == sorted(cs), (p, q)
        # Grothendieck's case, hhat = sinh: within 2 ulp of asinh(1) at K 400
        assert abs(compute_c_ab(NormPair(math.inf, 1.0), 400)[0] - ASINH1) <= 2 * math.ulp(ASINH1)
