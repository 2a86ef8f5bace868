"""Acceptance suite: every criterion runs at its stated tolerance.

Each test prints one PASS line (visible under ``pytest -s``); under
``pytest -v`` the per-test PASSED/FAILED report is the per-criterion line.
"""

import math
import time

import numpy as np

from pqnorm import krivine, series
from pqnorm.factorization import build_certificate, solve_dual
from pqnorm.krivine import NormPair, approx_ratio, certify_defect, check_conditions, compute_c_ab
from pqnorm.oracles import beta_bound_expression, contour_magnitude_check, hermite_coeff_check
from pqnorm.relaxation import ProblemInstance, brute_force_norm, solve_cp
from pqnorm.rounding import build_transformed_gram, sample_round

ASINH1 = math.asinh(1.0)


def _report(num, text):
    print(f"ACCEPTANCE {num:>2}: PASS - {text}")


def arcsin_taylor_coeffs(K):
    """Independent closed form C(2m,m)/(4^m (2m+1)) for the odd coefficients."""
    c = np.zeros(K + 1)
    central = 1.0
    for m in range(0, (K - 1) // 2 + 1):
        c[2 * m + 1] = central / (2 * m + 1)
        central *= (2 * m + 1) / (2 * m + 2)
    return c


def test_criterion_01_arcsin_anchor():
    """f_bar at a = b = 0 is the arcsin series, checked at K = 200.

    At |rho| <= 0.9 the truncation tail is below 1e-12 and the comparison
    runs against the closed form; at rho = +-0.99 the analytic tail of any
    degree-200 truncation is ~1.2e-3, so there the comparison runs against
    the degree-matched Taylor polynomial built from the independent
    binomial closed form.
    """
    t0 = time.perf_counter()
    K = 200
    s = krivine.f_bar_w_coeffs(0.0, 0.0, (K - 1) // 2)
    ref_poly = arcsin_taylor_coeffs(K)
    worst = 0.0
    for rho in [-0.99] + [x / 10.0 for x in range(-9, 10)] + [0.99]:
        val = float(series.odd_horner(s, rho))
        ref = float(np.polynomial.polynomial.polyval(rho, ref_poly))
        worst = max(worst, abs(val - ref))
        if abs(rho) <= 0.9:
            worst = max(worst, abs(val - math.asin(rho)))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 1.0
    _report(1, f"max deviation {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_grothendieck_constant():
    c, _, _ = compute_c_ab(NormPair(p=math.inf, q=1.0), K=60)
    assert abs(c - math.log(1.0 + math.sqrt(2.0))) < 1e-8
    _report(2, f"c(0,0) = {c:.10f} vs ln(1+sqrt 2) = {math.log(1+math.sqrt(2)):.10f}")


def test_criterion_03_grothendieck_ratio():
    rep = approx_ratio(NormPair(p=math.inf, q=1.0), K=60)
    ref = math.pi / (2.0 * math.log(1.0 + math.sqrt(2.0)))
    assert abs(rep.ratio - ref) < 1e-6
    _report(3, f"ratio = {rep.ratio:.8f} vs pi/(2 ln(1+sqrt 2)) = {ref:.8f}")


def test_criterion_04_defect_certification():
    t0 = time.perf_counter()
    cg = krivine.inverse_coeff_grid(101, K=60)
    cert = certify_defect(cg, t_odd=31)
    assert cert.conditions_ok and cert.ok
    assert cert.h_err_max <= 0.0129
    x0 = ASINH1 / 1.00863
    worst = krivine.hhat_grid_max(cg, x0)
    elapsed = time.perf_counter() - t0
    assert worst <= 1.0 + 1e-9
    assert elapsed < 60.0
    _report(4, f"h_err <= {cert.h_err_max:.3e}, max hhat({x0:.6f}) = {worst:.6f}, "
               f"{elapsed:.1f} s")


def test_criterion_05_conditions_grid():
    t0 = time.perf_counter()
    rep = check_conditions(krivine.inverse_coeff_grid(101, K=60), k_max=29)
    assert rep.all_pass
    origin = check_conditions(krivine.inverse_coeff_grid(([0.0], [0.0]), K=60), k_max=29)
    worst_eq = max(abs(m.worst_margin) for m in origin.margins if m.kind == "C1")
    elapsed = time.perf_counter() - t0
    assert worst_eq < 1e-12
    assert elapsed < 60.0
    _report(5, f"all odd k <= 29 pass on 101x101; C1 equality margin at origin "
               f"{worst_eq:.1e}, {elapsed:.1f} s")


def test_criterion_06_monte_carlo_identities(mc_f_ab):
    t0 = time.perf_counter()
    worst = 0.0
    for i, a in enumerate((0.0, 0.3, 0.7, 1.0)):
        for j, b in enumerate((0.0, 0.3, 0.7, 1.0)):
            for rho in (0.2, 0.5, 0.8):
                res = mc_f_ab(a, b, rho, N=10**6, seed=1000 + 16 * i + j)
                worst = max(worst, res.sigmas)
                assert res.sigmas <= 4.0, res.target
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(6, f"48 Monte-Carlo checks at N=1e6, worst {worst:.2f} sigma, {elapsed:.1f} s")


def test_criterion_07_hermite_quadrature():
    worst_odd = worst_even = 0.0
    for c in (0.0, 0.3, 0.7, 1.0):
        for res in hermite_coeff_check(c, 15):
            k = int(res.target.rsplit("=", 1)[1].rstrip(")"))
            if k % 2 == 0:
                worst_even = max(worst_even, abs(res.estimate))
            else:
                worst_odd = max(worst_odd, abs(res.estimate - res.reference))
    assert worst_odd < 1e-6
    assert worst_even < 1e-8
    _report(7, f"odd-coefficient deviation {worst_odd:.1e}, even residue {worst_even:.1e}")


def test_criterion_08_rounding_sandwich():
    t0 = time.perf_counter()
    pairs = [NormPair(math.inf, 1.0), NormPair(4.0, 4.0 / 3.0), NormPair(2.0, 2.0)]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=2024, spawn_key=(8,)))
    mats = [rng.standard_normal((10, 8)) for _ in range(20)]
    reports = {id(p): approx_ratio(p, K=60) for p in pairs}
    for pair in pairs:
        for k, A in enumerate(mats):
            inst = ProblemInstance(A, pair)
            sol = solve_cp(inst, seed=k)
            bf = brute_force_norm(inst, seed=k)
            assert sol.value >= bf - 1e-6, (pair.p, k)
            rep = reports[id(pair)]
            tg = build_transformed_gram(sol, pair, rep.c_ab, rep.inverse)
            rs = sample_round(inst, tg, num_samples=10_000, seed=k)
            lo = sol.value / rep.ratio * 0.95
            assert rs.value >= lo, (pair.p, k, rs.value, lo)
            assert rs.value <= bf + 1e-6, (pair.p, k, rs.value, bf)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(8, f"60 pipelines sandwiched, {elapsed:.1f} s")


def test_criterion_09_numerator_identity(rounding_moments):
    worst = 0.0
    for seed, pair in enumerate([NormPair(math.inf, 1.0), NormPair(4.0, 4.0 / 3.0)]):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=77, spawn_key=(seed,)))
        for rep in range(3):
            A = rng.standard_normal((5, 4))
            inst = ProblemInstance(A, pair)
            sol = solve_cp(inst, seed=rep)
            c, g, _ = compute_c_ab(pair, K=60)
            tg = build_transformed_gram(sol, pair, c, g)
            stats = rounding_moments(tg, sol, num_samples=10**5, seed=31 * seed + rep)
            worst = max(worst, stats.numerator_max_sigmas)
            assert stats.numerator_max_sigmas <= 4.0, (pair.p, rep)
    _report(9, f"entrywise numerator identity holds, worst {worst:.2f} sigma")


def test_criterion_10_contour_suite():
    worst_arc = math.inf
    for a in (0.0, 0.25, 0.5, 0.75, 0.95):
        for b in (0.0, 0.25, 0.5, 0.75, 0.95):
            rep = contour_magnitude_check(a, b, alpha=6.0, samples=25)
            worst_arc = min(worst_arc, rep.min_arc)
            assert rep.min_arc > 1.0, (a, b)
    beta_min = min(beta_bound_expression(b) for b in np.linspace(0.0, 0.999, 201))
    assert beta_min >= 1.003
    _report(10, f"arc |F| minimum {worst_arc:.4f} > 1, beta expression >= {beta_min:.4f}")


def test_criterion_11_factorization():
    pair = NormPair(4.0, 4.0 / 3.0)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=11, spawn_key=(0xFA,)))
    worst_gap = 0.0
    for i in range(10):
        A = rng.standard_normal((6, 5))
        inst = ProblemInstance(A, pair)
        primal = solve_cp(inst, seed=i)
        dual = solve_dual(inst, primal=primal)
        cert = build_certificate(inst, dual.s, dual.t)
        gap = cert.dual_value - primal.value
        worst_gap = max(worst_gap, gap / cert.dual_value)
        assert cert.reconstruction_error < 1e-8, i
        assert cert.spectral_norm_B <= 1.0 + 1e-6, i
        assert cert.norm_product <= cert.dual_value + 1e-6, i
        assert 0.0 <= gap <= 1e-4 * cert.dual_value, i
    _report(11, f"10 certificates valid, worst relative gap {worst_gap:.2e}")


def test_criterion_12_figure_slice():
    ps = [4.0, 5.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0, 66.0]
    reports = krivine.bounds_sweep([NormPair(p, krivine.dual_exponent(p)) for p in ps], K=60)
    for rep in reports:
        assert rep.ratio < rep.krivine_ratio, rep.pair.p
    far = [NormPair(p, krivine.dual_exponent(p)) for p in (100.0, 1000.0)]
    near_inf = krivine.bounds_sweep(far, K=60)
    for rep in near_inf:
        assert rep.ratio < rep.steinberg_ratio, rep.pair.p
    _report(12, "ratio below Krivine's on sampled p in [4, 66]; below Steinberg's near inf")
