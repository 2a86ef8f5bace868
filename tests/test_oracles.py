import math

import mpmath
import numpy as np
import pytest

from pqnorm.errors import AccuracyError, DomainError
from pqnorm.krivine import NormPair, f_bar_w_coeffs, inverse_coeff_grid
from pqnorm.oracles import (
    beta_bound_expression,
    contour_inverse_coeff,
    contour_magnitude_check,
    correlation_reference,
    hermite_coeff_check,
    hermite_coeff_numeric,
    hermite_coeff_reference,
    noise_correlation_crosscheck,
    polar_f_ab,
)
from pqnorm.series import odd_horner
from pqnorm.specfun import gaussian_moment_pow

LATTICE = (0.0, 0.3, 0.7, 1.0)


class TestMonteCarloCorrelation:
    def test_grothendieck_identity_value(self, mc_f_ab):
        # (2/pi) arcsin(1/2) = 1/3
        assert correlation_reference(0.0, 0.0, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-12)
        res = mc_f_ab(0.0, 0.0, 0.5, N=200_000, seed=1)
        assert res.sigmas <= 4.0

    def test_zero_correlation(self, mc_f_ab):
        res = mc_f_ab(0.4, 0.8, 0.0, N=50_000, seed=2)
        assert res.reference == 0.0
        assert abs(res.estimate) <= 4.0 * res.std_error

    def test_generic_point_cross_checked_by_quadrature(self, mc_f_ab):
        # 2-d Gaussian quadrature as a second independent oracle; each level
        # splits at the sign change of its integrand to recover accuracy
        from scipy import integrate

        a, b, rho = 0.3, 0.7, 0.6
        root = math.sqrt(1.0 - rho * rho)

        def inner(g2):
            f = lambda g3: math.copysign(abs(rho * g2 + root * g3) ** a, rho * g2 + root * g3) \
                * math.exp(-g3 * g3 / 2.0)
            cut = -rho * g2 / root
            v1, _ = integrate.quad(f, -40.0, cut, limit=200)
            v2, _ = integrate.quad(f, cut, 40.0, limit=200)
            return (v1 + v2) / math.sqrt(2.0 * math.pi)

        outer = lambda g2: math.copysign(abs(g2) ** b, g2) * inner(g2) \
            * math.exp(-g2 * g2 / 2.0) / math.sqrt(2.0 * math.pi)
        lo, _ = integrate.quad(outer, -40.0, 0.0, limit=200)
        hi, _ = integrate.quad(outer, 0.0, 40.0, limit=200)
        ref = correlation_reference(a, b, rho)
        assert lo + hi == pytest.approx(ref, abs=1e-10)
        res = mc_f_ab(a, b, rho, N=10**6, seed=3)
        assert res.sigmas <= 4.0

    def test_lattice_at_4_sigma(self, mc_f_ab):
        # rho = 0.99 is past where the cut series of correlation_reference
        # raises AccuracyError; the polar reference holds there
        for i, (a, b) in enumerate([(0.0, 0.3), (0.7, 1.0), (1.0, 1.0), (0.3, 0.7)]):
            for rho in (0.2, 0.8, 0.99):
                res = mc_f_ab(a, b, rho, N=100_000, seed=100 + i)
                assert res.sigmas <= 4.0, res.target

    def test_input_validation(self, mc_f_ab):
        with pytest.raises(DomainError):
            mc_f_ab(0.2, 0.2, 0.5, N=100)
        with pytest.raises(DomainError):
            mc_f_ab(0.2, 0.2, 1.5, N=10**4)


class TestCorrelationReference:
    @pytest.mark.parametrize("rho", [0.95, 0.99, -0.99, 0.999])
    def test_cut_tail_past_1e13_is_accuracy_error(self, rho):
        # at a = b = 0 the normalised series is arcsin(rho); the bound on the
        # cut tail must cover what the K = 400 partial sum misses of it
        with pytest.raises(AccuracyError, match="tail") as exc:
            correlation_reference(0.0, 0.0, rho)
        assert abs(exc.value.achieved - math.asin(rho)) <= exc.value.error_estimate
        assert exc.value.error_estimate > 1e-13 * abs(exc.value.achieved)

    def test_lattice_keeps_the_series_value(self):
        # up to rho = 0.8 the check passes and leaves the K = 400 value alone
        for a in LATTICE:
            for b in LATTICE:
                pair = NormPair.from_ab(a, b)
                F = f_bar_w_coeffs(pair.a, pair.b, 199)
                for rho in (0.2, 0.5, 0.8, -0.8):
                    series = gaussian_moment_pow(a + 1.0) * gaussian_moment_pow(b + 1.0) \
                        * float(odd_horner(F, rho))
                    assert correlation_reference(a, b, rho) == series, (a, b, rho)
        assert correlation_reference(0.0, 0.0, 0.8) == pytest.approx(
            2.0 / math.pi * math.asin(0.8), abs=1e-15)


class TestPolarCorrelation:
    @pytest.mark.parametrize("rho", [0.2, 0.5, 0.8, 0.0, -0.5, -0.8])
    def test_lattice_matches_closed_form(self, rho):
        for a in LATTICE:
            for b in LATTICE:
                est = polar_f_ab(a, b, rho)
                assert abs(est - correlation_reference(a, b, rho)) <= 1e-12, (a, b)

    def test_generic_point_of_the_2d_quadrature_check(self):
        # the point test_generic_point_cross_checked_by_quadrature pins with quad
        assert abs(polar_f_ab(0.3, 0.7, 0.6) - correlation_reference(0.3, 0.7, 0.6)) <= 1e-12

    def test_grothendieck_identity_and_symmetry(self):
        # (2/pi) arcsin(rho) at a = b = 0, and odd in rho
        assert polar_f_ab(0.0, 0.0, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert polar_f_ab(0.3, 0.7, -0.4) == pytest.approx(-polar_f_ab(0.3, 0.7, 0.4),
                                                          abs=1e-15)

    def test_full_correlation_is_the_absolute_moment(self):
        # g1 = +-g2: +-E|g|^{a+b}, and E|g| = sqrt(2/pi)
        assert polar_f_ab(0.3, 0.7, 1.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)
        assert polar_f_ab(0.0, 0.0, -1.0) == -1.0

    @pytest.mark.parametrize("rho", [0.99, 0.999, -0.999])
    def test_near_full_correlation_against_mpmath(self, rho):
        # correlation_reference truncates its series too early here
        for a in LATTICE:
            for b in LATTICE:
                ref = (math.gamma(1.0 + a / 2.0) * math.gamma(1.0 + b / 2.0)
                       * 2.0 ** ((a + b) / 2.0 + 1.0) / math.pi
                       * rho * float(mpmath.hyp2f1((1 - a) / 2, (1 - b) / 2, 1.5, rho * rho)))
                assert abs(polar_f_ab(a, b, rho) - ref) <= 1e-12 * abs(ref), (a, b)

    @pytest.mark.parametrize("rho", [1.5, -1.0000001, math.nan])
    def test_correlation_outside_unit_interval_is_a_domain_error(self, rho):
        with pytest.raises(DomainError, match="correlation"):
            polar_f_ab(0.2, 0.2, rho)


class TestGaussLaguerre:
    @pytest.mark.parametrize("c", LATTICE)
    def test_hermite_coefficients_to_1e12_up_to_k_35(self, c):
        for k in range(36):
            val, err = hermite_coeff_numeric(c, k)
            assert abs(val - hermite_coeff_reference(c, k)) <= 1e-12, k
            assert err <= 1e-12, k


class TestHermite:
    def test_identity_function_is_h1(self):
        res = {r.target: r for r in hermite_coeff_check(1.0, 7)}
        assert res["hermite(c=1,k=1)"].estimate == pytest.approx(1.0, abs=1e-10)
        for k in (3, 5, 7):
            assert abs(res[f"hermite(c=1,k={k})"].estimate) < 1e-8

    def test_sign_function_first_coefficient(self):
        # direct integral 2 int_0^inf tau dgamma = sqrt(2/pi)
        val, _ = hermite_coeff_numeric(0.0, 1)
        assert val == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-10)

    def test_even_coefficients_vanish(self):
        for c in (0.0, 0.5, 1.0):
            for k in range(0, 15, 2):
                val, _ = hermite_coeff_numeric(c, k)
                assert abs(val) < 1e-8

    def test_quadrature_matches_formula_to_1e6(self):
        for c in (0.0, 0.3, 0.7, 1.0):
            for r in hermite_coeff_check(c, 15):
                assert r.estimate == pytest.approx(r.reference, abs=1e-6)

    def test_reference_normalization(self):
        # hat f_1 for c = 0 is gamma_1^1 = sqrt(2/pi)
        assert hermite_coeff_reference(0.0, 1) == pytest.approx(math.sqrt(2 / math.pi), rel=1e-13)
        assert hermite_coeff_reference(0.5, 2) == 0.0


class TestNoiseCorrelationCrosscheck:
    @pytest.mark.parametrize("a,b,rho", [(0.0, 0.0, 0.5), (0.3, 0.7, 0.8), (0.5, 0.5, 0.2)])
    def test_coefficient_product_series(self, a, b, rho):
        res = noise_correlation_crosscheck(a, b, rho)
        assert abs(res.estimate - res.reference) < 1e-5


class TestContourMagnitude:
    def test_arc_exceeds_one_at_radius_six(self):
        rep = contour_magnitude_check(0.0, 0.0, alpha=6.0, samples=40)
        assert rep.min_arc > 1.0
        assert rep.min_segment > 1.0

    def test_several_exponent_pairs(self):
        for a, b in [(0.25, 0.75), (0.9, 0.1), (0.5, 0.5)]:
            rep = contour_magnitude_check(a, b, alpha=6.0, samples=25)
            assert rep.min_magnitude > 1.0, (a, b)

    def test_beta_expression_bound(self):
        # stays above 1.003 across b in [0, 1)
        vals = [beta_bound_expression(b) for b in np.linspace(0.0, 0.999, 200)]
        assert min(vals) >= 1.003

    def test_radius_validation(self):
        with pytest.raises(DomainError):
            contour_magnitude_check(0.1, 0.1, alpha=0.5)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_radius_is_a_domain_error(self, alpha):
        # used to report nan minima with RuntimeWarnings
        with pytest.raises(DomainError, match="radius"):
            contour_magnitude_check(0.1, 0.1, alpha=alpha)

    @pytest.mark.parametrize("b", [0.0, 0.5, 0.95])
    def test_array_a_matches_scalar_calls(self, b):
        a = [0.0, 0.25, 0.5, 0.75, 0.95]
        reports = contour_magnitude_check(np.array(a), b, alpha=6.0, samples=25)
        assert isinstance(reports, list) and len(reports) == len(a)
        for a_i, rep in zip(a, reports):
            assert rep == contour_magnitude_check(a_i, b, alpha=6.0, samples=25)

    def test_array_a_with_skipped_points(self):
        reports = contour_magnitude_check(np.array([0.3, 0.6]), 0.3, eps=1e-24, samples=10)
        assert [r.skipped for r in reports] == [2, 2]
        assert reports[1] == contour_magnitude_check(0.6, 0.3, eps=1e-24, samples=10)

    @pytest.mark.parametrize("bad", [1.0, -0.5, math.nan])
    def test_array_a_with_one_bad_entry_raises(self, bad):
        with pytest.raises(DomainError):
            contour_magnitude_check(np.array([0.2, bad, 0.4]), 0.3, samples=10)

    def test_two_dimensional_a_is_a_domain_error(self):
        with pytest.raises(DomainError, match="1-D"):
            contour_magnitude_check(np.zeros((2, 2)), 0.3, samples=10)

    @pytest.mark.parametrize("samples", [0, 1])
    def test_too_few_samples_is_a_domain_error(self, samples):
        # samples = 0 used to report min_arc = min_segment = inf, read as a pass
        with pytest.raises(DomainError, match="samples"):
            contour_magnitude_check(0.3, 0.3, samples=samples)

    @pytest.mark.parametrize("eps", [-1e-4, 0.0, 1.0, 2.0])
    def test_eps_outside_unit_interval_is_a_domain_error(self, eps):
        with pytest.raises(DomainError, match="eps"):
            contour_magnitude_check(0.3, 0.3, eps=eps, samples=10)

    def test_points_on_the_rays_are_skipped(self):
        # at eps = 1e-24 the leg rises 1e-12 over its length, so its first two
        # points lie within the 1e-13 relative band of [1, inf)
        rep = contour_magnitude_check(0.3, 0.3, eps=1e-24, samples=10)
        assert rep.skipped == 2
        assert 1.0 < rep.min_segment < rep.min_arc < math.inf

    def test_leg_entirely_on_the_rays_is_a_domain_error(self):
        # at eps = 1e-30 every leg point (and the arc start) is on the rays:
        # 11 skipped, and a leg with nothing evaluated would check nothing
        with pytest.raises(DomainError, match="excluded rays"):
            contour_magnitude_check(0.3, 0.3, eps=1e-30, samples=10)


def test_observed_coefficient_decay_constant():
    # the certified tail analysis rests on |f^{-1}_k| <= 6.1831/(k (1+e)^k);
    # the observed products |f^{-1}_k| * k stay far inside that envelope
    from pqnorm.krivine import inverse_coeff_grid

    _, _, G = inverse_coeff_grid(41, K=60)
    ks = 2 * np.arange(G.shape[1]) + 1
    assert np.max(np.abs(G) * ks[None, :]) <= 6.1831


class TestContourInverseCoeff:
    def test_sin_coefficient(self):
        assert contour_inverse_coeff(0.0, 0.0, 3) == pytest.approx(-1.0 / 6.0, abs=1e-10)

    def test_identity_case_vanishes(self):
        assert abs(contour_inverse_coeff(1.0, 0.3, 3)) < 1e-12

    def test_matches_series_reversion(self):
        lattice = [(0.5, 0.5), (0.2, 0.8), (0.0, 0.6)]
        G = inverse_coeff_grid(tuple(zip(*lattice)), 31).G
        for (a, b), g in zip(lattice, G):
            for k in (3, 5, 7, 9):
                est = contour_inverse_coeff(a, b, k)
                assert est == pytest.approx(g[k // 2], abs=1e-6), (a, b, k)

    def test_large_k_instability_detected(self):
        with pytest.raises(AccuracyError):
            contour_inverse_coeff(0.0, 0.0, 15)

    def test_odd_only(self):
        with pytest.raises(DomainError):
            contour_inverse_coeff(0.2, 0.2, 4)
        with pytest.raises(DomainError):
            contour_inverse_coeff(0.2, 0.2, (3, 4, 5))

    @pytest.mark.parametrize("k", [-1, -3, 2.5, math.nan])
    def test_k_below_one_or_not_odd_is_a_domain_error(self, k):
        # k = -1 used to return -4.4e-18
        with pytest.raises(DomainError, match="odd k"):
            contour_inverse_coeff(0.2, 0.2, k)

    @pytest.mark.parametrize("nodes", [1, 2, 3])
    def test_too_few_nodes_is_a_domain_error(self, nodes):
        # nodes = 1 used to return 0.0: the halved check compared two zeros
        with pytest.raises(DomainError, match="nodes"):
            contour_inverse_coeff(0.2, 0.2, 3, nodes=nodes)

    @pytest.mark.parametrize("a,b", [(math.nan, 0.2), (1.5, 0.2), (-0.1, 0.2), (0.2, math.nan),
                                     (0.2, 1.5), (math.inf, 0.2)])
    def test_exponents_outside_unit_interval_are_a_domain_error(self, a, b):
        # a = nan or 1.5 used to return nan or 0.067
        with pytest.raises(DomainError, match="exponents"):
            contour_inverse_coeff(a, b, 3)

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.5, 0.5), (0.2, 0.8)])
    def test_sequence_of_k_matches_scalar_calls(self, a, b):
        ks = (3, 5, 7, 9)
        est = contour_inverse_coeff(a, b, ks)
        assert isinstance(est, list) and len(est) == len(ks)
        for k, e in zip(ks, est):
            assert e == contour_inverse_coeff(a, b, k)
        assert contour_inverse_coeff(a, b, [7]) == [contour_inverse_coeff(a, b, 7)]

    def test_instability_detected_for_any_k_of_a_sequence(self):
        with pytest.raises(AccuracyError, match="k=15"):
            contour_inverse_coeff(0.0, 0.0, (3, 15))
