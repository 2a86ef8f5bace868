import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from pqnorm import specfun
from pqnorm.errors import DomainError
from pqnorm.oracles import _contour_points
from pqnorm.specfun import (
    euler_continuation,
    gamma_fn,
    gaussian_moment,
    gaussian_moment_pow,
    hyp_coeffs,
    log_gamma,
)


def gamma_quadrature_oracle(x):
    """Independent oracle: the defining integral of Gamma."""
    val, _ = integrate.quad(lambda t: t ** (x - 1.0) * math.exp(-t), 0.0, np.inf, limit=200)
    return val


class TestGamma:
    def test_integer_values(self):
        assert gamma_fn(1.0) == 1.0
        assert gamma_fn(5.0) == 24.0

    def test_half_by_quadrature(self):
        # oracle gives 1.772453850905118 (= sqrt(pi) to quadrature accuracy)
        assert abs(gamma_quadrature_oracle(0.5) - math.sqrt(math.pi)) < 1e-9
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_twelve_digits_on_grid(self):
        # the quadrature oracle itself is good to ~1e-9 near the t=0
        # singularity; the stdlib gamma pins the final digits
        for x in [0.1, 0.37, 0.5, 1.5, 2.25, 7.77, 20.5, 101.25]:
            if x < 50:
                assert gamma_fn(x) == pytest.approx(gamma_quadrature_oracle(x), rel=1e-8)
            assert gamma_fn(x) == pytest.approx(math.gamma(x), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_fn(0.0)
        with pytest.raises(DomainError):
            gamma_fn(-1.3)

    @pytest.mark.parametrize("fn", [gamma_fn, log_gamma])
    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_is_domain_error(self, fn, x):
        with pytest.raises(DomainError, match="finite"):
            fn(x)

    @pytest.mark.parametrize("x", [171.7, 1e300, 1e307])
    def test_past_float_range_is_domain_error(self, x):
        # Gamma(171.6) ~ 1.6e308 is still in range; from about x = 2.5e305
        # on, the Lanczos form of log Gamma is inf as well
        assert gamma_fn(171.6) < math.inf
        with pytest.raises(DomainError, match="float64"):
            gamma_fn(x)


class TestGaussianMoment:
    def test_second_moment_is_one(self):
        assert gaussian_moment(2.0) == pytest.approx(1.0, abs=1e-14)

    def test_first_moment_monte_carlo(self):
        # E|g| estimated at N=1e7; seeded run sits 1.81 sigma from sqrt(2/pi)
        rng = np.random.default_rng(12345)
        g = np.abs(rng.standard_normal(10**7))
        se = g.std() / math.sqrt(g.size)
        assert abs(gaussian_moment(1.0) - g.mean()) < 4.0 * se
        assert gaussian_moment(1.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-13)

    def test_fourth_moment_by_recursion(self):
        # E g^(2m) = (2m-1) E g^(2m-2) gives E g^4 = 3
        e = 1.0
        for m in (2, 4):
            e *= m - 1
        assert e == 3.0
        assert gaussian_moment(4.0) == pytest.approx(e ** 0.25, rel=1e-13)

    def test_zero_limit_convention(self):
        assert gaussian_moment(0.0) == 1.0

    def test_monotone_in_r(self):
        # nondecreasing on r > 0 (power-mean inequality); the r = 0 value is
        # the fixed convention 1, which sits above the r -> 0+ limit
        # exp(E log|g|) = 0.6065..., so the grid starts at positive r
        rs = np.linspace(0.25, 12.0, 48)
        vals = [gaussian_moment(r) for r in rs]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))
        assert gaussian_moment(0.25) < gaussian_moment(0.0) == 1.0

    def test_no_overflow_for_large_r(self):
        assert 5.0 < gaussian_moment(1000.0) < 30.0

    @pytest.mark.parametrize("r", [1e306, 1e308])
    def test_finite_where_the_log_moment_overflows(self, r):
        # log E|g|^r is past float64 here, but the moment norm is sqrt(r/e)
        # up to terms of relative order log(r)/r
        assert gaussian_moment(r) == pytest.approx(math.sqrt(r / math.e), rel=1e-9)

    def test_log_moment_path_kept_below_overflow(self):
        logpow = 0.5e305 * math.log(2.0) - 0.5 * math.log(math.pi) + log_gamma(0.5e305 + 0.5)
        assert gaussian_moment(1e305) == math.exp(logpow / 1e305) == 1.9180183554163815e152

    @pytest.mark.parametrize("fn", [gaussian_moment, gaussian_moment_pow])
    @pytest.mark.parametrize("r", [math.inf, math.nan])
    def test_non_finite_is_domain_error(self, fn, r):
        with pytest.raises(DomainError, match="finite"):
            fn(r)

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 4.0 / 3.0, 2.0, 3.0, 4.0, 50.0, 400.0])
    def test_moment_and_power_match_the_log_formula(self, r):
        # both forms are exp of one log-moment, bit for bit
        logpow = (r / 2.0) * math.log(2.0) - 0.5 * math.log(math.pi) \
            + log_gamma((1.0 + r) / 2.0)
        assert gaussian_moment(r) == (1.0 if r == 0 else math.exp(logpow / r))
        if r == 0:
            assert gaussian_moment_pow(r) == 1.0
        elif r == 400.0:  # E|g|^400 ~ 1e433 lies beyond float range
            with pytest.raises(DomainError, match=r"r=400.*float64"):
                gaussian_moment_pow(r)
        else:
            assert gaussian_moment_pow(r) == math.exp(logpow)

    def test_largest_finite_power(self):
        # r = 300 stays finite (E|g|^300 ~ 3.75e306); r = 302 is past float range
        logpow = 150.0 * math.log(2.0) - 0.5 * math.log(math.pi) + log_gamma(150.5)
        assert gaussian_moment_pow(300.0) == math.exp(logpow)
        assert 3.7e306 < gaussian_moment_pow(300.0) < 3.8e306
        with pytest.raises(DomainError):
            gaussian_moment_pow(302.0)


class TestHypCoeffs:
    def test_arcsin_series(self):
        # oracle: arcsin(rho)/rho = 1 + rho^2/6 + 3 rho^4/40 + ...
        c = hyp_coeffs("2F1", (0.5, 0.5, 1.5), 2)
        assert np.allclose(c, [1.0, 1.0 / 6.0, 3.0 / 40.0], rtol=1e-15)

    def test_zero_upper_parameter(self):
        c = hyp_coeffs("2F1", (0.0, 0.7, 1.5), 6)
        assert c.shape == (7,) and c[0] == 1.0
        assert np.all(c[1:] == 0.0)

    def test_exp_series(self):
        c = hyp_coeffs("1F1", (1.0, 1.0), 3)
        assert np.allclose(c, [1.0, 1.0, 0.5, 1.0 / 6.0], rtol=1e-15)

    def test_nonnegative_for_positive_params(self):
        for params in [(0.5, 0.3, 1.5), (1.2, 2.0, 0.7), (0.01, 0.99, 3.2)]:
            assert np.all(hyp_coeffs("2F1", params, 30) >= 0.0)

    def test_bad_denominator(self):
        with pytest.raises(DomainError):
            hyp_coeffs("1F1", (0.5, -2.0), 4)
        with pytest.raises(DomainError):
            hyp_coeffs("2F1", (0.5, 0.5, 0.0), 4)


class TestEulerContinuation:
    def test_arcsin_anchor(self):
        # a = b = 0 reduces to arcsin
        val = euler_continuation(0.5, 0.0, 0.0)
        assert val == pytest.approx(math.asin(0.5), rel=1e-10)
        assert abs(val.imag) < 1e-12

    def test_zero(self):
        assert euler_continuation(0.0, 0.3, 0.7) == 0.0

    def test_large_imaginary_magnitude(self):
        # arcsin(6i) = i asinh(6), magnitude 2.4917798526449122 > 1
        val = euler_continuation(6j, 0.0, 0.0)
        assert abs(val) == pytest.approx(math.asinh(6.0), rel=1e-9)
        assert abs(val) > 1.0

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.3, 0.7), (0.9, 0.1), (0.5, 0.95)])
    def test_matches_series_on_real_interval(self, a, b):
        from pqnorm.krivine import f_bar_w_coeffs
        from pqnorm.series import evaluate

        s = f_bar_w_coeffs(a, b, 150)  # order 301
        for x in [-0.8, -0.3, 0.2, 0.6, 0.85]:
            ref = evaluate(s, x)
            val = euler_continuation(x, a, b)
            assert val.real == pytest.approx(ref, rel=2e-9, abs=1e-12)
            assert abs(val.imag) < 1e-10

    def test_conjugate_symmetry(self):
        for z in [0.4 + 0.3j, -2.0 + 1.5j, 0.1 - 5.0j]:
            lhs = euler_continuation(z.conjugate(), 0.3, 0.6)
            rhs = euler_continuation(z, 0.3, 0.6).conjugate()
            assert cmath.isclose(lhs, rhs, rel_tol=1e-10)

    def test_purely_imaginary_axis(self):
        for y in [0.5, 2.0, 6.0]:
            val = euler_continuation(1j * y, 0.25, 0.8)
            assert abs(val.real) < 1e-10 * max(1.0, abs(val))

    def test_excluded_rays(self):
        for z in [1.0, -1.0, 2.5, -7.0, 1.0000001]:
            with pytest.raises(DomainError):
                euler_continuation(z, 0.2, 0.2)

    def test_exponent_domain(self):
        with pytest.raises(DomainError):
            euler_continuation(0.5j, 1.0, 0.0)
        with pytest.raises(DomainError):
            euler_continuation(0.5j, 0.0, -0.1)


def hyp2f1_reference(z, a, b):
    """z * 2F1((1-a)/2, (1-b)/2; 3/2; z^2) in mpmath, principal branch."""
    return np.array([complex(zi * mpmath.hyp2f1((1 - a) / 2, (1 - b) / 2, 1.5, zi * zi))
                     for zi in np.ravel(z)]).reshape(np.shape(z))


class TestEulerContinuationArray:
    CONTOUR = np.concatenate(_contour_points(6.0, 1e-4, 25))  # the verify-contours points

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.0, 0.95), (0.5, 0.25), (0.95, 0.95)])
    def test_contour_points_against_mpmath(self, a, b):
        val = euler_continuation(self.CONTOUR, a, b)
        ref = hyp2f1_reference(self.CONTOUR, a, b)
        assert np.all(np.abs(val - ref) <= 1e-9 * np.abs(ref))

    def test_off_contour_points_against_mpmath(self):
        # large |z|, tiny |z|, and both sides of the real rays
        z = np.array([10j, 10 + 0.1j, 50j, 100 + 1j, 1e-8 + 1e-8j, -0.9999 + 1e-9j,
                      0.3 - 2.0j, -4.0 - 0.01j])
        for a, b in [(0.2, 0.9), (0.0, 0.999), (0.999, 0.0)]:
            val = euler_continuation(z, a, b)
            ref = hyp2f1_reference(z, a, b)
            assert np.all(np.abs(val - ref) <= 1e-9 * np.abs(ref)), (a, b)

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.95, 0.95), (0.3, 0.999)])
    def test_matches_scalar_calls(self, a, b):
        # the contour includes z = 1 - 1e-4, which goes through the quad fallback
        val = euler_continuation(self.CONTOUR, a, b)
        assert all(v == euler_continuation(z, a, b) for z, v in zip(self.CONTOUR, val))
        assert type(euler_continuation(self.CONTOUR[3], a, b)) is complex

    def test_shape_and_exact_zero(self):
        z = np.array([[0.0, 0.5j, -0.3 + 0.2j], [2.0 + 1.0j, 0.0, 0.1]])
        val = euler_continuation(z, 0.3, 0.6)
        assert isinstance(val, np.ndarray) and val.shape == z.shape
        assert val[0, 0] == 0.0 and val[1, 1] == 0.0
        assert euler_continuation(np.zeros((2, 0)), 0.3, 0.6).shape == (2, 0)
        assert euler_continuation(np.array(0.25j), 0.3, 0.6) == euler_continuation(0.25j, 0.3, 0.6)

    def test_conjugate_symmetry_on_a_batch(self):
        z = np.concatenate([self.CONTOUR, [0.4 + 0.3j, -2.0 + 1.5j, 0.1 - 5.0j]])
        lhs = euler_continuation(z.conj(), 0.3, 0.6)
        rhs = euler_continuation(z, 0.3, 0.6).conj()
        assert np.all(np.abs(lhs - rhs) <= 1e-10 * np.abs(rhs))

    @pytest.mark.parametrize("bad", [1.0, -7.0, 2.5 + 1e-14j, 1.0000001])
    def test_any_excluded_point_raises(self, bad):
        with pytest.raises(DomainError):
            euler_continuation(np.array([0.5j, bad, 3.0 + 1.0j]), 0.2, 0.2)

    def test_fallback_only_next_to_the_branch_point(self, monkeypatch):
        # the 50 contour points at (0.5, 0.5) and their mirror images, whose
        # path bends the other way: only z = 1 - 1e-4 needs quad
        points = []
        quad = specfun._euler_quad

        def counting(z, a, b):
            points.append(z)
            return quad(z, a, b)

        monkeypatch.setattr(specfun, "_euler_quad", counting)
        for z in (self.CONTOUR, self.CONTOUR.conj()):
            points.clear()
            euler_continuation(z, 0.5, 0.5)
            assert points == [1.0 - 1e-4]

    def test_gauss_jacobi_weights(self):
        # moments int_0^1 (1-t)^{b/2} t^{-(1+b)/2} t^k dt / B((1-b)/2, 1+b/2)
        # = prod_{j<k} ((1-b)/2 + j) / (3/2 + j), exact in mpmath
        for b in (0.0, 0.5, 0.95, 0.999):
            for n in (96, 192):
                x, w = specfun._gauss_jacobi(n, b / 2.0, -(1.0 + b) / 2.0)
                t = (1.0 + x) / 2.0
                for k in (0, 1, 2, 5, 40):
                    exact = float(mpmath.rf((1 - b) / 2, k) / mpmath.rf(1.5, k))
                    assert float(np.dot(w, t ** k)) == pytest.approx(exact, rel=1e-10)
