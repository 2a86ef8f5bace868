import cmath
import math

import numpy as np
import pytest
from scipy import integrate

from pqnorm.errors import DomainError
from pqnorm.specfun import (
    GaussianMoment,
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

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 4.0 / 3.0, 2.0, 3.0, 4.0, 50.0, 400.0])
    def test_moment_and_power_match_the_log_formula(self, r):
        # both forms are exp of one log-moment, bit for bit
        logpow = (r / 2.0) * math.log(2.0) - 0.5 * math.log(math.pi) \
            + log_gamma((1.0 + r) / 2.0)
        assert gaussian_moment(r) == (1.0 if r == 0 else math.exp(logpow / r))
        if r == 0:
            assert gaussian_moment_pow(r) == 1.0
        elif r == 400.0:  # E|g|^400 ~ 1e433 lies beyond float range
            with pytest.raises(OverflowError):
                gaussian_moment_pow(r)
        else:
            assert gaussian_moment_pow(r) == math.exp(logpow)

    def test_dataclass_invariants(self):
        gm = GaussianMoment.compute(2.0)
        assert gm.value == pytest.approx(1.0)
        with pytest.raises(DomainError):
            GaussianMoment.compute(-1.0)


class TestHypCoeffs:
    def test_arcsin_series(self):
        # oracle: arcsin(rho)/rho = 1 + rho^2/6 + 3 rho^4/40 + ...
        s = hyp_coeffs("2F1", (0.5, 0.5, 1.5), 2)
        assert np.allclose(s.coeffs, [1.0, 1.0 / 6.0, 3.0 / 40.0], rtol=1e-15)

    def test_zero_upper_parameter(self):
        s = hyp_coeffs("2F1", (0.0, 0.7, 1.5), 6)
        assert s.coeffs[0] == 1.0
        assert np.all(s.coeffs[1:] == 0.0)

    def test_exp_series(self):
        s = hyp_coeffs("1F1", (1.0, 1.0), 3)
        assert np.allclose(s.coeffs, [1.0, 1.0, 0.5, 1.0 / 6.0], rtol=1e-15)

    def test_nonnegative_for_positive_params(self):
        for params in [(0.5, 0.3, 1.5), (1.2, 2.0, 0.7), (0.01, 0.99, 3.2)]:
            s = hyp_coeffs("2F1", params, 30)
            assert np.all(s.coeffs >= 0.0)

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
        from pqnorm.krivine import NormPair, f_bar_series
        from pqnorm.series import evaluate

        s = f_bar_series(NormPair.from_ab(a, b), K=301)
        for x in [-0.8, -0.3, 0.2, 0.6, 0.85]:
            ref, _ = evaluate(s, x)
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
