import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from pqnorm import cli, oracles, specfun
from pqnorm.errors import AccuracyError, DomainError
from pqnorm.krivine import f_bar_w_coeffs
from pqnorm.oracles import _contour_points
from pqnorm.specfun import (
    euler_continuation,
    gamma_fn,
    gaussian_moment,
    gaussian_moment_pow,
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

    def test_against_mpmath_to_1e15(self):
        # 800 points over (0.01, 170], against 40-digit mpmath
        xs = np.concatenate([np.geomspace(0.01, 170.0, 400), np.linspace(0.01, 170.0, 400)])
        with mpmath.workdps(40):
            for x in map(float, xs):
                ref = mpmath.gamma(x)
                assert abs((gamma_fn(x) - ref) / ref) <= 1e-15, x

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_fn(0.0)
        with pytest.raises(DomainError):
            gamma_fn(-1.3)

    @pytest.mark.parametrize("fn", [gamma_fn])
    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_is_domain_error(self, fn, x):
        with pytest.raises(DomainError, match="finite"):
            fn(x)

    @pytest.mark.parametrize("x", [171.7, 1e300, 1e307])
    def test_past_float_range_is_domain_error(self, x):
        # Gamma(171.6) ~ 1.6e308 is still in range; from about x = 2.6e305
        # on, log Gamma is past it as well
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
        logpow = 0.5e305 * math.log(2.0) - 0.5 * math.log(math.pi) + math.lgamma(0.5e305 + 0.5)
        assert gaussian_moment(1e305) == math.exp(logpow / 1e305) == 1.9180183554163815e152
        # logpow ~ 3.5e307 is rounded to ~4e291 absolute, which divided by r
        # leaves ~4e-14 in the exponent: 60-digit mpmath is 3.6e-14 away
        with mpmath.workdps(60):
            r = mpmath.mpf(1e305)
            ref = float(mpmath.exp((r / 2 * mpmath.log(2) - mpmath.log(mpmath.pi) / 2
                                    + mpmath.loggamma((1 + r) / 2)) / r))
        assert gaussian_moment(1e305) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("fn", [gaussian_moment, gaussian_moment_pow])
    @pytest.mark.parametrize("r", [math.inf, math.nan])
    def test_non_finite_is_domain_error(self, fn, r):
        with pytest.raises(DomainError, match="finite"):
            fn(r)

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 4.0 / 3.0, 2.0, 3.0, 4.0, 50.0, 400.0])
    def test_moment_and_power_match_the_log_formula(self, r):
        # both forms are exp of one log-moment, bit for bit
        logpow = (r / 2.0) * math.log(2.0) - 0.5 * math.log(math.pi) \
            + math.lgamma((1.0 + r) / 2.0)
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
        logpow = 150.0 * math.log(2.0) - 0.5 * math.log(math.pi) + math.lgamma(150.5)
        assert gaussian_moment_pow(300.0) == math.exp(logpow)
        assert 3.7e306 < gaussian_moment_pow(300.0) < 3.8e306
        with pytest.raises(DomainError):
            gaussian_moment_pow(302.0)


def hyp2f1_coeffs(alpha, beta, M):
    """Coefficients 0..M of 2F1(alpha, beta; 3/2; x), the only Gauss
    hypergeometric series the library forms: f_bar_w_coeffs(a, b, M) is the
    one with upper parameters (1-a)/2 and (1-b)/2."""
    return f_bar_w_coeffs(1.0 - 2.0 * alpha, 1.0 - 2.0 * beta, M)


class TestHypCoeffs:
    def test_arcsin_series(self):
        # oracle: arcsin(rho)/rho = 1 + rho^2/6 + 3 rho^4/40 + ...
        c = hyp2f1_coeffs(0.5, 0.5, 2)
        assert np.allclose(c, [1.0, 1.0 / 6.0, 3.0 / 40.0], rtol=1e-15)

    def test_zero_upper_parameter(self):
        c = hyp2f1_coeffs(0.0, 0.7, 6)
        assert c.shape == (7,) and c[0] == 1.0
        assert np.all(c[1:] == 0.0)

    def test_nonnegative_for_positive_params(self):
        for alpha, beta in [(0.5, 0.3), (1.2, 2.0), (0.01, 0.99)]:
            assert np.all(hyp2f1_coeffs(alpha, beta, 30) >= 0.0)


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
        from pqnorm.series import odd_horner

        s = f_bar_w_coeffs(a, b, 150)  # order 301
        for x in [-0.8, -0.3, 0.2, 0.6, 0.85]:
            ref = float(odd_horner(s, x))
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

    @pytest.mark.parametrize("z", [math.nan, complex(0.5, math.nan), complex(math.inf, 1.0),
                                   complex(0.0, math.inf)])
    def test_non_finite_z_is_domain_error(self, z):
        # z = nan used to return nan+nanj
        with pytest.raises(DomainError, match="not finite"):
            euler_continuation(z, 0.2, 0.2)
        with pytest.raises(DomainError, match="not finite"):
            euler_continuation(np.array([0.5j, z]), 0.2, 0.2)


def hyp2f1_reference(z, a, b):
    """z * 2F1((1-a)/2, (1-b)/2; 3/2; z^2) in 30-digit mpmath, principal
    branch, at the float z and upper parameters the continuation takes."""
    A, B = (1.0 - a) / 2.0, (1.0 - b) / 2.0
    with mpmath.workdps(30):
        return np.array([complex(mpmath.mpc(zi) * mpmath.hyp2f1(A, B, 1.5, mpmath.mpc(zi) ** 2))
                         for zi in np.ravel(z)]).reshape(np.shape(z))


def test_digamma_against_mpmath():
    x = np.concatenate([np.geomspace(1e-4, 200.0, 300), np.linspace(0.01, 20.0, 300)])
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.digamma(v)) for v in x])
    assert np.all(np.abs(specfun._digamma(x) - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))


# a - b and a + b - 1 at +-1e-4 and +-1e-8 (both at once around (0.5, 0.5)),
# and two float pairs whose sum rounds next to 1
NEAR_LOG_PAIRS = ([(base + d, b) for base, b in [(0.25, 0.25), (0.75, 0.25), (0.5, 0.5)]
                   for d in (1e-4, -1e-4, 1e-8, -1e-8)] + [(0.3, 0.7), (0.1, 0.9)])


class TestEulerContinuationArray:
    CONTOUR = np.concatenate(_contour_points())  # the verify-contours points
    LATTICE = [0.0, 0.25, 0.5, 0.75, 0.95]  # its exponents

    def test_every_contour_evaluation_against_mpmath(self):
        # the 1,250 values `verify contours` takes: 50 points at 25 pairs
        for b in self.LATTICE:
            val = euler_continuation(self.CONTOUR[None, :], np.array(self.LATTICE)[:, None], b)
            for a, row in zip(self.LATTICE, val):
                ref = hyp2f1_reference(self.CONTOUR, a, b)
                assert np.all(np.abs(row - ref) <= 1e-14 * np.abs(ref)), (a, b)

    @pytest.mark.parametrize("a,b", NEAR_LOG_PAIRS)
    def test_next_to_the_log_cases_against_mpmath(self, a, b):
        # the generic connection formulas divide by the distance to the log
        # case: (0.3, 0.7) sums to 1 in floats, but its A + B is one ulp off
        # 1/2, where the generic formula gives f(-0.8) = -0.775, not -0.8233
        z = np.concatenate([self.CONTOUR, [1 - 1e-4, -0.8, 0.9999 + 1e-7j]])
        val = euler_continuation(z, a, b)
        ref = hyp2f1_reference(z, a, b)
        assert np.all(np.abs(val - ref) <= 1e-12 * np.abs(ref))

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.3, 0.7), (0.5, 0.5), (0.2, 0.9),
                                     (0.95, 0.1), (0.999, 0.999), (0.6, 0.35), (0.1, 0.12)])
    def test_seeded_sweep_against_mpmath(self, a, b):
        # 300 points of |z| <= 10 and 51 of |z| = 1, where only the Taylor
        # step converges fast for arguments of z^2 near +-60 degrees; every
        # point also keeps the bits of its scalar call
        rng = np.random.default_rng(49)
        ring = np.exp(1j * np.pi * (np.arange(48) + 0.5) / 24)
        z = np.concatenate([10.0 * np.sqrt(rng.random(300)) * np.exp(2j * np.pi * rng.random(300)),
                            ring, [1j, np.exp(1j * np.pi / 6), np.exp(-1j * np.pi / 6)]])
        assert not specfun._on_excluded_ray(z).any()
        val = euler_continuation(z, a, b)
        ref = hyp2f1_reference(z, a, b)
        assert np.all(np.abs(val - ref) <= 1e-12 * np.abs(ref))
        assert val.tobytes() == np.array([euler_continuation(zi, a, b) for zi in z]).tobytes()

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
        # the contour's points take the connection formulas in 1 - z^2 and
        # 1/z^2, the second in its log form at (0, 0) and (0.95, 0.95), each
        # point with its own number of terms
        val = euler_continuation(self.CONTOUR, a, b)
        assert all(v == euler_continuation(z, a, b) for z, v in zip(self.CONTOUR, val))
        assert type(euler_continuation(self.CONTOUR[3], a, b)) is complex

    @pytest.mark.parametrize("b", [0.0, 0.25, 0.5, 0.75, 0.95])
    def test_batched_exponents_match_scalar_exponent_calls(self, b):
        # bit for bit, including the log forms at a = b and a + b = 1
        a = np.array([0.0, 0.25, 0.5, 0.75, 0.95, 0.2, 0.999])
        val = euler_continuation(self.CONTOUR[None, :], a[:, None], b)
        assert val.shape == (a.size, self.CONTOUR.size)
        for a_i, row in zip(a, val):
            assert row.tobytes() == euler_continuation(self.CONTOUR, float(a_i), b).tobytes()

    def test_batched_exponents_match_scalar_calls_off_the_contour(self):
        # bit for bit at every kind of series: the Taylor step (both mirror
        # images), Pfaff, the power series, both connection formulas, and the
        # interpolation next to a = b
        z = np.array([np.exp(1j * np.pi / 6), np.exp(-1j * np.pi / 6), 0.95 * np.exp(0.6j),
                      1.0j, 0.3 + 0.2j, 0.99 + 0.01j, 2.0 + 1.0j])
        a = np.array([0.2, 0.35, 0.35 + 1e-8, 0.65, 0.0])
        val = euler_continuation(z[None, :], a[:, None], 0.35)
        for a_i, row in zip(a, val):
            assert row.tobytes() == np.array([euler_continuation(zi, a_i, 0.35) for zi in z]).tobytes()

    def test_exponent_array_shapes(self):
        # a scalar z and a scalar a give a Python complex; an array of either
        # gives the broadcast shape
        assert type(euler_continuation(0.5j, np.float64(0.3), 0.2)) is complex
        val = euler_continuation(0.5j, np.array([0.3, 0.6]), 0.2)
        assert val.shape == (2,)
        assert val[1] == euler_continuation(0.5j, 0.6, 0.2)
        assert euler_continuation(np.array([0.5j, 0.0]), np.array([[0.3], [0.6]]), 0.2).shape == (2, 2)

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.nan, math.inf])
    def test_exponent_array_with_one_bad_entry_raises(self, bad):
        with pytest.raises(DomainError, match="exponent a"):
            euler_continuation(self.CONTOUR[None, :], np.array([[0.0], [bad], [0.5]]), 0.3)

    def test_array_b_is_a_domain_error(self):
        # every Gamma factor of a call shares b, so b stays one scalar per call
        with pytest.raises(DomainError, match="exponent b"):
            euler_continuation(0.5j, 0.2, np.array([0.2, 0.3]))
        # a 0-d array is one scalar
        assert euler_continuation(0.5j, 0.2, np.array(0.3)) == euler_continuation(0.5j, 0.2, 0.3)

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

    def test_branch_leg_start_against_mpmath(self):
        # z = 1 - 1e-4 starts the contour's near-real leg.  |1 - z^2| ~ 2e-4
        # puts it in the connection formula in 1 - z^2 at all 25 lattice
        # pairs, in its log form at a + b = 1
        for a in self.LATTICE:
            for b in self.LATTICE:
                val = euler_continuation(1.0 - 1e-4, a, b)
                ref = complex(hyp2f1_reference(1.0 - 1e-4, a, b))
                assert abs(val - ref) <= 1e-14 * abs(ref), (a, b)

    @pytest.mark.parametrize("z", [1 - 1e-6, 1 - 1e-9, -(1 - 1e-8), 0.9999 + 1e-7j,
                                   0.99999 - 2e-6j])
    def test_next_to_the_branch_points_against_mpmath(self, z):
        # within 1e-6 of +-1 the continuation used to raise AccuracyError
        # (z = 0.999999, a = 0.2, b = 0.9), and later passed values 1.2e-10
        # off at (0.95, 0.95)
        a = np.array(self.LATTICE + [0.2])
        for b in self.LATTICE + [0.9]:
            val = euler_continuation(z, a, b)
            ref = np.array([hyp2f1_reference(z, a_i, b) for a_i in a])
            assert np.all(np.abs(val - ref) <= 1e-13 * np.abs(ref)), b

    @pytest.mark.parametrize("b", [0.0, 0.5, 0.95, 0.999])
    def test_hard_points_against_mpmath(self, b):
        # next to +-1, on the imaginary axis, tiny and far out, at a = 0 and
        # next to both ends of [0, 1)
        z = np.array([1 - 1e-4, -(1 - 1e-9), 0.99999 - 2e-6j, 0.3 - 2.0j, -4.0 - 0.01j,
                      10 + 0.1j, 1e-8 + 1e-8j, 0.5j, 10j, 50j])
        for a in (0.0, 0.5, 0.999):
            val = euler_continuation(z, a, b)
            ref = hyp2f1_reference(z, a, b)
            assert np.all(np.abs(val - ref) <= 1e-13 * np.abs(ref)), a

    def test_gauss_jacobi_legendre_case(self, cold_rules):
        # alpha + beta = 0 makes the recurrence's general diagonal 0/0 at
        # k = 0; the rule must come out warning-free as Gauss-Legendre (built
        # here, not taken from the cache)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, w = specfun._gauss_jacobi(20, 0.0, 0.0)
        x_ref, w_ref = np.polynomial.legendre.leggauss(20)
        assert np.max(np.abs(x - x_ref)) <= 4e-16
        assert np.max(np.abs(w - w_ref / 2.0)) <= 2e-15

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


class TestRuleCache:
    # one key per cached builder, as the commands call them
    RULES = [(specfun._gauss_jacobi, (192, 0.25, -0.75)), (specfun._gauss_jacobi, (64, 0.3, 0.7)),
             (specfun._gauss_laguerre, (24, 0.15))]

    @pytest.mark.parametrize("builder, key", RULES)
    def test_cached_rule_equals_a_fresh_build(self, builder, key):
        for cached, fresh in zip(builder(*key), builder.__wrapped__(*key)):
            assert cached.dtype == fresh.dtype
            assert cached.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("builder, key", RULES)
    def test_rule_arrays_are_read_only(self, builder, key):
        for arr in builder(*key):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        assert builder(*key)[0] is builder(*key)[0]

    def test_a_sweep_over_b_stays_bounded(self, cold_rules):
        # one rule more than the cache holds evicts the oldest, which the
        # next call builds again
        rule = specfun._gauss_jacobi
        size = specfun._RULE_CACHE
        for i in range(size + 1):
            rule(4, i / (size + 1), 0.0)
        assert rule.cache_info().currsize == size
        rule(4, 0.0, 0.0)
        assert rule.cache_info().misses == size + 2
        rule(4, size / (size + 1), 0.0)  # the newest stays
        assert rule.cache_info().misses == size + 2


# every Gauss rule `verify all` builds: the identity suite's 64-node
# correlation pieces and its 24-node Hermite rules
IDENTITY_KEYS = sorted({(64, e1, e2) for e1 in cli._IDENTITY_LATTICE
                        for e2 in cli._IDENTITY_LATTICE})
LAGUERRE_KEYS = sorted({(24, c / 2) for c in cli._IDENTITY_LATTICE + (0.5,)})
# the nodes are checked at those keys and at harder ones: endpoint exponents
# from -0.975 to 0.475 at up to 192 nodes, and the Legendre case
JACOBI_KEYS = sorted(set(IDENTITY_KEYS)
                     | {(n, b / 2, -(1 + b) / 2) for b in cli._CONTOUR_LATTICE for n in (192, 96)}
                     | {(n, -b, 0.0) for b in cli._CONTOUR_LATTICE for n in (20, 16)})


class TestGaussRules:
    """The recurrence-built rules against scipy.special, a reference the
    package itself does not import."""

    def test_the_keys_are_the_ones_verify_all_builds(self, monkeypatch, capsys):
        built = {"jacobi": set(), "laguerre": set()}

        def recording(name, rule):
            def wrapper(*key):
                built[name].add(key)
                return rule(*key)
            return wrapper

        for module in (specfun, oracles):
            monkeypatch.setattr(module, "_gauss_jacobi",
                                recording("jacobi", specfun._gauss_jacobi))
        monkeypatch.setattr(oracles, "_gauss_laguerre",
                            recording("laguerre", specfun._gauss_laguerre))
        assert cli.main(["verify", "all"]) == 0
        capsys.readouterr()
        assert sorted(built["jacobi"]) == IDENTITY_KEYS and len(IDENTITY_KEYS) == 16
        assert sorted(built["laguerre"]) == LAGUERRE_KEYS and len(LAGUERRE_KEYS) == 5

    @pytest.mark.parametrize("key", JACOBI_KEYS)
    def test_jacobi_nodes_against_scipy(self, key):
        # one Newton step after the eigenvalues puts every node within 1 ulp
        x, _ = specfun._gauss_jacobi(*key)
        assert np.max(np.abs(x - special.roots_jacobi(*key)[0])) <= 4.4e-16

    def test_without_the_newton_step_the_nodes_miss(self, monkeypatch):
        # the eigenvalues of the Jacobi matrix alone are up to 1.3e-15 off,
        # so the bound above tells the two builders apart
        def eigenvalues_only(diag, off):
            return np.linalg.eigvalsh(np.diag(diag) + np.diag(off[1:], -1)), None

        monkeypatch.setattr(specfun, "_gauss_rule", eigenvalues_only)
        worst = max(np.max(np.abs(specfun._gauss_jacobi.__wrapped__(*key)[0]
                                  - special.roots_jacobi(*key)[0])) for key in JACOBI_KEYS)
        assert worst > 4.4e-16

    @pytest.mark.parametrize("key", LAGUERRE_KEYS)
    def test_laguerre_rule_against_scipy(self, key):
        # the weights sum to Gamma(alpha + 1), as scipy's do
        x, w = specfun._gauss_laguerre(*key)
        x_ref, w_ref = special.roots_genlaguerre(*key)
        assert np.max(np.abs(x - x_ref) / x_ref) <= 1e-14
        assert np.max(np.abs(w - w_ref) / w_ref) <= 1e-12
