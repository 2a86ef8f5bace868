import math

import numpy as np
import pytest

from pqnorm.errors import DomainError
from pqnorm.series import (
    TruncatedSeries,
    abs_map,
    evaluate,
    revert,
    tail_estimate,
    tail_fit,
)


def compose(outer, inner):
    """outer(inner(x)) truncated at the smaller order: the round-trip oracle
    for reversion, by Horner over truncated Cauchy products."""
    assert inner.coeffs[0] == 0.0
    K = min(outer.order, inner.order)
    ic = inner.coeffs[: K + 1]
    acc = np.zeros(K + 1)
    for c in outer.coeffs[K::-1]:
        acc = np.convolve(acc, ic)[: K + 1]
        acc[0] += c
    return TruncatedSeries(acc)


def sin_series(K):
    c = np.zeros(K + 1)
    for m in range(0, (K - 1) // 2 + 1):
        c[2 * m + 1] = (-1.0) ** m / math.factorial(2 * m + 1)
    return TruncatedSeries(c, odd=True)


def arcsin_series(K):
    # closed-form coefficients C(2m, m) / (4^m (2m+1))
    c = np.zeros(K + 1)
    binom_over_4m = 1.0
    for m in range(0, (K - 1) // 2 + 1):
        c[2 * m + 1] = binom_over_4m / (2 * m + 1)
        binom_over_4m *= (2 * m + 1) / (2 * m + 2)
    return TruncatedSeries(c, odd=True)


def tail_reference(s, x):
    """The fit and the geometric tail at one point, in one pass, as a
    reference for the fit-once form."""
    absc = np.abs(s.coeffs)
    top = float(np.max(absc))
    if top == 0.0:
        return 0.0
    sig = np.flatnonzero(absc >= 1e-14 * top)
    if sig.size < 2:
        return 0.0
    idx = sig[-10:]
    vals = absc[idx]
    r = float(np.max((vals[1:] / vals[:-1]) ** (1.0 / np.diff(idx)))) * abs(x)
    if r >= 1.0:
        return math.inf
    k_last = int(idx[-1])
    return float(vals[-1] * abs(x) ** k_last * r ** (s.order + 1 - k_last) / (1.0 - r))


class TestType:
    def test_odd_flag_forces_zeros(self):
        s = TruncatedSeries([0.0, 1.0, 1e-15, -0.2], odd=True)
        assert s.coeffs[2] == 0.0

    def test_odd_flag_rejects_material_even_terms(self):
        with pytest.raises(ValueError):
            TruncatedSeries([0.5, 1.0], odd=True)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            TruncatedSeries([1.0, math.nan])

    def test_order(self):
        assert TruncatedSeries([1.0, 2.0, 3.0]).order == 2


class TestRevert:
    def test_identity(self):
        g = revert(TruncatedSeries.identity(7))
        assert np.allclose(g.coeffs, TruncatedSeries.identity(7).coeffs)

    def test_arcsin_reverts_to_sin(self):
        g = revert(arcsin_series(15))
        assert g.coeffs[3] == pytest.approx(-1.0 / 6.0, rel=1e-13)
        assert g.coeffs[5] == pytest.approx(1.0 / 120.0, rel=1e-12)
        assert np.allclose(g.coeffs, sin_series(15).coeffs, atol=1e-15)

    def test_x_plus_x_cubed(self):
        # hand composition: (x - x^3) + (x - x^3)^3 = x + O(x^5)
        s = TruncatedSeries([0.0, 1.0, 0.0, 1.0], odd=True)
        g = revert(s)
        assert g.coeffs[3] == pytest.approx(-1.0, rel=1e-14)
        assert np.allclose(compose(s, g).coeffs, TruncatedSeries.identity(3).coeffs, atol=1e-14)

    def test_precondition(self):
        with pytest.raises(DomainError):
            revert(TruncatedSeries([1.0, 1.0]))
        with pytest.raises(DomainError):
            revert(TruncatedSeries([0.0, 0.0, 1.0]))
        with pytest.raises(DomainError):
            revert(TruncatedSeries([0.0, 0.0, 0.0, 1.0], odd=True))

    def test_rejects_series_not_flagged_odd(self):
        # odd coefficients alone are not enough: the flag selects the kernel
        with pytest.raises(DomainError, match="odd"):
            revert(TruncatedSeries([0.0, 1.0, 0.0, 1.0]))
        with pytest.raises(DomainError, match="odd"):
            revert(TruncatedSeries([0.0, 1.0, 0.5]))

    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip_properties(self, seed):
        # revert(revert(s)) = s and compose(s, revert(s)) = id for
        # well-conditioned odd series: |s1| in [0.5, 2], decaying higher
        # terms so the inverse coefficients stay O(1)
        rng = np.random.default_rng(seed)
        K = 15
        c = np.zeros(K + 1)
        c[1] = math.copysign(rng.uniform(0.5, 2.0), rng.uniform(-1, 1))
        c[3::2] = c[1] * rng.uniform(-0.5, 0.5, K // 2) * 0.3 ** np.arange(2, K, 2)
        s = TruncatedSeries(c, odd=True)
        g = revert(s)
        assert np.allclose(revert(g).coeffs, s.coeffs, atol=1e-10)
        assert np.allclose(compose(s, g).coeffs, TruncatedSeries.identity(K).coeffs, atol=1e-10)
        # per-coefficient round-trip residual at unit scale
        assert np.max(np.abs(compose(g, s).coeffs - TruncatedSeries.identity(K).coeffs)) < 1e-12

    def test_odd_flag_preserved(self):
        g = revert(arcsin_series(21))
        assert g.odd


class TestAbsMap:
    def test_sin_to_sinh(self):
        s = abs_map(sin_series(11))
        ref = [abs(c) for c in sin_series(11).coeffs]
        assert np.allclose(s.coeffs, ref)
        assert s.odd

    def test_idempotent_and_fixed_on_nonnegative(self):
        s = TruncatedSeries([0.1, 0.0, 2.0])
        assert np.allclose(abs_map(s).coeffs, s.coeffs)
        t = TruncatedSeries([0.0, 1.0, 0.0, -1.0 / 6.0], odd=True)
        assert np.allclose(abs_map(t).coeffs, [0.0, 1.0, 0.0, 1.0 / 6.0])
        assert np.allclose(abs_map(abs_map(t)).coeffs, abs_map(t).coeffs)

    def test_majorizes_evaluation(self):
        rng = np.random.default_rng(3)
        s = TruncatedSeries(rng.uniform(-1, 1, 12))
        for x in [0.0, 0.2, 0.7]:
            assert evaluate(abs_map(s), x) >= abs(evaluate(s, x)) - 1e-14


class TestEvaluate:
    def test_sin_at_zero(self):
        assert evaluate(sin_series(11), 0.0) == 0.0
        assert tail_estimate(sin_series(11), 0.0) == 0.0

    def test_returns_a_float(self):
        v = sin_series(11).eval(0.5)
        assert type(v) is float
        assert v == evaluate(sin_series(11), 0.5)

    def test_sinh_closed_form(self):
        s = abs_map(sin_series(40))
        assert evaluate(s, 0.88) == pytest.approx(math.sinh(0.88), abs=1e-10)
        assert tail_estimate(s, 0.88) < 1e-10

    def test_arcsin_near_edge_bounded_by_tail(self):
        # At K = 200 and x = 0.99 the true truncation error is ~1.2e-3; the
        # tail estimate must cover it (the honest accuracy at this point).
        s = arcsin_series(200)
        err = abs(evaluate(s, 0.99) - math.asin(0.99))
        assert err < 3e-3
        assert err <= tail_estimate(s, 0.99) * 1.001
        # away from the edge the truncation is sharp
        assert abs(evaluate(s, 0.9) - math.asin(0.9)) < 1e-9

    def test_tail_unbounded_when_ratio_exceeds_one(self):
        s = TruncatedSeries(np.ones(30))  # geometric series, radius 1
        assert tail_estimate(s, 1.2) == math.inf

    def test_exact_series_has_zero_tail(self):
        assert tail_estimate(TruncatedSeries.identity(5), 0.9) == 0.0

    def test_fit_once_matches_pointwise_reference(self):
        # one fit serves every x, bit for bit, on both sides of the radius
        for s in [arcsin_series(200), abs_map(sin_series(40)),
                  TruncatedSeries(np.ones(30)), TruncatedSeries.identity(5),
                  TruncatedSeries(np.zeros(4))]:
            tail = tail_fit(s)
            for x in [0.0, 0.3, -0.7, 0.99, 1.0, 1.2]:
                assert tail(x) == tail_estimate(s, x) == tail_reference(s, x)
