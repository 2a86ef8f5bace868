import math

import numpy as np
import pytest

from pqnorm.errors import DomainError
from pqnorm.series import evaluate, revert, tail_fit


def dense(g):
    """Coefficients of degrees 0..2M+1 of the compressed odd series g."""
    c = np.zeros(2 * len(g))
    c[1::2] = g
    return c


def compose(outer, inner):
    """outer(inner(x)) of two compressed odd series, truncated at the
    smaller order and returned compressed: the round-trip oracle for
    reversion, by Horner over truncated dense Cauchy products."""
    oc, ic = dense(outer), dense(inner)
    K = min(oc.size, ic.size) - 1
    ic = ic[: K + 1]
    acc = np.zeros(K + 1)
    for c in oc[K::-1]:
        acc = np.convolve(acc, ic)[: K + 1]
        acc[0] += c
    assert np.all(acc[0::2] == 0.0)
    return acc[1::2]


def identity(M):
    g = np.zeros(M + 1)
    g[0] = 1.0
    return g


def sin_series(M):
    return np.array([(-1.0) ** m / math.factorial(2 * m + 1) for m in range(M + 1)])


def arcsin_series(M):
    # closed-form coefficients C(2m, m) / (4^m (2m+1))
    g = np.zeros(M + 1)
    binom_over_4m = 1.0
    for m in range(M + 1):
        g[m] = binom_over_4m / (2 * m + 1)
        binom_over_4m *= (2 * m + 1) / (2 * m + 2)
    return g


def dense_horner(g, x):
    """Horner over every degree, the even ones zero: the reference that
    evaluate must match bit for bit."""
    acc = 0.0
    for c in dense(g)[::-1]:
        acc = acc * x + c
    return acc


def tail_reference(g, K, x):
    """The fit and the geometric tail at one point, in one pass over the
    dense degrees, as a reference for the fit-once form."""
    absc = np.abs(dense(g))
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
    return float(vals[-1] * abs(x) ** k_last * r ** (K + 1 - k_last) / (1.0 - r))


class TestType:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            revert(np.array([1.0, math.nan]))


class TestRevert:
    def test_identity(self):
        assert np.allclose(revert(identity(3)), identity(3))

    def test_arcsin_reverts_to_sin(self):
        g = revert(arcsin_series(7))
        assert g[1] == pytest.approx(-1.0 / 6.0, rel=1e-13)
        assert g[2] == pytest.approx(1.0 / 120.0, rel=1e-12)
        assert np.allclose(g, sin_series(7), atol=1e-15)

    def test_x_plus_x_cubed(self):
        # hand composition: (x - x^3) + (x - x^3)^3 = x + O(x^5)
        s = np.array([1.0, 1.0])
        g = revert(s)
        assert g[1] == pytest.approx(-1.0, rel=1e-14)
        assert np.allclose(compose(s, g), identity(1), atol=1e-14)

    def test_precondition(self):
        with pytest.raises(DomainError):
            revert(np.array([]))
        with pytest.raises(DomainError):
            revert(np.array([0.0, 1.0]))
        with pytest.raises(DomainError):
            revert(np.array([[1.0, 0.5]]))

    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip_properties(self, seed):
        # revert(revert(s)) = s and compose(s, revert(s)) = id for
        # well-conditioned odd series: |s1| in [0.5, 2], decaying higher
        # terms so the inverse coefficients stay O(1)
        rng = np.random.default_rng(seed)
        M = 7
        s = np.zeros(M + 1)
        s[0] = math.copysign(rng.uniform(0.5, 2.0), rng.uniform(-1, 1))
        s[1:] = s[0] * rng.uniform(-0.5, 0.5, M) * 0.3 ** np.arange(2, 2 * M + 1, 2)
        g = revert(s)
        assert np.allclose(revert(g), s, atol=1e-10)
        assert np.allclose(compose(s, g), identity(M), atol=1e-10)
        # per-coefficient round-trip residual at unit scale
        assert np.max(np.abs(compose(g, s) - identity(M))) < 1e-12


class TestAbsMap:
    """np.abs of the coefficients is the majorant series hhat."""

    def test_sin_to_sinh(self):
        h = np.abs(sin_series(5))
        assert np.allclose(h, [1.0 / math.factorial(2 * m + 1) for m in range(6)])
        assert evaluate(h, 0.5) == pytest.approx(math.sinh(0.5), rel=1e-12)

    def test_majorizes_evaluation(self):
        rng = np.random.default_rng(3)
        g = rng.uniform(-1, 1, 6)
        for x in [0.0, 0.2, 0.7, -0.7]:
            assert evaluate(np.abs(g), abs(x)) >= abs(evaluate(g, x)) - 1e-14


class TestEvaluate:
    def test_sin_at_zero(self):
        assert evaluate(sin_series(5), 0.0) == 0.0
        assert tail_fit(sin_series(5), 11)(0.0) == 0.0

    def test_returns_a_float(self):
        v = evaluate(sin_series(5), 0.5)
        assert type(v) is float
        assert v == pytest.approx(math.sin(0.5), rel=1e-9)

    def test_matches_dense_horner_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for g in [arcsin_series(100), sin_series(20), rng.uniform(-1, 1, 9), identity(0)]:
            for x in [0.0, 0.3, -0.7, 0.99, 1.2]:
                assert evaluate(g, x) == dense_horner(g, x)

    def test_sinh_closed_form(self):
        h = np.abs(sin_series(19))
        assert evaluate(h, 0.88) == pytest.approx(math.sinh(0.88), abs=1e-10)
        assert tail_fit(h, 40)(0.88) < 1e-10

    def test_arcsin_near_edge_bounded_by_tail(self):
        # At K = 200 and x = 0.99 the true truncation error is ~1.2e-3; the
        # tail estimate must cover it (the honest accuracy at this point).
        g = arcsin_series(99)
        err = abs(evaluate(g, 0.99) - math.asin(0.99))
        assert err < 3e-3
        assert err <= tail_fit(g, 200)(0.99) * 1.001
        # away from the edge the truncation is sharp
        assert abs(evaluate(g, 0.9) - math.asin(0.9)) < 1e-9

    def test_tail_unbounded_when_ratio_exceeds_one(self):
        g = np.ones(15)  # x / (1 - x^2), radius 1
        assert tail_fit(g, 29)(1.2) == math.inf

    def test_exact_series_has_zero_tail(self):
        assert tail_fit(identity(2), 5)(0.9) == 0.0

    def test_fit_once_matches_pointwise_reference(self):
        # one fit serves every x, bit for bit, on both sides of the radius,
        # for even and odd truncation orders
        for g, K in [(arcsin_series(99), 200), (arcsin_series(99), 199),
                     (np.abs(sin_series(19)), 40),
                     (np.ones(15), 29), (np.ones(15), 30), (identity(2), 5),
                     (np.zeros(2), 3)]:
            tail = tail_fit(g, K)
            for x in [0.0, 0.3, -0.7, 0.99, 1.0, 1.2]:
                assert tail(x) == tail_reference(g, K, x)
