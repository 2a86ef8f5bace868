import math

import numpy as np
import pytest

from pqnorm._kernels import revert_odd_batch
from pqnorm.errors import DomainError
from pqnorm.krivine import _series_tail
from pqnorm.series import odd_horner, tail_fit


def revert(F):
    """One compressed series reverted as a one-row batch."""
    return revert_odd_batch(np.asarray(F, dtype=np.float64)[None, :])[0]


def evaluate(g, x):
    return float(odd_horner(np.asarray(g), x))


def series_tail(g, K):
    """The all-degree tail of one series, from the row-wise fit, as a
    function of x."""
    tail = _series_tail(tail_fit(np.abs(np.asarray(g, dtype=np.float64))[None, :]), K)
    return lambda x: float(tail(x)[0])


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
    """Horner over every degree, the even ones zero."""
    acc = 0.0
    for c in dense(g)[::-1]:
        acc = acc * x + c
    return acc


def tail_reference(g, K, x):
    """The fit and the all-degree tail at one point, in one pass over the
    compressed entries: the ratio per w-degree, then rho = sqrt of it per
    degree; the reference for the row-wise fit."""
    absg = np.abs(g)
    top = float(np.max(absg))
    if top == 0.0:
        return 0.0
    sig = np.flatnonzero(absg >= 1e-14 * top)
    if sig.size < 2:
        return 0.0
    idx = sig[-10:]
    vals = absg[idx]
    r = math.sqrt(float(np.max((vals[1:] / vals[:-1]) ** (1.0 / np.diff(idx))))) * abs(x)
    if r >= 1.0:
        return math.inf
    k_last = 2 * int(idx[-1]) + 1
    return float(vals[-1] * abs(x) ** k_last * r ** (K + 1 - k_last) / (1.0 - r))


def scalar_tail_fit(g, K):
    """The scalar tail fit that the row-wise fit replaced: per-degree gap
    ratios over the dense degrees of one series, fitted once, as a function
    of x."""
    absg = np.abs(g)
    top = float(np.max(absg))
    sig = np.flatnonzero(absg >= 1e-14 * top)
    if top == 0.0 or sig.size < 2:
        return lambda x: 0.0
    idx = 2 * sig[-10:] + 1  # the degrees
    vals = absg[sig[-10:]]
    ratios = (vals[1:] / vals[:-1]) ** (1.0 / np.diff(idx))
    rho_hat = float(np.max(ratios))
    c_last, k_last = vals[-1], int(idx[-1])

    def tail(x):
        r = rho_hat * abs(x)
        if r >= 1.0:
            return math.inf
        return float(c_last * abs(x) ** k_last * r ** (K + 1 - k_last) / (1.0 - r))

    return tail


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
        assert series_tail(sin_series(5), 11)(0.0) == 0.0

    def test_returns_a_float(self):
        v = evaluate(sin_series(5), 0.5)
        assert type(v) is float
        assert v == pytest.approx(math.sin(0.5), rel=1e-9)

    def test_close_to_dense_horner(self):
        # Horner in w = x^2 squares x once, where the dense Horner over the
        # interleaved zeros multiplies by x twice: the two differ by no
        # more than Horner's rounding bound, 2n eps sum |c_k| |x|^k
        rng = np.random.default_rng(8)
        for g in [arcsin_series(100), sin_series(20), rng.uniform(-1, 1, 9), identity(0)]:
            bound = 2 * dense(g).size * np.finfo(float).eps
            for x in [0.0, 0.3, -0.7, 0.99, 1.2]:
                ref = dense_horner(g, x)
                assert abs(evaluate(g, x) - ref) <= bound * dense_horner(np.abs(g), abs(x))

    def test_sinh_closed_form(self):
        h = np.abs(sin_series(19))
        assert evaluate(h, 0.88) == pytest.approx(math.sinh(0.88), abs=1e-10)
        assert series_tail(h, 40)(0.88) < 1e-10

    def test_arcsin_near_edge_bounded_by_tail(self):
        # At K = 200 and x = 0.99 the true truncation error is ~1.2e-3; the
        # tail estimate must cover it (the honest accuracy at this point).
        g = arcsin_series(99)
        err = abs(evaluate(g, 0.99) - math.asin(0.99))
        assert err < 3e-3
        assert err <= series_tail(g, 200)(0.99) * 1.001
        # away from the edge the truncation is sharp
        assert abs(evaluate(g, 0.9) - math.asin(0.9)) < 1e-9

    def test_tail_unbounded_when_ratio_exceeds_one(self):
        g = np.ones(15)  # x / (1 - x^2), radius 1
        assert series_tail(g, 29)(1.2) == math.inf

    def test_exact_series_has_zero_tail(self):
        assert series_tail(identity(2), 5)(0.9) == 0.0

    def test_fit_once_matches_pointwise_reference(self):
        # one fit serves every x, bit for bit, on both sides of the radius,
        # for even and odd truncation orders
        for g, K in [(arcsin_series(99), 200), (arcsin_series(99), 199),
                     (np.abs(sin_series(19)), 40),
                     (np.ones(15), 29), (np.ones(15), 30), (identity(2), 5),
                     (np.zeros(2), 3)]:
            tail = series_tail(g, K)
            for x in [0.0, 0.3, -0.7, 0.99, 1.0, 1.2]:
                assert tail(x) == tail_reference(g, K, x)

    def test_close_to_the_scalar_fit(self):
        # the row-wise fit takes its ratio per w-degree and its square root
        # per degree, where the scalar fit took per-degree ratios over the
        # dense degrees: equal up to rounding, with the same zero and inf
        # cases
        cases = [(arcsin_series(99), 200), (arcsin_series(99), 199),
                 (np.abs(sin_series(19)), 40), (np.ones(15), 29), (np.ones(15), 30),
                 (identity(2), 5), (np.zeros(2), 3),
                 (np.where(np.arange(30) % 3 == 1, 0.0, 0.8 ** np.arange(30)), 60)]
        seen = set()
        for g, K in cases:
            new, old = series_tail(g, K), scalar_tail_fit(g, K)
            for x in [0.0, 0.3, -0.7, 0.99, 1.0, 1.2]:
                ref = old(x)
                got = new(x)
                if ref == 0.0 or math.isinf(ref):
                    assert got == ref
                    seen.add(ref)
                else:
                    assert abs(got - ref) <= 1e-14 * ref
        assert seen == {0.0, math.inf}
