import math

import numpy as np
import pytest

from pqnorm import _kernels
from pqnorm.errors import DomainError
from pqnorm.krivine import f_bar_w_coeffs


def grid_coeffs(n=21, M=19):
    vals = np.linspace(0.0, 1.0, n)
    aa, bb = np.meshgrid(vals, vals, indexing="ij")
    return f_bar_w_coeffs(aa.ravel(), bb.ravel(), M).reshape(-1, M + 1)


def test_sin_coefficients_exact_case():
    F = f_bar_w_coeffs(0.0, 0.0, 20)[None, :]
    G = _kernels.revert_odd_batch(F)[0]
    ref = np.array([(-1.0) ** m / math.factorial(2 * m + 1) for m in range(21)])
    assert np.max(np.abs(G - ref)) < 1e-15


def test_identity_rows_are_exact():
    # a = 1 collapses the series to rho; the inverse is rho again
    F = f_bar_w_coeffs(np.array([1.0, 1.0]), np.array([0.0, 0.6]), 12)
    G = _kernels.revert_odd_batch(F)
    assert np.all(G[:, 0] == 1.0)
    assert np.all(G[:, 1:] == 0.0)


def test_round_trip_against_forward_series():
    # evaluate f(f^{-1}(y)) = y on a few points per row
    F = grid_coeffs(n=7, M=24)
    G = _kernels.revert_odd_batch(F)

    def eval_odd(w, x):
        acc = np.zeros(w.shape[0])
        for m in range(w.shape[1] - 1, -1, -1):
            acc = acc * x * x + w[:, m]
        return x * acc

    for y in [0.1, 0.4, 0.7]:
        rho = eval_odd(G, y)
        back = np.array([eval_odd(F[i : i + 1], rho[i])[0] for i in range(F.shape[0])])
        assert np.max(np.abs(back - y)) < 1e-10


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        _kernels.revert_odd_batch(np.zeros((2, 5)))
    with pytest.raises(ValueError):
        _kernels.revert_odd_batch(np.ones(5))


@pytest.mark.parametrize("K", [31, 60, 61, 100])
def test_rows_are_independent(K):
    # the pairs of the default bounds sweep: a row reverts to the same bits
    # in the batch as alone, which lets bounds revert every pair at once
    ps = np.geomspace(2.0, 100.0, 101)
    a = np.append(1.0 / (ps - 1.0), 0.0)  # a = p* - 1 = b on the dual rule
    F = f_bar_w_coeffs(a, a, (K - 1) // 2)
    G = _kernels.revert_odd_batch(F)
    for i in range(0, F.shape[0], 3):
        assert np.array_equal(_kernels.revert_odd_batch(F[i : i + 1]), G[i : i + 1])


def test_rejects_empty_and_non_finite_rows():
    with pytest.raises(DomainError):
        _kernels.revert_odd_batch(np.zeros((1, 0)))
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            _kernels.revert_odd_batch(np.array([[1.0, 0.5], [1.0, bad]]))
