import math
import tracemalloc

import numpy as np
import pytest

from pqnorm import _kernels
from pqnorm.errors import DomainError
from pqnorm.krivine import f_bar_w_coeffs


def grid_coeffs(n=21, M=19):
    vals = np.linspace(0.0, 1.0, n)
    aa, bb = np.meshgrid(vals, vals, indexing="ij")
    return f_bar_w_coeffs(aa.ravel(), bb.ravel(), M).reshape(-1, M + 1)


def row_major_reference(F):
    """The kernel's arithmetic, in the same order, on row-major (B, M+1)
    work arrays: the reference for its bits."""
    F = np.ascontiguousarray(F, dtype=np.float64)
    B, Mp1 = F.shape
    M = Mp1 - 1
    R = np.zeros_like(F)
    R[:, 0] = 1.0 / F[:, 0]
    for m in range(1, Mp1):
        R[:, m] = -np.einsum("bj,bj->b", F[:, 1 : m + 1], R[:, m - 1 :: -1]) / F[:, 0]
    H = np.zeros_like(F)
    for m in range(M):
        H[:, m + 1] = np.einsum("bj,bj->b", F[:, : m + 1], F[:, m :: -1])
    G = np.zeros_like(F)
    G[:, 0] = R[:, 0]
    acc = np.zeros_like(F)
    P = H.copy()
    for j in range(1, Mp1):
        G[:, j] = (R[:, j] - acc[:, j]) / P[:, j]
        if j + 1 <= M:
            acc[:, j + 1 :] += G[:, j][:, None] * P[:, j + 1 :]
        if j < M:
            newP = np.zeros_like(F)
            for m in range(j + 1, Mp1):
                newP[:, m] = np.einsum("bj,bj->b", P[:, j:m], H[:, m - j : 0 : -1])
            P = newP
    return G


def edge_and_random_pairs(n=60):
    # the corners and edges of the (a, b) square, points next to them, and
    # uniform draws
    rng = np.random.default_rng(17)
    a = [0.0, 0.0, 1.0, 1.0, 0.5, 0.0, 1.0, 1e-9, 1 - 1e-16, 0.999, 1e-300, 0.25]
    b = [0.0, 1.0, 0.0, 1.0, 0.0, 0.5, 0.5, 1e-9, 1 - 1e-9, 0.999, 0.0, 0.75]
    return np.append(a, rng.random(n)), np.append(b, rng.random(n))


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


@pytest.mark.parametrize("K", [31, 60, 61, 100, 200])
def test_same_bits_as_row_major_reference(K):
    a, b = edge_and_random_pairs()
    F = f_bar_w_coeffs(a, b, (K - 1) // 2)
    ref = row_major_reference(F)
    G = _kernels.revert_odd_batch(F)
    assert G.shape == F.shape and G.flags.c_contiguous
    assert np.array_equal(G, ref)
    for B in (1, 2, 3):
        for i in range(0, F.shape[0] - B + 1, 5):
            assert np.array_equal(_kernels.revert_odd_batch(F[i : i + B]), ref[i : i + B])


def test_certification_grid_bits_and_memory():
    # the 10,201-point batch of verify conditions at grid 101, K 60: the same
    # bits as the reference, and no more memory than six work arrays (2.33 MiB
    # each) and a few rows; a transposed copy of F and G kept beside them
    # would peak near 18.8 MiB
    F = grid_coeffs(n=101, M=29)
    ref = row_major_reference(F)
    tracemalloc.start()
    try:
        G = _kernels.revert_odd_batch(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(G, ref)
    assert peak <= 15 * 2**20


def one_row_batch():
    return f_bar_w_coeffs(np.array([0.5]), np.array([0.25]), 29)


def many_row_batch():
    a, b = edge_and_random_pairs(8)
    return f_bar_w_coeffs(a, b, 29)


@pytest.mark.parametrize("make", [
    one_row_batch,
    lambda: one_row_batch()[0][None, :],  # a view of a 1-d array
    lambda: many_row_batch()[:2],
    lambda: np.asfortranarray(many_row_batch()),
    lambda: many_row_batch()[3:9],
    lambda: many_row_batch()[5:6],
], ids=["B1", "B1-view", "B2", "fortran", "row-slice", "row-slice-B1"])
def test_input_is_never_written(make):
    F = make()
    base = F if F.base is None else F.base
    before = base.copy()
    G = _kernels.revert_odd_batch(F)
    assert np.array_equal(base, before)
    assert not np.shares_memory(G, base)
    assert np.array_equal(G, row_major_reference(F))
