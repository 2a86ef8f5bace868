import math
import tracemalloc

import numpy as np
import pytest

from pqnorm import _kernels
from pqnorm.errors import DomainError
from pqnorm.krivine import f_bar_w_coeffs


def grid_pairs(n=21):
    vals = np.linspace(0.0, 1.0, n)
    aa, bb = np.meshgrid(vals, vals, indexing="ij")
    return aa.ravel(), bb.ravel()


def row_major_reference(a, b, M):
    """The kernel's recurrence on row-major (B, M+1) work arrays, each dot
    product a scalar loop that sums from i = 0 up, as the kernel's einsum
    does: the reference for its bits."""
    a, b = np.ravel(a).astype(np.float64), np.ravel(b).astype(np.float64)
    u, ab = (1.0 - a) * (1.0 - b), a * b
    G = np.zeros((a.size, M + 1))
    D, W, T, S, E = np.zeros((5, a.size, M))

    def conv(x, y, n):
        """sum_{i <= n} x[:, i] * y[:, n - i]"""
        acc = np.zeros(a.size)
        for i in range(n + 1):
            acc += x[:, i] * y[:, n - i]
        return acc

    G[:, 0] = 1.0
    for n in range(M):
        D[:, n] = (2 * n + 1) * G[:, n]
        W[:, n] = (u + 2 * n * ab) * G[:, n]
        T[:, n] = conv(D, D, n)
        E[:, n] = conv(T, W, n)
        if n:
            S[:, n - 1] = conv(G, G, n - 1)
            E[:, n] += conv(S, E, n - 1)
        G[:, n + 1] = E[:, n] / -((2 * n + 2) * (2 * n + 3))
    return G


def edge_and_random_pairs(n=60):
    # the corners and edges of the (a, b) square, points next to them, and
    # uniform draws
    rng = np.random.default_rng(17)
    a = [0.0, 0.0, 1.0, 1.0, 0.5, 0.0, 1.0, 1e-9, 1 - 1e-16, 0.999, 1e-300, 0.25]
    b = [0.0, 1.0, 0.0, 1.0, 0.0, 0.5, 0.5, 1e-9, 1 - 1e-9, 0.999, 0.0, 0.75]
    return np.append(a, rng.random(n)), np.append(b, rng.random(n))


def test_sin_coefficients_exact_case():
    G = _kernels.revert_odd_batch([0.0], [0.0], 20)[0]
    ref = np.array([(-1.0) ** m / math.factorial(2 * m + 1) for m in range(21)])
    assert np.max(np.abs(G - ref)) < 1e-17


def test_identity_rows_are_exact():
    # a = 1 or b = 1 collapses the series to rho; the inverse is rho again
    G = _kernels.revert_odd_batch([1.0, 1.0, 0.0, 0.12, 1.0], [0.0, 0.6, 1.0, 1.0, 1.0], 12)
    assert np.all(G[:, 0] == 1.0)
    assert np.all(G[:, 1:] == 0.0)


def test_round_trip_against_forward_series():
    # evaluate f(f^{-1}(y)) = y on a few points per row
    a, b = grid_pairs(n=7)
    F = f_bar_w_coeffs(a, b, 24)
    G = _kernels.revert_odd_batch(a, b, 24)

    def eval_odd(w, x):
        acc = np.zeros(w.shape[0])
        for m in range(w.shape[1] - 1, -1, -1):
            acc = acc * x * x + w[:, m]
        return x * acc

    for y in [0.1, 0.4, 0.7]:
        rho = eval_odd(G, y)
        back = np.array([eval_odd(F[i : i + 1], rho[i])[0] for i in range(F.shape[0])])
        assert np.max(np.abs(back - y)) < 1e-10


@pytest.mark.parametrize("a,b,M,match", [
    ([0.2, math.nan], [0.2, 0.3], 5, "finite"),
    ([0.2, 0.3], [math.inf, 0.3], 5, "finite"),
    ([0.2, 1.5], [0.2, 0.3], 5, r"\[0, 1\]"),
    ([0.2, 0.3], [-1e-300, 0.3], 5, r"\[0, 1\]"),
    ([0.2, 0.3], [0.2], 5, "shape"),
    ([[0.2, 0.3]], [0.2, 0.3], 5, "shape"),
    ([0.2], [0.3], -1, "order"),
], ids=["nan", "inf", "above-one", "below-zero", "length", "ndim", "negative-order"])
def test_rejects_bad_input(a, b, M, match):
    with pytest.raises(DomainError, match=match):
        _kernels.revert_odd_batch(np.array(a), np.array(b), M)


def test_order_zero_and_empty_batch():
    assert np.array_equal(_kernels.revert_odd_batch([0.3, 0.8], [0.1, 0.0], 0), np.ones((2, 1)))
    assert _kernels.revert_odd_batch(np.zeros(0), np.zeros(0), 5).shape == (0, 6)


@pytest.mark.parametrize("K", [31, 60, 61, 100])
def test_rows_are_independent(K):
    # the pairs of the default bounds sweep: a row reverts to the same bits
    # in the batch as alone, which lets bounds revert every pair at once
    ps = np.geomspace(2.0, 100.0, 101)
    a = np.append(1.0 / (ps - 1.0), 0.0)  # a = p* - 1 = b on the dual rule
    G = _kernels.revert_odd_batch(a, a, (K - 1) // 2)
    for i in range(0, a.size, 3):
        assert np.array_equal(_kernels.revert_odd_batch(a[i : i + 1], a[i : i + 1], (K - 1) // 2),
                              G[i : i + 1])


@pytest.mark.parametrize("K", [31, 60, 61, 100, 200])
def test_same_bits_as_row_major_reference(K):
    a, b = edge_and_random_pairs()
    M = (K - 1) // 2
    ref = row_major_reference(a, b, M)
    G = _kernels.revert_odd_batch(a, b, M)
    assert G.shape == (a.size, M + 1) and G.flags.c_contiguous
    assert np.array_equal(G, ref)
    for B in (1, 2, 3):
        for i in range(0, a.size - B + 1, 5):
            assert np.array_equal(_kernels.revert_odd_batch(a[i : i + B], b[i : i + B], M),
                                  ref[i : i + B])


def test_certification_grid_bits_and_memory():
    # the 10,201-point batch of verify conditions at grid 101, K 60: the same
    # bits as the reference, and no more memory than six work arrays (2.33
    # MiB each) and a few rows; a seventh array, say the result's transposed
    # copy kept beside them, would peak near 16.3 MiB
    a, b = grid_pairs(n=101)
    ref = row_major_reference(a, b, 29)
    tracemalloc.start()
    try:
        G = _kernels.revert_odd_batch(a, b, 29)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(G, ref)
    assert peak <= 15 * 2**20


def many_pairs():
    return edge_and_random_pairs(8)


@pytest.mark.parametrize("make", [
    lambda: (np.array([0.5]), np.array([0.25])),
    lambda: tuple(np.array([[0.5, 0.25]]).T),  # views of one 2-d array
    lambda: tuple(np.vstack(many_pairs())[:, :2]),
    lambda: tuple(np.vstack(many_pairs())[:, 3:9]),
    lambda: tuple(np.vstack(many_pairs())[:, 5:6]),
    lambda: tuple(np.asfortranarray(np.vstack(many_pairs()))),
    lambda: tuple(np.vstack(many_pairs()).T.copy()[::2].T),  # strided
], ids=["B1", "B1-view", "B2", "row-slice", "row-slice-B1", "fortran", "strided"])
def test_input_is_never_written(make):
    a, b = make()
    bases = [x if x.base is None else x.base for x in (a, b)]
    before = [x.copy() for x in bases]
    G = _kernels.revert_odd_batch(a, b, 29)
    for base, old in zip(bases, before):
        assert np.array_equal(base, old)
        assert not np.shares_memory(G, base)
    assert np.array_equal(G, row_major_reference(a, b, 29))
