"""Checks of pqnorm's CLI outputs made apart from the program.

Nothing here imports pqnorm: lower bounds come from a separate Holder power
iteration, inverse-series coefficients from Lagrange inversion in exact
(``fractions``) or extended (``mpmath``) arithmetic, and Gaussian moments
from ``math.gamma``.  Every check returns a list of problems; an empty list
means the output passed.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np

#: the program's own pass threshold for the coefficient conditions; a margin
#: recomputed within it cannot flip a pass.
CONDITION_TOL = 1e-12
#: the paper's epsilon_0: hhat must stay <= 1 at asinh(1) / 1.00863.
X0_CERTIFIED = math.asinh(1.0) / 1.00863


# -- exponents and Gaussian moments -----------------------------------------

def dual_exponent(r):
    if math.isinf(r):
        return 1.0
    if r == 1.0:
        return math.inf
    return r / (r - 1.0)


def gaussian_moment(r):
    """(E|g|^r)^(1/r) for a standard Gaussian g, from math.gamma."""
    return (2.0 ** (r / 2.0) * math.gamma((r + 1.0) / 2.0) / math.sqrt(math.pi)) ** (1.0 / r)


def lp_norm(x, r):
    x = np.abs(np.asarray(x, dtype=np.float64))
    if math.isinf(r):
        return float(np.max(x))
    return float(np.sum(x ** r) ** (1.0 / r))


# -- lower bound on ||A||_{p->q} ---------------------------------------------

def _psi(z, r):
    """The maximizer direction sgn(z)|z|^(r-1) of <., z> on the l_r ball."""
    return np.sign(z) if r == 1.0 else np.sign(z) * np.abs(z) ** (r - 1.0)


def holder_lower_bound(A, p, q, starts=12, iters=400, seed=0):
    """Multi-start nonlinear power iteration on ||Ax||_q / ||x||_p.

    Every iterate x is a feasible point, so the best ratio seen is a lower
    bound on the p->q norm whether or not the iteration converged.
    """
    A = np.asarray(A, dtype=np.float64)
    rng = np.random.default_rng(seed)
    ps = dual_exponent(p)
    best = 0.0
    for _ in range(starts):
        x = rng.standard_normal(A.shape[1])
        prev = -math.inf
        for _ in range(iters):
            z = A.T @ _psi(A @ x, q)
            x = np.sign(z) if math.isinf(p) else _psi(z, ps)
            val = lp_norm(A @ x, q) / lp_norm(x, p)
            best = max(best, val)
            if val - prev <= 1e-13 * val:
                break
            prev = val
    return best


# -- inverse series by Lagrange inversion ------------------------------------

def inverse_coeffs(a, b, M, one=Fraction(1)):
    """Coefficients g_1, g_3, ..., g_{2M+1} of the inverse of
    f(rho) = rho * 2F1((1-a)/2, (1-b)/2; 3/2; rho^2).

    Lagrange inversion in w = rho^2: with R(w) = 1 / F(w) and
    f(rho) = rho F(rho^2), [y^(2m+1)] f^{-1} = [w^m] R(w)^(2m+1) / (2m+1).
    Powers of R come from J.C.P. Miller's recurrence.  ``one`` fixes the
    arithmetic: Fraction(1) for exact rationals, mpmath.mpf(1) otherwise.
    """
    A = (one - a) / 2
    B = (one - b) / 2
    F = [one]
    for m in range(M):
        F.append(F[-1] * (A + m) * (B + m) / ((one * 3 / 2 + m) * (m + 1)))
    R = [one]  # R = 1/F, F[0] = 1
    for m in range(1, M + 1):
        R.append(-sum(F[j] * R[m - j] for j in range(1, m + 1)))
    out = []
    for m in range(M + 1):
        k = 2 * m + 1
        P = [one]  # P = R^k up to w^m
        for n in range(1, m + 1):
            P.append(sum((k * j - n + j) * R[j] * P[n - j] for j in range(1, n + 1)) / n)
        out.append(P[m] / k)
    return out


def hhat(coeffs, x):
    """sum_m |g_{2m+1}| x^(2m+1) in float."""
    return sum(abs(float(g)) * x ** (2 * m + 1) for m, g in enumerate(coeffs))


# -- per-command checks ------------------------------------------------------

def check_round(A, p, q, out, tol, lower, hhat_coeffs, samples, seed):
    """`pqnorm round`: the sandwich lower <= cp and cp / ratio <= best <= cp,
    the ratio from math.gamma, and hhat(c_ab) = 1 from the exact series."""
    bad = []
    cp, best, c, ratio = out["cp_value"], out["best_value"], out["c_ab"], out["ratio_bound"]
    slack = 1e-9 * abs(cp)
    if out["samples"] != samples or out["seed"] != seed:
        bad.append(f"samples/seed echoed as {out['samples']}/{out['seed']}")
    if not lower <= cp + slack:
        bad.append(f"cp_value {cp!r} below the power-iteration lower bound {lower!r}")
    if not best <= cp + slack:
        bad.append(f"best_value {best!r} above cp_value {cp!r}")
    if not out["empirical_mean"] <= best:
        bad.append(f"empirical_mean {out['empirical_mean']!r} above best_value {best!r}")
    gammas = gaussian_moment(dual_exponent(p)) * gaussian_moment(q)
    if not 0.0 < c <= 1.0:
        bad.append(f"c_ab {c!r} outside (0, 1]")
        return bad
    expect = 1.0 / (gammas * c)
    if not math.isclose(ratio, expect, rel_tol=1e-12):
        bad.append(f"ratio_bound {ratio!r} != 1/(gamma_p* gamma_q c_ab) = {expect!r}")
    if not expect >= 1.0 / gammas:
        bad.append(f"ratio {expect!r} below 1/(gamma_p* gamma_q) = {1.0 / gammas!r}")
    if not best >= cp / ratio - slack:
        bad.append(f"best_value {best!r} below cp_value / ratio_bound = {cp / ratio!r}")
    if math.isinf(p) and q == 1.0:
        if not abs(c - math.asinh(1.0)) <= tol:
            bad.append(f"c_ab {c!r} != asinh(1) within {tol}")
        krivine = math.pi / (2.0 * math.asinh(1.0))
        if not abs(ratio - krivine) <= 2.0 * tol / c * krivine:
            bad.append(f"ratio_bound {ratio!r} != pi / (2 asinh 1) = {krivine!r}")
    h = hhat(hhat_coeffs, c)
    if not 1.0 - tol <= h <= 1.0 + 1e-12:
        bad.append(f"hhat(c_ab) = {h!r}, not within [1 - {tol}, 1]")
    return bad


def check_factorize(A, p, q, out, lower):
    """`pqnorm factorize`: A = D_s^(1/2) B D_t^(1/2), ||B||_2 <= 1,
    norm_product <= dual_value, weak duality and a small duality gap."""
    bad = []
    A = np.asarray(A, dtype=np.float64)
    s, t, B = np.asarray(out["s"]), np.asarray(out["t"]), np.asarray(out["B"])
    if B.shape != A.shape or s.shape != (A.shape[0],) or t.shape != (A.shape[1],):
        return [f"shapes s{s.shape} t{t.shape} B{B.shape} do not fit A{A.shape}"]
    if np.any(s < 0) or np.any(t < 0):
        bad.append("negative dual weights")
        return bad
    recon = np.sqrt(s)[:, None] * B * np.sqrt(t)[None, :]
    err = float(np.max(np.abs(recon - A)))
    if not err <= 1e-9 * max(1.0, float(np.max(np.abs(A)))):
        bad.append(f"reconstruction error {err:.3e}")
    normB = float(np.linalg.norm(B, 2))
    if not normB <= 1.0 + 1e-6:
        bad.append(f"||B||_2 = {normB!r} > 1")
    alpha = 1.0 if q == 1.0 else dual_exponent(dual_exponent(q) / 2.0)
    beta = 1.0 if math.isinf(p) else dual_exponent(p / 2.0)
    dual = 0.5 * (lp_norm(s, alpha) + lp_norm(t, beta))
    product = math.sqrt(lp_norm(s, alpha) * lp_norm(t, beta))
    dv = out["dual_value"]
    if not math.isclose(dv, dual, rel_tol=1e-12):
        bad.append(f"dual_value {dv!r} != (||s|| + ||t||)/2 = {dual!r}")
    if not math.isclose(out["norm_product"], product, rel_tol=1e-12):
        bad.append(f"norm_product {out['norm_product']!r} != {product!r}")
    if not product <= dual * (1.0 + 1e-12):
        bad.append(f"norm_product {product!r} > dual_value {dual!r}")
    if not dual >= lower * (1.0 - 1e-12):
        bad.append(f"dual_value {dual!r} below the lower bound {lower!r} (weak duality)")
    gap = dv - out["primal_value"]
    if not math.isclose(out["duality_gap"], gap, rel_tol=1e-9, abs_tol=1e-12 * abs(dv)):
        bad.append(f"duality_gap {out['duality_gap']!r} != dual - primal = {gap!r}")
    if not -1e-9 * abs(dv) <= gap <= 1e-4 * dv:
        bad.append(f"duality gap {gap!r} outside [-tiny, 1e-4 dual_value]")
    return bad


def _all_pass(records, rc, expected_count):
    bad = []
    if rc != 0:
        bad.append(f"exit code {rc}")
    if len(records) != expected_count:
        bad.append(f"{len(records)} lines, expected {expected_count}")
    failing = [r["target"] for r in records if r.get("pass") is not True]
    if failing:
        bad.append(f"failing lines: {failing}")
    return bad


def _odd_k(target):
    return int(target.rsplit("k=", 1)[1].rstrip(")"))


def check_conditions(records, rc, K=60):
    """`pqnorm verify conditions`: every line passes; each worst C1/C2 margin
    matches the inverse coefficient recomputed at its reported point; hhat
    stays <= 1 at the certified point x0 and is at least its (0,0) value."""
    bad = _all_pass(records, rc, expected_count=17)
    margins = [r for r in records if r["target"][:2] in ("C1", "C2")]
    m_max = max((_odd_k(r["target"]) - 1) // 2 for r in margins) if margins else 0
    cache = {}
    with mpmath.workdps(40):
        for r in margins:
            k = _odd_k(r["target"])
            point = (r["at_a"], r["at_b"])
            if point not in cache:
                cache[point] = inverse_coeffs(mpmath.mpf(point[0]), mpmath.mpf(point[1]),
                                              m_max, one=mpmath.mpf(1))
            g = cache[point][(k - 1) // 2]
            margin = 1 / mpmath.factorial(k) - g if k % 4 == 1 else -g
            if not abs(float(margin) - r["worst_margin"]) <= CONDITION_TOL:
                bad.append(f"{r['target']} margin {r['worst_margin']!r} at {point} "
                           f"!= recomputed {float(margin)!r}")
    hh = [r for r in records if r["target"] == "hhat-at-certified-point"]
    if len(hh) != 1:
        return bad + ["no hhat-at-certified-point line"]
    rec = hh[0]
    if rec["x0"] != X0_CERTIFIED:
        bad.append(f"x0 {rec['x0']!r} != asinh(1)/1.00863")
    if not rec["max_hhat"] <= 1.0:
        bad.append(f"max_hhat {rec['max_hhat']!r} > 1")
    # at (a, b) = (0, 0) the inverse is sin, so hhat is the truncated sinh
    sinh_k = sum(X0_CERTIFIED ** (2 * m + 1) / math.factorial(2 * m + 1)
                 for m in range((K - 1) // 2 + 1))
    if not rec["max_hhat"] >= sinh_k * (1.0 - 1e-12):
        bad.append(f"max_hhat {rec['max_hhat']!r} below hhat(0,0) = {sinh_k!r}")
    return bad


def check_contours(records, rc):
    """`pqnorm verify contours`: every line passes, and at (a, b) = (0, 0),
    where the inverse series is sin, each reference is (-1)^((k-1)/2)/k!."""
    bad = _all_pass(records, rc, expected_count=38)
    seen = 0
    for r in records:
        if not r["target"].startswith("inversion-formula(a=0,b=0,"):
            continue
        seen += 1
        k = _odd_k(r["target"])
        exact = (-1) ** ((k - 1) // 2) / math.factorial(k)
        # the float64 reversion is off by ~4e-12 relative at k = 9; the
        # reference only needs to be the sin coefficient, not last-bit exact
        if not math.isclose(r["reference"], exact, rel_tol=1e-9):
            bad.append(f"{r['target']} reference {r['reference']!r} != {exact!r}")
    if seen != 4:
        bad.append(f"{seen} inversion-formula lines at (0, 0), expected 4")
    return bad
