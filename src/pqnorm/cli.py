"""Command-line interface: bound sweeps, the full rounding pipeline,
factorization certificates, and the verification suites.

Exit codes: 0 success, 1 a verification check failed, 2 input error,
3 numerical or certification error.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import factorization, krivine, oracles, relaxation, rounding, series
from .errors import AccuracyError, CertificationError, DomainError, NumericalError

_IDENTITY_LATTICE = (0.0, 0.3, 0.7, 1.0)
_IDENTITY_RHOS = (0.2, 0.5, 0.8)
_CONTOUR_LATTICE = (0.0, 0.25, 0.5, 0.75, 0.95)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=float)


def _fmt(x) -> str:
    """12 significant digits; infinities print as inf."""
    return f"{float(x):.12g}"


def _parse_p(text: str):
    if ":" in text:
        lo, hi = text.split(":", 1)
        return float(lo), float(hi)
    return float(text)


def _emit(lines, out_path):
    payload = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _load_instance(args) -> relaxation.ProblemInstance:
    if not args.in_path:
        raise DomainError("--in PATH is required for this command")
    A = relaxation.load_matrix(args.in_path)
    return relaxation.ProblemInstance(A, krivine.NormPair(p=args.p, q=args.q))


def cmd_bounds(args) -> int:
    pval = _parse_p(args.p_text)
    if isinstance(pval, tuple):
        lo, hi = pval
        if not (2.0 <= lo < hi):
            raise DomainError("p range must satisfy 2 <= min < max")
        if math.isinf(hi):
            raise DomainError("a p range needs a finite MAX; the p = inf row is always added")
        if args.grid < 2:
            raise DomainError(f"a p range needs --grid >= 2, got {args.grid}")
        ps = list(np.geomspace(lo, hi, args.grid)) + [math.inf]
    else:
        ps = [pval]
    if args.q_text == "dual":
        pairs = [krivine.NormPair(p, krivine.dual_exponent(p)) for p in ps]
    else:
        pairs = [krivine.NormPair(p, float(args.q_text)) for p in ps]
    reports = krivine.bounds_sweep(pairs, K=args.order, tol=args.tol)
    header = "p,q,a,b,c_ab,ratio,krivine_ratio,steinberg_ratio,K,tail_bound"
    lines = [header]
    for rep in reports:
        pair = rep.pair
        lines.append(",".join(_fmt(v) for v in (
            pair.p, pair.q, pair.a, pair.b, rep.c_ab, rep.ratio,
            rep.krivine_ratio, rep.steinberg_ratio, rep.K, rep.tail_bound)))
    _emit(lines, args.out_path)
    return 0


def cmd_round(args) -> int:
    inst = _load_instance(args)
    sol = relaxation.solve_cp(inst, seed=args.seed)
    report = krivine.approx_ratio(inst.pair, K=args.order, tol=args.tol)
    tg = rounding.build_transformed_gram(sol, inst.pair, report.c_ab, report.inverse)
    rs = rounding.sample_round(inst, tg, num_samples=args.samples, seed=args.seed)
    _emit([_dumps({
        "cp_value": sol.value,
        "c_ab": report.c_ab,
        "best_value": rs.value,
        "empirical_mean": rs.empirical_mean_value,
        "samples": rs.sample_count,
        "seed": args.seed,
        "ratio_bound": report.ratio,
    })], args.out_path)
    return 0


def cmd_factorize(args) -> int:
    inst = _load_instance(args)
    primal = relaxation.solve_cp(inst, seed=args.seed)
    dual = factorization.solve_dual(inst, primal=primal)
    cert = factorization.build_certificate(inst, dual.s, dual.t)
    _emit([_dumps({
        "s": list(cert.s),
        "t": list(cert.t),
        "B": [list(row) for row in cert.B],
        "dual_value": cert.dual_value,
        "primal_value": primal.value,
        "duality_gap": cert.dual_value - primal.value,
        "spectral_norm_B": cert.spectral_norm_B,
        "norm_product": cert.norm_product,
        "reconstruction_error": cert.reconstruction_error,
        "min_eigenvalue": cert.min_eigenvalue,
    })], args.out_path)
    return 0


def _check(target: str, passed: bool, **fields) -> dict:
    rec = {"target": target, "pass": bool(passed)}
    rec.update(fields)
    return rec


def _identity(target: str, estimate: float, reference: float, tol: float) -> dict:
    return _check(target, abs(estimate - reference) <= tol,
                  estimate=estimate, reference=reference)


def _suite_identities(args):
    # quadrature against the closed forms: nothing is sampled, so the output
    # does not depend on --seed
    for a in _IDENTITY_LATTICE:
        for b in _IDENTITY_LATTICE:
            refs = oracles.correlation_reference(a, b, np.array(_IDENTITY_RHOS))
            for rho, ref in zip(_IDENTITY_RHOS, refs):
                yield _identity(f"correlation(a={a:g},b={b:g},rho={rho:g})",
                                oracles.polar_f_ab(a, b, rho), float(ref), 1e-12)
    for c in _IDENTITY_LATTICE:
        for res in oracles.hermite_coeff_check(c):
            yield _identity(res.target, res.estimate, res.reference, 1e-12)
    for a, b in [(0.0, 0.0), (0.3, 0.7), (0.5, 0.5)]:
        # the series is cut at k = 35, so its tail sets the tolerance
        for res in oracles.noise_correlation_crosscheck(a, b, (0.5, 0.8)):
            yield _identity(res.target, res.estimate, res.reference, 1e-5)


def _suite_conditions(args):
    cg = krivine.inverse_coeff_grid(args.grid, args.order)  # one reversion for all three
    cert = krivine.certify_defect(cg)  # checks the conditions once, for the margins too
    for m in cert.conditions.margins:
        yield _check(f"{m.kind}(k={m.k})", m.passed, worst_margin=m.worst_margin,
                     at_a=m.at_a, at_b=m.at_b)
    yield _check("defect-certificate", cert.ok, t_odd=cert.t_odd, delta=cert.delta,
                 h_err_max=cert.h_err_max, rho_certified=cert.rho_certified,
                 hhat_at_rho_max=cert.hhat_at_rho_max, grid_points=args.grid ** 2)
    x0 = math.asinh(1.0) / 1.00863
    worst = krivine.hhat_grid_max(cg, x0)
    yield _check("hhat-at-certified-point", worst <= 1.0 + 1e-9, x0=x0, max_hhat=worst)


def _suite_contours(args):
    # one continuation call per b for every a; lines go out a-major
    by_b = [oracles.contour_magnitude_check(np.array(_CONTOUR_LATTICE), b)
            for b in _CONTOUR_LATTICE]
    for a, reps in zip(_CONTOUR_LATTICE, zip(*by_b)):
        for b, rep in zip(_CONTOUR_LATTICE, reps):
            yield _check(f"contour(a={a:g},b={b:g})",
                         rep.min_arc > 1.0 and rep.min_segment > 1.0,
                         min_arc=rep.min_arc, min_segment=rep.min_segment)
    worst = min(oracles.beta_bound_expression(b) for b in np.linspace(0.0, 0.999, 201))
    yield _check("beta-bound-expression", worst >= 1.003, min_value=worst)
    lattice = [(0.0, 0.0), (0.5, 0.5), (0.2, 0.8)]
    pairs = [krivine.NormPair.from_ab(a, b) for a, b in lattice]
    cg = krivine.inverse_coeff_grid(([p.a for p in pairs], [p.b for p in pairs]), 31)
    ks = (3, 5, 7, 9)
    for (a, b), g in zip(lattice, cg.G):  # one reversion for the three pairs
        for k, est in zip(ks, oracles.contour_inverse_coeff(a, b, ks)):
            ref = float(g[k // 2])
            # relative: the k = 9 references are as small as 3e-6
            yield _check(f"inversion-formula(a={a:g},b={b:g},k={k})",
                         abs(est - ref) <= 1e-6 * abs(ref), estimate=est, reference=ref)


def _suite_factorization(args):
    pair = krivine.NormPair(4.0, 4.0 / 3.0)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=args.seed, spawn_key=(0xFA,)))
    for i in range(10):
        A = rng.standard_normal((6, 5))
        inst = relaxation.ProblemInstance(A, pair)
        primal = relaxation.solve_cp(inst, seed=args.seed + i)
        dual = factorization.solve_dual(inst, primal=primal)
        cert = factorization.build_certificate(inst, dual.s, dual.t)
        gap = cert.dual_value - primal.value
        ok = (cert.reconstruction_error < 1e-8
              and cert.spectral_norm_B <= 1.0 + 1e-6
              and cert.norm_product <= cert.dual_value + 1e-6
              and gap <= 1e-4 * cert.dual_value)
        yield _check(f"factorization(instance={i})", ok,
                     dual_value=cert.dual_value, primal_value=primal.value,
                     duality_gap=gap, spectral_norm_B=cert.spectral_norm_B,
                     norm_product=cert.norm_product,
                     reconstruction_error=cert.reconstruction_error)


_SUITES = {
    "identities": (_suite_identities,),
    "conditions": (_suite_conditions,),
    "contours": (_suite_contours,),
    "factorization": (_suite_factorization,),
    "all": (_suite_identities, _suite_conditions, _suite_contours, _suite_factorization),
}


def cmd_verify(args) -> int:
    lines = []
    all_pass = True
    for suite in _SUITES[args.suite]:
        for rec in suite(args):
            all_pass = all_pass and rec["pass"]
            lines.append(_dumps(rec))
    _emit(lines, args.out_path)
    return 0 if all_pass else 1


def _float_or_inf(text: str) -> float:
    return math.inf if text.strip().lower() in ("inf", "infinity") else float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqnorm",
        description="Certified bounds and Gaussian Holder-dual rounding for "
                    "p->q operator norms.")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "order": dict(type=int, default=series.CERT_ORDER, metavar="K",
                      help="series truncation order (default %(default)s)"),
        "grid": dict(type=int, default=101, metavar="N", help="grid resolution (default %(default)s)"),
        "samples": dict(type=int, default=10_000, metavar="N", help="sample count (default %(default)s)"),
        "seed": dict(type=int, default=0, metavar="S"),
        "in": dict(dest="in_path", default=None, metavar="PATH"),
        "tol": dict(type=float, default=1e-4, metavar="X"),
        "p": dict(type=_float_or_inf, default=math.inf),
        "q": dict(type=float, default=1.0),
    }

    def options(sp, *names):
        """Each named option, the ones the command reads, and --out."""
        for name in names:
            sp.add_argument(f"--{name}", **flags[name])
        sp.add_argument("--out", dest="out_path", default=None, metavar="PATH")

    sp = sub.add_parser("bounds", help="CSV sweep of approximation-ratio bounds")
    sp.add_argument("--p", dest="p_text", default="2:100",
                    help="single value or MIN:MAX sweep range (default %(default)s; "
                         "an inf row is appended to sweeps)")
    sp.add_argument("--q", dest="q_text", default="dual",
                    help="'dual' for q = p*, or a fixed value (default %(default)s)")
    options(sp, "order", "grid", "tol")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("round", help="full relax-transform-round pipeline on a matrix")
    options(sp, "in", "p", "q", "order", "samples", "seed", "tol")
    sp.set_defaults(func=cmd_round)

    sp = sub.add_parser("factorize", help="dual weights and factorization certificate")
    options(sp, "in", "p", "q", "seed")
    sp.set_defaults(func=cmd_factorize)

    sp = sub.add_parser("verify", help="run a verification suite (JSON lines)")
    sp.add_argument("suite", choices=sorted(_SUITES))
    options(sp, "order", "grid", "seed")
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:  # a ValueError, but a numerical failure
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, OSError, ValueError, MemoryError) as exc:
        # every allocation is sized by the input: the matrix, --order, --grid, --samples
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, CertificationError, NumericalError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
