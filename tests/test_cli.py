import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from pqnorm.cli import build_parser, main

DATA = Path(__file__).parent / "data"


@pytest.fixture
def sign_csv(tmp_path):
    path = tmp_path / "sign.csv"
    path.write_text("1,1\n1,-1\n")
    return str(path)


@pytest.fixture
def eye_json(tmp_path):
    path = tmp_path / "eye.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "data": [1, 0, 0, 1]}))
    return str(path)


def scaled_ones_csv(tmp_path, c):
    path = tmp_path / "ones.csv"
    path.write_text("\n".join([",".join([repr(c)] * 4)] * 4) + "\n")
    return str(path)


def run_main(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestBounds:
    def test_single_pair_row(self, capsys):
        code, out = run_main(["bounds", "--p", "4", "--q", "dual"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("p,q,a,b,c_ab,ratio")
        row = lines[1].split(",")
        assert float(row[0]) == 4.0
        assert float(row[5]) < float(row[6])  # ours < krivine at p = 4

    def test_sweep_appends_inf_row(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _ = run_main(["bounds", "--p", "4:66", "--grid", "5",
                            "--out", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 7  # header + 5 points + inf row
        assert lines[-1].startswith("inf,1,0,0,")

    def test_deterministic_output(self, capsys):
        code1, out1 = run_main(["bounds", "--p", "2:32", "--grid", "7"], capsys)
        code2, out2 = run_main(["bounds", "--p", "2:32", "--grid", "7"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_bad_range(self, capsys):
        code, _ = run_main(["bounds", "--p", "8:4"], capsys)
        assert code == 2

    @pytest.mark.parametrize("grid", ["0", "1", "-3"])
    def test_sweep_needs_two_grid_points(self, grid, capsys):
        # grid 0 printed only the inf row, 1 only p = 2, -3 numpy's own message
        code = main(["bounds", "--p", "2:4", "--grid", grid])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"input error: a p range needs --grid >= 2, got {grid}\n"

    @pytest.mark.parametrize("grid", ["2", "3"])
    def test_sweep_needs_finite_max(self, grid, capsys):
        # grid 3 printed three identical inf rows after a numpy RuntimeWarning
        code = main(["bounds", "--p", "2:inf", "--grid", grid])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("input error: a p range needs a finite MAX; "
                                "the p = inf row is always added\n")

    def test_unsatisfiable_tolerance_is_exit_3(self, capsys):
        # the tail at (4, 4/3) is 2.7e-10, so 1e-13 cannot be certified
        code, out = run_main(["bounds", "--p", "4", "--tol", "1e-13"], capsys)
        assert code == 3
        assert out == ""

    def test_tail_fitted_at_most_twice(self, monkeypatch, capsys):
        # one row-wise fit per command serves the bisection of every pair
        # and the reported tail_bound
        from pqnorm import series

        fits = []
        fit = series.tail_fit

        def counting(absG):
            fits.append(absG.shape[0])
            return fit(absG)

        monkeypatch.setattr(series, "tail_fit", counting)
        for argv, rows in [(["bounds", "--p", "4"], [1]), (["bounds"], [102])]:
            fits.clear()
            code, _ = run_main(argv, capsys)
            assert code == 0
            assert fits == rows

    def test_one_reversion_for_the_sweep(self, monkeypatch, capsys):
        from pqnorm import _kernels

        rows = []
        revert = _kernels.revert_odd_batch

        def counting(F):
            rows.append(F.shape[0])
            return revert(F)

        monkeypatch.setattr(_kernels, "revert_odd_batch", counting)
        code, _ = run_main(["bounds"], capsys)
        assert code == 0
        assert rows == [102]  # 101 grid points and the inf row

    def test_first_uncertified_pair_is_exit_3(self, capsys):
        # p = 2.5 is the first of 2.5, 2.96, 3.5, inf whose tail (5e-6)
        # exceeds 1e-9; the sweep reports it and prints no row
        code = main(["bounds", "--p", "2.5:3.5", "--grid", "3", "--tol", "1e-9"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert main(["bounds", "--p", "2.5", "--tol", "1e-9"]) == 3
        alone = capsys.readouterr()
        assert captured.err == alone.err and alone.out == ""
        assert captured.err.startswith("numerical error: tail estimate 5.021e-06 too large")
        assert captured.err.endswith("c = 0.976185, hhat(c) = 1.0000, tail at c 5.021e-06, "
                                     "fitted tail radius 1.071786\n")

    @pytest.mark.parametrize("p,order,c,hhat", [("4", "300", "0.771929", "0.8093"),
                                                ("inf", "100", "0.801238", "0.8898"),
                                                ("4", "400", "0.428271", "0.4342")])
    def test_bisection_stopped_at_the_tail_radius_is_named(self, p, order, c, hhat, capsys):
        # the tail at c is tiny (2.988e-32 at order 300): the fitted tail is
        # inf just past c, so the bisection stops there with hhat(c) far below 1
        code = main(["bounds", "--p", p, "--order", order])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("numerical error: bisection stopped at the fitted "
                                       f"tail's radius, short of hhat(c) = 1: c = {c}, "
                                       f"hhat(c) = {hhat}, tail at c ")
        assert captured.err.endswith(f"fitted tail radius {c}\n")

    def test_order_200_certifies_the_default_pair(self, capsys):
        assert main(["bounds", "--p", "4", "--order", "200"]) == 0


@pytest.mark.parametrize("name,argv", [
    ("bounds_default.csv", []),
    ("bounds_p4.csv", ["--p", "4"]),
    ("bounds_p2-32_grid7_q1.5.csv", ["--p", "2:32", "--grid", "7", "--q", "1.5"]),
])
def test_bounds_golden_output(name, argv, capsys):
    # byte for byte the committed output; an intended change to c_ab or its
    # tail regenerates the file
    code, out = run_main(["bounds"] + argv, capsys)
    assert code == 0
    assert out == (DATA / name).read_text()


@pytest.mark.parametrize("name,argv", [
    ("verify_conditions.jsonl", ["verify", "conditions"]),
    # the documented defaults, and a suite that reads neither flag
    ("verify_conditions.jsonl", ["verify", "conditions", "--grid", "101", "--order", "60"]),
    ("verify_contours.jsonl", ["verify", "contours", "--grid", "21", "--order", "100"]),
    ("verify_contours.jsonl", ["verify", "contours"]),
    ("verify_identities.jsonl", ["verify", "identities"]),
])
def test_certification_golden_output(name, argv, capsys):
    # byte for byte the committed output, which pins the grid reversion's
    # and the contour continuation's bits end to end; an intended change to
    # the kernel, the conditions or the continuation regenerates the file
    code, out = run_main(argv, capsys)
    assert code == 0
    assert out == (DATA / name).read_text()


@pytest.mark.parametrize("command,flag", [
    (["bounds"], "--samples"), (["bounds"], "--seed"), (["bounds"], "--in"),
    (["round"], "--grid"),
    (["factorize"], "--order"), (["factorize"], "--grid"), (["factorize"], "--samples"),
    (["factorize"], "--tol"),
    (["verify", "conditions"], "--in"), (["verify", "conditions"], "--tol"),
    # every suite shares the verify parser, which reads --order, --grid and --seed alone
    (["verify", "conditions"], "--samples"), (["verify", "all"], "--samples"),
    (["verify", "contours"], "--in"), (["verify", "contours"], "--tol"),
    (["verify", "contours"], "--samples"), (["verify", "factorization"], "--p"),
    (["verify", "factorization"], "--in"), (["verify", "factorization"], "--tol"),
    (["verify", "identities"], "--samples"),
])
def test_flag_the_command_does_not_read_is_exit_2(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + [flag, "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"unrecognized arguments: {flag} 1" in captured.err


@pytest.mark.parametrize("command", ["check-conditions", "certify-defect"])
def test_deleted_commands_are_invalid_choices(command, capsys):
    # verify conditions prints everything both commands printed
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == ["bounds", "round", "factorize", "verify"]


class TestRound:
    def test_sign_matrix(self, sign_csv, capsys):
        code, out = run_main(["round", "--in", sign_csv, "--p", "inf", "--q", "1",
                              "--samples", "2000", "--seed", "7"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert set(rec) == {"cp_value", "c_ab", "best_value", "empirical_mean",
                            "samples", "seed", "ratio_bound"}
        assert rec["best_value"] == pytest.approx(2.0, abs=1e-9)
        assert rec["cp_value"] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-7)

    def test_identity_p2(self, eye_json, capsys):
        code, out = run_main(["round", "--in", eye_json, "--p", "2", "--q", "2",
                              "--samples", "500"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["best_value"] <= 1.0 + 1e-9

    def test_missing_input(self, capsys):
        code, _ = run_main(["round", "--in", "/nonexistent.csv"], capsys)
        assert code == 2

    def test_seeded_output_identical(self, sign_csv, capsys):
        args = ["round", "--in", sign_csv, "--p", "inf", "--q", "1",
                "--samples", "1000", "--seed", "42"]
        _, out1 = run_main(args, capsys)
        _, out2 = run_main(args, capsys)
        assert out1 == out2

    def test_unsatisfiable_tolerance_is_exit_3(self, sign_csv, capsys):
        code, _ = run_main(["round", "--in", sign_csv, "--p", "4", "--q", "1.3333333333333333",
                            "--tol", "1e-13", "--samples", "100"], capsys)
        assert code == 3

    def test_c_ab_computed_once_at_tol(self, sign_csv, monkeypatch, capsys):
        from pqnorm import krivine

        tols = []
        compute = krivine.compute_c_ab

        def counting(*a, **k):
            tols.append(k["tol"])
            return compute(*a, **k)

        monkeypatch.setattr(krivine, "compute_c_ab", counting)
        code, _ = run_main(["round", "--in", sign_csv, "--tol", "1e-6",
                            "--samples", "100"], capsys)
        assert code == 0
        assert tols == [1e-6]

    def test_one_reversion(self, tmp_path, monkeypatch, capsys):
        # compute_c_ab reverts the correlation series once and hands the
        # inverse to the Gram
        import numpy as np

        from pqnorm import _kernels

        path = tmp_path / "g10.csv"
        np.savetxt(path, np.random.default_rng(10).standard_normal((10, 10)), delimiter=",")
        rows = []
        revert = _kernels.revert_odd_batch

        def counting(F):
            rows.append(F.shape[0])
            return revert(F)

        monkeypatch.setattr(_kernels, "revert_odd_batch", counting)
        code, _ = run_main(["round", "--in", str(path), "--samples", "100"], capsys)
        assert code == 0
        assert rows == [1]

    def test_zero_samples_is_exit_2(self, sign_csv, capsys):
        code, _ = run_main(["round", "--in", sign_csv, "--samples", "0"], capsys)
        assert code == 2

    @pytest.mark.parametrize("c", [1e-200, 1e200])
    def test_extreme_scale(self, c, tmp_path, capsys):
        # ||c J||_{inf->1} = 16 c for the 4x4 ones matrix J, and the
        # relaxation is tight on rank one
        code, out = run_main(["round", "--in", scaled_ones_csv(tmp_path, c),
                              "--samples", "200"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["cp_value"] == pytest.approx(16.0 * c, rel=1e-12, abs=0.0)
        assert rec["best_value"] == pytest.approx(16.0 * c, rel=1e-12, abs=0.0)


class TestFactorize:
    def test_identity(self, eye_json, capsys):
        code, out = run_main(["factorize", "--in", eye_json, "--p", "2", "--q", "2"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["spectral_norm_B"] <= 1.0 + 1e-6
        assert rec["reconstruction_error"] < 1e-8
        assert rec["duality_gap"] <= 1e-4 * rec["dual_value"]

    @pytest.mark.parametrize("c", [1e-200, 1e200])
    @pytest.mark.parametrize("p,q,norm", [("inf", "1", 16.0), ("4", "1.3333333333333333", 8.0)])
    def test_extreme_scale(self, c, p, q, norm, tmp_path, capsys):
        code, out = run_main(["factorize", "--in", scaled_ones_csv(tmp_path, c),
                              "--p", p, "--q", q], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["primal_value"] == pytest.approx(norm * c, rel=1e-12, abs=0.0)
        assert rec["spectral_norm_B"] <= 1.0 + 1e-9
        assert rec["primal_value"] * (1.0 - 1e-12) <= rec["dual_value"]
        assert rec["duality_gap"] <= 1e-4 * rec["dual_value"]
        assert rec["norm_product"] <= rec["dual_value"] * (1.0 + 1e-12)

    def test_few_eigensolves(self, tmp_path, monkeypatch, capsys):
        # the dual is the repaired complementary-slackness point: one
        # lambda_min before the repair (the one after it is in closed form),
        # then the certificate's own check
        import numpy as np

        path = tmp_path / "g40.csv"
        np.savetxt(path, np.random.default_rng(40).standard_normal((40, 40)), delimiter=",")
        calls = [0]
        for name in ("eigh", "eigvalsh"):
            def counting(*a, _fn=getattr(np.linalg, name), **k):
                calls[0] += 1
                return _fn(*a, **k)

            monkeypatch.setattr(np.linalg, name, counting)
        code, _ = run_main(["factorize", "--in", str(path)], capsys)
        assert code == 0
        assert calls[0] <= 2

    def test_more_than_200_rows(self, tmp_path, capsys):
        # the dense eigensolves have no size cap; 201 rows used to exit 2
        import numpy as np

        path = tmp_path / "tall.csv"
        np.savetxt(path, np.random.default_rng(201).standard_normal((201, 3)), delimiter=",")
        code, out = run_main(["factorize", "--in", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["spectral_norm_B"] <= 1.0 + 1e-9

    def test_invalid_pair(self, eye_json, capsys):
        code, _ = run_main(["factorize", "--in", eye_json, "--p", "1.5", "--q", "1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("command", ["factorize", "round"])
    def test_eigensolver_failure_is_exit_3(self, command, sign_csv, monkeypatch, capsys):
        # LinAlgError subclasses ValueError, which would read as an input error
        import numpy as np

        def failing(*a, **k):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        samples = ["--samples", "100"] if command == "round" else []  # factorize draws none
        code = main([command, "--in", sign_csv] + samples)
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "numerical error: Eigenvalues did not converge\n"


def plus_minus_csv(tmp_path, c):
    path = tmp_path / "pm.csv"
    path.write_text(f"{c!r},{c!r}\n{c!r},{-c!r}\n")
    return str(path)


class TestNearTheFloatRange:
    def test_round_mean_does_not_overflow(self, tmp_path, capsys):
        # the mean, about 1.6e305, used to print as Infinity: the sample
        # total overflowed
        recs = []
        for c in (1e200, 1e305):
            code, out = run_main(["round", "--in", plus_minus_csv(tmp_path, c)], capsys)
            assert code == 0
            recs.append(json.loads(out))
        assert all(math.isfinite(v) for v in recs[1].values())
        assert recs[1]["empirical_mean"] == pytest.approx(recs[0]["empirical_mean"] * 1e105,
                                                          rel=1e-12)

    def test_round_value_does_not_overflow_below_the_norm(self, tmp_path, capsys):
        # ||c I||_{4->4/3} = sqrt(2) c is finite at c = 1e308, but D_y A
        # overflowed before the sphere scaling and best_value was Infinity
        recs = []
        for c in (1.0, 1e308):
            path = tmp_path / "eye.csv"
            path.write_text(f"{c!r},0\n0,{c!r}\n")
            code, out = run_main(["round", "--in", str(path), "--p", "4",
                                  "--q", "1.3333333333333333", "--samples", "500"], capsys)
            assert code == 0
            recs.append(json.loads(out))
        for key in ("best_value", "empirical_mean"):
            assert recs[1][key] == pytest.approx(recs[0][key] * 1e308, rel=1e-12)

    @pytest.mark.parametrize("text,pq", [
        ("1e305,1e305\n1e305,-1e305\n", ["--p", "inf", "--q", "1"]),
        # ||t||/2 + ||s||/2 is 1.4e308, but their sum overflowed: dual_value
        # was Infinity
        ("1e308,0\n0,1e308\n", ["--p", "4", "--q", "1.3333333333333333"]),
    ], ids=["plus-minus-1e305", "identity-1e308"])
    def test_factorize_is_finite(self, text, pq, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text(text)
        code, out = run_main(["factorize", "--in", str(path)] + pq, capsys)
        assert code == 0
        rec = json.loads(out)
        assert all(math.isfinite(rec[k]) for k in ("dual_value", "primal_value", "duality_gap"))
        assert rec["primal_value"] <= rec["dual_value"]

    @pytest.mark.parametrize("command", ["round", "factorize"])
    def test_norm_past_the_float_range_is_exit_3(self, command, tmp_path, capsys):
        # the (inf, 1) norm is 2e308: both commands used to exit 0 and print
        # Infinity and NaN
        code = main([command, "--in", plus_minus_csv(tmp_path, 1e308)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("numerical error: relaxation value inf")


@pytest.mark.parametrize("argv", [["verify", "conditions", "--grid", "2"], ["bounds", "--p", "4"]])
def test_allocation_failure_is_exit_2(argv, capsys):
    # order 1e14 asks for 364 TiB or more, past any address space, so the
    # allocation fails at once; it used to end in a traceback and exit 1
    code = main(argv + ["--order", "100000000000001"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("input error: Unable to allocate")


class TestVerify:
    def test_conditions_suite(self, capsys):
        code, out = run_main(["verify", "conditions", "--grid", "21"], capsys)
        assert code == 0
        recs = [json.loads(l) for l in out.strip().splitlines()]
        assert all(r["pass"] for r in recs)
        targets = {r["target"] for r in recs}
        assert "C1(k=29)" in targets and "defect-certificate" in targets

    def test_identities_suite_small(self, capsys):
        code, out = run_main(["verify", "identities"], capsys)
        assert code == 0
        recs = [json.loads(l) for l in out.strip().splitlines()]
        assert sum("correlation" in r["target"] for r in recs) >= 48

    def test_identities_suite_draws_nothing_from_the_seed(self, capsys):
        # quadrature, not Monte Carlo: --seed (read by the factorization
        # suite) leaves the output byte for byte the same
        outs = [run_main(["verify", "identities", "--seed", seed], capsys) for seed in ("0", "5")]
        assert outs[0] == outs[1] and outs[0][0] == 0

    def test_domain_error_is_exit_2(self, capsys):
        # order below k_max makes the conditions check impossible
        code = main(["verify", "conditions", "--grid", "5", "--order", "28"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("input error: the conditions for odd k <= 29 need order "
                                "K >= 29, but the series stop at degree 27\n")
        # the suite reverts its grid first; an order below 1 is still an input error
        code, _ = run_main(["verify", "conditions", "--grid", "5", "--order", "0"], capsys)
        assert code == 2

    def test_contours_make_one_continuation_call_per_b(self, monkeypatch, capsys, cold_rules):
        # 25 (a, b) pairs of 50 contour points: one continuation call per b
        # covers all five a.  The continuation sums closed-form series, so
        # even from cold the command builds no Gauss rule and calls no
        # numpy.linalg function.  The three inversion-formula pairs evaluate
        # their correlation series once each, for all four k.
        import numpy as np
        from scipy import integrate

        from pqnorm import oracles, specfun

        calls, series, quad_calls, linalg_calls = [0], [0], [0], [0]

        def count(owner, name, counter):
            fn = getattr(owner, name)

            def wrapper(*a, **k):
                counter[0] += 1
                return fn(*a, **k)

            monkeypatch.setattr(owner, name, wrapper)

        count(oracles, "euler_continuation", calls)
        count(oracles, "f_bar_w_coeffs", series)
        count(integrate, "quad", quad_calls)
        for name in np.linalg.__all__:
            if not isinstance(getattr(np.linalg, name), type):
                count(np.linalg, name, linalg_calls)
        code, out = run_main(["verify", "contours"], capsys)
        assert code == 0 and len(out.splitlines()) == 38
        assert calls[0] == 5
        assert linalg_calls[0] == 0
        assert specfun._gauss_jacobi.cache_info().misses == 0
        assert series[0] == 3
        assert quad_calls[0] == 0

    def test_identities_build_each_rule_once(self, capsys, cold_rules):
        # the 48 correlation values take two 64-node Gauss-Jacobi pieces each
        # (96 builds before the rules were cached), from 16 distinct rules,
        # one per ordered exponent pair of the lattice.  The Hermite checks
        # and crosschecks take one Gauss-Laguerre rule per exponent c: the
        # lattice's four and 0.5
        from pqnorm import specfun

        code, _ = run_main(["verify", "identities"], capsys)
        assert code == 0
        assert specfun._gauss_jacobi.cache_info().misses == 16
        assert specfun._gauss_laguerre.cache_info().misses == 5

    def test_contours_revert_once(self, monkeypatch, capsys):
        # the three inversion-formula pairs share one reversion
        from pqnorm import _kernels

        rows = []
        revert = _kernels.revert_odd_batch

        def counting(F):
            rows.append(F.shape[0])
            return revert(F)

        monkeypatch.setattr(_kernels, "revert_odd_batch", counting)
        code, _ = run_main(["verify", "contours"], capsys)
        assert code == 0
        assert rows == [3]

    def test_inversion_formula_check_is_relative(self, monkeypatch, capsys):
        # the (0, 0, k = 9) reference is 2.76e-6: an estimate 1e-5 off in
        # relative terms is only 2.8e-11 off in absolute ones, and must fail
        from pqnorm import oracles

        exact = oracles.contour_inverse_coeff

        def off_at_k9(a, b, ks):
            est = exact(a, b, ks)
            return [e * (1.0 + 1e-5) if (a, b, k) == (0.0, 0.0, 9) else e
                    for k, e in zip(ks, est)]

        monkeypatch.setattr(oracles, "contour_inverse_coeff", off_at_k9)
        code, out = run_main(["verify", "contours"], capsys)
        assert code == 1
        failed = [r["target"] for r in map(json.loads, out.splitlines()) if not r["pass"]]
        assert failed == ["inversion-formula(a=0,b=0,k=9)"]


class TestConditionsCommands:
    def test_check_conditions(self, capsys):
        code, out = run_main(["verify", "conditions", "--grid", "15"], capsys)
        assert code == 0
        recs = [json.loads(l) for l in out.strip().splitlines()]
        # odd k = 1..29, then the certificate and the hhat line
        assert [r["target"] for r in recs[:15]] == [
            f"{'C1' if k % 4 == 1 else 'C2'}(k={k})" for k in range(1, 30, 2)]
        assert [r["target"] for r in recs[15:]] == ["defect-certificate",
                                                    "hhat-at-certified-point"]

    def test_certify_defect(self, capsys):
        # the defect-certificate line carries every number the retired
        # certify-defect command printed, equal at grid 21
        code, out = run_main(["verify", "conditions", "--grid", "21"], capsys)
        assert code == 0
        rec = json.loads(out.splitlines()[15])
        assert rec == {"target": "defect-certificate", "pass": True, "t_odd": 31,
                       "delta": math.asinh(0.974203), "grid_points": 441,
                       "h_err_max": 1.008765523280491e-06,
                       "rho_certified": 0.8630142103657821, "hhat_at_rho_max": 0.974203}

    @pytest.mark.parametrize("argv", [["verify", "conditions", "--grid", "21"]])
    def test_one_reversion_per_command(self, argv, monkeypatch, capsys):
        from pqnorm import _kernels

        rows = []
        revert = _kernels.revert_odd_batch

        def counting(F):
            G = revert(F)
            rows.append(G.shape[0])
            return G

        monkeypatch.setattr(_kernels, "revert_odd_batch", counting)
        for _ in range(2):  # a second call reverts again: nothing is cached
            rows.clear()
            code, _ = run_main(argv, capsys)
            assert code == 0
            assert rows == [231]  # the a >= b triangle of the 21 x 21 grid

    @pytest.mark.parametrize("argv", [["verify", "conditions", "--order", "28"],
                                      ["verify", "all"], ["verify", "conditions"]])
    def test_empty_grid_is_exit_2(self, argv, capsys):
        code = main(argv + ["--grid", "0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "input error: grid 0 has no points\n"

    @pytest.mark.parametrize("argv", [["verify", "conditions", "--order", "28"],
                                      ["verify", "all"], ["verify", "conditions"]])
    def test_negative_grid_is_exit_2(self, argv, capsys):
        code = main(argv + ["--grid", "-3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "input error: grid -3 has no points\n"

    def test_divergent_tail_fails_with_finite_radius(self, capsys):
        # at order 100 the fitted tail diverges at some points: the
        # certificate fails at radius 0 instead of evaluating hhat at -inf
        code, out = run_main(["verify", "conditions", "--grid", "21", "--order", "100"], capsys)
        assert code == 1 and capsys.readouterr().err == ""
        rec = json.loads(out.splitlines()[15])
        assert rec["target"] == "defect-certificate"
        assert not rec["pass"] and rec["h_err_max"] >= 0.5
        assert rec["rho_certified"] == 0.0
        assert 0.0 <= rec["hhat_at_rho_max"] <= 1.0


def test_console_entry_point(sign_csv):
    out = subprocess.run([sys.executable, "-m", "pqnorm.cli", "round", "--in", sign_csv,
                          "--p", "inf", "--q", "1", "--samples", "200"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert json.loads(out.stdout)["samples"] == 200
