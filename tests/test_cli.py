import json
import math
import subprocess
import sys

import pytest

from pqnorm.cli import main


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
        # one fit serves the bisection in compute_c_ab and the reported
        # tail_bound; refitting at every bisection step made ~200
        from pqnorm import series

        fits = []
        fit = series.tail_fit

        def counting(g, K):
            fits.append(K)
            return fit(g, K)

        monkeypatch.setattr(series, "tail_fit", counting)
        code, _ = run_main(["bounds", "--p", "4"], capsys)
        assert code == 0
        assert fits == [60]


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
        code = main([command, "--in", sign_csv, "--samples", "100"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "numerical error: Eigenvalues did not converge\n"


class TestVerify:
    def test_conditions_suite(self, capsys):
        code, out = run_main(["verify", "conditions", "--grid", "21"], capsys)
        assert code == 0
        recs = [json.loads(l) for l in out.strip().splitlines()]
        assert all(r["pass"] for r in recs)
        targets = {r["target"] for r in recs}
        assert "C1(k=29)" in targets and "defect-certificate" in targets

    def test_identities_suite_small(self, capsys):
        code, out = run_main(["verify", "identities", "--samples", "50000"], capsys)
        assert code == 0
        recs = [json.loads(l) for l in out.strip().splitlines()]
        assert sum("correlation" in r["target"] for r in recs) >= 48

    def test_domain_error_is_exit_2(self, capsys):
        # order below k_max makes the conditions check impossible
        code, _ = run_main(["check-conditions", "--grid", "5", "--order", "10"], capsys)
        assert code == 2
        # the suite reverts its grid first; an order below 1 is still an input error
        code, _ = run_main(["verify", "conditions", "--grid", "5", "--order", "0"], capsys)
        assert code == 2

    def test_contours_make_one_continuation_call_per_pair(self, monkeypatch, capsys):
        # 25 (a, b) pairs of 50 contour points; only points next to the branch
        # point fall back to quad, two calls each (real and imaginary part)
        from scipy import integrate

        from pqnorm import oracles, specfun

        calls, fallback_points, quad_calls = [0], [0], [0]
        cont, fallback, quad = (oracles.euler_continuation, specfun._euler_quad,
                                integrate.quad)

        def counting_cont(*a):
            calls[0] += 1
            return cont(*a)

        def counting_fallback(*a):
            fallback_points[0] += 1
            return fallback(*a)

        def counting_quad(*a, **k):
            quad_calls[0] += 1
            return quad(*a, **k)

        monkeypatch.setattr(oracles, "euler_continuation", counting_cont)
        monkeypatch.setattr(specfun, "_euler_quad", counting_fallback)
        monkeypatch.setattr(integrate, "quad", counting_quad)
        code, out = run_main(["verify", "contours"], capsys)
        assert code == 0 and len(out.splitlines()) == 38
        assert calls[0] == 25
        assert quad_calls[0] <= 2 * fallback_points[0]
        assert quad_calls[0] <= 100


class TestConditionsCommands:
    def test_check_conditions(self, capsys):
        code, out = run_main(["check-conditions", "--grid", "15"], capsys)
        assert code == 0
        recs = [json.loads(l) for l in out.strip().splitlines()]
        assert len(recs) == 15  # odd k = 1..29

    def test_certify_defect(self, capsys):
        code, out = run_main(["certify-defect", "--grid", "15"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["pass"] and rec["h_err_max"] <= 0.0129

    @pytest.mark.parametrize("argv", [["verify", "conditions", "--grid", "21"],
                                      ["certify-defect", "--grid", "21"]])
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
            assert sum(rows) == 441

    @pytest.mark.parametrize("argv", [["check-conditions"], ["certify-defect"],
                                      ["verify", "conditions"]])
    def test_empty_grid_is_exit_2(self, argv, capsys):
        code = main(argv + ["--grid", "0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "input error: grid 0 has no points\n"

def test_console_entry_point(sign_csv):
    out = subprocess.run([sys.executable, "-m", "pqnorm.cli", "round", "--in", sign_csv,
                          "--p", "inf", "--q", "1", "--samples", "200"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert json.loads(out.stdout)["samples"] == 200
