"""Tests of the benchmark itself: every independent check accepts real
pqnorm output and rejects a corrupted copy, each workload runs one op in
smoke mode, and a checkout without the program's source yields no result.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench_checks  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
from pqnorm import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(argv, out):
    rc = cli.main(argv + ["--out", str(out)])
    return rc, out.read_text()


@pytest.fixture(scope="module")
def matrix_outputs(tmp_path_factory):
    """Real `round` and `factorize` outputs at both exponent pairs."""
    tmp = tmp_path_factory.mktemp("matrix")
    A = np.random.default_rng(5).standard_normal((12, 10))
    path = tmp / "A.csv"
    np.savetxt(path, A, delimiter=",", fmt="%.17g")
    outs = {}
    for j, (cli_pq, (p, q), _) in enumerate(bench_workloads.PAIRS):
        pq = ["--in", str(path), "--p", cli_pq[0], "--q", cli_pq[1], "--seed", "7"]
        _, text = _run_cli(["round", "--samples", "2000"] + pq, tmp / "r.json")
        outs["round", j] = json.loads(text)
        _, text = _run_cli(["factorize"] + pq, tmp / "f.json")
        outs["factorize", j] = json.loads(text)
        outs["lower", j] = bench_checks.holder_lower_bound(A, p, q)
    return A, outs


def _round_problems(A, outs, j, out):
    p, q = bench_workloads.PAIRS[j][1]
    coeffs = bench_workloads.Checker().hhat_coeffs(j)
    return bench_checks.check_round(A, p, q, out, 1e-4, outs["lower", j], coeffs, 2000, 7)


def _factorize_problems(A, outs, j, out):
    p, q = bench_workloads.PAIRS[j][1]
    return bench_checks.check_factorize(A, p, q, out, outs["lower", j])


def test_lagrange_inversion_gives_sin_at_origin():
    g = bench_checks.inverse_coeffs(Fraction(0), Fraction(0), 10)
    assert g == [Fraction((-1) ** m, math.factorial(2 * m + 1)) for m in range(11)]


@pytest.mark.parametrize("j", [0, 1])
def test_round_check_accepts_and_rejects(matrix_outputs, j):
    A, outs = matrix_outputs
    good = outs["round", j]
    assert _round_problems(A, outs, j, good) == []
    corruptions = {
        "best above cp": lambda o: o.update(best_value=o["cp_value"] * (1 + 1e-6)),
        "cp below lower bound": lambda o: o.update(cp_value=outs["lower", j] * 0.99),
        "c_ab off": lambda o: o.update(c_ab=o["c_ab"] * 1.001),
        "ratio off": lambda o: o.update(ratio_bound=o["ratio_bound"] * 1.001),
        "best below guarantee": lambda o: o.update(
            best_value=o["cp_value"] / o["ratio_bound"] * 0.999),
        "seed not echoed": lambda o: o.update(seed=8),
    }
    for name, corrupt in corruptions.items():
        bad = copy.deepcopy(good)
        corrupt(bad)
        assert _round_problems(A, outs, j, bad), name


@pytest.mark.parametrize("j", [0, 1])
def test_factorize_check_accepts_and_rejects(matrix_outputs, j):
    A, outs = matrix_outputs
    good = outs["factorize", j]
    assert _factorize_problems(A, outs, j, good) == []
    corruptions = {
        "B scaled": lambda o: o.update(B=(np.asarray(o["B"]) * 1.01).tolist()),
        "s scaled": lambda o: o.update(s=(np.asarray(o["s"]) * 0.99).tolist()),
        "dual below primal": lambda o: o.update(dual_value=o["primal_value"] * 0.999),
        "gap misreported": lambda o: o.update(duality_gap=o["duality_gap"] + 1e-3),
        "norm product off": lambda o: o.update(norm_product=o["norm_product"] * 1.001),
    }
    for name, corrupt in corruptions.items():
        bad = copy.deepcopy(good)
        corrupt(bad)
        assert _factorize_problems(A, outs, j, bad), name


def _records(text):
    return [json.loads(line) for line in text.splitlines()]


def test_conditions_check_accepts_and_rejects(tmp_path):
    rc, text = _run_cli(["verify", "conditions", "--grid", "11"], tmp_path / "c.jsonl")
    good = _records(text)
    assert bench_checks.check_conditions(good, rc) == []
    assert bench_checks.check_conditions(good, 1)
    assert bench_checks.check_conditions(good[1:], rc)
    for i, field, value in [(0, "pass", False), (2, "worst_margin", None),
                            (4, "at_a", 0.5), (16, "max_hhat", 1.0001)]:
        bad = copy.deepcopy(good)
        bad[i][field] = bad[i]["worst_margin"] + 1e-9 if value is None else value
        assert bench_checks.check_conditions(bad, rc), (i, field)


def test_contours_check_accepts_and_rejects(tmp_path):
    rc, text = _run_cli(["verify", "contours"], tmp_path / "v.jsonl")
    good = _records(text)
    assert bench_checks.check_contours(good, rc) == []
    assert bench_checks.check_contours(good, 1)
    assert bench_checks.check_contours(good[:-1], rc)
    ref = next(i for i, r in enumerate(good) if r["target"].startswith("inversion-formula(a=0,b=0,"))
    for i, field, value in [(3, "pass", False), (ref, "reference", good[ref]["reference"] * 1.001)]:
        bad = copy.deepcopy(good)
        bad[i][field] = value
        assert bench_checks.check_contours(bad, rc), (i, field)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _names(kind):
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_runs_one_checked_op(workload):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0",
                  "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_reports_every_layer_metric():
    done = _bench("--workload", "factorize_dual", "--seed", "3", "--seconds", "1",
                  "--trace", "1", "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == _names("per_layer") == set(bench_trace.PER_LAYER)
    assert result["metrics"]["factorization.eigensolves"]["value"] > 0
    record = json.loads((HERE / "out" / "factorize_dual-seed3-trace1-smoke.json").read_text())
    assert sum(record["trace"]["layer_self_share"].values()) == pytest.approx(1.0, rel=1e-9)


def test_checkout_without_program_gives_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    done = _bench("--workload", "certify_grid", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
