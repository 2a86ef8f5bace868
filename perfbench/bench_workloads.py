"""The four workloads: how each input pool is made, the CLI command of each
op, and which independent check its output goes through.

A pool's make-up is fixed: the base matrices come from ``POOL_SEED``, so
every run times the same mix of easy and hard instances (the relaxation
solver's iteration count varies about tenfold between Gaussian matrices of
one size, so a pool redrawn per seed would not give a repeatable median).
The workload seed draws everything else: a random signed permutation of each
base matrix (which changes the file and the solver's trajectory but not the
norm or the instance's difficulty), the CLI ``--seed`` of every op, and the
order of the ops.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import bench_checks

WORKLOADS = ("round_dense", "factorize_dual", "certify_grid", "verify_contours")
POOL_SEED = 1804_03644
SAMPLES = 10_000
TOL = 1e-4  # the CLI's default --tol, which round's c_ab is certified to

#: (p, q) as the CLI spells them, the float values and the exact (a, b)
PAIRS = (
    (("inf", "1"), (math.inf, 1.0), (Fraction(0), Fraction(0))),
    (("4", repr(4.0 / 3.0)), (4.0, 4.0 / 3.0), (Fraction(1, 3), Fraction(1, 3))),
)

ROUND_SIZES = (60, 67, 73, 80, 87, 93, 100)
FACTORIZE_COUNT, FACTORIZE_SIZE = 12, 40
CONDITIONS_OPS = 14
CONTOURS_OPS = 6


@dataclass
class Op:
    argv: list
    out: Path
    kind: str
    A: np.ndarray = None
    pair: int = 0
    seed: int = 0


def _signed_permutation(A, rng):
    m, n = A.shape
    A = A[rng.permutation(m)][:, rng.permutation(n)]
    return A * rng.choice([-1.0, 1.0], m)[:, None] * rng.choice([-1.0, 1.0], n)[None, :]


def _matrix_ops(workdir, rng, command, bases, extra):
    ops = []
    for i, base in enumerate(bases):
        for j, (cli_pq, _, _) in enumerate(PAIRS):
            A = _signed_permutation(base, rng)
            path = workdir / f"A{i}-{j}.csv"
            np.savetxt(path, A, delimiter=",", fmt="%.17g")
            seed = int(rng.integers(2 ** 31))
            out = workdir / f"out{i}-{j}.json"
            argv = [command, "--in", str(path), "--out", str(out), "--p", cli_pq[0],
                    "--q", cli_pq[1], "--seed", str(seed)] + extra
            ops.append(Op(argv=argv, out=out, kind=command, A=A, pair=j, seed=seed))
    return ops


def make_pool(workload, seed, workdir):
    """Write the inputs of one pass into ``workdir``; return its ops in order."""
    workdir = Path(workdir)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "round_dense":
        bases = [np.random.default_rng([POOL_SEED, 1, n]).standard_normal((n, n))
                 for n in ROUND_SIZES]
        ops = _matrix_ops(workdir, rng, "round", bases, ["--samples", str(SAMPLES)])
    elif workload == "factorize_dual":
        bases = [np.random.default_rng([POOL_SEED, 2, i]).standard_normal(
            (FACTORIZE_SIZE, FACTORIZE_SIZE)) for i in range(FACTORIZE_COUNT)]
        ops = _matrix_ops(workdir, rng, "factorize", bases, [])
    else:
        suite, count = {"certify_grid": ("conditions", CONDITIONS_OPS),
                        "verify_contours": ("contours", CONTOURS_OPS)}[workload]
        ops = []
        for i in range(count):
            out = workdir / f"{suite}{i}.jsonl"
            s = int(rng.integers(2 ** 31))
            ops.append(Op(argv=["verify", suite, "--out", str(out), "--seed", str(s)],
                          out=out, kind=suite, seed=s))
        return ops
    # matrix ops keep their (inf, 1) / (4, 4/3) alternation; the seed
    # shuffles which base matrix comes when
    order = rng.permutation(len(ops) // 2)
    return [op for i in order for op in ops[2 * i: 2 * i + 2]]


class Checker:
    """Runs the independent check that fits an op, caching what depends
    only on the exponent pair."""

    def __init__(self):
        self._hhat = {}

    def hhat_coeffs(self, j):
        if j not in self._hhat:
            a, b = PAIRS[j][2]
            self._hhat[j] = bench_checks.inverse_coeffs(a, b, 29)
        return self._hhat[j]

    def __call__(self, op, rc):
        """Problems with the op's output; an empty list when it passed."""
        if op.kind in ("round", "factorize"):
            if rc != 0:
                return [f"exit code {rc}"]
            out = json.loads(op.out.read_text())
            p, q = PAIRS[op.pair][1]
            lower = bench_checks.holder_lower_bound(op.A, p, q, seed=op.seed)
            if op.kind == "round":
                return bench_checks.check_round(op.A, p, q, out, TOL, lower,
                                                self.hhat_coeffs(op.pair), SAMPLES, op.seed)
            return bench_checks.check_factorize(op.A, p, q, out, lower)
        records = [json.loads(line) for line in op.out.read_text().splitlines()] \
            if op.out.exists() else []
        if op.kind == "conditions":
            return bench_checks.check_conditions(records, rc)
        return bench_checks.check_contours(records, rc)
