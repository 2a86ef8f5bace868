"""Benchmark of whole `pqnorm` CLI commands, run in-process.

    python3 perfbench/run.py --workload round_dense --seed 1 --seconds 20 --trace 0

One op is one call of ``pqnorm.cli.main(argv)`` with ``--in``/``--out``
files, so it pays argument parsing, matrix reading, JSON formatting and the
output write.  Ops run in a closed loop, one after the other in this
process, with no added threads; the BLAS thread count stays at the library
default and is recorded.  A run makes a whole number of passes over the
workload's pool, ``floor(--seconds / PASS_SECONDS)`` and at least one, so
every run with the same ``--seconds`` does the same multiset of ops.  Every
output is checked by ``bench_checks`` outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
passes untraced, then traced (spans around pqnorm's public functions, see
``bench_trace``), and prints the per-layer metrics.  ``--smoke`` runs one op.
The last line of stdout is the result object; the full record, with the
machine description and every op, goes to ``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
WORK_DIR = HERE / ".work"

#: op seconds of one pass over each pool on a 2-core 2.1 GHz Xeon VM; a run
#: makes max(1, floor(--seconds / PASS_SECONDS)) passes
PASS_SECONDS = {"round_dense": 36.0, "factorize_dual": 18.0, "certify_grid": 14.0,
                "verify_contours": 17.0}
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PASS_SECONDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run one op only")
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_program():
    """Import pqnorm from this checkout's source tree, nowhere else."""
    if not (SRC / "pqnorm" / "cli.py").is_file():
        sys.exit(f"perfbench: no pqnorm source under {SRC}")
    sys.path.insert(0, str(SRC))
    from pqnorm import cli  # noqa: F401  (numpy and scipy come with it)


def _setup(args, workdir):
    """What a fresh process pays before its first op."""
    _import_program()
    import bench_workloads
    workdir.mkdir(parents=True, exist_ok=True)
    return bench_workloads.make_pool(args.workload, args.seed, workdir)


def _measure_setup(args, repeats):
    """Median wall time from process start to pool written, over fresh
    interpreter processes (CLOCK_MONOTONIC is shared across processes)."""
    times = []
    for i in range(repeats):
        probe_dir = WORK_DIR / f"probe{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--setup-probe", str(probe_dir)]
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                              check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]) - t0)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return statistics.median(times), times


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _blas_threads():
    """Thread count OpenBLAS reports, read through ctypes; None if unknown."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_record(pqnorm):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS") if k in os.environ}
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(), "thread_env": env or "library default"},
        "pqnorm_backend": pqnorm.BACKEND,
        "git_commit": _git_commit(),
    }


def _run_ops(ops, passes, checker, call):
    """Run the ops ``passes`` times; return per-op records."""
    records = []
    for _ in range(passes):
        for op in ops:
            op.out.unlink(missing_ok=True)
            rc, error = None, None
            t0 = time.perf_counter()
            try:
                rc = call(op.argv)
            except Exception as exc:  # an op that fails by traceback is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            failed = error is not None or rc != 0
            problems = [] if failed else checker(op, rc)
            records.append({"argv": op.argv, "seconds": seconds, "rc": rc, "error": error,
                            "failed": failed, "problems": problems})
    return records


def main(argv=None):
    args = _parse_args(argv)
    if args.setup_probe:
        _setup(args, Path(args.setup_probe))
        print(time.monotonic())
        return 0

    shutil.rmtree(WORK_DIR, ignore_errors=True)
    ops = _setup(args, WORK_DIR / "pool")
    import pqnorm
    from pqnorm import cli
    import bench_trace
    import bench_workloads

    setup_s, setup_samples = _measure_setup(args, 1 if args.smoke else SETUP_REPEATS)
    passes = max(1, int(args.seconds // PASS_SECONDS[args.workload]))
    if args.smoke:
        ops, passes = ops[:1], 1
    checker = bench_workloads.Checker()
    records = _run_ops(ops, passes, checker, cli.main)
    times = [r["seconds"] for r in records if not r["failed"]]
    op_p50 = statistics.median(times) if times else float("nan")

    trace_info = None
    if args.trace:
        tracer = bench_trace.Tracer()
        tracer.install()
        try:
            traced = _run_ops(ops, passes, checker, lambda a: tracer.run_op(cli.main, a))
        finally:
            tracer.uninstall()
        summaries = [bench_trace.op_summary(spans, counts) for spans, counts in tracer.ops]
        metrics = bench_trace.per_layer_metrics(summaries, op_p50)
        records += traced
        trace_info = {"layer_self_share": bench_trace.layer_shares(summaries),
                      "traced_op_s": [s["op_s"] for s in summaries]}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s.p50": {"value": op_p50, "unit": "s"},
            "ops_per_s": {"value": len(times) / sum(times) if times else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }

    failed = sum(r["failed"] for r in records)
    result = {"correct": not any(r["problems"] for r in records), "attempted": len(records),
              "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "passes": passes, "machine": machine_record(pqnorm), "setup_samples_s": setup_samples,
              "trace": trace_info, "ops": records, "result": result}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(
            [{"spans": spans, "counts": counts} for spans, counts in tracer.ops]))
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    for r in records:
        for problem in r["problems"]:
            print(f"check failed: {' '.join(r['argv'][:2])}: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
