"""Traced mode: spans around pqnorm's public functions, recorded from the
benchmark's own code.

Each public function of the layer modules is wrapped where its callers look
it up: the attribute on its own module and every other pqnorm module that
bound it by name at import (``oracles.euler_continuation``,
``factorization.lp_norm``, ...).  ``scipy.integrate.quad`` and
``numpy.linalg.eigh``/``eigvalsh`` are reached through module attributes and
are counted, not spanned.  Spans stay in memory until the run ends.
"""

import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np
from scipy import integrate

LAYERS = ("relaxation", "rounding", "factorization", "krivine", "_kernels", "series",
          "specfun", "oracles")

#: per-layer metric name -> unit; each value is the median over the traced ops
PER_LAYER = {
    "relaxation.solve_cp.s": "s",
    "relaxation.solve_cp.iterations": "count",
    "relaxation.load_matrix.s": "s",
    "rounding.build_transformed_gram.s": "s",
    "rounding.sample_round.s": "s",
    "rounding.sample_round.samples_per_s": "1/s",
    "factorization.solve_dual.s": "s",
    "factorization.build_certificate.s": "s",
    "factorization.eigensolves": "count",
    "krivine.check_conditions.s": "s",
    "krivine.certify_defect.s": "s",
    "krivine.hhat_grid_max.s": "s",
    "krivine.inverse_coeff_grid.calls": "count",
    "krivine.inverse_coeff_grid.points": "count",
    "krivine.compute_c_ab.s": "s",
    "krivine.approx_ratio.s": "s",
    "kernels.revert_odd_batch.s": "s",
    "kernels.revert_odd_batch.rows": "count",
    "series.revert.calls": "count",
    "series.evaluate.calls": "count",
    "series.tail_estimate.s": "s",
    "specfun.euler_continuation.calls": "count",
    "specfun.euler_continuation.s": "s",
    "specfun.quad_calls": "count",
    "oracles.contour_magnitude_check.s": "s",
    "oracles.contour_inverse_coeff.s": "s",
    "oracles.beta_bound_expression.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

#: a count read off a call: span name -> f(args, kwargs, result)
_SIZES = {
    "relaxation.solve_cp": lambda a, k, r: r.iterations,
    "krivine.inverse_coeff_grid": lambda a, k, r: r[0].size,
    "kernels.revert_odd_batch": lambda a, k, r: r.shape[0],
    "rounding.sample_round": lambda a, k, r: r.sample_count,
}

_COUNTED = ((integrate, "quad", "specfun.quad_calls"),
            (np.linalg, "eigh", "factorization.eigensolves"),
            (np.linalg, "eigvalsh", "factorization.eigensolves"))

ROOT = "cli.main"


class Tracer:
    """Span recorder.  A span is [name, start, end, parent index, size];
    ``ops`` holds one (spans, counts) pair per traced op."""

    def __init__(self):
        self.ops = []
        self._spans = None
        self._counts = None
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        size_of = _SIZES.get(name)
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            spans = self._spans
            rec = [name, clock(), None, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if size_of is not None:
                rec[4] = size_of(args, kwargs, result)
            return result

        return wrapper

    def _count(self, key, fn):
        def wrapper(*args, **kwargs):
            self._counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Replace every public layer function wherever pqnorm binds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "pqnorm" or n.startswith("pqnorm.")]
        for layer in LAYERS:
            mod = sys.modules[f"pqnorm.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer.lstrip('_')}.{attr}", fn)
                for owner in modules:
                    for name, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, name, wrapped)
        for owner, attr, key in _COUNTED:
            self._patch(owner, attr, self._count(key, getattr(owner, attr)))

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def run_op(self, fn, *args):
        """Call fn(*args) as one traced op under a root span."""
        self._spans, self._counts = [], Counter()
        root = self._wrap(ROOT, fn)
        try:
            return root(*args)
        finally:
            self.ops.append((self._spans, self._counts))


def op_summary(spans, counts):
    """Totals of one op: seconds and calls per span name, sizes, self time
    per layer, and the op's own duration."""
    seconds, calls, sizes = defaultdict(float), Counter(), Counter()
    child = [0.0] * len(spans)
    for name, start, end, parent, size in spans:
        seconds[name] += end - start
        calls[name] += 1
        if size is not None:
            sizes[name] += size
        if parent is not None:
            child[parent] += end - start
    self_by_layer = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        self_by_layer[name.split(".", 1)[0]] += end - start - child[i]
    root = spans[0]
    return {
        "op_s": root[2] - root[1],
        "seconds": dict(seconds),
        "calls": dict(calls),
        "sizes": dict(sizes),
        "counts": dict(counts),
        "self_s_by_layer": dict(self_by_layer),
    }


def per_layer_metrics(summaries, untraced_p50):
    """The PER_LAYER metrics, each the median over the traced ops."""
    def med(values):
        return float(statistics.median(values))

    out = {}
    for metric in PER_LAYER:
        if metric == "trace.overhead_s":
            value = med([s["op_s"] for s in summaries]) - untraced_p50
        elif metric == "cli.self_s":
            value = med([s["self_s_by_layer"].get("cli", 0.0) for s in summaries])
        elif metric in ("specfun.quad_calls", "factorization.eigensolves"):
            value = med([s["counts"].get(metric, 0) for s in summaries])
        elif metric.endswith(".samples_per_s"):
            name = metric.rsplit(".", 1)[0]
            value = med([s["sizes"].get(name, 0) / s["seconds"][name]
                         if s["seconds"].get(name) else 0.0 for s in summaries])
        elif metric.endswith(".s"):
            value = med([s["seconds"].get(metric[:-2], 0.0) for s in summaries])
        elif metric.endswith(".calls"):
            value = med([s["calls"].get(metric[:-6], 0) for s in summaries])
        else:  # .iterations, .points, .rows: sizes read off the calls
            name = metric.rsplit(".", 1)[0]
            value = med([s["sizes"].get(name, 0) for s in summaries])
        out[metric] = {"value": value, "unit": PER_LAYER[metric]}
    return out


def layer_shares(summaries):
    """Share of the summed traced op time spent as self time in each layer;
    the shares add up to 1 because every span's time is either its own or
    one of its children's."""
    total = sum(s["op_s"] for s in summaries)
    layers = defaultdict(float)
    for s in summaries:
        for layer, sec in s["self_s_by_layer"].items():
            layers[layer] += sec
    return {layer: sec / total for layer, sec in sorted(layers.items())}
