"""Spans around the package's public functions, installed from outside the package.

``install`` replaces each traced function at every ``mixsep`` module binding
that refers to it, and on the class for methods, so calls between the
package's modules are seen without changing a file of the package.  Spans are
kept in memory; the caller writes them out when the run ends.

A span is ``[name, start, end, parent, attrs]``.  A span opened on a thread
with no open span of its own (a worker thread of a pool) takes as parent the
innermost open span of the thread that created the tracer.  Spans in other
processes are not seen, except those of a CLI child that writes its own.
"""
from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# Sample size from which the package's default critical value is asymptotic.
ASYMPTOTIC_N = 500


def _points(args, kwargs) -> dict:
    # isotonic_regression(values, ...) / least_concave_majorant(knots, values)
    first = args[0] if args else kwargs.get("values", kwargs.get("knots"))
    return {"points": len(first)}


def _finite_n(args, kwargs) -> dict:
    # lower_bound / homogeneity_test(sample, background, beta, spec)
    sample = args[0] if args else kwargs["sample"]
    spec = kwargs.get("spec", args[3] if len(args) > 3 else None)
    return {"finite_n": spec is None and sample.n < ASYMPTOTIC_N}


# (span name, module, attribute path, annotate)
TRACED = (
    ("shape_restricted.isotonic_regression", "mixsep.shape_restricted", "isotonic_regression", _points),
    ("shape_restricted.least_concave_majorant", "mixsep.shape_restricted", "least_concave_majorant", _points),
    ("mixture_core.SortedSample.from_data", "mixsep.mixture_core", "SortedSample.from_data", None),
    ("mixture_core.criterion_curve", "mixsep.mixture_core", "criterion_curve", None),
    ("mixture_core.estimate_alpha_cn", "mixsep.mixture_core", "estimate_alpha_cn", None),
    ("distributions.cdf", "mixsep.distributions", "KnownCdf.cdf", None),
    ("confidence.simulate_hn_quantile", "mixsep.confidence", "simulate_hn_quantile", None),
    ("confidence.lower_bound", "mixsep.confidence", "lower_bound", _finite_n),
    ("confidence.homogeneity_test", "mixsep.confidence", "homogeneity_test", _finite_n),
    ("signal_recovery.recover_signal", "mixsep.signal_recovery", "recover_signal", None),
    ("sim_harness.generate", "mixsep.sim_harness", "generate", None),
    ("sim_harness.run_replications", "mixsep.sim_harness", "run_replications", None),
)


class Tracer:
    """In-memory span recorder; safe to use from several threads."""

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        """Record the enclosed block as a span; yields the span's index."""
        stack = self._stack()
        try:
            parent = (stack or self._main_stack)[-1]
        except IndexError:
            parent = None
        record = [name, 0.0, 0.0, parent, attrs]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded elsewhere (a child process); roots go under ``parent``."""
        with self._lock:
            base = len(self.spans)
            for name, start, end, p, attrs in spans:
                self.spans.append([name, start, end, parent if p is None else base + p, attrs])


def _wrap(tracer: Tracer, name: str, fn, annotate):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        attrs = annotate(args, kwargs) if annotate else {}
        with tracer.span(name, **attrs):
            return fn(*args, **kwargs)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every traced function for the rest of the process."""
    modules = [m for n, m in list(sys.modules.items()) if n == "mixsep" or n.startswith("mixsep.")]
    for name, module_name, path, annotate in TRACED:
        owner = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(tracer, name, raw.__func__, annotate))
            else:
                new = _wrap(tracer, name, raw, annotate)
            setattr(cls, attr, new)
            continue
        original = getattr(owner, path)
        wrapper = _wrap(tracer, name, original, annotate)
        for module in modules:
            for binding, value in list(vars(module).items()):
                if value is original:
                    setattr(module, binding, wrapper)


# --- aggregation -------------------------------------------------------------


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [end - start - _covered(children[i], start, end)
            for i, (_, start, end, _, _) in enumerate(spans)]


def _has_descendant(spans, children, index: int, name: str) -> bool:
    todo = list(children[index])
    while todo:
        i = todo.pop()
        if spans[i][0] == name:
            return True
        todo.extend(children[i])
    return False


def layer_metrics(spans: list[list], ops: int) -> dict[str, float]:
    """Per-layer metrics of a traced run; counts and self times are per op.

    ``distributions.cdf.calls`` is per fitted sample.  A layer that does not
    run on the workload reads 0, as does a ratio with nothing to divide by.
    """
    selfs = self_times(spans)
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    calls, self_s, points = defaultdict(int), defaultdict(float), defaultdict(int)
    for span, own in zip(spans, selfs):
        calls[span[0]] += 1
        self_s[span[0]] += own
        points[span[0]] += span[4].get("points", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    def per_op(table, name):
        return ratio(table[name], ops)

    pava, lcm = "shape_restricted.isotonic_regression", "shape_restricted.least_concave_majorant"
    bisect, curve = "mixture_core.estimate_alpha_cn", "mixture_core.criterion_curve"
    sim, harness = "confidence.simulate_hn_quantile", "sim_harness.run_replications"
    evals_in_bisection = sum(1 for s in spans if s[0] == pava and s[3] is not None
                             and spans[s[3]][0] == bisect)
    requests = [i for i, s in enumerate(spans) if s[4].get("finite_n")]
    reused = sum(1 for i in requests if not _has_descendant(spans, children, i, sim))
    harness_wall = sum(s[2] - s[1] for s in spans if s[0] == harness)
    harness_children = sum(spans[c][2] - spans[c][1]
                           for i, s in enumerate(spans) if s[0] == harness for c in children[i])
    roots = [i for i, s in enumerate(spans) if s[0] == "op"]
    op_wall = sum(spans[i][2] - spans[i][1] for i in roots)
    op_covered = sum(_covered([spans[c][1:3] for c in children[i]], spans[i][1], spans[i][2])
                     for i in roots)

    return {
        f"{pava}.calls": per_op(calls, pava),
        f"{pava}.points": per_op(points, pava),
        f"{pava}.self_s": per_op(self_s, pava),
        f"{lcm}.points": per_op(points, lcm),
        f"{lcm}.self_s": per_op(self_s, lcm),
        f"{curve}.calls": per_op(calls, curve),
        f"{curve}.self_s": per_op(self_s, curve),
        f"{bisect}.calls": per_op(calls, bisect),
        f"{bisect}.self_s": per_op(self_s, bisect),
        f"{bisect}.criterion_evals_per_call": ratio(evals_in_bisection, calls[bisect]),
        "mixture_core.SortedSample.from_data.self_s": per_op(self_s, "mixture_core.SortedSample.from_data"),
        "distributions.cdf.calls": ratio(calls["distributions.cdf"],
                                         calls["mixture_core.SortedSample.from_data"]),
        "distributions.cdf.self_s": per_op(self_s, "distributions.cdf"),
        f"{sim}.calls": per_op(calls, sim),
        f"{sim}.self_s": per_op(self_s, sim),
        "confidence.lower_bound.self_s": per_op(self_s, "confidence.lower_bound"),
        "confidence.homogeneity_test.self_s": per_op(self_s, "confidence.homogeneity_test"),
        "confidence.quantile_reuse_ratio": ratio(reused, len(requests)),
        "signal_recovery.recover_signal.calls": per_op(calls, "signal_recovery.recover_signal"),
        "signal_recovery.recover_signal.self_s": per_op(self_s, "signal_recovery.recover_signal"),
        "sim_harness.generate.calls": per_op(calls, "sim_harness.generate"),
        "sim_harness.generate.self_s": per_op(self_s, "sim_harness.generate"),
        f"{harness}.self_s": per_op(self_s, harness),
        "sim_harness.concurrency": ratio(harness_children, harness_wall),
        "cli.main.self_s": per_op(self_s, "cli.main"),
        "trace.span_coverage": ratio(op_covered, op_wall),
    }
