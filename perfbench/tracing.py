"""Span tracing of truncsm's layers from outside the package.

`Tracer.installed()` replaces each layer entry point listed in `ENTRY_POINTS`
with a recording wrapper, on the defining module *and* on every other
truncsm module that copied the name at import time (``from .optim import
minimize_qn`` and the like), then restores the originals.  Spans live in
memory; `layer_metrics` turns the spans of one traced operation into the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

from truncsm import (baselines, data, estimator, experiments, geometry, models,
                     optim)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None           # index of the enclosing span, if any
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _points(pos):
    """Info extractor: number of rows of the positional argument `pos`."""
    return lambda args, out: {"points": len(args[pos])}


def _minimize_info(args, out):
    return {"iterations": len(out.trace) - 1, "evals": out.n_evals,
            "line_search_failure": out.status == optim.LINE_SEARCH_FAILURE}


def _normalizer_info(args, out):
    return {"particles": len(out.particles), "inside": int(out.in_domain_mask.sum())}


def _sample_info(args, out):
    return {"n_kept": out.meta["n_kept"], "n_generated": out.meta["n_generated"]}


# (owner, attribute, span name, info extractor).  Owners that are classes get
# the wrapper on the class; module functions get it on every truncsm module
# that holds the same function object.
ENTRY_POINTS = [
    (geometry.Polygon, "__init__", "geometry.polygon_build", None),
    (geometry, "distance_batch", "geometry.distance_batch", _points(2)),
    (geometry, "contains_batch", "geometry.contains_batch", _points(1)),
    (geometry, "bounding_box", "geometry.bounding_box", None),
    *[(family, method, f"models.{method}", _points(2))
      for family in (models.GaussianMean, models.IsotropicGMM)
      for method in ("score_batch", "score_grad_batch", "logp_batch",
                     "grad_logp_batch")],
    (models.IsotropicGMM, "responsibilities", "models.responsibilities", _points(2)),
    (estimator, "fit", "estimator.fit", None),
    (estimator, "objective_and_grad", "estimator.objective_and_grad", None),
    (estimator, "initial_points", "estimator.initial_points", None),
    (estimator, "_run_restarts", "estimator.run_restarts", None),
    (optim, "minimize_qn", "optim.minimize_qn", _minimize_info),
    (baselines, "fit_rjmle", "baselines.fit_rjmle", None),
    (baselines, "make_normalizer", "baselines.make_normalizer", _normalizer_info),
    (baselines, "estimate_log_z", "baselines.estimate_log_z", None),
    (baselines, "_grad_log_z", "baselines.grad_log_z", None),
    (baselines, "_em_fixed_variance", "baselines.em_fixed_variance", None),
    (data, "sample_truncated", "data.sample_truncated", _sample_info),
    (data, "sample_truncated_n", "data.sample_truncated_n", _sample_info),
    (data, "load_points_csv", "data.load_points_csv", None),
    (data, "clip_to_domain", "data.clip_to_domain", None),
    (experiments, "run", "experiments.run", None),
    (experiments, "write_results", "experiments.write_results", None),
]


class TraceError(RuntimeError):
    pass


class Tracer:
    """Records spans while installed; one span list per traced operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.largest_distance_call = None   # (points, args, kwargs) for the replay

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent)
            if info is not None:
                self.spans[idx].info = info(args, out)
            if name == "geometry.distance_batch":
                n = len(args[2])
                if self.largest_distance_call is None or n > self.largest_distance_call[0]:
                    self.largest_distance_call = (n, args, kwargs)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point, run the block, restore the originals."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "truncsm" or n.startswith("truncsm."))]
        restore = []
        try:
            for owner, attr, name, info in ENTRY_POINTS:
                if not hasattr(owner, attr):
                    raise TraceError(f"entry point {owner.__name__}.{attr} no longer exists")
                original = getattr(owner, attr)
                wrapped = self._wrap(name, original, info)
                if isinstance(owner, type):
                    restore.append((owner, attr, original))
                    setattr(owner, attr, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, key, original))
                            setattr(mod, key, wrapped)
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    def take(self):
        """Spans recorded since the last call."""
        spans, self.spans = self.spans, []
        return spans

    def distance_batch_peak_mb(self):
        """tracemalloc peak of the largest distance_batch call seen, replayed
        outside the timed operations so the timings carry no tracemalloc cost."""
        if self.largest_distance_call is None:
            return 0.0
        _, args, kwargs = self.largest_distance_call
        tracemalloc.start()
        try:
            geometry.distance_batch(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / 2**20


def span_cost_s(calls=20_000, repeats=5):
    """Wall time one span adds to a call: a no-op called `calls` times bare
    and wrapped, the difference per call, median over `repeats`."""
    def noop():
        return None
    tracer = Tracer()
    wrapped = tracer._wrap("trace.noop", noop, None)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        tracer.take()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


class _Spans:
    """Queries over the spans of one traced operation."""

    def __init__(self, spans):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None:
                self.child_time[s.parent] += s.duration

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def count(self, name):
        return len(self.named(name))

    def total(self, name):
        return sum(s.duration for s in self.named(name))

    def self_time(self, name):
        return sum(s.duration - self.child_time[i]
                   for i, s in enumerate(self.spans) if s.name == name)

    def info_sum(self, name, key):
        return sum(s.info[key] for s in self.named(name))

    def under(self, name, ancestor):
        """Total time of `name` spans that run inside an `ancestor` span."""
        out = 0.0
        for s in self.named(name):
            p = s.parent
            while p is not None and self.spans[p].name != ancestor:
                p = self.spans[p].parent
            if p is not None:
                out += s.duration
        return out


def _ratio(num, den):
    return num / den if den else 0.0


MIX, ELL, CITY = "mixture-polygon", "ellipse-weights", "city-polygon"
ALL = (MIX, ELL, CITY)

# A metric is (unit, better, value from one operation's spans, span names the
# value is built from, workloads on which each of those spans must occur).  A
# tuple among the span names means "any one of these".  The workload sets
# follow the layer -> end-to-end map in README.md: a metric whose spans vanish
# on a workload that should exercise it fails the traced run.


def _time(span, workloads):
    return ("s", "lower", lambda q: q.total(span), [span], workloads)


def _self_time(span, workloads):
    return ("s", "lower", lambda q: q.self_time(span), [span], workloads)


def _calls(span, workloads):
    return ("count", "lower", lambda q: q.count(span), [span], workloads)


def _sum(span, key, workloads):
    return ("count", "lower", lambda q: q.info_sum(span, key), [span], workloads)


def _per(num, den, needed, workloads, better="lower"):
    return ("ratio", better, lambda q: _ratio(num(q), den(q)), needed, workloads)


def _under(span, ancestor, workloads):
    return ("s", "lower", lambda q: q.under(span, ancestor), [ancestor, span], workloads)


_SAMPLERS = ("data.sample_truncated", "data.sample_truncated_n")
_QN = "optim.minimize_qn"
_NORMALIZER = "baselines.make_normalizer"

LAYER_METRICS = {
    "geometry.polygon_build_s": _time("geometry.polygon_build", [CITY]),
    "geometry.distance_batch_s": _time("geometry.distance_batch", ALL),
    "geometry.distance_batch_points": _sum("geometry.distance_batch", "points", ALL),
    "geometry.contains_batch_s": _time("geometry.contains_batch", ALL),
    "geometry.contains_batch_points": _sum("geometry.contains_batch", "points", ALL),
    "models.score_batch_calls": _calls("models.score_batch", ALL),
    "models.score_batch_s": _time("models.score_batch", ALL),
    "models.score_grad_batch_calls": _calls("models.score_grad_batch", ALL),
    "models.score_grad_batch_s": _time("models.score_grad_batch", ALL),
    "models.score_batch_per_objective_eval": _per(
        lambda q: q.count("models.score_batch"),
        lambda q: q.count("estimator.objective_and_grad"),
        ["models.score_batch", "estimator.objective_and_grad"], ALL),
    "models.logp_batch_calls": _calls("models.logp_batch", [MIX, CITY]),
    "models.logp_batch_points": _sum("models.logp_batch", "points", [MIX, CITY]),
    "models.logp_batch_s": _time("models.logp_batch", [MIX, CITY]),
    "models.grad_logp_batch_points": _sum("models.grad_logp_batch", "points", [MIX, CITY]),
    "models.grad_logp_batch_s": _time("models.grad_logp_batch", [MIX, CITY]),
    "estimator.objective_and_grad_calls": _calls("estimator.objective_and_grad", ALL),
    "estimator.objective_and_grad_self_s": _self_time("estimator.objective_and_grad", ALL),
    "estimator.initial_points_s": _time("estimator.initial_points", ALL),
    "estimator.fit_weights_s": _under("geometry.distance_batch", "estimator.fit", [MIX, ELL]),
    "estimator.fit_optimize_s": _under(_QN, "estimator.fit", [MIX, ELL]),
    "optim.minimize_qn_calls": _calls(_QN, ALL),
    "optim.iterations": _sum(_QN, "iterations", ALL),
    "optim.evals": _sum(_QN, "evals", ALL),
    "optim.evals_per_iteration": _per(
        lambda q: q.info_sum(_QN, "evals"), lambda q: q.info_sum(_QN, "iterations"),
        [_QN], ALL),
    "optim.line_search_failures": _sum(_QN, "line_search_failure", ALL),
    "optim.minimize_qn_self_s": _self_time(_QN, ALL),
    "baselines.make_normalizer_s": _time(_NORMALIZER, [MIX, CITY]),
    "baselines.estimate_log_z_calls": _calls("baselines.estimate_log_z", [MIX, CITY]),
    "baselines.estimate_log_z_s": _time("baselines.estimate_log_z", [MIX, CITY]),
    "baselines.fit_rjmle_self_s": _self_time("baselines.fit_rjmle", [MIX, CITY]),
    "baselines.inside_ratio": _per(
        lambda q: q.info_sum(_NORMALIZER, "inside"),
        lambda q: q.info_sum(_NORMALIZER, "particles"),
        [_NORMALIZER], [MIX, CITY], better="higher"),
    "data.sample_s": ("s", "lower", lambda q: sum(q.total(n) for n in _SAMPLERS),
                      [_SAMPLERS], [MIX, ELL]),
    "data.acceptance_ratio": _per(
        lambda q: sum(q.info_sum(n, "n_kept") for n in _SAMPLERS),
        lambda q: sum(q.info_sum(n, "n_generated") for n in _SAMPLERS),
        [_SAMPLERS], [MIX, ELL], better="higher"),
    "data.load_points_csv_s": _time("data.load_points_csv", [CITY]),
    "data.clip_to_domain_s": _time("data.clip_to_domain", [CITY]),
    "experiments.run_self_s": _self_time("experiments.run", [CITY]),
    "experiments.write_results_s": _time("experiments.write_results", [CITY]),
}

# Metrics that must repeat exactly when one operation is traced twice.
COUNT_METRICS = [name for name, (unit, *_rest) in LAYER_METRICS.items()
                 if unit in ("count", "ratio")]


def layer_metrics(spans):
    q = _Spans(spans)
    return {name: float(spec[2](q)) for name, spec in LAYER_METRICS.items()}


def coverage_failures(workload, op_spans):
    """Metrics whose spans never occurred although this workload calls them."""
    seen = {s.name for spans in op_spans for s in spans}
    failures = []
    for name, (_unit, _better, _fn, needed, workloads) in LAYER_METRICS.items():
        if workload not in workloads:
            continue
        for names in needed:
            names = names if isinstance(names, tuple) else (names,)
            if seen.isdisjoint(names):
                failures.append(f"{name}: no span of {' or '.join(names)}")
    return failures


def layer_times(spans):
    """Inclusive time per layer: spans of the layer not nested in another
    span of the same layer.  Layers nest, so the shares overlap."""
    layer = [s.name.split(".")[0] for s in spans]
    out = {}
    for i, s in enumerate(spans):
        p = s.parent
        while p is not None and layer[p] != layer[i]:
            p = spans[p].parent
        if p is None:
            out[layer[i]] = out.get(layer[i], 0.0) + s.duration
    return out


def mean_metrics(per_op):
    return {name: statistics.fmean(m[name] for m in per_op) for name in LAYER_METRICS}


def repeat_mismatches(first, again):
    return [f"{name}: {first[name]!r} then {again[name]!r}"
            for name in COUNT_METRICS if first[name] != again[name]]
