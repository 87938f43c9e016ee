"""truncsm benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload mixture-polygon --seed 0 --seconds 32 --trace 0

Run from the root of a checkout.  Prints a human-readable report, then as its
last line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1.  End-to-end times are wall times rescaled
to a reference host speed (speed.py).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
TAIL_BEYOND = 10          # op_s_tail: highest percentile with this many samples above it
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the measurement window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Run:
    """Operations issued back to back; counts attempts and failures."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.samples = {}      # metric -> values over timed operations
        self.op_times = []
        self.wall_times = []

    def op(self, k, record=True, tracer=None, probe=None):
        """Prepare, run and check operation k; returns its time, or None if it
        failed.  With a tracer, prepare and run are traced.  With a speed probe,
        the operation's times are rescaled to reference speed (speed.py)."""
        self.attempted += 1
        try:
            with tracer.installed() if tracer else contextlib.nullcontext():
                inputs = self.wl.prepare(k)
                t0 = time.perf_counter()
                out = self.wl.run(k, inputs)
                t1 = time.perf_counter()
            seconds = probe.rescale if probe else (lambda a, b: b - a)
            dt = seconds(t0, t1)
            for key, spans in out.items():
                if key.endswith("_s"):         # one sample per operation: time per fit
                    out[key] = [sum(seconds(a, b) for a, b, _ in spans)
                                / sum(fits for _, _, fits in spans)]
            failures, errors = self.wl.check(k, inputs, out)
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed += 1
            print(f"operation {k} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        if failures:
            self.failed += 1
            print(f"operation {k} failed checks: " + "; ".join(failures), file=sys.stderr)
            return None
        if record:
            self.op_times.append(dt)
            self.wall_times.append(t1 - t0)
            for key, values in {**out, **errors}.items():
                if key.endswith(("_s", "_err")):
                    self.samples.setdefault(key, []).extend(values)
        return dt


def import_seconds():
    """Time to import truncsm in a fresh interpreter, as a user's process pays
    it, at reference speed (import_child.py)."""
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "import_child.py"),
                          str(ROOT / "src")], capture_output=True, text=True, check=True)
    return float(out.stdout)


def tail(values):
    """Highest percentile with TAIL_BEYOND samples above it, or None."""
    if len(values) <= TAIL_BEYOND:
        return None
    return sorted(values)[len(values) - TAIL_BEYOND - 1]


def environment(nproc):
    import numpy
    import scipy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return (f"nproc={nproc} blas_threads={os.environ['OPENBLAS_NUM_THREADS']} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} blas={blas}")


def measure(run, seconds, probe):
    """Closed loop: operation 0 warms caches untimed, then operations go back
    to back while the next one is predicted to end inside the window."""
    start = time.perf_counter()
    warm = run.op(0, record=False, probe=probe)
    k = 1
    while True:
        predicted = statistics.median(run.wall_times) if run.wall_times else (warm or 0.0)
        if run.op_times and time.perf_counter() - start + predicted > seconds:
            break
        run.op(k, probe=probe)
        k += 1
        if not run.op_times and k > 3:   # nothing succeeds; stop retrying
            break


def measure_traced(run, seconds):
    """Pairs of one untraced and one traced execution of the same operation,
    then the first traced operation again, to check that its counts repeat
    exactly."""
    import tracing
    tracer = tracing.Tracer()
    run.op(0, record=False)
    pairs = max(1, int(seconds // (2.5 * run.wl.nominal_op_s)))
    per_op, pair_diffs, op_spans, traced_times = {}, [], [], []
    for k in range(1, pairs + 1):
        plain = run.op(k, record=False)
        traced = run.op(k, tracer=tracer)
        spans = tracer.take()
        if plain is None or traced is None:
            continue
        pair_diffs.append(traced - plain)
        traced_times.append(traced)
        op_spans.append(spans)
        per_op[k] = tracing.layer_metrics(spans)
    if not per_op:
        return None, ["no traced operation succeeded"]

    problems = [f"trace coverage: {f}" for f in tracing.coverage_failures(run.wl.name, op_spans)]
    first = min(per_op)
    if run.op(first, record=False, tracer=tracer) is None:
        problems.append(f"determinism: repeated operation {first} failed")
    else:
        mismatches = tracing.repeat_mismatches(per_op[first],
                                               tracing.layer_metrics(tracer.take()))
        if mismatches:
            run.failed += 1
            problems += [f"determinism: operation {first}: {m}" for m in mismatches]

    metrics = tracing.mean_metrics(per_op.values())
    metrics["geometry.distance_batch_peak_mb"] = tracer.distance_batch_peak_mb()
    op_s = statistics.fmean(traced_times)
    layers = {}
    for spans in op_spans:
        for layer, t in tracing.layer_times(spans).items():
            layers[layer] = layers.get(layer, 0.0) + t / len(op_spans)
    print(f"traced operation {op_s:.4g} s; inclusive layer time: " + ", ".join(
        f"{layer} {t:.4g} s ({t / op_s:.1%})" for layer, t in sorted(layers.items())))
    spans = statistics.fmean(len(s) for s in op_spans)
    cost = tracing.span_cost_s()
    metrics["trace.overhead_s"] = spans * cost
    print(f"tracing overhead: {spans:.0f} spans per operation x {cost * 1e6:.2f} us per span "
          f"= {spans * cost:.4g} s; traced - untraced time over {len(pair_diffs)} pairs: "
          f"median {statistics.median(pair_diffs):.3g} s, range {min(pair_diffs):.3g} to "
          f"{max(pair_diffs):.3g} s (host noise: does not resolve below ~0.3 s)")
    return metrics, problems


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "truncsm" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no truncsm source tree under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:                 # read by numpy's BLAS when it loads
        os.environ[var] = str(nproc)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import speed
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_seconds()                   # warm-up: bytecode caches, file cache
    import_s = statistics.median(import_seconds() for _ in range(SETUP_REPEATS))
    probe = speed.SpeedProbe()

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        setup_times = []
        with probe.installed():
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                wl.setup()
                wl.prepare(0)
                setup_times.append((t0, time.perf_counter()))
        setup_times = [probe.rescale(t0, t1) for t0, t1 in setup_times]
        run = Run(wl)
        if args.trace:
            metrics, problems = measure_traced(run, args.seconds)
            if any(p.startswith("trace coverage") for p in problems):
                for p in problems:
                    print(p, file=sys.stderr)
                return 3
            wanted = spec["per_layer"]
        else:
            with probe.installed():
                measure(run, args.seconds, probe)
            problems = []
            metrics = {
                "setup_s": import_s + statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            for key, values in run.samples.items():
                metrics[key] = statistics.median(values)
            if run.op_times:
                metrics["op_s"] = statistics.median(run.op_times)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # still in use by a concurrent run
            work_root.rmdir()

    return report(args, run, metrics, problems, wanted, nproc)


def report(args, run, metrics, problems, wanted, nproc):
    timed = len(run.op_times)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: closed loop, 1 client, {run.attempted} operations "
          f"attempted ({timed} timed), {run.failed} failed")
    print(f"environment {environment(nproc)}")
    for p in problems:
        print(p)
    if metrics is None:
        return 1
    if not args.trace:
        op_tail = tail(run.op_times)
        if op_tail is not None:
            metrics["op_s_tail"] = op_tail
        metrics["fail_ratio"] = run.failed / run.attempted
        for name in ("op_s", "op_s_tail", "truncsm_fit_s", "rjmle_fit_s",
                     "truncsm_err", "rjmle_err", "fail_ratio", "setup_s", "peak_rss_mb"):
            value = metrics.get(name)
            if name == "op_s_tail" and value is None:
                note = f"needs more than {TAIL_BEYOND} timed operations"
            else:
                n = len(run.op_times if name.startswith("op_s") else run.samples.get(name, []))
                note = f"median of {n}" if n else ""
            shown = "absent" if value is None else f"{value:.6g}"
            print(f"  {name:<16} {shown}" + (f"  ({note})" if note else ""))
        if run.wall_times:
            print(f"  times above are at reference speed (perfbench/speed.py); "
                  f"median wall time of an operation {statistics.median(run.wall_times):.6g} s")
    else:
        for name in sorted(metrics):
            print(f"  {name:<40} {metrics[name]:.6g}")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": run.failed == 0 and not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
