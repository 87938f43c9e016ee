"""Record one benchmark snapshot as a JSON file.

    python3 tools/bench_record.py --out BENCH_27.json
    python3 tools/bench_record.py --root ../other-checkout --seed 3 --out other.json

Runs `perfbench/run.py` of the checkout at --root (default: this one) on every
workload of its BENCHMARK.json, at its run_seconds and at --seed (default 0),
once with --trace 0 (end-to-end metrics) and once with --trace 1 (per-layer
metrics), one run at a time, and writes:
- "seconds" and "seed": the run length and the benchmark seed of every run;
- "environment": nproc and the Python, numpy, scipy and BLAS versions;
- "workloads": per workload, the "untraced" and the "traced" run, each with
  its exit code, its correct, attempted and failed counts, the ids of the
  operations that failed, its whole-process wall time and its metrics (each
  already a median over the run's operations).

The process wall time includes what no metric times: the interpreter start,
the imports and operation 0, which runs untimed.  So a cost moved out of
`setup_s` into operation 0 shows there, and is not read as saved.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

FAILED_OP = re.compile(r"^operation (\d+) (?:raised|failed checks)", re.MULTILINE)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                   help="checkout whose perfbench/run.py and src/ are measured")
    p.add_argument("--seed", type=int, default=0, help="benchmark seed of every run")
    return p.parse_args(argv)


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


def run_once(root, workload, seconds, trace, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": None, "failed": None, "metrics": {}}
    return {
        "exit_code": out.returncode, "correct": result["correct"],
        "attempted": result["attempted"], "failed": result["failed"],
        "failed_operations": [int(k) for k in FAILED_OP.findall(out.stderr)],
        "process_wall_s": wall,
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def main(argv=None):
    args = parse_args(argv)
    root = Path(args.root).resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, name in ((0, "untraced"), (1, "traced")):
            r = run_once(root, workload, seconds, trace, args.seed)
            print(f"{workload} {name}: exit {r['exit_code']}, "
                  f"{r['failed']} of {r['attempted']} operations failed, "
                  f"process {r['process_wall_s']:.2f} s", file=sys.stderr)
            workloads.setdefault(workload, {})[name] = r
    record = {"environment": environment(), "seconds": seconds, "seed": args.seed,
              "workloads": workloads}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    runs = [r for w in workloads.values() for r in w.values()]
    return 0 if all(r["correct"] and r["exit_code"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
