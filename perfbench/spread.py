"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload mixture-polygon --seeds 0-9

Spread is the distance between the first and third quartile of the runs'
values (statistics.quantiles, n=4) as a share of their median.  A metric is
flagged when its spread reaches a third of its bound in BENCHMARK.json.
Runs go one after another, from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("0-9"), help="range, e.g. 0-9")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        flag = "" if spread < bound / 3 else \
            ("  OVER BOUND" if spread > bound else "  over a third of bound")
        print(f"{name:<40} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
              f"  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
