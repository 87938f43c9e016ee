"""Command-line experiment runner."""

from __future__ import annotations

import argparse
import sys

from .experiments import DRIVERS, ExperimentConfig, run


def _float_list(s):
    return [float(p) for p in s.split(",") if p.strip() != ""]


def _int_list(s):
    return [int(p) for p in s.split(",") if p.strip() != ""]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="truncsm",
        description="Truncated-density estimation experiments "
                    "(boundary-distance-weighted score matching); an option "
                    "left out takes the experiment's paper setting")
    p.add_argument("--experiment", required=True, choices=sorted(DRIVERS))
    p.add_argument("--seeds", type=_int_list, default=[],
                   help="comma-separated seed list")
    p.add_argument("--n", type=_int_list, default=[],
                   help="sample size or comma-separated grid")
    p.add_argument("--method", dest="methods", type=lambda s: s.split(","), default=[],
                   help="comma-separated methods: truncsm,rjmle,mle,sm-constant")
    p.add_argument("--cap", type=_float_list, default=[],
                   help="cap value(s) c for the capped weight")
    p.add_argument("--particles", type=_int_list, default=[])
    p.add_argument("--restarts", type=int)
    p.add_argument("--domain-file", help="polygon vertex file (one 'x,y' per line)")
    p.add_argument("--points-file", help="point CSV with longitude/latitude columns")
    p.add_argument("--sigma", type=_float_list, default=[],
                   help="experiment scale parameter(s): correlation grid for "
                        "maha-vs-euclid, component sd for chicago")
    p.add_argument("--b-grid", type=_float_list, default=[],
                   help="boundary scale grid for capped-scaling")
    p.add_argument("--d-grid", type=_int_list, default=[],
                   help="dimension grid for l1-vs-l2")
    p.add_argument("--out", default="result.csv")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = run(ExperimentConfig(**vars(args)))
    except Exception as exc:  # noqa: BLE001 - nonzero exit with a diagnostic
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
