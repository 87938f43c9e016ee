"""Command-line experiment runner."""

from __future__ import annotations

import argparse
import sys
import textwrap

from .experiments import CHICAGO_REAL, DRIVERS, flag, run


def _float_list(s):
    return [float(p) for p in s.split(",") if p.strip() != ""]


def _int_list(s):
    return [int(p) for p in s.split(",") if p.strip() != ""]


def _restarts(s):
    if int(s) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {s}")
    return int(s)


def _default(v) -> str:
    if isinstance(v, list):
        return f"[0,1,...,{len(v) - 1}]" if len(v) > 3 and v == list(range(len(v))) \
            else "[" + ",".join(map(str, v)) + "]"
    return "-" if v is None else str(v)


def _epilog() -> str:
    """Each experiment's options with their paper defaults, read off its table."""
    lines = ["The options each experiment reads, with their paper defaults. An option",
             "with a [list] default takes a comma-separated list; every other option",
             "takes one value. '-' is unset: gmm-polygon then uses the preset polygon,",
             "and chicago with --points-file needs --domain-file and --sigma.", ""]
    tables = [*DRIVERS.items(), ("chicago with --points-file", CHICAGO_REAL)]
    for name, (_, defaults) in tables:
        lines.append(textwrap.fill(
            " ".join(f"{flag(option)}={_default(v)}" for option, v in defaults.items()),
            79, initial_indent=f"  {name}: ", subsequent_indent="      ",
            break_on_hyphens=False))
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="truncsm",
        description="Truncated-density estimation experiments (boundary-distance-weighted\n"
                    "score matching); an option left out takes its paper setting.",
        epilog=_epilog(), formatter_class=argparse.RawDescriptionHelpFormatter)
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
    p.add_argument("--restarts", type=_restarts, help="restarts per fit, at least 1")
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
        out = run(args)
    except Exception as exc:  # noqa: BLE001 - nonzero exit with a diagnostic
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
