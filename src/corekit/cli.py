"""Command-line surface: series, enumerate, stats, table, verify.

Exit codes: 0 on success, 1 when a verification check fails or the reader
closes stdout early (``corekit enumerate ... | head``), 2 on usage errors.
Data goes to stdout; progress chatter goes to stderr. JSON payloads
use a fixed field order so byte-identical round trips are possible.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import astuple

from . import consecutive, cores, series, verify
from .partitions import Partition, beta_set

T_MAX_CAP = 64
N_MAX_CAP = 240
# series: --t bounds the cost of estimating an eq2 request, which the library
# refuses over its budget, and of finding the largest limit it admits.
SERIES_T_CAP = 10_000
SERIES_METHODS = {
    "eq2": series.distinct_core_series,
    "closed": series.distinct_core_series_closed,
    "oracle": series.distinct_core_series_brute,
}
# table: the names of SequenceRow's fields, in field order
TABLE_COLUMNS = ("t", "a", "b", "c", "d", "e", "phi", "psi", "F")


def _dumps(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _partition_dict(p: Partition) -> dict:
    return {"parts": list(p.parts), "size": p.size, "beta": sorted(beta_set(p), reverse=True)}


def _partition_line(p: Partition) -> str:
    info = _partition_dict(p)
    return f"parts={info['parts']} size={info['size']} beta={info['beta']}"


def _ranged_int(lo: int, hi: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            # an integer with more digits than int() converts (4300 by default)
            digits = re.fullmatch(r"\s*[+-]?(\d+)\s*", text)
            if digits:
                raise argparse.ArgumentTypeError(f"out of range: {len(digits[1])} digits")
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < lo or (hi is not None and value > hi):
            top = "" if hi is None else f" and <= {hi}"
            raise argparse.ArgumentTypeError(f"must be >= {lo}{top}, got {value}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corekit",
        description="Exact enumeration and cross-verification of core partitions "
        "with distinct parts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_series = sub.add_parser("series", help="coefficients counting distinct-part t-cores by size")
    p_series.add_argument("--t", type=_ranged_int(2, SERIES_T_CAP), required=True)
    p_series.add_argument("--limit", type=_ranged_int(0), required=True)
    p_series.add_argument(
        "--method",
        choices=tuple(SERIES_METHODS),
        default="eq2",
        help="eq2: exact residue-vector walk or residue DP, whichever is estimated "
        "cheaper; closed: closed form (t=2,3,4); oracle: brute-force partition filter",
    )
    p_series.add_argument("--format", choices=("json", "text"), default="text")

    p_enum = sub.add_parser("enumerate", help="all partitions avoiding two coprime hook lengths")
    p_enum.add_argument("--t1", type=_ranged_int(1), required=True)
    p_enum.add_argument("--t2", type=_ranged_int(1), required=True)
    p_enum.add_argument("--distinct", action="store_true", help="restrict to distinct parts")
    p_enum.add_argument("--format", choices=("json", "text"), default="text")

    p_stats = sub.add_parser("stats", help="count / largest / total / average for hooks t, t+1")
    p_stats.add_argument("--t", type=_ranged_int(2, 10000), required=True)
    p_stats.add_argument("--format", choices=("json", "text"), default="text")

    p_table = sub.add_parser("table", help="statistics ladder rows t = 2..t_max")
    p_table.add_argument("--t-max", type=_ranged_int(2, consecutive.TABLE_CAP), required=True)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")

    p_verify = sub.add_parser(
        "verify",
        help="run the cross-verification checks",
        description="Run the cross-verification checks: 6-7 s at the defaults, "
        "under a minute at the caps (53 s at --t-max 64 --n-max 240 on a 2-vCPU x86-64 host).",
    )
    p_verify.add_argument("--suite", choices=(*verify.SUITE_NAMES, "all"), default="all")
    p_verify.add_argument("--t-max", type=_ranged_int(2, T_MAX_CAP), default=None)
    p_verify.add_argument("--n-max", type=_ranged_int(0, N_MAX_CAP), default=None)
    p_verify.add_argument(
        "--jobs",
        type=_ranged_int(1, 256),
        default=None,
        help="ignored: checks run one at a time (accepted for older scripts)",
    )
    p_verify.add_argument("--format", choices=("json", "text"), default="text")

    return parser


def _cmd_series(args: argparse.Namespace) -> int:
    result = SERIES_METHODS[args.method](args.t, args.limit)
    if args.format == "json":
        print(_dumps(result.to_json_dict()))
    else:
        for c in result.coeffs:
            print(c)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    found = cores.enumerate_simultaneous_cores(args.t1, args.t2, args.distinct)
    if args.format == "json":
        payload = {
            "t1": args.t1,
            "t2": args.t2,
            "distinct": args.distinct,
            "count": len(found),
            "partitions": [_partition_dict(p) for p in found],
        }
        print(_dumps(payload))
    else:
        for p in found:
            print(_partition_line(p))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    t = args.t
    count = consecutive.count_distinct_cores(t)
    largest = consecutive.largest_size(t)
    tops = consecutive.maximizers(t)
    total = consecutive.total_size(t)
    average = consecutive.average_size(t)
    if args.format == "json":
        payload = {
            "t": t,
            "count": count,
            "largest_size": largest,
            "maximizer_count": len(tops),
            "maximizers": [_partition_dict(p) for p in tops],
            "total_size": total,
            "average_size": str(average),
        }
        print(_dumps(payload))
    else:
        print(f"count={count}")
        print(f"largest_size={largest}")
        print(f"maximizer_count={len(tops)}")
        print(f"maximizers={[list(p.parts) for p in tops]}")
        print(f"total_size={total}")
        print(f"average_size={average}")
    return 0


def _row_dict(row: consecutive.SequenceRow) -> dict:
    return dict(zip(TABLE_COLUMNS, astuple(row), strict=True))


def _cmd_table(args: argparse.Namespace) -> int:
    table = consecutive.sequence_table(args.t_max)
    if args.format == "json":
        print(_dumps({"t_max": args.t_max, "rows": [_row_dict(r) for r in table.rows]}))
    else:
        print(",".join(TABLE_COLUMNS))
        for row in table.rows:
            print(",".join(map(str, astuple(row))))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = verify.run_suite(
        args.suite,
        t_max=args.t_max,
        n_max=args.n_max,
        progress=lambda name: print(f"running {name}", file=sys.stderr),
    )
    failed = [r for r in reports if not r.passed]
    if args.format == "json":
        payload = {
            "suite": args.suite,
            "t_max": args.t_max,
            "n_max": args.n_max,
            "summary": {
                "total": len(reports),
                "passed": len(reports) - len(failed),
                "failed": len(failed),
            },
            "checks": [r.to_json_dict() for r in reports],
        }
        print(_dumps(payload))
    else:
        for r in reports:
            tag = "PASS" if r.passed else "FAIL"
            extras = " ".join(f"{k}={v}" for k, v in r.params.items())
            line = f"{tag} {r.check} {extras} [{r.elapsed_ms:.1f} ms]"
            if r.detail:
                line += f" :: {r.detail}"
            print(line)
        print(f"passed {len(reports) - len(failed)}/{len(reports)} checks")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "series": _cmd_series,
        "enumerate": _cmd_enumerate,
        "stats": _cmd_stats,
        "table": _cmd_table,
        "verify": _cmd_verify,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except (ValueError, ArithmeticError) as exc:  # a request the library refuses
        parser.error(str(exc))
    except BrokenPipeError:
        # stdout's buffer still holds unwritten data; point the descriptor at
        # devnull so the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
