"""Command-line surface: series, enumerate, stats, table, verify.

Each subcommand's handler is declared with its parser. It computes the
answer and returns ``(exit code, payload, lines)``: ``payload`` is a
zero-argument callable that builds the JSON object, and ``lines`` a lazy
iterable of the text or CSV lines. Only ``main`` reads ``--format``; it
prints the one the format asks for, so each format does only its own work.

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
from collections.abc import Callable, Iterable, Iterator
from dataclasses import astuple

from . import consecutive, cores, series, verify
from .partitions import Partition, _shown, beta_set

SERIES_METHODS = {
    "eq2": series.distinct_core_series,
    "closed": series.distinct_core_series_closed,
    "oracle": series.distinct_core_series_brute,
}
# stats: --t bounds the numbers it prints; F(t + 1) has about t/5 digits
STATS_T_CAP = 10_000
# table: the names of SequenceRow's fields, in field order
TABLE_COLUMNS = ("t", "a", "b", "c", "d", "e", "phi", "psi", "F")
# what a handler returns: exit code, JSON payload builder, text lines
Answer = tuple[int, Callable[[], dict], Iterable[str]]


def _partition_dict(p: Partition) -> dict:
    return {"parts": list(p.parts), "size": p.size, "beta": sorted(beta_set(p), reverse=True)}


def _partition_line(p: Partition) -> str:
    return " ".join(f"{name}={value}" for name, value in _partition_dict(p).items())


def _ranged_int(lo: int, hi: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            # an integer with more digits than int() converts (4300 by default)
            digits = re.fullmatch(r"\s*[+-]?(\d+)\s*", text)
            if digits:
                raise argparse.ArgumentTypeError(f"out of range: {len(digits[1])} digits")
            raise argparse.ArgumentTypeError(f"not an integer: {_shown(text)}")
        if value < lo or (hi is not None and value > hi):
            top = "" if hi is None else f" and <= {hi}"
            raise argparse.ArgumentTypeError(f"must be >= {lo}{top}, got {_shown(value)}")
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
    p_series.add_argument("--t", type=_ranged_int(2), required=True)
    p_series.add_argument("--limit", type=_ranged_int(0), required=True)
    p_series.add_argument(
        "--method",
        choices=tuple(SERIES_METHODS),
        default="eq2",
        help="eq2: exact residue-vector walk or residue DP, whichever is estimated "
        "cheaper; closed: closed form (t=2,3,4); oracle: brute-force partition filter",
    )
    p_series.add_argument("--format", choices=("json", "text"), default="text")
    p_series.set_defaults(handler=_cmd_series)

    p_enum = sub.add_parser("enumerate", help="all partitions avoiding two coprime hook lengths")
    p_enum.add_argument("--t1", type=_ranged_int(1), required=True)
    p_enum.add_argument("--t2", type=_ranged_int(1), required=True)
    p_enum.add_argument("--distinct", action="store_true", help="restrict to distinct parts")
    p_enum.add_argument("--format", choices=("json", "text"), default="text")
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_stats = sub.add_parser("stats", help="count / largest / total / average for hooks t, t+1")
    p_stats.add_argument("--t", type=_ranged_int(2, STATS_T_CAP), required=True)
    p_stats.add_argument("--format", choices=("json", "text"), default="text")
    p_stats.set_defaults(handler=_cmd_stats)

    p_table = sub.add_parser("table", help="statistics ladder rows t = 2..t_max")
    p_table.add_argument("--t-max", type=_ranged_int(2, consecutive.TABLE_CAP), required=True)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.set_defaults(handler=_cmd_table)

    p_verify = sub.add_parser(
        "verify",
        help="run the cross-verification checks",
        description="Run the cross-verification checks. Each check's window is the only cap on "
        "--t-max and --n-max: the defaults take seconds, --t-max 90 --n-max 2000 under a minute.",
    )
    p_verify.add_argument("--suite", choices=(*verify.SUITE_NAMES, "all"), default="all")
    p_verify.add_argument("--t-max", type=_ranged_int(2), default=None)
    p_verify.add_argument("--n-max", type=_ranged_int(0), default=None)
    p_verify.add_argument(
        "--jobs",
        type=_ranged_int(1),
        default=None,
        help="ignored: checks run one at a time (accepted for older scripts)",
    )
    p_verify.add_argument("--format", choices=("json", "text"), default="text")
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def _cmd_series(args: argparse.Namespace) -> Answer:
    result = SERIES_METHODS[args.method](args.t, args.limit)
    return 0, result.to_json_dict, map(str, result.coeffs)


def _cmd_enumerate(args: argparse.Namespace) -> Answer:
    found = cores.enumerate_simultaneous_cores(args.t1, args.t2, args.distinct)

    def payload() -> dict:
        return {
            "t1": args.t1,
            "t2": args.t2,
            "distinct": args.distinct,
            "count": len(found),
            "partitions": [_partition_dict(p) for p in found],
        }

    return 0, payload, map(_partition_line, found)


def _cmd_stats(args: argparse.Namespace) -> Answer:
    tops = consecutive.maximizers(args.t)
    fields = {
        "count": consecutive.count_distinct_cores(args.t),
        "largest_size": consecutive.largest_size(args.t),
        "maximizer_count": len(tops),
        "maximizers": [list(p.parts) for p in tops],
        "total_size": consecutive.total_size(args.t),
        "average_size": str(consecutive.average_size(args.t)),
    }
    # JSON gives each maximizer as a partition record, text as its parts
    return (
        0,
        lambda: {"t": args.t, **fields, "maximizers": [_partition_dict(p) for p in tops]},
        (f"{name}={value}" for name, value in fields.items()),
    )


def _cmd_table(args: argparse.Namespace) -> Answer:
    rows = [astuple(row) for row in consecutive.sequence_table(args.t_max).rows]
    return (
        0,
        lambda: {
            "t_max": args.t_max,
            "rows": [dict(zip(TABLE_COLUMNS, row, strict=True)) for row in rows],
        },
        (",".join(map(str, row)) for row in (TABLE_COLUMNS, *rows)),
    )


def _cmd_verify(args: argparse.Namespace) -> Answer:
    reports = verify.run_suite(
        args.suite,
        t_max=args.t_max,
        n_max=args.n_max,
        progress=lambda name: print(f"running {name}", file=sys.stderr),
    )
    passed = sum(r.passed for r in reports)

    def payload() -> dict:
        return {
            "suite": args.suite,
            "t_max": args.t_max,
            "n_max": args.n_max,
            "summary": {"total": len(reports), "passed": passed, "failed": len(reports) - passed},
            "checks": [r.to_json_dict() for r in reports],
        }

    def lines() -> Iterator[str]:
        for r in reports:
            extras = " ".join(f"{k}={v}" for k, v in r.params.items())
            line = f"{r.status.upper()} {r.check} {extras} [{r.elapsed_ms:.1f} ms]"
            yield f"{line} :: {r.detail}" if r.detail else line
        yield f"passed {passed}/{len(reports)} checks"

    return int(passed < len(reports)), payload, lines()


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, lines = args.handler(args)
        if args.format == "json":
            lines = [json.dumps(payload(), separators=(",", ":"))]
        for line in lines:
            print(line)
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
