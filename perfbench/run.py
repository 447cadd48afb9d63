"""corekit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a corekit checkout; corekit is imported from its
``src``. Each pass starts a fresh interpreter (perfbench/worker.py) that
answers the workload's seeded batch, so corekit's caches start cold as they
do for every CLI user. Passes repeat the same batch until the window of S
seconds is spent, and at least MIN_PASSES times; each timing reported is
the median of its repetitions, each scaled by a reference kernel timed next
to it, and memory is the median over passes. The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# about worker.reference_ms() on the baseline machine when it is not slowed;
# a constant, so it sets only the scale of every timing
REFERENCE_MS = 3.5
# with RUN_LIMIT_S, keeps a run under 180 s whatever the program does
PASS_TIMEOUT_S = 50.0
# every request of a run is answered at least this many times, so that its
# median has several draws
MIN_PASSES = 4
# no pass starts after this much of a run, whatever the minimum passes
RUN_LIMIT_S = 100.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{m: "count" for m in spans.COUNTS},
    **{m: "s" for m in spans.SELF_TIMES},
    "consecutive.population_builds": "count",
    "consecutive.population_hit_ratio": "ratio",
    **{f"verify.check_s.{name}": "s" for name in workloads.VERIFY_CHECKS},
    "verify.wait_ratio": "ratio",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not measure: no result is printed."""


def _now() -> float:
    # the system-wide clock the worker stamps its READY line with
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_pass(workload: str, seed: int, scale: str, mode: str) -> dict:
    """Run one pass in a fresh interpreter and return what it measured.

    mode is ``plain``, ``traced`` or ``serial`` (see run_passes).
    """
    cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), workload, str(seed), scale, mode]
    started = _now()
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass exceeded {PASS_TIMEOUT_S:.0f} s") from None
    pass_s = _now() - started
    lines = done.stdout.splitlines()
    if not lines or not lines[0].startswith("READY "):
        raise BenchError(
            f"{workload} pass exited {done.returncode} before its first request:\n"
            + done.stderr[-2000:]
        )
    _, size, ready_at = lines[0].split()
    if done.returncode == 0:
        result = json.loads(lines[-1])
    else:
        # a pass that dies fails every request it was sent
        sys.stderr.write(done.stderr[-2000:])
        result = {"results": [[None, f"pass exited {done.returncode}"]] * int(size)}
    result["setup_s"] = float(ready_at) - started
    result["pass_s"] = pass_s
    result["mode"] = mode
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> list[dict]:
    """Passes until the window is spent.

    In trace mode, untraced and traced passes alternate. Otherwise a CLI
    workload alternates passes as users run it with passes that run the same
    command with ``--jobs 1``, whose check times are not inflated by the
    other pool thread holding the GIL.
    """
    if trace:
        second = "traced"
    elif workloads.WORKLOADS[workload].answer is None:  # a corekit command
        second = "serial"
    else:
        second = "plain"
    need = (2 if trace else MIN_PASSES) if scale == "full" else 2
    begin = _now()
    passes: list[dict] = []
    while True:
        mode = second if len(passes) % 2 else "plain"
        passes.append(run_pass(workload, seed, scale, mode))
        elapsed = _now() - begin
        typical = statistics.median(p["pass_s"] for p in passes)
        if (len(passes) >= need and elapsed + typical > seconds) or elapsed > RUN_LIMIT_S:
            return passes


def _quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _scaled(times: list[list[float]], refs: list[list[float]]) -> list[float]:
    """Each item's time at the reference speed, in ms: the median over the
    passes of its time over the reference kernel's time next to it, times
    REFERENCE_MS. times[p][i] is item i in pass p, the same input in every
    pass."""
    return [
        REFERENCE_MS * statistics.median(t / r for t, r in zip(item, item_refs))
        for item, item_refs in zip(zip(*times), zip(*refs))
    ]


def end_to_end(passes: list[dict]) -> dict[str, float]:
    """Every timing is scaled to the reference speed (see README.md).

    A shared host's speed can drop by nearly half for a minute at a time;
    the reference kernel, timed next to each call, slows about as much.
    """
    answered = [p for p in passes if "calls_ms" in p]  # passes that did not die
    plain = [p for p in answered if p["mode"] == "plain"]
    # a CLI workload's requests are timed in its --jobs 1 passes
    timed = [p for p in answered if p["mode"] == "serial"] or plain
    if not plain or not timed:
        raise BenchError("no request was answered")
    latencies = _scaled([[lat for lat, _ in p["results"]] for p in timed],
                        [p["result_refs_ms"] for p in timed])
    return {
        "setup_s": statistics.median(
            p["setup_s"] * REFERENCE_MS / p["call_refs_ms"][0] for p in answered
        ),
        "wall_s": sum(_scaled([p["calls_ms"] for p in plain],
                              [p["call_refs_ms"] for p in plain])) / 1000.0,
        "req_p50_ms": statistics.median(latencies),
        "req_p90_ms": _quantile(latencies, 90),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in answered),
    }


def per_layer(passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if p["mode"] == "traced" and "layers" in p]
    plain = [p for p in passes if p["mode"] == "plain" and "check_s" in p]
    if not traced or not plain:
        raise BenchError("no traced and untraced pass pair completed")
    out = {}
    for m in (*spans.COUNTS, "consecutive.population_builds"):
        out[m] = statistics.median_low(p["layers"][m] for p in traced)
    for m in (*spans.SELF_TIMES, "consecutive.population_hit_ratio"):
        out[m] = statistics.median(p["layers"][m] for p in traced)
    # check times are the program's own, so they come from the untraced passes
    for name in workloads.VERIFY_CHECKS:
        out[f"verify.check_s.{name}"] = statistics.median(
            p["check_s"].get(name, 0.0) for p in plain
        )
    out["verify.wait_ratio"] = statistics.median(
        sum(p["check_s"].values()) / p["wall_s"] for p in plain
    )
    out["cli.import_s"] = statistics.median(p["import_s"] for p in traced + plain)
    out["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in plain
    )
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> dict:
    """Measure one workload and return the result object the benchmark prints."""
    passes = run_passes(workload, seed, seconds, trace, scale)
    errors = [e for p in passes for _, e in p["results"] if e is not None]
    for error in errors[:10]:
        print(f"FAILED {workload}: {error}", file=sys.stderr)
    attempted = sum(len(p["results"]) for p in passes)
    if trace:
        values, units = per_layer(passes), PER_LAYER
    else:
        values, units = end_to_end(passes), END_TO_END
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "corekit" / "__init__.py").is_file():
        print(f"no corekit sources under {SRC}", file=sys.stderr)
        return 2
    # Every pass inherits one CPU, so the reference kernel runs where the
    # calls it scales ran, and verify's pool threads hand the GIL over on
    # that CPU instead of waiting for a second one the host may not be
    # running (see README.md).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
