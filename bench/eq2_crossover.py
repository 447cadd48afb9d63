"""Time both eq2 routes on a t x L grid and show which one the dispatch picks.

    PYTHONPATH=src python3 bench/eq2_crossover.py > grid.json

For every grid point it prints the walk's and the DP's measured seconds
(best of up to three runs; null where the route's estimate exceeds
``MAX_S``), both estimates from ``series.eq2_costs``, the route the
dispatch picks and the route that measured faster. At each t of
``CORNER_T`` it also runs the largest limit ``series.distinct_core_series``
admits under ``series.SERIES_BUDGET_S``, on the picked route (one run,
unscaled, as a caller waits for it). One corner, t = 1000, has t far above
L: nearly every position there has cap 1, so its few operations per
position each make a fresh int of the whole state.

``median_measured_over_estimate`` gives, per route, the median of
measured over estimated seconds where its constants were fitted. For the
walk these are the grid points whose two routes measured within
``CROSSOVER_BAND`` of each other; for the DP, the corners it serves, since
the largest states run slower per word than the grid's. It shows the
margin the estimate leaves; it is not a factor to scale the constants by.
The last refit, for the DP's A-major state (``BENCH_21.json``), kept the
previous constants' margin instead: on one host, with both versions timed
on the grid and at the corners, each point's target was the old estimate
times the new measured time over the old. Scaling the DP's constants by
this median (0.35-0.50 there) would admit limits whose calls take about
the whole ``series.SERIES_BUDGET_S``.

The grid is chosen independently of the benchmark's inputs.

Every grid time is scaled as perfbench scales a call, so that runs on a
host whose speed drifts can be compared: a run's time is multiplied by
perfbench's ``REFERENCE_MS`` and divided by the mean of its reference
kernel's runs just before and just after it.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from pathlib import Path

from corekit import series

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import REFERENCE_MS  # noqa: E402
from worker import reference_ms  # noqa: E402

T_VALUES = range(2, 21)
L_VALUES = (16, 40, 100, 250, 600, 1500, 4000, 10000)
MAX_S = 1.0  # a route estimated slower than this is not timed
CROSSOVER_BAND = 2.0  # the walk constant's points: routes within this factor
CORNER_T = (6, 7, 8, 9, 12, 20, 1000)


def best_of(route, t: int, limit: int) -> float:
    times = []
    before = reference_ms()
    for _ in range(3):
        started = time.perf_counter()
        route(t, limit)
        elapsed = time.perf_counter() - started
        after = reference_ms()
        times.append(elapsed * REFERENCE_MS / ((before + after) / 2.0))
        before = after
        if elapsed > 0.2:
            break
    return min(times)


def corner_point(t: int) -> dict:
    limit = series._largest_admitted(t)
    est = series.eq2_costs(t, limit)
    picked = min(est, key=est.get)
    started = time.perf_counter()
    series.EQ2_ROUTES[picked](t, limit)
    point = {
        "t": t,
        "limit": limit,
        "picked": picked,
        "est_s": est[picked],
        "measured_s": time.perf_counter() - started,
    }
    print(f"corner {point}", file=sys.stderr)
    return point


def main() -> None:
    reference_ms()  # warm up, as perfbench does
    points = []
    for t in T_VALUES:
        for limit in L_VALUES:
            est = series.eq2_costs(t, limit)
            point = {
                "t": t,
                "limit": limit,
                "est_walk_s": est["walk"],
                "est_dp_s": est["dp"],
                "picked": min(est, key=est.get),
            }
            for name, route in series.EQ2_ROUTES.items():
                point[f"{name}_s"] = best_of(route, t, limit) if est[name] <= MAX_S else None
            if point["walk_s"] is not None and point["dp_s"] is not None:
                point["faster"] = "walk" if point["walk_s"] <= point["dp_s"] else "dp"
            print(f"t={t} L={limit} {point}", file=sys.stderr)
            points.append(point)
    both = [p for p in points if "faster" in p]
    wrong = [p for p in both if p["picked"] != p["faster"]]
    close = [
        p for p in both if max(p["walk_s"], p["dp_s"]) <= CROSSOVER_BAND * min(p["walk_s"], p["dp_s"])
    ]
    corners = [corner_point(t) for t in CORNER_T]
    summary = {
        "machine": f"{platform.machine()}, Python {platform.python_version()}",
        "median_measured_over_estimate": {
            "walk": statistics.median(p["walk_s"] / p["est_walk_s"] for p in close),
            "dp": statistics.median(
                p["measured_s"] / p["est_s"] for p in corners if p["picked"] == "dp"
            ),
        },
        "points_near_crossover": len(close),
        "points_timed_on_both": len(both),
        "picked_the_faster": len(both) - len(wrong),
        "slowdown_when_wrong": max(
            (max(p["walk_s"], p["dp_s"]) / min(p["walk_s"], p["dp_s"]) for p in wrong), default=1.0
        ),
        "slowest_corner_s": max(p["measured_s"] for p in corners),
        "corners": corners,
        "points": points,
    }
    print(json.dumps(summary, indent=1))


if __name__ == "__main__":
    main()
