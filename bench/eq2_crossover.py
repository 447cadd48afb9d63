"""Time both eq2 routes on a t x L grid and show which one the dispatch picks.

    PYTHONPATH=src python3 bench/eq2_crossover.py > grid.json

For every grid point it prints the walk's and the DP's measured seconds
(best of up to three runs; null where the route's estimate exceeds
``MAX_S``), both estimates from ``series.eq2_costs``, the route the
dispatch picks and the route that measured faster. The summary gives the
per-unit times the cost model's constants were fitted to:

* the median walk seconds per node of the walk's node bound where the
  choice is close: over the points whose two routes measured within
  ``CROSSOVER_BAND`` of each other;
* the median DP seconds per big-int word-operation over points with at
  least 10**6 of them, and, at each t of ``CORNER_T``, the largest limit
  ``corekit series`` admits under its budget, with the picked route's
  estimate and its measured seconds there (one run, unscaled, as a CLI
  user waits for it). The largest states run slower per word than the
  grid's median, so the DP's terms are fitted to these corners. One corner,
  t = 1000, has t far above L: nearly every position there has cap 1, so
  its few operations per position each make a fresh int of the whole state.

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

from corekit import cli, series

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


def budget_corner(t: int) -> int:
    """The largest limit whose cheaper estimate fits ``corekit series``'s budget."""
    lo, hi = 0, series.SERIES_LIMIT_CAP + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if min(series.eq2_costs(t, mid).values()) <= cli.SERIES_BUDGET_S:
            lo = mid
        else:
            hi = mid
    return lo


def corner_point(t: int) -> dict:
    limit = budget_corner(t)
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
            _, _, caps, nodes, _, state_bytes = series._residue_bounds(t, limit)
            point = {
                "t": t,
                "limit": limit,
                "walk_node_bound": nodes,
                "dp_word_ops": sum(2 * c + 2 for c in caps) * state_bytes / 8,
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
    dp_per_word = [
        p["dp_s"] / p["dp_word_ops"] for p in points if p["dp_s"] and p["dp_word_ops"] >= 1e6
    ]
    corners = [corner_point(t) for t in CORNER_T]
    summary = {
        "machine": f"{platform.machine()}, Python {platform.python_version()}",
        "median_walk_s_per_bound_node_near_crossover": statistics.median(
            p["walk_s"] / p["walk_node_bound"] for p in close
        ),
        "points_near_crossover": len(close),
        "median_dp_s_per_word_op": statistics.median(dp_per_word),
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
