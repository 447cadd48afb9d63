"""Every end-to-end metric of every workload, its spread over seeds, and its
drift between sets of runs.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--sets 1] [--out FILE] [WORKLOAD ...]

Runs ``perfbench/run.py --trace 0`` once per seed and workload, one run at
a time, and prints every metric with its unit: its median and, with two or
more seeds, the spread (third minus first quartile, as a share of the
median) next to the bound in BENCHMARK.json. ``--sets N`` measures the same
seeds N times over, all workloads in each set, and prints how far each
later set's median moved from the first set's. ``--out`` also writes the
summary and the machine it ran on as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "values": values}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def machine() -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "platform": platform.platform()}


def measure(bench: dict, workload: str, seeds: range) -> dict:
    """Summary of one workload over the given seeds."""
    runs = []
    for seed in seeds:
        cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"{workload} seed {seed}: {result['failed']} failed", file=sys.stderr)
        runs.append(result)
    metrics = {}
    for m in bench["end_to_end"]:
        stats = summarize([r["metrics"][m["name"]]["value"] for r in runs])
        stats.update(unit=m["unit"], bound=m["bound"])
        metrics[m["name"]] = stats
    return {
        "seeds": [seeds[0], seeds[-1]],
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    sets = []
    for k in range(args.sets):
        summary = {}
        for workload in names:
            summary[workload] = measure(bench, workload, seeds)
            for name, stats in summary[workload]["metrics"].items():
                line = (f"set {k + 1} {workload:12s} {name:12s} {stats['median']:12.4f} "
                        f"{stats['unit']:3s}")
                if "spread" in stats:
                    line += f"  spread {stats['spread']:6.3f} (bound {stats['bound']})"
                if k:
                    first = sets[0][workload]["metrics"][name]["median"]
                    line += f"  drift {stats['median'] / first - 1:+6.3f}"
                print(line, flush=True)
        sets.append(summary)
    if args.out:
        out = {"machine": machine(), "run_seconds": bench["run_seconds"], "sets": sets}
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
