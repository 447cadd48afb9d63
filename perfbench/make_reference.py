"""Write the reference coefficients the series gate checks answers against.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose eq2 series is trusted;
``series_reference.json.gz`` was made on corekit 0.1.0. For each t of the
series-wide and series-deep ranges it stores c_0 .. c_L, with L the top of
that t's range, so that every coefficient of every answer is checked. The
stored series are first checked here against the closed form (t <= 4) and
the brute-force oracle (n <= 30).
"""

from __future__ import annotations

import gzip
import json
import sys

import workloads

sys.path.insert(0, str(workloads.HERE.parent / "src"))
import corekit  # noqa: E402


def main() -> int:
    series = corekit.series
    tops: dict[int, int] = {}
    for ranges in (workloads.SERIES_WIDE_L, workloads.SERIES_DEEP_L):
        for t, (_, hi) in ranges.items():
            tops[t] = max(tops.get(t, 0), hi)
    reference = {}
    for t, top in sorted(tops.items()):
        coeffs = series.distinct_core_series(t, top).coeffs
        brute = series.distinct_core_series_brute(t, workloads.BRUTE_PREFIX).coeffs
        if coeffs[: len(brute)] != brute:
            raise SystemExit(f"t={t}: eq2 series differs from the brute-force oracle")
        if t <= 4 and coeffs != series.distinct_core_series_closed(t, top).coeffs:
            raise SystemExit(f"t={t}: eq2 series differs from the closed form")
        reference[str(t)] = list(coeffs)
    data = json.dumps({"corekit": corekit.__version__, "coeffs": reference},
                      separators=(",", ":")).encode()
    # mtime=0 keeps the file identical from run to run
    workloads.REFERENCE.write_bytes(gzip.compress(data, 9, mtime=0))
    print(f"wrote {workloads.REFERENCE.name}: t = {sorted(tops)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
