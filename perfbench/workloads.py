"""The benchmark's four workloads: seeded inputs, the calls they make, and
the correctness gate each answer must pass.

A workload is a batch of requests made from ``--seed`` alone. The batch is
answered by a single caller as a closed loop (the next request goes out
only after the previous answer is back). Every answer is then checked
outside the timed window against a route that does not share the code
under test wherever one exists.

Sizes are stratified so that two seeds give batches of nearly equal cost:
each stratum of the parameter range gets the same number of requests, and
the seed picks the point inside the middle fifth of each stratum and the
order of the batch.
"""

from __future__ import annotations

import gzip
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
# eq2 coefficients up to the top of each t's L range, from corekit 0.1.0;
# perfbench/make_reference.py writes it
REFERENCE = HERE / "series_reference.json.gz"

# Checks in ``corekit verify --suite all``; the gate requires all of them.
VERIFY_CHECKS = (
    "eta.roundtrip",
    "eta.support",
    "eta.vector_roundtrip",
    "genfun.coefficient_bounds",
    "genfun.dfs_vs_closed",
    "genfun.dfs_vs_oracle",
    "genfun.support_soundness",
    "kernel.beta_algebra",
    "kernel.column_hooks",
    "kernel.core_predicates",
    "kernel.distinct_equivalence",
    "kernel.distinct_pair_reach",
    "kernel.pair_core_band",
    "kernel.pair_enumeration",
    "tt1.count_fibonacci",
    "tt1.extremes",
    "tt1.ladder",
    "tt1.size_bound",
    "tt1.table",
    "tt1.total_size",
)

# Series prefix checked against the brute-force oracle.
BRUTE_PREFIX = 30


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers in [lo, hi], one from the middle fifth of each
    equal-width stratum, so that two seeds agree down to the quantiles."""
    width = (hi - lo) / count
    return [lo + int(width * (k + 0.4 + 0.2 * rng.random())) for k in range(count)]


# ---------------------------------------------------------------------------
# series-wide and series-deep: series.distinct_core_series(t, L)

# For each t, the L range in which one request visits about 5e2 to 3e3
# residue vectors (3 to 35 ms on the eq2 search of corekit 0.1.0).
SERIES_WIDE_L = {
    8: (57, 163),
    9: (44, 114),
    10: (36, 86),
    11: (31, 69),
    12: (28, 59),
    13: (26, 51),
    14: (24, 46),
}
# Few vectors, long coefficient arrays; one request takes 1 to 55 ms.
SERIES_DEEP_L = {
    3: (2000, 20000),
    4: (2000, 12000),
    5: (2000, 4000),
    6: (800, 1400),
}


def _series_batch(rng, ranges, per_t, shrink):
    batch = []
    for t, (lo, hi) in ranges.items():
        batch += [(t, max(2, L // shrink)) for L in _stratified(rng, lo, hi, per_t)]
    rng.shuffle(batch)
    return batch


def series_wide_batch(rng: random.Random, tiny: bool) -> list:
    return _series_batch(rng, SERIES_WIDE_L, 1 if tiny else 15, 1)


def series_deep_batch(rng: random.Random, tiny: bool) -> list:
    return _series_batch(rng, SERIES_DEEP_L, 1 if tiny else 25, 50 if tiny else 1)


def series_answer(corekit, request):
    t, limit = request
    return corekit.series.distinct_core_series(t, limit)


def distinct_part_counts(limit: int) -> list[int]:
    """q(n) for n <= limit: coefficients of prod_k (1 + x^k)."""
    q = [1] + [0] * limit
    for k in range(1, limit + 1):
        for n in range(limit, k - 1, -1):
            q[n] += q[n - k]
    return q


class SeriesGate:
    """Checks eq2 coefficients against routes that do not use the eq2 search
    of the program under test, and every coefficient against the reference."""

    def __init__(self, corekit, batch):
        series = corekit.series
        ts = {t for t, _ in batch}
        top = max(limit for _, limit in batch)
        self.q = distinct_part_counts(max(ts))
        stored = json.loads(gzip.decompress(REFERENCE.read_bytes()))["coeffs"]
        self.reference = {t: tuple(stored.get(str(t), ())) for t in ts}
        self.brute = {}
        self.closed = {}
        for t in ts:
            self.brute[t] = series.distinct_core_series_brute(t, min(top, BRUTE_PREFIX)).coeffs
            if t <= 4:
                self.closed[t] = series.distinct_core_series_closed(t, top).coeffs

    def __call__(self, request, answer) -> str | None:
        t, limit = request
        coeffs = answer.coeffs
        if answer.t != t or len(coeffs) != limit + 1:
            return f"t={t} L={limit}: answer has t={answer.t}, {len(coeffs)} coefficients"
        # every distinct-part partition of n < t avoids hook t
        for n in range(min(t, limit + 1)):
            if coeffs[n] != self.q[n]:
                return f"t={t} L={limit}: c_{n}={coeffs[n]} against distinct-part count {self.q[n]}"
        prefix = self.brute[t][: limit + 1]
        if coeffs[: len(prefix)] != prefix:
            return f"t={t} L={limit}: prefix differs from brute-force oracle"
        if t in self.closed and coeffs != self.closed[t][: limit + 1]:
            return f"t={t} L={limit}: differs from closed form"
        reference = self.reference[t]
        if len(reference) <= limit:
            return f"t={t} L={limit}: no reference coefficients that far"
        if coeffs != reference[: limit + 1]:
            n = next(n for n, (a, b) in enumerate(zip(coeffs, reference)) if a != b)
            return f"t={t} L={limit}: c_{n}={coeffs[n]} differs from reference {reference[n]}"
        return None


# ---------------------------------------------------------------------------
# stats-large: the five calls `corekit stats --t N` makes


def stats_batch(rng: random.Random, tiny: bool) -> list:
    batch = _stratified(rng, 10, 40, 3) if tiny else _stratified(rng, 100, 400, 100)
    rng.shuffle(batch)
    return batch


def stats_answer(corekit, t):
    c = corekit.consecutive
    return (
        c.count_distinct_cores(t),
        c.largest_size(t),
        c.maximizers(t),
        c.total_size(t),
        c.average_size(t),
    )


def _is_distinct_pair_core(parts, t) -> bool:
    """Distinct parts and no hook t or t+1, read off the beta-set."""
    k = len(parts)
    beta = {p + k - i for i, p in enumerate(parts, start=1)}
    return all(
        x + 1 not in beta and all(x - h in beta for h in (t, t + 1) if x >= h) for x in beta
    )


class StatsGate:
    """Checks count and total size against Fibonacci recurrences computed here."""

    def __init__(self, corekit, batch):
        top = max(batch) + 2
        fib = [0, 1]
        while len(fib) <= top:
            fib.append(fib[-1] + fib[-2])
        # phi_t = phi_{t-1} + phi_{t-2} + F_{t-1};  psi_{t+1} = psi_t + psi_{t-1} + phi_t
        phi = {2: 1, 3: 2}
        psi = {2: 0, 3: 1}
        for t in range(4, top + 1):
            phi[t] = phi[t - 1] + phi[t - 2] + fib[t - 1]
            psi[t] = psi[t - 1] + psi[t - 2] + phi[t - 1]
        self.fib, self.psi = fib, psi

    def __call__(self, t, answer) -> str | None:
        count, largest, tops, total, average = answer
        if count != self.fib[t + 1]:
            return f"t={t}: count {count} != F_{t + 1}"
        if total != self.psi[t + 1]:
            return f"t={t}: total_size differs from the psi recurrence"
        if not isinstance(average, Fraction) or average != Fraction(total, count):
            return f"t={t}: average_size is not total/count"
        if not tops:
            return f"t={t}: no maximizers"
        for p in tops:
            if p.size != largest or not _is_distinct_pair_core(p.parts, t):
                return f"t={t}: maximizer {p.parts[:5]}... is not a size-{largest} core"
        return None


# ---------------------------------------------------------------------------
# verify-all: `corekit verify --suite all --format json`

VERIFY_FULL = ("--t-max", "10", "--n-max", "16")
VERIFY_TINY = ("--t-max", "5", "--n-max", "8")


def verify_batch(rng: random.Random, tiny: bool) -> list:
    bounds = VERIFY_TINY if tiny else VERIFY_FULL
    return [["verify", "--suite", "all", "--format", "json", *bounds]]


def verify_gate(checks: dict, code) -> list:
    """One (check, error) per expected check; a missing check is failed."""
    out = []
    for name in VERIFY_CHECKS:
        check = checks.get(name)
        if code != 0:
            out.append((name, f"corekit verify exited with {code!r}"))
        elif check is None:
            out.append((name, "check missing from the report"))
        elif check.get("status") != "pass":
            out.append((name, f"status {check.get('status')!r}: {check.get('detail')}"))
        else:
            out.append((name, None))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    batch: Callable[[random.Random, bool], list]  # (rng, tiny) -> requests
    answer: Callable | None = None  # None: each request is a corekit CLI argv
    gate: Callable | None = None  # (corekit, batch) -> check(request, answer)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("series-wide", series_wide_batch, series_answer, SeriesGate),
        Workload("series-deep", series_deep_batch, series_answer, SeriesGate),
        Workload("stats-large", stats_batch, stats_answer, StatsGate),
        Workload("verify-all", verify_batch),
    )
}
