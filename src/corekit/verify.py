"""Cross-verification suite: every structural claim as a named, timed check.

Each check sweeps an exhaustive finite window and reports the first
counterexample it meets. The runner executes checks one at a time in registry
order, so each ``elapsed_ms`` is that check's own time; reports come back
sorted by check name.
"""

from __future__ import annotations

import time
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable

from . import consecutive, cores, residues, series
from .partitions import (
    Partition,
    beta_distinct_criterion,
    beta_set,
    hook_length_set,
    hook_lengths,
    partition_of_beta,
    size_from_beta,
)
from .report import CheckReport

SUITE_NAMES = ("kernel", "eta", "genfun", "tt1")


def _bound(requested: int | None, default: int, lo: int, hi: int) -> int:
    value = default if requested is None else requested
    return max(lo, min(value, hi))


@lru_cache(maxsize=4)
def _cores_by_hook_filter(t_hi: int, n_hi: int) -> dict[int, list[Partition]]:
    """For each t in 2..t_hi, every t-core of size <= n_hi, found by hook scan."""
    by_t: dict[int, list[Partition]] = {t: [] for t in range(2, t_hi + 1)}
    for n in range(n_hi + 1):
        for p in cores.enumerate_partitions(n):
            hooks = hook_length_set(p)
            for t in range(2, t_hi + 1):
                if t not in hooks:
                    by_t[t].append(p)
    return by_t


# ---------------------------------------------------------------------------
# kernel: beta-set algebra and the enumeration oracles


def check_beta_algebra(t_max: int | None, n_max: int | None) -> CheckReport:
    n_hi = _bound(n_max, 40, 0, 60)
    params = {"n_max": n_hi}
    for n in range(n_hi + 1):
        for p in cores.enumerate_partitions(n):
            bs = beta_set(p)
            if partition_of_beta(bs) != p:
                return _fail("kernel.beta_algebra", params, f"roundtrip broke at {p!r}")
            if size_from_beta(bs) != n:
                return _fail("kernel.beta_algebra", params, f"size formula broke at {p!r}")
    return _pass("kernel.beta_algebra", params)


def check_distinct_equivalence(t_max: int | None, n_max: int | None) -> CheckReport:
    n_hi = _bound(n_max, 40, 0, 60)
    params = {"n_max": n_hi}
    for n in range(n_hi + 1):
        for p in cores.enumerate_partitions(n):
            if p.has_distinct_parts() != beta_distinct_criterion(beta_set(p)):
                return _fail("kernel.distinct_equivalence", params, f"disagreement at {p!r}")
    return _pass("kernel.distinct_equivalence", params)


def check_column_hooks(t_max: int | None, n_max: int | None) -> CheckReport:
    n_hi = _bound(n_max, 25, 0, 40)
    params = {"n_max": n_hi}
    for n in range(n_hi + 1):
        for p in cores.enumerate_partitions(n):
            grid = hook_lengths(p)
            rows = len(p)
            column = [row[0] for row in grid]
            expected = [part + rows - i for i, part in enumerate(p.parts, start=1)]
            if column != expected:
                return _fail("kernel.column_hooks", params, f"column formula broke at {p!r}")
            if any(a <= b for a, b in zip(column, column[1:])):
                return _fail("kernel.column_hooks", params, f"column not decreasing at {p!r}")
    return _pass("kernel.column_hooks", params)


def check_core_predicates(t_max: int | None, n_max: int | None) -> CheckReport:
    t_hi = _bound(t_max, 12, 2, 20)
    n_hi = _bound(n_max, 30, 0, 40)
    params = {"t_max": t_hi, "n_max": n_hi}
    for n in range(n_hi + 1):
        for p in cores.enumerate_partitions(n):
            hooks = hook_length_set(p)
            bs = beta_set(p)
            for t in range(1, t_hi + 1):
                if (t not in hooks) != cores.abacus_is_t_core(bs, t):
                    return _fail(
                        "kernel.core_predicates", params, f"predicates split at {p!r}, t={t}"
                    )
    return _pass("kernel.core_predicates", params)


def check_pair_core_band(t_max: int | None, n_max: int | None) -> CheckReport:
    t_hi = _bound(t_max, 10, 2, 10)
    params = {"t_max": t_hi}
    for t in range(2, t_hi + 1):
        band = frozenset(
            x for k in range(1, t) for x in range((k - 1) * (t + 1) + 1, k * t)
        )
        for p in cores.enumerate_simultaneous_cores(t, t + 1):
            stray = beta_set(p) - band
            if stray:
                return _fail(
                    "kernel.pair_core_band",
                    params,
                    f"t={t}: {p!r} has beta element {min(stray)} outside the band",
                )
    return _pass("kernel.pair_core_band", params)


def check_distinct_pair_reach(t_max: int | None, n_max: int | None) -> CheckReport:
    t_hi = _bound(t_max, 12, 2, 14)
    params = {"t_max": t_hi}
    for t in range(2, t_hi + 1):
        low = frozenset(range(1, t))
        for p in cores.enumerate_simultaneous_cores(
            t, t + 1, distinct_only=True, max_gaps=t * (t - 1) // 2
        ):
            stray = beta_set(p) - low
            if stray:
                return _fail(
                    "kernel.distinct_pair_reach",
                    params,
                    f"t={t}: {p!r} has beta element {min(stray)} >= t",
                )
    return _pass("kernel.distinct_pair_reach", params)


def _coprime_pairs(cell_cap: int) -> Iterable[tuple[int, int]]:
    from math import gcd

    for t1 in range(2, 2 * cell_cap + 2):
        for t2 in range(t1 + 1, 2 * cell_cap + 2):
            if (t1 - 1) * (t2 - 1) <= 2 * cell_cap and gcd(t1, t2) == 1:
                yield t1, t2


def check_pair_enumeration(t_max: int | None, n_max: int | None) -> CheckReport:
    cells = 20
    params = {"gap_cells_max": cells}
    for t1, t2 in _coprime_pairs(cells):
        found = cores.enumerate_simultaneous_cores(t1, t2)
        if len(found) != cores.anderson_count(t1, t2):
            return _fail(
                "kernel.pair_enumeration",
                params,
                f"({t1},{t2}): enumerated {len(found)}, formula {cores.anderson_count(t1, t2)}",
            )
        top = max(p.size for p in found)
        if top != cores.olsson_stanton_max(t1, t2):
            return _fail(
                "kernel.pair_enumeration",
                params,
                f"({t1},{t2}): max size {top}, formula {cores.olsson_stanton_max(t1, t2)}",
            )
    return _pass("kernel.pair_enumeration", params)


# ---------------------------------------------------------------------------
# eta: the residue-vector encoding


def check_eta_roundtrip(t_max: int | None, n_max: int | None) -> CheckReport:
    t_hi = _bound(t_max, 8, 2, 12)
    n_hi = _bound(n_max, 30, 0, 40)
    params = {"t_max": t_hi, "n_max": n_hi}
    for t, t_cores in _cores_by_hook_filter(t_hi, n_hi).items():
        for p in t_cores:
            v = residues.residue_vector(p, t)
            if residues.core_of_vector(v) != p:
                return _fail("eta.roundtrip", params, f"t={t}: roundtrip broke at {p!r}")
            if residues.size_of_vector(v) != p.size:
                return _fail("eta.roundtrip", params, f"t={t}: size formula broke at {p!r}")
    return _pass("eta.roundtrip", params)


def check_eta_support(t_max: int | None, n_max: int | None) -> CheckReport:
    t_hi = _bound(t_max, 8, 2, 12)
    n_hi = _bound(n_max, 30, 0, 40)
    params = {"t_max": t_hi, "n_max": n_hi}
    for t, t_cores in _cores_by_hook_filter(t_hi, n_hi).items():
        for p in t_cores:
            v = residues.residue_vector(p, t)
            if residues.separated_support(v) != p.has_distinct_parts():
                return _fail("eta.support", params, f"t={t}: support test split at {p!r}")
            if v.total != len(p):
                return _fail("eta.support", params, f"t={t}: count sum != parts at {p!r}")
    return _pass("eta.support", params)


def check_eta_vector_roundtrip(t_max: int | None, n_max: int | None) -> CheckReport:
    t_hi = _bound(t_max, 8, 2, 12)
    n_hi = _bound(n_max, 30, 0, 40)
    params = {"t_max": t_hi, "n_max": n_hi}
    for t in range(2, t_hi + 1):
        seen = 0
        for v in residues.iter_core_vectors(t, n_hi):
            seen += 1
            p = residues.core_of_vector(v)
            if residues.size_of_vector(v) != p.size or p.size > n_hi:
                return _fail("eta.vector_roundtrip", params, f"t={t}: bad size for {v!r}")
            if residues.residue_vector(p, t) != v:
                return _fail("eta.vector_roundtrip", params, f"t={t}: roundtrip broke at {v!r}")
        hook_count = len(_cores_by_hook_filter(t_hi, n_hi)[t])
        if seen != hook_count:
            return _fail(
                "eta.vector_roundtrip",
                params,
                f"t={t}: {seen} vectors vs {hook_count} hook-filtered cores",
            )
    return _pass("eta.vector_roundtrip", params)


# ---------------------------------------------------------------------------
# genfun: the series routes (both eq2 routes against the brute force and closed forms)


def check_dfs_vs_oracle(t_max: int | None, n_max: int | None) -> CheckReport:
    t_hi = _bound(t_max, 7, 2, 10)
    n_hi = _bound(n_max, 60, 0, series.BRUTE_FORCE_CAP)
    params = {"t_max": t_hi, "limit": n_hi}
    for t in range(2, t_hi + 1):
        detail = _eq2_routes_differ(series.distinct_core_series_brute(t, n_hi))
        if detail:
            return _fail("genfun.dfs_vs_oracle", params, detail)
    return _pass("genfun.dfs_vs_oracle", params)


def check_dfs_vs_closed(t_max: int | None, n_max: int | None) -> CheckReport:
    n_hi = _bound(n_max, 200, 0, 2000)
    params = {"limit": n_hi}
    for t in (2, 3, 4):
        detail = _eq2_routes_differ(series.distinct_core_series_closed(t, n_hi))
        if detail:
            return _fail("genfun.dfs_vs_closed", params, detail)
    return _pass("genfun.dfs_vs_closed", params)


def _eq2_routes_differ(expected: series.CoefficientSeries) -> str | None:
    """Compare each eq2 route, called directly, with ``expected``; the
    first divergence names its route."""
    for name, route in series.EQ2_ROUTES.items():
        outcome = series.compare_series(route(expected.t, expected.limit), expected)
        if not outcome.passed:
            return f"t={expected.t}, {name} route: {outcome.detail}"
    return None


def check_coefficient_bounds(t_max: int | None, n_max: int | None) -> CheckReport:
    t_hi = _bound(t_max, 8, 2, 12)
    n_hi = _bound(n_max, 40, 0, 60)
    params = {"t_max": t_hi, "limit": n_hi}
    distinct_counts = [
        sum(1 for _ in cores.enumerate_partitions(n, distinct_only=True))
        for n in range(n_hi + 1)
    ]
    for t in range(2, t_hi + 1):
        coeffs = series.distinct_core_series(t, n_hi).coeffs
        if coeffs[0] != 1:
            return _fail("genfun.coefficient_bounds", params, f"t={t}: c_0 = {coeffs[0]}")
        for n, c in enumerate(coeffs):
            if c > distinct_counts[n]:
                return _fail(
                    "genfun.coefficient_bounds",
                    params,
                    f"t={t}: c_{n} = {c} exceeds distinct-part count {distinct_counts[n]}",
                )
    return _pass("genfun.coefficient_bounds", params)


def check_support_soundness(t_max: int | None, n_max: int | None) -> CheckReport:
    t_hi = _bound(t_max, 8, 2, 12)
    n_hi = _bound(n_max, 40, 0, 60)
    params = {"t_max": t_hi, "limit": n_hi}
    for t in range(2, t_hi + 1):
        for v in series.iter_distinct_core_vectors(t, n_hi):
            if not residues.separated_support(v):
                return _fail("genfun.support_soundness", params, f"t={t}: visited {v!r}")
    return _pass("genfun.support_soundness", params)


# ---------------------------------------------------------------------------
# tt1: consecutive-pair statistics


def check_count_fibonacci(t_max: int | None, n_max: int | None) -> CheckReport:
    t_hi = _bound(t_max, 30, 2, 32)
    gap_hi = min(t_hi, 9)
    params = {"t_max": t_hi, "gap_check_t_max": gap_hi}
    for t in range(2, t_hi + 1):
        count = sum(1 for _ in consecutive.iter_nice_subsets(t))
        if count != consecutive.count_distinct_cores(t):
            return _fail(
                "tt1.count_fibonacci",
                params,
                f"t={t}: {count} sparse subsets vs F_{t + 1} = {consecutive.count_distinct_cores(t)}",
            )
    for t in range(2, gap_hi + 1):
        independent = cores.enumerate_simultaneous_cores(t, t + 1, distinct_only=True)
        if list(independent) != list(consecutive.distinct_core_partitions(t)):
            return _fail(
                "tt1.count_fibonacci", params, f"t={t}: enumerators disagree"
            )
    return _pass("tt1.count_fibonacci", params)


def check_extremes(t_max: int | None, n_max: int | None) -> CheckReport:
    t_hi = _bound(t_max, 25, 2, 26)
    params = {"t_max": t_hi}
    for t in range(2, t_hi + 1):
        population = consecutive.distinct_core_partitions(t)
        if len(population) != consecutive.count_distinct_cores(t):
            return _fail(
                "tt1.extremes",
                params,
                f"t={t}: {len(population)} partitions vs F_{t + 1} = "
                f"{consecutive.count_distinct_cores(t)}",
            )
        top = max(p.size for p in population)
        if top != consecutive.largest_size(t):
            return _fail(
                "tt1.extremes",
                params,
                f"t={t}: observed max {top} vs formula {consecutive.largest_size(t)}",
            )
        attaining = [p for p in population if p.size == top]
        if len(attaining) != consecutive.maximizer_count(t):
            return _fail(
                "tt1.extremes",
                params,
                f"t={t}: {len(attaining)} maximizers vs formula {consecutive.maximizer_count(t)}",
            )
        if attaining != consecutive.maximizers(t):
            return _fail(
                "tt1.extremes", params, f"t={t}: constructed maximizers differ from scan"
            )
    return _pass("tt1.extremes", params)


def check_total_size(t_max: int | None, n_max: int | None) -> CheckReport:
    t_hi = _bound(t_max, 25, 2, 26)
    params = {"t_max": t_hi}
    table = consecutive.sequence_table(t_hi)
    for t in range(2, t_hi + 1):
        observed = sum(p.size for p in consecutive.distinct_core_partitions(t))
        closed = consecutive.total_size(t)
        direct = consecutive.fibonacci_triple_convolution(t + 1)
        if not observed == closed == table.row(t).e == direct:
            return _fail(
                "tt1.total_size",
                params,
                f"t={t}: observed {observed}, closed form {closed}, "
                f"ladder {table.row(t).e}, direct {direct}",
            )
    anchors = (
        table.row(2).e == consecutive.fibonacci_triple_convolution(3) == 1
        and table.row(3).e == consecutive.fibonacci_triple_convolution(4) == 3
    )
    if not anchors:
        return _fail("tt1.total_size", params, "anchor values e_2 = 1, e_3 = 3 broke")
    return _pass("tt1.total_size", params)


def check_ladder(t_max: int | None, n_max: int | None) -> CheckReport:
    t_hi = _bound(t_max, 60, 4, 88)
    params = {"t_max": t_hi}
    table = consecutive.sequence_table(t_hi)
    fib = [consecutive.fibonacci(i) for i in range(t_hi + 2)]
    psi = [consecutive.fibonacci_triple_convolution(i) for i in range(t_hi + 2)]
    for t in range(4, t_hi + 1):
        row = table.row(t)
        drop = psi[t + 1] - psi[t] - psi[t - 1]
        if drop != (t - 1) * fib[t - 1] - table.row(t - 2).b:
            return _fail("tt1.ladder", params, f"t={t}: psi step identity broke")
        if (t - 1) * fib[t - 1] - table.row(t - 2).b != row.phi:
            return _fail("tt1.ladder", params, f"t={t}: phi identity broke")
        if row.phi != table.row(t - 1).phi + table.row(t - 2).phi + fib[t - 1]:
            return _fail("tt1.ladder", params, f"t={t}: phi recurrence broke")
    for t in range(2, t_hi + 1):
        if table.row(t).e != psi[t + 1]:
            return _fail("tt1.ladder", params, f"t={t}: e_t != psi_(t+1)")
        if table.row(t).phi != consecutive.fibonacci_convolution(t):
            return _fail("tt1.ladder", params, f"t={t}: phi_t != direct convolution")
    return _pass("tt1.ladder", params)


def check_size_bound(t_max: int | None, n_max: int | None) -> CheckReport:
    t_hi = _bound(t_max, 15, 2, 22)
    params = {"t_max": t_hi}
    for t in range(2, t_hi + 1):
        peak = Fraction((2 * t + 1) ** 2, 24)
        for subset in consecutive.iter_nice_subsets(t):
            k = len(subset)
            bound = -Fraction(3, 2) * (k - Fraction(2 * t + 1, 6)) ** 2 + peak
            if size_from_beta(subset) > bound:
                return _fail(
                    "tt1.size_bound", params, f"t={t}: subset {subset} beats the bound"
                )
    return _pass("tt1.size_bound", params)


def check_table(t_max: int | None, n_max: int | None) -> CheckReport:
    t_hi = _bound(t_max, 60, 2, consecutive.TABLE_CAP)
    params = {"t_max": t_hi, "definitional_t_max": min(t_hi, 25)}
    try:
        table = consecutive.sequence_table(t_hi)
    except ArithmeticError as exc:
        return _fail("tt1.table", params, str(exc))
    for t in range(2, params["definitional_t_max"] + 1):
        row = table.row(t)
        direct = (
            *consecutive._definitional_bcd(t),
            consecutive.fibonacci_convolution(t),
            consecutive.fibonacci_triple_convolution(t),
        )
        laddered = (row.b, row.c, row.d, row.phi, row.psi)
        if direct != laddered:
            return _fail(
                "tt1.table",
                params,
                f"recurrence/definitional mismatch at t = {t}: {laddered} vs {direct}",
            )
    for row in table.rows:
        if row.a != consecutive.fibonacci(row.t + 1):
            return _fail("tt1.table", params, f"t={row.t}: a != F_(t+1)")
        if (row.c - row.b) % 2:
            return _fail("tt1.table", params, f"t={row.t}: c - b is odd")
    return _pass("tt1.table", params)


# ---------------------------------------------------------------------------
# registry and runner


def _pass(name: str, params: dict) -> CheckReport:
    return CheckReport(check=name, params=params, status="pass")


def _fail(name: str, params: dict, detail: str) -> CheckReport:
    return CheckReport(check=name, params=params, status="fail", detail=detail)


CheckFn = Callable[[int | None, int | None], CheckReport]

SUITES: dict[str, dict[str, CheckFn]] = {
    "kernel": {
        "kernel.beta_algebra": check_beta_algebra,
        "kernel.column_hooks": check_column_hooks,
        "kernel.core_predicates": check_core_predicates,
        "kernel.distinct_equivalence": check_distinct_equivalence,
        "kernel.distinct_pair_reach": check_distinct_pair_reach,
        "kernel.pair_core_band": check_pair_core_band,
        "kernel.pair_enumeration": check_pair_enumeration,
    },
    "eta": {
        "eta.roundtrip": check_eta_roundtrip,
        "eta.support": check_eta_support,
        "eta.vector_roundtrip": check_eta_vector_roundtrip,
    },
    "genfun": {
        "genfun.coefficient_bounds": check_coefficient_bounds,
        "genfun.dfs_vs_closed": check_dfs_vs_closed,
        "genfun.dfs_vs_oracle": check_dfs_vs_oracle,
        "genfun.support_soundness": check_support_soundness,
    },
    "tt1": {
        "tt1.count_fibonacci": check_count_fibonacci,
        "tt1.extremes": check_extremes,
        "tt1.ladder": check_ladder,
        "tt1.size_bound": check_size_bound,
        "tt1.table": check_table,
        "tt1.total_size": check_total_size,
    },
}


def checks_for(suite: str) -> dict[str, CheckFn]:
    if suite == "all":
        merged: dict[str, CheckFn] = {}
        for table in SUITES.values():
            merged.update(table)
        return merged
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {(*SUITE_NAMES, 'all')}")
    return SUITES[suite]


def run_check(
    name: str, fn: CheckFn, t_max: int | None = None, n_max: int | None = None
) -> CheckReport:
    """Run one check and time it; a crashed check is a failed check."""
    started = time.perf_counter()
    try:
        report = fn(t_max, n_max)
    except Exception as exc:
        report = CheckReport(check=name, params={}, status="fail", detail=f"crashed: {exc!r}")
    return replace(report, elapsed_ms=(time.perf_counter() - started) * 1000.0)


def run_suite(
    suite: str,
    *,
    t_max: int | None = None,
    n_max: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[CheckReport]:
    """Run a suite's checks one at a time and sort the reports by name."""
    reports = []
    for name, fn in checks_for(suite).items():
        if progress is not None:
            progress(name)
        reports.append(run_check(name, fn, t_max, n_max))
    return sorted(reports, key=lambda r: r.check)
