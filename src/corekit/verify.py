"""Cross-verification suite: every structural claim as a named, timed check.

A check is a plain sweep over an exhaustive finite window. It takes the
window's params as keyword arguments and returns ``None`` when the claim holds
throughout, or else its first counterexample as a nonempty string. The flat
registry ``CHECKS`` owns everything else: each check's name, ``suite.name``,
whose prefix is the suite it runs in, and its window, which declares for every
param the requested bound it reads (``t_max``, ``n_max`` or none), a default
and its low and high clamps. :func:`run_check` looks a check up by name,
clamps the bounds into its window, calls the sweep, times it and builds the
check's one :class:`CheckReport`, defined here, so a crashed check still
reports its window. The runner executes checks one at a time in registry
order, so each ``elapsed_ms`` is that check's own time; reports come back
sorted by check name.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

from . import consecutive, cores, residues, series
from .partitions import (
    Partition,
    _require_ints,
    _shown,
    beta_distinct_criterion,
    beta_set,
    hook_length_set,
    hook_lengths,
    partition_of_beta,
    size_from_beta,
)


@lru_cache(maxsize=4)
def _cores_by_hook_filter(t_hi: int, n_hi: int, distinct_only: bool) -> dict[int, list[Partition]]:
    """For each t in 2..t_hi, every t-core of size <= n_hi, found by one hook scan."""
    by_t: dict[int, list[Partition]] = {t: [] for t in range(2, t_hi + 1)}
    for n in range(n_hi + 1):
        for p in cores.enumerate_partitions(n, distinct_only):
            hooks = hook_length_set(p)
            for t in range(2, t_hi + 1):
                if t not in hooks:
                    by_t[t].append(p)
    return by_t


# ---------------------------------------------------------------------------
# kernel: beta-set algebra and the enumeration oracles


def check_beta_algebra(n_max: int) -> str | None:
    for n in range(n_max + 1):
        for p in cores.enumerate_partitions(n):
            bs = beta_set(p)
            if partition_of_beta(bs) != p:
                return f"roundtrip broke at {p!r}"
            if size_from_beta(bs) != n:
                return f"size formula broke at {p!r}"
    return None


def check_distinct_equivalence(n_max: int) -> str | None:
    for n in range(n_max + 1):
        for p in cores.enumerate_partitions(n):
            if p.has_distinct_parts() != beta_distinct_criterion(beta_set(p)):
                return f"disagreement at {p!r}"
    return None


def check_column_hooks(n_max: int) -> str | None:
    for n in range(n_max + 1):
        for p in cores.enumerate_partitions(n):
            column = [row[0] for row in hook_lengths(p)]
            # as a set; the test below pins its order
            if set(column) != beta_set(p):
                return f"column formula broke at {p!r}"
            if any(a <= b for a, b in zip(column, column[1:])):
                return f"column not decreasing at {p!r}"
    return None


def check_core_predicates(t_max: int, n_max: int) -> str | None:
    for n in range(n_max + 1):
        for p in cores.enumerate_partitions(n):
            hooks = hook_length_set(p)
            bs = beta_set(p)
            for t in range(1, t_max + 1):
                if (t not in hooks) != cores.abacus_is_t_core(bs, t):
                    return f"predicates split at {p!r}, t={t}"
    return None


def check_pair_core_band(t_max: int) -> str | None:
    for t in range(2, t_max + 1):
        band = frozenset(
            x for k in range(1, t) for x in range((k - 1) * (t + 1) + 1, k * t)
        )
        walked = 0
        for beta, _ in cores._walk_cores(t, cores.olsson_stanton_max(t, t + 1), False, t + 1):
            walked += 1
            if not band.issuperset(beta):
                p, stray = partition_of_beta(beta), min(set(beta) - band)
                return f"t={t}: {p!r} has beta element {stray} outside the band"
        if walked != cores.anderson_count(t, t + 1):
            return f"t={t}: walked {walked} cores, formula {cores.anderson_count(t, t + 1)}"
    return None


def check_distinct_pair_reach(t_max: int) -> str | None:
    for t in range(2, t_max + 1):
        walked = 0
        for beta, _ in cores._walk_cores(t, cores.olsson_stanton_max(t, t + 1), True, t + 1):
            walked += 1
            if beta and beta[-1] >= t:  # ascending: the last element is the largest
                return f"t={t}: {partition_of_beta(beta)!r} has beta element {beta[-1]} >= t"
        if walked != consecutive.count_distinct_cores(t):
            return (
                f"t={t}: walked {walked} cores, F_{t + 1} = {consecutive.count_distinct_cores(t)}"
            )
    return None


def _coprime_pairs(cell_cap: int) -> Iterable[tuple[int, int]]:
    from math import gcd

    for t1 in range(2, 2 * cell_cap + 2):
        for t2 in range(t1 + 1, 2 * cell_cap + 2):
            if (t1 - 1) * (t2 - 1) <= 2 * cell_cap and gcd(t1, t2) == 1:
                yield t1, t2


def check_pair_enumeration(gap_cells_max: int) -> str | None:
    for t1, t2 in _coprime_pairs(gap_cells_max):
        found = cores.enumerate_simultaneous_cores(t1, t2)
        if len(found) != cores.anderson_count(t1, t2):
            return (
                f"({t1},{t2}): enumerated {len(found)}, formula {cores.anderson_count(t1, t2)}"
            )
        top = max(p.size for p in found)
        if top != cores.olsson_stanton_max(t1, t2):
            return f"({t1},{t2}): max size {top}, formula {cores.olsson_stanton_max(t1, t2)}"
    return None


# ---------------------------------------------------------------------------
# eta: the residue-vector encoding


def check_eta_roundtrip(t_max: int, n_max: int) -> str | None:
    for t, t_cores in _cores_by_hook_filter(t_max, n_max, False).items():
        for p in t_cores:
            v = residues.residue_vector(p, t)
            if residues.core_of_vector(v) != p:
                return f"t={t}: roundtrip broke at {p!r}"
            if residues.size_of_vector(v) != p.size:
                return f"t={t}: size formula broke at {p!r}"
    return None


def check_eta_support(t_max: int, n_max: int) -> str | None:
    for t, t_cores in _cores_by_hook_filter(t_max, n_max, False).items():
        for p in t_cores:
            v = residues.residue_vector(p, t)
            if residues.separated_support(v) != p.has_distinct_parts():
                return f"t={t}: support test split at {p!r}"
            if v.total != len(p):
                return f"t={t}: count sum != parts at {p!r}"
    return None


def check_eta_vector_roundtrip(t_max: int, n_max: int) -> str | None:
    for t in range(2, t_max + 1):
        seen = 0
        for v in residues.iter_core_vectors(t, n_max):
            seen += 1
            p = residues.core_of_vector(v)
            if residues.size_of_vector(v) != p.size or p.size > n_max:
                return f"t={t}: bad size for {v!r}"
            if residues.residue_vector(p, t) != v:
                return f"t={t}: roundtrip broke at {v!r}"
        hook_count = len(_cores_by_hook_filter(t_max, n_max, False)[t])
        if seen != hook_count:
            return f"t={t}: {seen} vectors vs {hook_count} hook-filtered cores"
    return None


# ---------------------------------------------------------------------------
# genfun: the series routes (both eq2 routes and the beta-set walk against a hook
# scan; both eq2 routes against the closed forms)


def check_dfs_vs_oracle(t_max: int, limit: int) -> str | None:
    for t, t_cores in _cores_by_hook_filter(t_max, limit, True).items():
        coeffs = [0] * (limit + 1)
        for p in t_cores:
            coeffs[p.size] += 1
        expected = series.CoefficientSeries(tuple(coeffs), t=t)
        detail = _eq2_routes_differ(expected)
        if detail:
            return detail
        # the beta-set walk's distinct mode, which no eq2 route runs
        census = [0] * (limit + 1)
        for _, size in cores._walk_cores(t, limit, True):
            census[size] += 1
        detail = series.compare_series(series.CoefficientSeries(tuple(census), t=t), expected)
        if detail:
            return f"t={t}, beta-set walk: {detail}"
    return None


def check_dfs_vs_closed(limit: int) -> str | None:
    for t in (2, 3, 4):
        detail = _eq2_routes_differ(series.distinct_core_series_closed(t, limit))
        if detail:
            return detail
    return None


def _eq2_routes_differ(expected: series.CoefficientSeries) -> str | None:
    """Compare each eq2 route, called directly, with ``expected``; the
    first divergence names its route."""
    for name, route in series.EQ2_ROUTES.items():
        detail = series.compare_series(route(expected.t, expected.limit), expected)
        if detail:
            return f"t={expected.t}, {name} route: {detail}"
    return None


def check_coefficient_bounds(t_max: int, limit: int) -> str | None:
    distinct_counts = [
        sum(1 for _ in cores.enumerate_partitions(n, distinct_only=True))
        for n in range(limit + 1)
    ]
    for t in range(2, t_max + 1):
        coeffs = series.distinct_core_series(t, limit).coeffs
        if coeffs[0] != 1:
            return f"t={t}: c_0 = {coeffs[0]}"
        for n, c in enumerate(coeffs):
            if c > distinct_counts[n]:
                return f"t={t}: c_{n} = {c} exceeds distinct-part count {distinct_counts[n]}"
    return None


def check_support_soundness(t_max: int, limit: int) -> str | None:
    for t in range(2, t_max + 1):
        for v in series.iter_distinct_core_vectors(t, limit):
            if not residues.separated_support(v):
                return f"t={t}: visited {v!r}"
    return None


# ---------------------------------------------------------------------------
# tt1: consecutive-pair statistics


def check_count_fibonacci(t_max: int, gap_check_t_max: int) -> str | None:
    for t in range(2, t_max + 1):
        count = sum(1 for _ in consecutive._walk_nice_subsets(t))
        if count != consecutive.count_distinct_cores(t):
            return (
                f"t={t}: {count} sparse subsets vs F_{t + 1} = "
                f"{consecutive.count_distinct_cores(t)}"
            )
    for t in range(2, gap_check_t_max + 1):
        independent = cores.enumerate_simultaneous_cores(t, t + 1, distinct_only=True)
        if list(independent) != list(consecutive.distinct_core_partitions(t)):
            return f"t={t}: enumerators disagree"
    return None


def check_extremes(t_max: int) -> str | None:
    for t in range(2, t_max + 1):
        census = consecutive._size_census(t)
        top = max(census)
        if top != consecutive.largest_size(t):
            return f"t={t}: observed max {top} vs formula {consecutive.largest_size(t)}"
        if census[top] != consecutive.maximizer_count(t):
            return f"t={t}: {census[top]} maximizers vs formula {consecutive.maximizer_count(t)}"
        # census[top] distinct cores of size top are all there are: the scan's
        # maximizers; the validating constructor re-checks the trusted build
        built = consecutive.maximizers(t)
        if len(set(built)) != len(built) or len(built) != census[top] or not all(
            Partition(p.parts) == p
            and p.size == top
            and p.has_distinct_parts()
            and cores.is_core(p, (t, t + 1))
            for p in built
        ):
            return f"t={t}: constructed maximizers differ from scan"
    return None


def check_total_size(t_max: int) -> str | None:
    for t in range(2, t_max + 1):
        observed = sum(size * n for size, n in consecutive._size_census(t).items())
        closed = consecutive.total_size(t)
        direct = consecutive.fibonacci_triple_convolution(t + 1)
        if not observed == closed == direct:
            return f"t={t}: observed {observed}, closed form {closed}, direct {direct}"
    psi = consecutive.fibonacci_triple_convolution
    if (psi(3), psi(4)) != (1, 3):
        return "anchor values e_2 = 1, e_3 = 3 broke"
    return None


def check_ladder(t_max: int) -> str | None:
    table = consecutive.sequence_table(t_max)
    fib = [consecutive.fibonacci(i) for i in range(t_max + 2)]
    psi = [consecutive.fibonacci_triple_convolution(i) for i in range(t_max + 2)]
    for t in range(4, t_max + 1):
        row = table.row(t)
        drop = psi[t + 1] - psi[t] - psi[t - 1]
        if drop != (t - 1) * fib[t - 1] - table.row(t - 2).b:
            return f"t={t}: psi step identity broke"
        if (t - 1) * fib[t - 1] - table.row(t - 2).b != row.phi:
            return f"t={t}: phi identity broke"
        if row.phi != table.row(t - 1).phi + table.row(t - 2).phi + fib[t - 1]:
            return f"t={t}: phi recurrence broke"
    for t in range(2, t_max + 1):
        if table.row(t).e != psi[t + 1]:
            return f"t={t}: e_t != psi_(t+1)"
        if table.row(t).phi != consecutive.fibonacci_convolution(t):
            return f"t={t}: phi_t != direct convolution"
    return None


def check_size_bound(t_max: int) -> str | None:
    for t in range(2, t_max + 1):
        # size <= (2t+1)^2/24 - (3/2)(k - (2t+1)/6)^2, multiplied by 24
        for subset in consecutive._walk_nice_subsets(t):
            if 24 * size_from_beta(subset) > (2 * t + 1) ** 2 - (6 * len(subset) - 2 * t - 1) ** 2:
                return f"t={t}: subset {tuple(subset)} beats the bound"
    return None


def check_table(t_max: int, definitional_t_max: int) -> str | None:
    try:
        table = consecutive.sequence_table(t_max)
    except ArithmeticError as exc:
        return str(exc)
    for t in range(2, definitional_t_max + 1):
        row = table.row(t)
        direct = (
            *consecutive._definitional_bcd(t),
            consecutive.fibonacci_convolution(t),
            consecutive.fibonacci_triple_convolution(t),
        )
        laddered = (row.b, row.c, row.d, row.phi, row.psi)
        if direct != laddered:
            return f"recurrence/definitional mismatch at t = {t}: {laddered} vs {direct}"
    for row in table.rows:
        if row.a != consecutive.fibonacci(row.t + 1):
            return f"t={row.t}: a != F_(t+1)"
    return None


# ---------------------------------------------------------------------------
# registry and runner


class Bound(NamedTuple):
    """One param of a check's window. ``source`` names the requested bound the
    param reads, ``"t_max"`` or ``"n_max"``, or is ``None`` when no request
    moves it; ``default`` stands in for a missing request, and the value is
    clamped into [``lo``, ``hi``]."""

    source: str | None
    default: int
    lo: int
    hi: int


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check on its window: it passes iff ``detail``,
    the check's counterexample, is ``None``."""

    check: str
    params: dict[str, object]
    detail: str | None
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return self.detail is None

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "params": dict(self.params),
            "status": self.status,
            "detail": self.detail,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


class Check(NamedTuple):
    """A sweep and its window: each param, in the order reports list them."""

    sweep: Callable[..., str | None]
    window: dict[str, Bound]


# Run order is registry order: eta.roundtrip fills _cores_by_hook_filter's
# cache, which the two later eta checks read. The three share one window, so
# they clamp to the same bounds and ask for the same cache entry.
_ETA_WINDOW = {"t_max": Bound("t_max", 8, 2, 12), "n_max": Bound("n_max", 30, 0, 40)}
CHECKS: dict[str, Check] = {
    "kernel.beta_algebra": Check(check_beta_algebra, {"n_max": Bound("n_max", 40, 0, 48)}),
    "kernel.column_hooks": Check(check_column_hooks, {"n_max": Bound("n_max", 25, 0, 40)}),
    "kernel.core_predicates": Check(
        check_core_predicates,
        {"t_max": Bound("t_max", 12, 2, 20), "n_max": Bound("n_max", 30, 0, 40)},
    ),
    "kernel.distinct_equivalence": Check(
        check_distinct_equivalence, {"n_max": Bound("n_max", 40, 0, 48)}
    ),
    "kernel.distinct_pair_reach": Check(
        check_distinct_pair_reach, {"t_max": Bound("t_max", 12, 2, 14)}
    ),
    "kernel.pair_core_band": Check(check_pair_core_band, {"t_max": Bound("t_max", 10, 2, 10)}),
    "kernel.pair_enumeration": Check(
        check_pair_enumeration, {"gap_cells_max": Bound(None, 20, 20, 20)}
    ),
    "eta.roundtrip": Check(check_eta_roundtrip, _ETA_WINDOW),
    "eta.support": Check(check_eta_support, _ETA_WINDOW),
    "eta.vector_roundtrip": Check(check_eta_vector_roundtrip, _ETA_WINDOW),
    "genfun.coefficient_bounds": Check(
        check_coefficient_bounds,
        {"t_max": Bound("t_max", 8, 2, 12), "limit": Bound("n_max", 40, 0, 60)},
    ),
    "genfun.dfs_vs_closed": Check(check_dfs_vs_closed, {"limit": Bound("n_max", 200, 0, 2000)}),
    "genfun.dfs_vs_oracle": Check(
        check_dfs_vs_oracle,
        {"t_max": Bound("t_max", 7, 2, 10), "limit": Bound("n_max", 60, 0, 80)},
    ),
    "genfun.support_soundness": Check(
        check_support_soundness,
        {"t_max": Bound("t_max", 8, 2, 12), "limit": Bound("n_max", 40, 0, 60)},
    ),
    "tt1.count_fibonacci": Check(
        check_count_fibonacci,
        {"t_max": Bound("t_max", 30, 2, 32), "gap_check_t_max": Bound("t_max", 9, 2, 9)},
    ),
    "tt1.extremes": Check(check_extremes, {"t_max": Bound("t_max", 25, 2, 26)}),
    "tt1.ladder": Check(check_ladder, {"t_max": Bound("t_max", 60, 4, 88)}),
    "tt1.size_bound": Check(check_size_bound, {"t_max": Bound("t_max", 15, 2, 22)}),
    "tt1.table": Check(
        check_table,
        {
            "t_max": Bound("t_max", 60, 2, consecutive.TABLE_CAP),
            "definitional_t_max": Bound("t_max", 25, 2, 25),
        },
    ),
    "tt1.total_size": Check(check_total_size, {"t_max": Bound("t_max", 25, 2, 26)}),
}

# each check is named suite.name; the suites in registry order
SUITE_NAMES = tuple(dict.fromkeys(name.partition(".")[0] for name in CHECKS))


def checks_for(suite: str) -> dict[str, Check]:
    if suite == "all":
        return dict(CHECKS)
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {_shown(suite)}; pick one of {(*SUITE_NAMES, 'all')}")
    return {name: check for name, check in CHECKS.items() if name.startswith(f"{suite}.")}


def run_check(name: str, t_max: int | None = None, n_max: int | None = None) -> CheckReport:
    """Run the check ``name`` on its window, clamped from the requested
    bounds, and time it; a crash or a malformed result is a failed check.
    A bound that is neither None nor an ``int`` >= 0 is refused."""
    check = CHECKS[name]
    requested = {"t_max": t_max, "n_max": n_max}
    _require_ints([v for v in requested.values() if v is not None], 0, "bounds must be ints >= 0")
    params: dict[str, int] = {}
    for key, (source, default, lo, hi) in check.window.items():
        value = requested.get(source)
        params[key] = max(lo, min(default if value is None else value, hi))
    started = time.perf_counter()
    try:
        detail = check.sweep(**params)
    except Exception as exc:
        detail = f"crashed: {exc!r}"
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if detail is not None and not (isinstance(detail, str) and detail):
        detail = f"malformed result: {detail!r}"
    return CheckReport(check=name, params=params, detail=detail, elapsed_ms=elapsed_ms)


def run_suite(
    suite: str,
    *,
    t_max: int | None = None,
    n_max: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[CheckReport]:
    """Run a suite's checks one at a time and sort the reports by name."""
    reports = []
    for name in checks_for(suite):
        if progress is not None:
            progress(name)
        reports.append(run_check(name, t_max, n_max))
    return sorted(reports, key=lambda r: r.check)
