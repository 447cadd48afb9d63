"""Acceptance gate: every criterion at its stated bound, one line per run.

Criterion 1 reproduces the paper's figure directly. Criteria 2-8 run the
named ``corekit verify`` checks that implement their sweeps, at the checks'
default bounds, and require each report to pass with exactly the stated
bounds in its params, so narrowing a check's default window fails the gate.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines with each check's bounds and time.
"""

import time

from corekit import (
    Partition,
    beta_set,
    count_distinct_cores,
    distinct_core_partitions,
    hook_lengths,
    is_core,
    verify,
)


def _report(number, text):
    print(f"criterion {number}: PASS — {text}")


def _run_checks(number, expected):
    """Run each named check at its default bounds; ``expected`` maps name to params."""
    for name, params in expected.items():
        report = verify.run_check(name)
        assert report.passed, report.detail
        assert report.params == params, (name, report.params)
        _report(number, f"{name} {report.params} in {report.elapsed_ms:.0f} ms")


def test_criterion_1_figure_reproduction():
    p = Partition((5, 3, 3, 2, 1))
    hook_lengths(p)  # warm-up so the timed call measures the computation alone
    started = time.perf_counter()
    grid = hook_lengths(p)
    beta = beta_set(p)
    pair_core = is_core(p, {8, 10})
    elapsed = time.perf_counter() - started
    assert grid == ((9, 7, 5, 2, 1), (6, 4, 2), (5, 3, 1), (3, 1), (1,))
    assert beta == frozenset({9, 6, 5, 3, 1})
    assert pair_core
    assert elapsed < 0.001
    _report(1, f"diagram, beta-set, and (8,10) check reproduced in {elapsed * 1e6:.0f} us")


def test_criterion_2_encoding_roundtrip():
    _run_checks(2, {"eta.roundtrip": {"t_max": 8, "n_max": 30}})


def test_criterion_3_series_triple_agreement():
    _run_checks(
        3,
        {
            "genfun.dfs_vs_oracle": {"t_max": 7, "limit": 60},
            "genfun.dfs_vs_closed": {"limit": 200},
        },
    )


def test_criterion_4_fibonacci_count():
    _run_checks(4, {"tt1.count_fibonacci": {"t_max": 30, "gap_check_t_max": 9}})


def test_criterion_5_largest_size_and_maximizers():
    _run_checks(5, {"tt1.extremes": {"t_max": 25}})


def test_criterion_6_total_and_ladder():
    _run_checks(6, {"tt1.total_size": {"t_max": 25}, "tt1.ladder": {"t_max": 60}})


def test_criterion_7_background_cross_checks():
    pairs = list(verify._coprime_pairs(20))
    assert (2, 3) in pairs and (5, 9) in pairs and (2, 41) in pairs
    _run_checks(7, {"kernel.pair_enumeration": {"gap_cells_max": 20}})


def test_criterion_8_property_sweeps():
    _run_checks(
        8,
        {
            "kernel.distinct_equivalence": {"n_max": 40},
            "kernel.core_predicates": {"t_max": 12, "n_max": 30},
            "kernel.pair_core_band": {"t_max": 10},
            "kernel.distinct_pair_reach": {"t_max": 12},
        },
    )


def test_criterion_bounds_count_empty_partition():
    # the counts above only work because the empty partition participates
    for t in (2, 3, 4):
        assert Partition(()) in distinct_core_partitions(t)
    assert count_distinct_cores(2) == 2
