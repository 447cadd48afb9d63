import re
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corekit import (
    EMPTY,
    Partition,
    average_size,
    count_distinct_cores,
    distinct_core_partitions,
    fibonacci,
    fibonacci_convolution,
    fibonacci_triple_convolution,
    largest_size,
    maximizer_count,
    maximizers,
    partition_of_beta,
    sequence_table,
    size_from_beta,
    total_size,
)
from corekit import consecutive
from corekit.consecutive import (
    _POPULATION_CAP,
    _fib_pair,
    _size_census,
    _walk_nice_subsets,
    iter_nice_subsets,
)


class TestFibonacci:
    def test_sequence_head(self):
        assert [fibonacci(i) for i in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]

    def test_ten(self):
        assert fibonacci(10) == 55

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fibonacci(-1)

    @given(st.integers(2, 60))
    @settings(max_examples=20)
    def test_recurrence(self, i):
        assert fibonacci(i) == fibonacci(i - 1) + fibonacci(i - 2)

    def test_fast_doubling_matches_the_iterative_pass(self):
        # a frozen copy of the n-step pass fast doubling replaced, stepped
        # once per n instead of rerun from 0
        a, b = 1, 0
        for n in range(2001):
            assert _fib_pair(n) == (a, b), n
            a, b = b, a + b


class TestNiceSubsets:
    def test_t5(self):
        assert list(iter_nice_subsets(5)) == [
            (),
            (1,),
            (1, 3),
            (1, 4),
            (2,),
            (2, 4),
            (3,),
            (4,),
        ]

    def test_t2_t3(self):
        assert list(iter_nice_subsets(2)) == [(), (1,)]
        assert list(iter_nice_subsets(3)) == [(), (1,), (2,)]

    def test_cap(self):
        # the population holds F_{t+1} partitions; the cap refuses before any is built
        assert _POPULATION_CAP == 26
        for t in (1, _POPULATION_CAP + 1):
            with pytest.raises(ValueError, match=re.escape(f"need 2 <= t <= 26, got {t}")):
                distinct_core_partitions(t)

    @given(st.integers(2, 14))
    @settings(max_examples=13)
    def test_no_two_consecutive_and_count(self, t):
        subsets = list(iter_nice_subsets(t))
        for subset in subsets:
            assert all(b - a >= 2 for a, b in zip(subset, subset[1:]))
            assert all(1 <= x <= t - 1 for x in subset)
        assert len(subsets) == len(set(subsets)) == fibonacci(t + 1)
        assert sum(1 for _ in _walk_nice_subsets(t)) == len(subsets)

    def test_membership_and_order_by_brute_force(self):
        for t in range(2, 13):
            sparse = [
                c
                for k in range(t)
                for c in combinations(range(1, t), k)
                if all(b - a >= 2 for a, b in zip(c, c[1:]))
            ]
            assert list(iter_nice_subsets(t)) == sorted(sparse), t


class TestEnumeration:
    def test_t2(self):
        assert [p.parts for p in distinct_core_partitions(2)] == [(), (1,)]

    def test_t3(self):
        assert [p.parts for p in distinct_core_partitions(3)] == [(), (1,), (2,)]

    def test_t4(self):
        assert [p.parts for p in distinct_core_partitions(4)] == [
            (),
            (1,),
            (2,),
            (3,),
            (2, 1),
        ]

    def test_counts(self):
        assert count_distinct_cores(2) == 2
        assert count_distinct_cores(5) == 8
        assert count_distinct_cores(10) == 89

    @given(st.integers(2, 16))
    @settings(max_examples=15)
    def test_all_have_distinct_parts(self, t):
        population = distinct_core_partitions(t)
        assert len(population) == count_distinct_cores(t)
        assert all(p.has_distinct_parts() for p in population)

    def test_size_census_matches_population(self):
        for t in range(2, 17):
            assert _size_census(t) == Counter(p.size for p in distinct_core_partitions(t)), t


class TestExtremes:
    def test_largest(self):
        assert largest_size(2) == 1
        assert largest_size(3) == 2
        assert largest_size(4) == 3

    def test_maximizer_count(self):
        assert maximizer_count(4) == 2
        assert maximizer_count(3) == 1
        assert maximizer_count(7) == 2

    def test_maximizers_small(self):
        assert [p.parts for p in maximizers(4)] == [(3,), (2, 1)]
        assert [p.parts for p in maximizers(3)] == [(2,)]
        assert [p.parts for p in maximizers(2)] == [(1,)]

    def test_maximizers_match_the_beta_set_construction(self):
        # a frozen copy of the construction through partition_of_beta, which
        # validates its beta-sets; the line below validates the parts
        def through_beta_sets(t):
            n, r = divmod(t, 3)
            ks = {0: [n], 1: [n, n + 1], 2: [n + 1]}[r]
            return [
                partition_of_beta(frozenset(t - (2 * i - 1) for i in range(1, k + 1)))
                for k in ks
            ]

        for t in range(2, 501):
            built = maximizers(t)
            assert built == through_beta_sets(t), t
            assert all(Partition(p.parts) == p for p in built), t

    @given(st.integers(2, 16))
    @settings(max_examples=15)
    def test_constructed_maximizers_match_scan(self, t):
        top = largest_size(t)
        scan = [p for p in distinct_core_partitions(t) if p.size == top]
        assert scan == maximizers(t)
        assert len(scan) == maximizer_count(t)
        assert max(p.size for p in distinct_core_partitions(t)) == top


class TestConvolutions:
    def test_triple_anchors(self):
        assert fibonacci_triple_convolution(3) == 1
        assert fibonacci_triple_convolution(4) == 3
        assert fibonacci_triple_convolution(5) == 9

    def test_pair_values(self):
        assert fibonacci_convolution(2) == 1
        assert fibonacci_convolution(3) == 2
        assert fibonacci_convolution(4) == 5

    def test_empty_sums(self):
        assert fibonacci_convolution(0) == fibonacci_convolution(1) == 0
        assert fibonacci_triple_convolution(2) == 0


class TestSizeStatistics:
    def test_totals(self):
        assert total_size(2) == 1
        assert total_size(3) == 3
        assert total_size(4) == 9

    def test_averages(self):
        assert average_size(2) == Fraction(1, 2)
        assert average_size(4) == Fraction(9, 5)
        assert average_size(3) == 1

    @given(st.integers(2, 16))
    @settings(max_examples=15)
    def test_total_matches_enumeration(self, t):
        assert total_size(t) == sum(p.size for p in distinct_core_partitions(t))

    def test_closed_form_matches_direct_convolution(self):
        for t in range(2, 151):
            assert total_size(t) == fibonacci_triple_convolution(t + 1), t

    def test_closed_form_matches_ladder(self):
        table = sequence_table(89)
        for t in range(2, 89):
            assert total_size(t) == table.row(t + 1).psi, t

    def test_average_at_large_t(self):
        for t in (1000, 5000):
            assert average_size(t) == Fraction(total_size(t), fibonacci(t + 1))


class TestSharedDerivation:
    """count_distinct_cores, total_size and average_size read one memoized
    derivation of their t, ``_total_and_count``."""

    def test_one_round_at_one_t_derives_it_once(self, monkeypatch):
        calls = []

        def counted(n):
            calls.append(n)
            return _fib_pair(n)

        monkeypatch.setattr(consecutive, "_fib_pair", counted)
        consecutive._total_and_count.cache_clear()
        count_distinct_cores(321)
        total_size(321)
        average_size(321)
        assert calls == [322]

    def test_interleaved_t_keep_their_own_answers(self):
        # F and the ladder's phi/psi recurrences, stepped here from t = 0
        top = 402
        fib, phi, psi = [0, 1], [0, 0], [0, 0]
        for t in range(2, top + 1):
            fib.append(fib[-1] + fib[-2])
            phi.append(phi[t - 1] + phi[t - 2] + fib[t - 1])
            psi.append(psi[t - 1] + psi[t - 2] + phi[t - 1])
        for t in (100, 101, 100, 2, 400, 2):
            assert count_distinct_cores(t) == fib[t + 1], t
            assert total_size(t) == psi[t + 1], t
            assert average_size(t) == Fraction(psi[t + 1], fib[t + 1]), t

    def test_a_float_is_refused_right_after_its_int_is_answered(self):
        # an untyped memo would hand 7.0 the answer it keeps for 7
        for fn in (count_distinct_cores, total_size, average_size):
            total_size(7)
            with pytest.raises(ValueError, match=re.escape("need t >= 2, got 7.0")):
                fn(7.0)


class TestSequenceTable:
    def test_anchor_rows(self):
        table = sequence_table(6)
        assert (table.row(2).b, table.row(2).c, table.row(2).d, table.row(2).e) == (1, 1, 1, 1)
        assert table.row(3).e == 3
        assert table.row(5) is not None

    def test_t5_row_by_hand(self):
        # the eight sparse subsets of {1..4} give these sums directly
        row = sequence_table(5).row(5)
        assert (row.a, row.b, row.c, row.d, row.e) == (8, 10, 16, 25, 22)
        assert row.fib == 5

    def test_e_equals_next_psi(self):
        table = sequence_table(40)
        for t in range(2, 40):
            assert table.row(t).e == table.row(t + 1).psi

    def test_ladder_identities(self):
        table = sequence_table(30)
        for t in range(4, 31):
            phi = table.row(t).phi
            assert phi == (t - 1) * fibonacci(t - 1) - table.row(t - 2).b
            assert phi == table.row(t - 1).phi + table.row(t - 2).phi + fibonacci(t - 1)

    def test_bounds(self):
        for t_max in (1, 91):
            message = f"t_max must be in [2, 90], got {t_max}"
            with pytest.raises(ValueError, match=re.escape(message)):
                sequence_table(t_max)

    def test_parity_always_even(self):
        for row in sequence_table(25).rows:
            assert (row.c - row.b) % 2 == 0


class TestQuadraticBound:
    @given(st.integers(2, 12))
    @settings(max_examples=11)
    def test_size_bound_over_sparse_subsets(self, t):
        peak = Fraction((2 * t + 1) ** 2, 24)
        for subset in iter_nice_subsets(t):
            k = len(subset)
            bound = -Fraction(3, 2) * (k - Fraction(2 * t + 1, 6)) ** 2 + peak
            assert size_from_beta(subset) <= bound


def test_empty_partition_is_counted():
    # count and total only match the closed forms with the empty partition in
    for t in (2, 3, 4, 5):
        assert EMPTY in distinct_core_partitions(t)


def test_guards():
    for fn in (count_distinct_cores, largest_size, maximizer_count, maximizers, total_size):
        with pytest.raises(ValueError):
            fn(1)
