import re
import tracemalloc
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corekit import (
    EMPTY,
    Partition,
    abacus_is_t_core,
    anderson_count,
    beta_set,
    enumerate_partitions,
    enumerate_simultaneous_cores,
    hook_length_set,
    is_core,
    olsson_stanton_max,
    partition_of_beta,
)
from corekit.cores import _walk_cores
from corekit.partitions import size_lex_key

FIGURE_PARTITION = Partition((5, 3, 3, 2, 1))


def count_partitions_oracle(n, max_part=None):
    """Independent p(n) recursion, no shared code with the enumerator."""
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    return sum(
        count_partitions_oracle(n - first, first) for first in range(min(n, max_part), 0, -1)
    )


def brute_force_pair_cores(t1, t2, distinct):
    """Oracle: filter raw partitions by hook membership, sizes up to the known max."""
    bound = olsson_stanton_max(t1, t2) + 3
    found = []
    for n in range(bound + 1):
        for p in enumerate_partitions(n):
            if not is_core(p, {t1}) or not is_core(p, {t2}):
                continue
            if distinct and not p.has_distinct_parts():
                continue
            found.append(p)
    found.sort(key=lambda p: (p.size, tuple(-part for part in p.parts)))
    return found


class TestIsCore:
    def test_figure_is_8_10_core(self):
        assert is_core(FIGURE_PARTITION, {8, 10})

    def test_figure_has_hook_9(self):
        assert not is_core(FIGURE_PARTITION, {9})

    def test_empty_is_always_core(self):
        assert is_core(EMPTY, {1})
        assert is_core(EMPTY, {2, 3, 5})

    def test_rejects_empty_forbidden_set(self):
        with pytest.raises(ValueError):
            is_core(FIGURE_PARTITION, set())

    def test_rejects_nonpositive_forbidden_set(self):
        with pytest.raises(ValueError):
            is_core(FIGURE_PARTITION, {0, 3})

    def test_rejects_bool_forbidden_set(self):
        for bad in (True, 2.0, 0):
            message = f"forbidden hook lengths must be positive integers, got {bad!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                is_core(Partition((2,)), {bad})


class TestAbacus:
    def test_figure_mod_8(self):
        assert abacus_is_t_core(beta_set(FIGURE_PARTITION), 8)

    def test_empty(self):
        assert abacus_is_t_core(frozenset(), 5)

    def test_figure_mod_9(self):
        # 9 is in the beta-set but 0 never is
        assert not abacus_is_t_core(beta_set(FIGURE_PARTITION), 9)

    @given(
        st.lists(st.integers(1, 15), max_size=8).map(
            lambda xs: Partition(tuple(sorted(xs, reverse=True)))
        ),
        st.integers(1, 10),
    )
    def test_agrees_with_hook_scan(self, p, t):
        assert abacus_is_t_core(beta_set(p), t) == is_core(p, {t})


def recursive_enumerator_oracle(n, distinct_only=False):
    """Frozen copy of the recursive enumerator the iterative walks replaced:
    part tuples in descending lex order, built level by level."""

    def walk(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            rest_max = first - 1 if distinct_only else first
            if distinct_only and remaining - first > first * (first - 1) // 2:
                continue
            for rest in walk(remaining - first, rest_max):
                yield (first, *rest)

    yield from walk(n, n)


def pentagonal_counts(n_max):
    """p(0..n_max) by Euler's pentagonal number recurrence."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        k, total = 1, 0
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            total += sign * p[n - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= n:
                total += sign * p[n - k * (3 * k + 1) // 2]
            k += 1
        p[n] = total
    return p


def distinct_product_counts(n_max):
    """q(0..n_max): coefficients of the product of (1 + x^k) for k = 1..n_max."""
    q = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        for n in range(n_max, k - 1, -1):
            q[n] += q[n - k]
    return q


class TestEnumeratePartitions:
    def test_distinct_of_three(self):
        assert [p.parts for p in enumerate_partitions(3, distinct_only=True)] == [
            (3,),
            (2, 1),
        ]

    def test_zero(self):
        assert list(enumerate_partitions(0)) == [EMPTY]
        assert list(enumerate_partitions(0, distinct_only=True)) == [EMPTY]

    def test_count_of_five(self):
        assert count_partitions_oracle(5) == 7
        assert sum(1 for _ in enumerate_partitions(5)) == 7

    def test_descending_lex_order(self):
        seen = [p.parts for p in enumerate_partitions(6)]
        assert seen == sorted(seen, reverse=True)
        assert len(seen) == len(set(seen)) == count_partitions_oracle(6)

    def test_cap(self):
        with pytest.raises(ValueError):
            next(enumerate_partitions(121))

    @pytest.mark.parametrize("distinct", [False, True])
    def test_errors_wait_for_the_first_next(self, distinct):
        for n in (-1, 121):
            stream = enumerate_partitions(n, distinct)  # a generator: nothing runs yet
            with pytest.raises(ValueError):
                next(stream)

    @given(st.integers(0, 18))
    @settings(max_examples=20)
    def test_counts_match_oracle(self, n):
        assert sum(1 for _ in enumerate_partitions(n)) == count_partitions_oracle(n)

    @pytest.mark.parametrize("distinct", [False, True])
    def test_matches_recursive_enumerator(self, distinct):
        for n in range(31):
            found = [p.parts for p in enumerate_partitions(n, distinct)]
            assert found == list(recursive_enumerator_oracle(n, distinct)), n

    def test_counts_match_pentagonal_recurrence(self):
        # every n <= 40 (215 308 partitions) and the top of the window, n = 60
        # (966 467); all of n <= 60 is 6.6M partitions, about 8 s
        expected = pentagonal_counts(60)
        assert expected[60] == 966467
        for n in [*range(41), 60]:
            assert sum(1 for _ in enumerate_partitions(n)) == expected[n], n

    def test_distinct_counts_match_product(self):
        expected = distinct_product_counts(60)
        assert expected[60] == 10880
        found = [sum(1 for _ in enumerate_partitions(n, True)) for n in range(61)]
        assert found == expected

    @pytest.mark.parametrize("distinct", [False, True])
    def test_yields_only_valid_partitions(self, distinct):
        # the walks skip validation; the validating constructor must agree
        for n in range(21):
            for p in enumerate_partitions(n, distinct):
                assert type(p.parts) is tuple
                assert Partition(p.parts) == p
                assert p.size == n
                assert p.has_distinct_parts() or not distinct


class TestSimultaneousCores:
    def test_two_three(self):
        assert [p.parts for p in enumerate_simultaneous_cores(2, 3)] == [(), (1,)]

    def test_three_four_count(self):
        assert len(enumerate_simultaneous_cores(3, 4)) == 5

    def test_four_five_distinct(self):
        found = enumerate_simultaneous_cores(4, 5, distinct_only=True)
        assert [p.parts for p in found] == [(), (1,), (2,), (3,), (2, 1)]

    @pytest.mark.parametrize("pair", [(2, 3), (3, 4), (2, 5), (3, 5), (4, 5)])
    @pytest.mark.parametrize("distinct", [False, True])
    def test_matches_brute_force(self, pair, distinct):
        t1, t2 = pair
        assert enumerate_simultaneous_cores(t1, t2, distinct) == brute_force_pair_cores(
            t1, t2, distinct
        )

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            enumerate_simultaneous_cores(4, 6)

    def test_rejects_large_gap_set(self):
        with pytest.raises(ValueError):
            enumerate_simultaneous_cores(12, 13)

    def test_gap_cap_has_no_override(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'max_gaps'"):
            enumerate_simultaneous_cores(2, 3, max_gaps=1.5)

    def test_walk_reaches_past_the_gap_cap(self):
        # (12, 13) has 66 gap cells; the walk the enumerator runs has no cap
        walked = _walk_cores(12, olsson_stanton_max(12, 13), True, 13)
        assert sum(1 for _ in walked) == 233  # F_13

    @pytest.mark.parametrize("pair", [(3, 2), (5, 3), (7, 4), (9, 2), (7, 5)])
    @pytest.mark.parametrize("distinct", [False, True])
    def test_pair_order_is_irrelevant(self, pair, distinct):
        t1, t2 = pair
        assert enumerate_simultaneous_cores(t1, t2, distinct) == enumerate_simultaneous_cores(
            t2, t1, distinct
        )

    @pytest.mark.parametrize("t", [2, 3, 7, 40, 10**21])
    @pytest.mark.parametrize("distinct", [False, True])
    def test_modulus_one_leaves_only_empty(self, t, distinct):
        assert enumerate_simultaneous_cores(1, t, distinct) == [EMPTY]
        assert enumerate_simultaneous_cores(t, 1, distinct) == [EMPTY]

    @pytest.mark.parametrize("distinct", [False, True])
    def test_modulus_one_costs_nothing_at_a_huge_partner(self, distinct):
        # the walk's buffer follows its size budget, 0 here, not the moduli
        tracemalloc.start()
        try:
            assert enumerate_simultaneous_cores(1, 10**9, distinct) == [EMPTY]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    # distinct-part (s, t)-core counts for s = 2..8, the regression data for
    # the (s, ds +- 1) generalisations of the (t, t+1) results
    @pytest.mark.parametrize(
        "second,counts",
        [
            (lambda s: 2 * s - 1, [2, 4, 8, 16, 32, 64, 128]),
            (lambda s: 2 * s + 1, [3, 5, 11, 21, 43, 85, 171]),
            (lambda s: 3 * s - 1, [3, 6, 15, 33, 78, 177, 411]),
            (lambda s: 3 * s + 1, [4, 7, 19, 40, 97, 217, 508]),
        ],
        ids=["2s-1", "2s+1", "3s-1", "3s+1"],
    )
    def test_distinct_counts_past_the_gap_cap(self, second, counts):
        found = []
        for s in range(2, 9):
            t = second(s)
            found.append(sum(1 for _ in _walk_cores(s, olsson_stanton_max(s, t), True, t)))
        assert found == counts


# every coprime pair whose semigroup has at most 20 gap cells, then (10, 11)
TRUSTED_PAIRS = [
    (t1, t2)
    for t1 in range(2, 42)
    for t2 in range(t1 + 1, 42)
    if (t1 - 1) * (t2 - 1) <= 40 and gcd(t1, t2) == 1
] + [(10, 11)]


class TestWalkModuli:
    @pytest.mark.parametrize("distinct", [False, True])
    def test_modulus_past_the_budget_cuts_nothing(self, distinct):
        # no hook of a partition of n exceeds n, so every partition of size
        # <= max_size is a core for any modulus above max_size, however large
        for max_size in range(13):
            expected = Counter(
                p.size for n in range(max_size + 1) for p in enumerate_partitions(n, distinct)
            )
            for t, t2 in [(max_size + 1, None), (max_size + 2, None), (10**21, 10**21 + 1)]:
                walk = _walk_cores(t, max_size, distinct, t2)
                assert Counter(size for _, size in walk) == expected, (max_size, t, t2)

    # equal moduli, one modulus, modulus 1 on either side, moduli above some
    # or all of the budgets, and pairs that are not coprime
    @pytest.mark.parametrize(
        "t, t2",
        [(1, None), (1, 1), (1, 4), (4, 1), (2, None), (2, 2), (3, 3), (5, None), (5, 5),
         (2, 3), (3, 5), (5, 3), (2, 7), (4, 6), (6, 9), (9, 15), (15, None), (15, 15),
         (15, 16)],
    )
    @pytest.mark.parametrize("distinct", [False, True])
    def test_walk_matches_hook_filter(self, t, t2, distinct):
        forbidden = {t, t if t2 is None else t2}
        for max_size in range(15):
            expected = Counter(
                p.parts
                for n in range(max_size + 1)
                for p in enumerate_partitions(n, distinct)
                if forbidden.isdisjoint(hook_length_set(p))
            )
            walked = Counter()
            for beta, size in _walk_cores(t, max_size, distinct, t2):
                p = partition_of_beta(beta)
                assert p.size == size, (beta, size)
                walked[p.parts] += 1
            assert walked == expected, (max_size, t, t2)


class TestTrustedPath:
    """The enumerator decodes the walk's beta-sets itself and builds its
    Partitions without validation; the validating decoder is the oracle."""

    @pytest.mark.parametrize("distinct", [False, True])
    def test_parts_match_validating_decoder(self, distinct):
        for t1, t2 in TRUSTED_PAIRS:
            walk = _walk_cores(t1, olsson_stanton_max(t1, t2), distinct, t2)
            expected = sorted((partition_of_beta(beta) for beta, _ in walk), key=size_lex_key)
            found = enumerate_simultaneous_cores(t1, t2, distinct)
            assert [p.parts for p in found] == [p.parts for p in expected], (t1, t2)
            for p in found:
                assert type(p.parts) is tuple
                assert all(type(part) is int for part in p.parts), p

    def test_public_constructors_still_validate(self):
        enumerate_simultaneous_cores(4, 5)  # the trusted path has run
        for bad in ((1, 2), (3, 0), (True,), (2.0,)):
            with pytest.raises(ValueError):
                Partition(bad)
        for bad in ({0, 2}, {-1}, {True}, {2.0}):
            with pytest.raises(ValueError):
                partition_of_beta(bad)


class TestCountFormulas:
    @pytest.mark.parametrize(
        "pair,count", [((2, 3), 2), ((3, 4), 5), ((5, 6), 42), ((4, 5), 14)]
    )
    def test_anderson(self, pair, count):
        assert anderson_count(*pair) == count

    @pytest.mark.parametrize(
        "pair,largest", [((2, 3), 1), ((3, 4), 5), ((4, 5), 15)]
    )
    def test_olsson_stanton(self, pair, largest):
        assert olsson_stanton_max(*pair) == largest

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            anderson_count(6, 9)
        with pytest.raises(ValueError):
            olsson_stanton_max(2, 2)

    @pytest.mark.parametrize("pair", [(2, 3), (3, 4), (4, 5), (5, 6), (2, 9), (3, 8)])
    def test_enumeration_reproduces_formulas(self, pair):
        found = enumerate_simultaneous_cores(*pair)
        assert len(found) == anderson_count(*pair)
        assert max(p.size for p in found) == olsson_stanton_max(*pair)
