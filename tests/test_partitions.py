import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from corekit import (
    EMPTY,
    Partition,
    beta_distinct_criterion,
    beta_set,
    enumerate_partitions,
    hook_length_set,
    hook_lengths,
    partition_of_beta,
    size_from_beta,
)

FIGURE_PARTITION = Partition((5, 3, 3, 2, 1))
FIGURE_GRID = ((9, 7, 5, 2, 1), (6, 4, 2), (5, 3, 1), (3, 1), (1,))
FIGURE_BETA = frozenset({9, 6, 5, 3, 1})


def hooks_by_box_count(parts):
    """Oracle: count boxes to the right, below, plus the box, literally."""
    cells = {(i, j) for i, p in enumerate(parts) for j in range(p)}
    return tuple(
        tuple(
            (p - j - 1) + sum(1 for ii in range(i + 1, len(parts)) if (ii, j) in cells) + 1
            for j in range(p)
        )
        for i, p in enumerate(parts)
    )


partitions_st = st.lists(st.integers(1, 20), max_size=10).map(
    lambda xs: Partition(tuple(sorted(xs, reverse=True)))
)
beta_sets_st = st.frozensets(st.integers(1, 60), max_size=10)


class TestPartition:
    def test_figure_partition(self):
        assert FIGURE_PARTITION.parts == (5, 3, 3, 2, 1)
        assert FIGURE_PARTITION.size == 14

    def test_empty(self):
        assert Partition(()).parts == ()
        assert Partition(()).size == 0
        assert Partition(()) == EMPTY
        assert EMPTY.has_distinct_parts()

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition((3, 0))
        with pytest.raises(ValueError):
            Partition((-1,))

    def test_rejects_bool_parts(self):
        for bad in (True, 1.0, 0):
            message = f"parts must be positive integers, got {bad!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                Partition((bad,))

    def test_accepts_list_input(self):
        assert Partition([4, 2]).parts == (4, 2)

    def test_distinct_parts(self):
        assert not FIGURE_PARTITION.has_distinct_parts()
        assert Partition((2, 1)).has_distinct_parts()


class TestHookLengths:
    def test_figure_grid(self):
        assert hook_lengths(FIGURE_PARTITION) == FIGURE_GRID

    def test_empty_grid(self):
        assert hook_lengths(EMPTY) == ()

    def test_single_row(self):
        assert hook_lengths(Partition((3,))) == hooks_by_box_count((3,)) == ((3, 2, 1),)

    def test_hook_set(self):
        assert hook_length_set(FIGURE_PARTITION) == frozenset({1, 2, 3, 4, 5, 6, 7, 9})

    @given(partitions_st)
    def test_matches_box_count_oracle(self, p):
        assert hook_lengths(p) == hooks_by_box_count(p.parts)

    @given(partitions_st)
    def test_column_one_is_part_plus_corank(self, p):
        rows = len(p)
        column = [row[0] for row in hook_lengths(p)]
        assert column == [part + rows - i for i, part in enumerate(p.parts, start=1)]
        assert all(a > b for a, b in zip(column, column[1:]))


class TestBetaSet:
    def test_figure_beta(self):
        assert beta_set(FIGURE_PARTITION) == FIGURE_BETA

    def test_empty_beta(self):
        assert beta_set(EMPTY) == frozenset()

    def test_two_one(self):
        # box-count oracle gives first-column hooks 3 and 1
        assert beta_set(Partition((2, 1))) == frozenset(
            row[0] for row in hooks_by_box_count((2, 1))
        ) == frozenset({3, 1})

    def test_inverse_of_figure(self):
        assert partition_of_beta(FIGURE_BETA) == FIGURE_PARTITION

    def test_inverse_of_empty(self):
        assert partition_of_beta(frozenset()) == EMPTY

    def test_inverse_small(self):
        # sorted descending 3, 1 with k=2: parts 3-2+1 and 1-2+2
        assert partition_of_beta({3, 1}) == Partition((2, 1))

    def test_rejects_nonpositive_elements(self):
        # the input check stands in for the validation the output skips
        for bad, element in (({0, 2}, 0), ({0}, 0), ({1.0}, 1.0), ({True}, True)):
            message = f"beta-set elements must be positive integers, got {element!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                partition_of_beta(bad)

    @given(partitions_st)
    def test_roundtrip(self, p):
        assert partition_of_beta(beta_set(p)) == p

    def test_trusted_decode_equals_validated_build(self):
        for n in range(13):
            for p in enumerate_partitions(n):
                decoded = partition_of_beta(beta_set(p))
                assert decoded == Partition(p.parts) == Partition(decoded.parts), p
                assert type(decoded.parts) is tuple

    @given(beta_sets_st)
    def test_roundtrip_from_beta_side(self, bs):
        p = partition_of_beta(bs)
        assert Partition(p.parts) == p
        assert beta_set(p) == bs


class TestSizeFromBeta:
    def test_examples(self):
        assert size_from_beta(FIGURE_BETA) == 24 - 10 == 14
        assert size_from_beta(frozenset()) == 0
        assert size_from_beta({3, 1}) == 4 - 1 == 3

    def test_rejects_bool_elements(self):
        for bad in (True, 1.0, 0):
            message = f"beta-set elements must be positive integers, got {bad!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                size_from_beta([bad])

    @given(partitions_st)
    def test_matches_partition_size(self, p):
        assert size_from_beta(beta_set(p)) == p.size


class TestDistinctCriterion:
    def test_examples(self):
        assert not beta_distinct_criterion(FIGURE_BETA)  # 6 and 5 are consecutive
        assert beta_distinct_criterion(frozenset())
        assert beta_distinct_criterion({3, 1})

    @given(partitions_st)
    def test_equivalent_to_distinct_parts(self, p):
        assert beta_distinct_criterion(beta_set(p)) == p.has_distinct_parts()
