import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from corekit import (
    EMPTY,
    Partition,
    ResidueVector,
    beta_of_vector,
    core_of_vector,
    is_core,
    iter_core_vectors,
    partition_of_beta,
    residue_vector,
    separated_support,
    series,
    size_of_vector,
)
from corekit.cores import _walk_cores
from corekit.residues import _vector_of_beta

FIGURE_PARTITION = Partition((5, 3, 3, 2, 1))
FIGURE_VECTOR = ResidueVector(8, (2, 0, 1, 0, 1, 1, 0))


@st.composite
def vectors(draw):
    t = draw(st.integers(2, 8))
    counts = draw(st.lists(st.integers(0, 3), min_size=t - 1, max_size=t - 1))
    return ResidueVector(t, tuple(counts))


class TestResidueVectorType:
    def test_rejects_short_modulus(self):
        for bad in (True, 2.5, 2.0, 1):
            message = f"modulus must be >= 2, got {bad!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                ResidueVector(bad, ())

    def test_rejects_wrong_length(self):
        for modulus, counts in ((4, (1, 0)), (3, (1,)), (3, (1, 0, 0))):
            with pytest.raises(ValueError, match="need exactly"):
                ResidueVector(modulus, counts)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            ResidueVector(3, (1, -1))

    def test_rejects_bool_counts(self):
        for bad in (True, 1.0, -1):
            message = f"counts must be nonnegative integers, got {bad!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                ResidueVector(3, (bad, 0))

    def test_total(self):
        assert FIGURE_VECTOR.total == 5


class TestEncode:
    def test_figure_mod_8(self):
        assert residue_vector(FIGURE_PARTITION, 8) == FIGURE_VECTOR

    def test_empty(self):
        assert residue_vector(EMPTY, 5) == ResidueVector(5, (0, 0, 0, 0))

    def test_two_one_mod_4(self):
        # beta-set {3, 1} has residues 3 and 1 mod 4
        assert residue_vector(Partition((2, 1)), 4) == ResidueVector(4, (1, 0, 1))

    def test_rejects_non_core(self):
        with pytest.raises(ValueError):
            residue_vector(FIGURE_PARTITION, 9)  # hook of length 9 exists


class TestDecode:
    def test_figure(self):
        assert core_of_vector(FIGURE_VECTOR) == FIGURE_PARTITION

    def test_zero_vector(self):
        assert core_of_vector(ResidueVector(6, (0,) * 5)) == EMPTY

    def test_small(self):
        # counts (0, 2) mod 3 give beta-set {2, 5}
        v = ResidueVector(3, (0, 2))
        assert beta_of_vector(v) == frozenset({2, 5})
        assert core_of_vector(v) == Partition((4, 2))

    @given(vectors())
    def test_decoded_partition_avoids_hook_t(self, v):
        p = core_of_vector(v)
        if p.size <= 60:
            assert is_core(p, {v.modulus})

    @given(vectors())
    def test_roundtrip(self, v):
        assert residue_vector(core_of_vector(v), v.modulus) == v


class TestSizeOfVector:
    def test_examples(self):
        assert size_of_vector(FIGURE_VECTOR) == 14
        assert size_of_vector(ResidueVector(4, (0, 0, 0))) == 0
        assert size_of_vector(ResidueVector(3, (0, 2))) == 6

    @given(vectors())
    def test_matches_decoded_size(self, v):
        assert size_of_vector(v) == core_of_vector(v).size


class TestSeparatedSupport:
    def test_examples(self):
        assert not separated_support(FIGURE_VECTOR)  # positions 5 and 6 both hit
        assert separated_support(ResidueVector(8, (0,) * 7))
        assert separated_support(ResidueVector(4, (1, 0, 1)))

    @given(vectors())
    def test_matches_distinct_parts(self, v):
        assert separated_support(v) == core_of_vector(v).has_distinct_parts()


class TestIterCoreVectors:
    def test_mod_2_staircases(self):
        sizes = sorted(size_of_vector(v) for v in iter_core_vectors(2, 10))
        assert sizes == [0, 1, 3, 6, 10]

    def test_no_duplicates_and_complete(self):
        seen = list(iter_core_vectors(3, 12))
        assert len(seen) == len(set(seen))
        assert all(size_of_vector(v) <= 12 for v in seen)
        # every 3-core of size <= 12, found via hook scan, appears exactly once
        from corekit import enumerate_partitions

        expected = sum(
            1
            for n in range(13)
            for p in enumerate_partitions(n)
            if is_core(p, {3})
        )
        assert len(seen) == expected

    @given(st.integers(2, 6), st.integers(0, 15))
    def test_vectors_roundtrip(self, t, bound):
        for v in iter_core_vectors(t, bound):
            assert residue_vector(core_of_vector(v), t) == v


class TestTrustedVectors:
    """The walked vectors skip ResidueVector's validation; each must equal
    the validated build of its own fields."""

    @pytest.mark.parametrize("t", range(2, 9))
    def test_walked_vectors_equal_validated_builds(self, t):
        walked = [*iter_core_vectors(t, 12), *series.iter_distinct_core_vectors(t, 30)]
        assert walked
        for v in walked:
            assert v == ResidueVector(v.modulus, v.counts), v
            assert type(v.counts) is tuple and all(type(n) is int for n in v.counts), v


class TestTrustedDecode:
    """core_of_vector decodes its beta-set without check_beta; the
    validating decoder is the oracle."""

    @pytest.mark.parametrize("t", range(2, 9))
    def test_matches_validating_decoder(self, t):
        vectors = list(iter_core_vectors(t, 20))
        assert vectors
        for v in vectors:
            p = core_of_vector(v)
            assert p == partition_of_beta(beta_of_vector(v)), v
            assert type(p.parts) is tuple and all(type(part) is int for part in p.parts), v

    def test_public_constructor_still_validates(self):
        core_of_vector(ResidueVector(4, (1, 0, 2)))  # the trusted decode has run
        bad = ((4, (1, -1, 0)), (4, (1, 0)), (1, ()), (3, (True, 0)), (3, (1.0, 0)))
        for modulus, counts in bad:
            with pytest.raises(ValueError):
                ResidueVector(modulus, counts)


def _walk_core_vectors(t, max_size, distinct):
    """``(counts, size)`` at every node of the shared walk under modulus t."""
    for beta, size in _walk_cores(t, max_size, distinct):
        yield _vector_of_beta(beta, t).counts, size


class TestWalkCoreVectors:
    """The shared walk against the independent size formula and support test.

    ``verify``'s size census and the pair-core enumerator use the walk's
    running sizes without recomputing them, so they are checked here
    against ``size_of_vector``.
    """

    TOP = 25

    @pytest.mark.parametrize("distinct", [False, True])
    @pytest.mark.parametrize("t", range(2, 12))
    def test_running_sizes_match_formula(self, t, distinct):
        for max_size in range(self.TOP + 1):
            seen = set()
            for counts, size in _walk_core_vectors(t, max_size, distinct):
                v = ResidueVector(t, counts)
                assert size == size_of_vector(v) <= max_size, (v, size)
                assert v not in seen, v
                seen.add(v)
                assert separated_support(v) or not distinct, v

    @pytest.mark.parametrize("t", range(2, 12))
    def test_distinct_is_separated_subset(self, t):
        for max_size in range(self.TOP + 1):
            full = {counts for counts, _ in _walk_core_vectors(t, max_size, False)}
            distinct = {counts for counts, _ in _walk_core_vectors(t, max_size, True)}
            assert distinct == {c for c in full if separated_support(ResidueVector(t, c))}

    @pytest.mark.parametrize("t", range(2, 12))
    def test_budget_prune_is_exact(self, t):
        top = dict(_walk_core_vectors(t, self.TOP, False))
        for max_size in range(self.TOP):
            walked = dict(_walk_core_vectors(t, max_size, False))
            assert walked == {c: n for c, n in top.items() if n <= max_size}
