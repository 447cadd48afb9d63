"""Partitions, hook lengths, and first-column hook sets (beta-sets).

Everything here is a pure function of immutable values and all arithmetic
is exact. The empty partition is a first-class citizen: no parts, size 0,
empty beta-set, and distinct parts vacuously.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from math import comb
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integer parts.

    >>> Partition((5, 3, 3, 2, 1)).size
    14
    >>> Partition().parts
    ()
    """

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        for part in self.parts:
            if type(part) is not int or part < 1:  # bool is an int subclass; reject it
                raise ValueError(f"parts must be positive integers, got {part!r}")
        for a, b in pairwise(self.parts):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing, got {a} before {b}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __repr__(self) -> str:
        return f"Partition{self.parts!r}"

    def has_distinct_parts(self) -> bool:
        """True when no part repeats (adjacent equality suffices: parts are sorted)."""
        return all(a > b for a, b in pairwise(self.parts))


EMPTY = Partition()


def _trusted_partition(parts: tuple[int, ...]) -> Partition:
    """A Partition built without validation, for generators whose parts are
    positive, weakly decreasing ``int``s by construction. Everything from
    outside goes through ``Partition(...)``, which validates."""
    p = object.__new__(Partition)
    object.__setattr__(p, "parts", parts)
    return p


def size_lex_key(p: Partition) -> tuple[int, tuple[int, ...]]:
    """Sort key of the enumerators: by size, then parts in descending lex order."""
    return (p.size, tuple(-part for part in p.parts))


def _column_heights(p: Partition) -> tuple[int, ...]:
    """Number of boxes in each column of the diagram (index j-1 for column j)."""
    parts = p.parts
    if not parts:
        return ()
    heights = []
    rows = len(parts)
    for j in range(1, parts[0] + 1):
        while rows and parts[rows - 1] < j:
            rows -= 1
        heights.append(rows)
    return tuple(heights)


def hook_lengths(p: Partition) -> tuple[tuple[int, ...], ...]:
    """Hook length of every box, as a ragged grid matching the diagram shape.

    The hook of box (i, j) counts the boxes strictly to its right, strictly
    below it, and the box itself.

    >>> hook_lengths(Partition((3,)))
    ((3, 2, 1),)
    """
    heights = _column_heights(p)
    return tuple(
        tuple(part - j + heights[j - 1] - i + 1 for j in range(1, part + 1))
        for i, part in enumerate(p.parts, start=1)
    )


def hook_length_set(p: Partition) -> frozenset[int]:
    """The set of hook lengths occurring anywhere in the diagram."""
    heights = _column_heights(p)
    hooks: set[int] = set()
    for i, part in enumerate(p.parts, start=1):
        for j in range(1, part + 1):
            hooks.add(part - j + heights[j - 1] - i + 1)
    return frozenset(hooks)


def beta_set(p: Partition) -> frozenset[int]:
    """First-column hook lengths {part_i + rows - i}, a set of distinct positives."""
    rows = len(p.parts)
    return frozenset(part + rows - i for i, part in enumerate(p.parts, start=1))


def check_beta(beta: Iterable[int]) -> frozenset[int]:
    """Validate a beta-set: distinct positive integers (zero is never a member)."""
    bs = frozenset(beta)
    for x in bs:
        if type(x) is not int or x < 1:  # bool is an int subclass; reject it
            raise ValueError(f"beta-set elements must be positive integers, got {x!r}")
    return bs


def partition_of_beta(beta: Iterable[int]) -> Partition:
    """Inverse of :func:`beta_set`.

    Sorting the k elements descending as x_1 > ... > x_k, part i is
    x_i - k + i; weak monotonicity and positivity are automatic.
    """
    bs = sorted(check_beta(beta), reverse=True)
    k = len(bs)
    return Partition(tuple(x - k + i for i, x in enumerate(bs, start=1)))


def size_from_beta(beta: Iterable[int]) -> int:
    """Size of the partition a beta-set encodes: sum of elements minus C(k, 2)."""
    bs = check_beta(beta)
    return sum(bs) - comb(len(bs), 2)


def beta_distinct_criterion(beta: Iterable[int]) -> bool:
    """True iff no two beta-set elements differ by exactly 1.

    Equivalent to the encoded partition having distinct parts: consecutive
    first-column hooks differ by 1 exactly where two parts are equal.
    """
    bs = check_beta(beta)
    return all(x + 1 not in bs for x in bs)
