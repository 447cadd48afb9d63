"""Partitions, hook lengths, and first-column hook sets (beta-sets).

Everything here is a pure function of immutable values and all arithmetic
is exact. The empty partition is a first-class citizen: no parts, size 0,
empty beta-set, and distinct parts vacuously.

Every integer argument in corekit states its rule through
:func:`_require_ints`: each value must be an exact ``int`` at or above a
floor, so ``bool`` (an ``int`` subclass) and floats are refused. That holds
for collections (parts, beta-sets, forbidden hook lengths, residue counts,
series coefficients) and for single arguments (moduli, indices, size
bounds, verify's bounds), which pass the value as a one-tuple; an upper cap
keeps its own check.

``Partition(...)`` validates its parts. A partition whose parts are valid by
construction is built through :func:`_trusted_partition` instead, which
skips that check: the enumerators of :mod:`corekit.cores`,
:func:`corekit.consecutive.maximizers`, and the beta-set decode
:func:`_decode_beta`. That decode runs in :func:`partition_of_beta` once
:func:`check_beta` has validated its input, and in
:func:`corekit.residues.core_of_vector`, which skips :func:`check_beta`
because the beta-set it decodes is valid by construction. ``verify``'s
``kernel.beta_algebra`` compares every decoded partition with the
enumerator's, and ``eta.roundtrip`` every decoded t-core with the hook
scan's, so the decode stays checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from math import comb
from operator import add, sub
from typing import Callable, Iterable, Iterator


def _require_ints(values: Iterable[object], lo: int, what: str) -> None:
    """Raise ``ValueError(f"{what}, got {x!r}")`` for the first value that is
    not an exact ``int`` >= ``lo``."""
    for x in values:
        if type(x) is not int or x < lo:
            raise ValueError(f"{what}, got {x!r}")


def _clip(text: str, show: Callable[[str], str] = repr) -> str:
    """``show(text)``; past 20 characters, ``show`` of its first 20 and its
    length. Messages quote arguments through it, so a long one stays short."""
    return show(text) if len(text) <= 20 else f"{show(text[:20])}... ({len(text)} characters)"


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
        _require_ints(self.parts, 1, "parts must be positive integers")
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
    """A Partition built without validation, for code whose parts are
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
    parts = p.parts
    return frozenset(map(add, parts, range(len(parts) - 1, -1, -1)))


def check_beta(beta: Iterable[int]) -> frozenset[int]:
    """Validate a beta-set: distinct positive integers (zero is never a member)."""
    bs = frozenset(beta)
    _require_ints(bs, 1, "beta-set elements must be positive integers")
    return bs


def partition_of_beta(beta: Iterable[int]) -> Partition:
    """Inverse of :func:`beta_set`. The input is validated; the decode is
    :func:`_decode_beta`'s."""
    return _decode_beta(check_beta(beta))


def _decode_beta(bs: Iterable[int]) -> Partition:
    """The partition of a beta-set whose elements are distinct positive
    ``int``s by construction, decoded without validating them.

    Sorting the k elements descending as x_1 > ... > x_k, part i is
    x_i - (k - i). The output skips validation too
    (:func:`_trusted_partition`), since for distinct positive ``int``s
    x_i >= k - i + 1 makes every part positive and x_i > x_{i+1} keeps the
    parts weakly decreasing.
    """
    xs = sorted(bs, reverse=True)
    k = len(xs)
    return _trusted_partition(tuple(map(sub, xs, range(k - 1, -1, -1))))


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
