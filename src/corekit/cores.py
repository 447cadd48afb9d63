"""Core-partition predicates and exhaustive enumerators.

Two independent routes to the same notion are kept deliberately separate so
they can cross-check each other: :func:`is_core` walks hook lengths box by
box, while :func:`abacus_is_t_core` works purely on the beta-set. The
enumerators below are the ground-truth oracles used by the verification
suite.
"""

from __future__ import annotations

from math import comb, gcd
from typing import Iterable, Iterator

from .partitions import Partition, _column_heights, partition_of_beta, size_lex_key

PARTITION_ENUM_CAP = 120
GAP_CELL_CAP = 50


def _check_forbidden(forbidden: Iterable[int]) -> frozenset[int]:
    avoided = frozenset(forbidden)
    if not avoided:
        raise ValueError("forbidden hook-length set must be nonempty")
    for t in avoided:
        if type(t) is not int or t < 1:  # bool is an int subclass; reject it
            raise ValueError(f"forbidden hook lengths must be positive integers, got {t!r}")
    return avoided


def is_core(p: Partition, forbidden: Iterable[int]) -> bool:
    """True iff no box of the diagram has a hook length in ``forbidden``."""
    avoided = _check_forbidden(forbidden)
    heights = _column_heights(p)
    for i, part in enumerate(p.parts, start=1):
        for j in range(1, part + 1):
            if part - j + heights[j - 1] - i + 1 in avoided:
                return False
    return True


def abacus_is_t_core(beta: Iterable[int], t: int) -> bool:
    """Beta-set test for t-cores: every x >= t in the set must have x - t in it too."""
    if t < 1:
        raise ValueError(f"modulus must be >= 1, got {t}")
    bs = frozenset(beta)
    return all(x - t in bs for x in bs if x >= t)


def enumerate_partitions(
    n: int, distinct_only: bool = False, *, cap: int = PARTITION_ENUM_CAP
) -> Iterator[Partition]:
    """Yield every partition of n (optionally only those with distinct parts).

    Single-pass stream in descending lexicographic order of part sequences.
    """
    if n < 0:
        raise ValueError(f"cannot partition a negative integer: {n}")
    if n > cap:
        raise ValueError(f"partition enumeration capped at n = {cap}, got {n}")

    def walk(remaining: int, max_part: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            rest_max = first - 1 if distinct_only else first
            # distinct parts below `first` can sum to at most C(first, 2)
            if distinct_only and remaining - first > first * (first - 1) // 2:
                continue
            for rest in walk(remaining - first, rest_max):
                yield (first, *rest)

    for parts in walk(n, n):
        yield Partition(parts)


def _check_coprime_pair(t1: int, t2: int) -> None:
    if t1 < 1 or t2 < 1:
        raise ValueError(f"need positive integers, got ({t1}, {t2})")
    if t1 == t2 or gcd(t1, t2) != 1:
        raise ValueError(f"({t1}, {t2}) is not a coprime pair")


def semigroup_gaps(t1: int, t2: int) -> tuple[int, ...]:
    """Positive integers not representable as a*t1 + b*t2 with a, b >= 0, ascending."""
    _check_coprime_pair(t1, t2)
    # sieving stops at t1*t2: everything past the Frobenius number
    # t1*t2 - t1 - t2 is representable, so the window is complete
    bound = t1 * t2
    representable = bytearray(bound + 1)
    representable[0] = 1
    for v in range(1, bound + 1):
        if (v >= t1 and representable[v - t1]) or (v >= t2 and representable[v - t2]):
            representable[v] = 1
    gaps = tuple(v for v in range(1, bound + 1) if not representable[v])
    if len(gaps) != (t1 - 1) * (t2 - 1) // 2:
        raise ArithmeticError(f"({t1}, {t2}) sieve found {len(gaps)} gaps")
    return gaps


def enumerate_simultaneous_cores(
    t1: int,
    t2: int,
    distinct_only: bool = False,
    *,
    max_gaps: int = GAP_CELL_CAP,
) -> list[Partition]:
    """The complete list of partitions avoiding hook lengths t1 and t2.

    A beta-set avoids both hooks exactly when it lives inside the
    non-representable gap set of the numerical semigroup <t1, t2> and is
    closed under subtracting t1 and t2. The search walks gap values in
    ascending order, checking those closure conditions (and, when
    ``distinct_only``, the no-consecutive-elements criterion) as each value
    is admitted, so dead branches are cut immediately.

    Sorted by (size, descending-lex parts).
    """
    gaps = semigroup_gaps(t1, t2)
    if len(gaps) > max_gaps:
        raise ValueError(
            f"gap set for ({t1}, {t2}) has {len(gaps)} cells; cap is {max_gaps}"
        )

    chosen = bytearray((gaps[-1] + 2) if gaps else 2)
    current: list[int] = []
    found: list[frozenset[int]] = []

    def walk(i: int) -> None:
        if i == len(gaps):
            found.append(frozenset(current))
            return
        walk(i + 1)
        x = gaps[i]
        # x - t1 and x - t2, when positive, are themselves gap values already
        # decided at this depth; x == t1 or t2 cannot occur inside the gap set
        if x > t1 and not chosen[x - t1]:
            return
        if x > t2 and not chosen[x - t2]:
            return
        if distinct_only and chosen[x - 1]:
            return
        chosen[x] = 1
        current.append(x)
        walk(i + 1)
        chosen[x] = 0
        current.pop()

    walk(0)
    partitions = [partition_of_beta(bs) for bs in found]
    partitions.sort(key=size_lex_key)
    return partitions


def anderson_count(t1: int, t2: int) -> int:
    """Number of partitions avoiding hooks t1 and t2: C(t1+t2, t1)/(t1+t2), exact."""
    _check_coprime_pair(t1, t2)
    q, r = divmod(comb(t1 + t2, t1), t1 + t2)
    if r:
        raise ArithmeticError(f"C({t1 + t2}, {t1}) left remainder {r} mod {t1 + t2}")
    return q


def olsson_stanton_max(t1: int, t2: int) -> int:
    """Largest size among partitions avoiding hooks t1 and t2: (t1^2-1)(t2^2-1)/24."""
    _check_coprime_pair(t1, t2)
    q, r = divmod((t1 * t1 - 1) * (t2 * t2 - 1), 24)
    if r:
        raise ArithmeticError(f"({t1}^2 - 1)({t2}^2 - 1) left remainder {r} mod 24")
    return q
