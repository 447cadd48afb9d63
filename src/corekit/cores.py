"""Core-partition predicates and exhaustive enumerators.

Two independent routes to the same notion are kept deliberately separate so
they can cross-check each other: :func:`is_core` walks hook lengths box by
box, while :func:`abacus_is_t_core` works purely on the beta-set. The
enumerators below are the ground-truth oracles used by the verification
suite.

:func:`_walk_cores`, one walk over the beta-sets closed under subtracting
one or two moduli, lists the (t1, t2)-cores here and the t-cores behind
:mod:`corekit.residues`. It keeps only each beta-set and its size, and
its callers derive anything else from the beta-set; its two byte buffers
are sized by the size budget, never by a modulus. Its distinct-part size
census is the third side of ``verify``'s comparison of the two eq2 routes
of :mod:`corekit.series`, neither of which runs it.

The walks' output is trusted, because a partition they build is valid by
construction. :func:`enumerate_simultaneous_cores` reads each part straight
off the ascending beta-set and builds its Partitions through
``partitions._trusted_partition``, which skips validation, and ``verify``'s
pair-core checks test the walk's beta-sets with no Partition at all.
:func:`enumerate_partitions` builds through the same trusted path: its two
walks write positive, weakly decreasing parts by construction. Two beta-set
decodes build through it too: ``partitions.partition_of_beta`` once it has
validated its input beta-set, and ``residues.core_of_vector``, whose
beta-set ``residues.beta_of_vector`` builds from distinct positive ``int``s,
so it skips ``check_beta`` as well. The public ``Partition(...)`` keeps
validating. In every cross-check at most one side decodes a beta-set on
the trusted path: the other side of ``tt1.count_fibonacci``'s enumerator
comparison, ``consecutive.distinct_core_partitions``, validates each
partition it decodes through ``Partition(...)``, and the other side of
``eta.roundtrip`` is the hook scan's t-cores, which decode nothing.

Independence rule: :func:`enumerate_partitions` shares no code with
:func:`_walk_cores` or with any beta-set function. It lists partitions by
their parts alone, so in every sweep that compares a partition with its
beta-set, its hooks or its residues, it stays the partition side.
"""

from __future__ import annotations

from math import comb, gcd
from operator import itemgetter
from typing import Iterable, Iterator

from .partitions import Partition, _clip, _column_heights, _require_ints, _trusted_partition

PARTITION_ENUM_CAP = 120
GAP_CELL_CAP = 50


def _check_forbidden(forbidden: Iterable[int]) -> frozenset[int]:
    avoided = frozenset(forbidden)
    if not avoided:
        raise ValueError("forbidden hook-length set must be nonempty")
    _require_ints(avoided, 1, "forbidden hook lengths must be positive integers")
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
    _require_ints((t,), 1, "modulus must be >= 1")
    return _closed_under(frozenset(beta), t)


def _closed_under(bs: frozenset[int], t: int) -> bool:
    """:func:`abacus_is_t_core` for a modulus ``t >= 1`` already checked."""
    return bs.issuperset([x - t for x in bs if x >= t])


def enumerate_partitions(n: int, distinct_only: bool = False) -> Iterator[Partition]:
    """Yield every partition of n (optionally only those with distinct parts).

    Single-pass stream in descending lexicographic order of part sequences.
    All partitions come from Zoghbi and Stojmenovic's ZS1 array walk ("Fast
    algorithms for generating integer partitions", 1998), amortized O(1)
    steps each; distinct parts from a walk over an explicit stack of parts.
    """
    _require_ints((n,), 0, "cannot partition a negative integer")
    if n > PARTITION_ENUM_CAP:
        raise ValueError(f"partition enumeration capped at n = {PARTITION_ENUM_CAP}, got {n}")
    trusted = _trusted_partition  # a local name: no global lookup per partition
    if n == 0:
        yield trusted(())
        return
    if distinct_only:
        # the stack holds the parts; each descent appends the largest distinct
        # parts of at most `top` that sum to `remaining`, which always fit
        parts: list[int] = []
        remaining, top = n, n
        while True:
            while remaining:
                if top > remaining:
                    top = remaining
                parts.append(top)
                remaining -= top
                top -= 1
            yield trusted(tuple(parts))
            # pop parts until one can drop by 1 and leave room for the rest
            while parts:
                first = parts.pop()
                remaining += first
                first -= 1
                # distinct parts below `first` can sum to at most C(first, 2)
                if remaining - first <= first * (first - 1) // 2:
                    break
            else:
                return
            top = first  # the next descent starts with the lowered part
    # ZS1: x[:m] are the parts, x[h] the last part above 1 and x[h + 1:] ones
    x = [1] * n
    x[0] = n
    m, h = 1, 0
    yield trusted((n,))
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            h -= 1
            m += 1
        else:
            # x[h] drops by one; the ones after it and that one are spread
            # into as many copies of the new x[h] as fit, then the rest
            r = x[h] - 1
            spill = m - h
            x[h] = r
            while spill >= r:
                h += 1
                x[h] = r
                spill -= r
            m = h + 1
            if spill:
                m += 1
                if spill > 1:
                    h += 1
                    x[h] = spill
        yield trusted(tuple(x[:m]))


def _check_coprime_pair(t1: int, t2: int) -> None:
    _require_ints((t1, t2), 1, "need positive integers")
    if t1 == t2 or gcd(t1, t2) != 1:
        raise ValueError(f"{_pair_text(t1, t2)} is not a coprime pair")


def _pair_text(t1: int, t2: int) -> str:
    """The pair for a message, each modulus past 20 digits clipped."""
    return f"({_clip(str(t1), str)}, {_clip(str(t2), str)})"


def enumerate_simultaneous_cores(
    t1: int,
    t2: int,
    distinct_only: bool = False,
    *,
    max_gaps: int = GAP_CELL_CAP,
) -> list[Partition]:
    """The complete list of partitions avoiding hook lengths t1 and t2.

    A beta-set avoids both hooks exactly when it is closed under subtracting
    t1 and t2, which keeps it inside the (t1 - 1)(t2 - 1)/2 gaps of the
    semigroup <t1, t2>; a pair with more than ``max_gaps`` gaps is refused
    before any work. :func:`_walk_cores` visits one node per core and finds
    each next element with one search over its free-slot map, so the cost
    grows with the number of cores, not gaps times cores. Its size budget,
    :func:`olsson_stanton_max`, cuts no (t1, t2)-core.

    Sorted by (size, descending-lex parts).
    """
    _check_coprime_pair(t1, t2)
    if (t1 - 1) * (t2 - 1) // 2 > max_gaps:
        # a count past the cap is not printed: it can be too long for str()
        raise ValueError(
            f"gap set for {_pair_text(t1, t2)} has more than {max_gaps} gap cells"
        )
    # beta ascending as b_0 < ... < b_{k-1}: part j is b_j - j, smallest first
    found = [
        (tuple([b - j for j, b in enumerate(beta)][::-1]), size)
        for beta, size in _walk_cores(t1, olsson_stanton_max(t1, t2), distinct_only, t2)
    ]
    found.sort(reverse=True)  # descending-lex parts; no two cores share them
    found.sort(key=itemgetter(1))  # stable, so each size keeps that order
    return [_trusted_partition(parts) for parts, _ in found]


def _walk_cores(
    t: int, max_size: int, distinct: bool, t2: int | None = None
) -> Iterator[tuple[list[int], int]]:
    """``(beta, size)`` for every t-core of size <= ``max_size``, or every
    (t, t2)-core when ``t2`` is given; only the ones with distinct parts when
    ``distinct``.

    ``beta`` is the beta-set in ascending order. The list is the walk's own
    and changes at the next step, so a caller that keeps it copies it.

    Elements are added in ascending order. A value v may join iff v is not a
    modulus, v - m is present for every modulus m < v, and, for distinct
    parts, v - 1 is absent. Adding v to a set of k elements grows the size
    by exactly v - k >= 1, its part in the decoded partition, so the budget
    test is exact and every node is yielded. v - min(moduli) present bounds
    v by the last element plus min(moduli); k parts summing to >= k bound
    it by ``max_size``. The stack is explicit: at t = 2 the walk is
    sqrt(2 * max_size) deep.

    With moduli low <= high, ``free[v]`` is 1 iff v - low and v - high are
    each in the beta-set or negative, so a node's next child is the first
    free slot past its last element, found by one ``bytearray.find``.
    Elements join in ascending order, so v - high is settled before v - low
    joins: pushing x sets the one slot ``free[x + low]`` to whether
    x + low - high is present, and popping x clears it again. No slot past
    the last element plus low is free, so a node's window, which ends there
    or at the budget, only bounds the scan; it is computed once, when the
    node is entered, and kept on a stack. In distinct mode the search starts
    at the last element plus 2: the last element plus 1 is the one candidate
    whose v - 1 is present, since every larger candidate's v - 1 exceeds
    every element, and after a pop the search resumes past the popped
    element, which is no longer present.

    A modulus above ``max_size`` is clamped to ``max_size + 1``, so both
    buffers stay within 2 * max_size + 2 bytes whatever the moduli:
    ``present`` holds high <= max_size + 1 bytes for the negative values
    and one per value 0..max_size, and ``free`` one per slot x + low <=
    2 * max_size + 1.
    """
    # every candidate is <= max_size, so a modulus above it is never one and
    # only ever tests a negative value: clamping it changes no answer
    low, high = sorted(min(m, max_size + 1) for m in (t, t if t2 is None else t2))
    # present[high + x] is 1 iff x is in the beta-set; the prefix reads every
    # x < 0 as present and x = 0 as absent
    present = bytearray(b"\x01" * high) + bytearray(max_size + 1)
    # below low both differences are negative; from low on, v - low >= 0 is
    # not yet present
    free = bytearray(b"\x01" * low) + bytearray(2 * max_size + 2 - low)
    find = free.find
    step = 2 if distinct else 1
    beta: list[int] = []
    ends: list[int] = []  # ends[j]: the window end of the node with j elements
    size = k = 0
    yield beta, size
    v = 1  # the next candidate of the current node
    end = min(low, max_size) + 1
    while True:
        v = find(1, v, end)
        if v > 0:
            beta.append(v)
            present[v + high] = 1
            free[v + low] = present[v + low]
            size += v - k
            k += 1
            yield beta, size
            ends.append(end)
            # conditionals, not min(): this runs once per node
            end = max_size - size + k
            if v + low < end:
                end = v + low
            end += 1
            v += step
        elif k:
            v = beta.pop()
            k -= 1
            present[v + high] = 0
            free[v + low] = 0
            size -= v - k
            v += 1
            end = ends.pop()
        else:
            return


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
