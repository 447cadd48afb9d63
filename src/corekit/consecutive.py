"""Partitions avoiding two consecutive hook lengths t and t+1, distinct parts.

The beta-set of such a partition is a subset of {1, ..., t-1} with no two
consecutive members ("sparse subsets" below), which makes every statistic
Fibonacci-flavored: the count is F_{t+1}, the total size is the triple
Fibonacci convolution psi_{t+1}, and the largest size is floor(C(t+1,2)/3).

Every sweep over the sparse subsets reads one iterative walk,
``_walk_nice_subsets``: it yields a single live ascending list in lex
order, the empty set first, and a caller that keeps a subset copies it.
``_size_census`` reads every partition size off it, building no Partition.

The statistics take O(log t) big-int steps, plus the size of their output.
``_total_and_count`` reads the pair (F_{n-1}, F_n) off ``_fib_pair``'s fast
doubling and evaluates psi_n at n = t+1 in closed form,

    psi_n = ((5n^2 - 3n - 2) F_n - 6n F_{n-1}) / 50,

from that one pair; the count, the total and the average all read it, and
it keeps the last t's answer, so one ``corekit stats`` request derives its
t once. ``maximizers`` writes its parts down directly. The
direct convolutions (O(n) and O(n^2) products) stay public as independent
oracles: ``verify`` rechecks the table's rows against them and compares all
three routes. The ladder of :func:`sequence_table` starts from zeros at
t = 0 and t = 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterator

from .partitions import (
    Partition, _require_ints, _trusted_partition, partition_of_beta, size_lex_key
)

TABLE_CAP = 90
# distinct_core_partitions holds F_{t+1} partitions: F_27 = 196 418 at the
# cap, about 3 s and 120 MB to build (2-vCPU x86-64, Python 3.11)
_POPULATION_CAP = 26


def fibonacci(i: int) -> int:
    """F_0 = 0, F_1 = 1, F_i = F_{i-1} + F_{i-2}."""
    _require_ints((i,), 0, "index must be >= 0")
    return _fib_pair(i)[1]


def _fib_pair(n: int) -> tuple[int, int]:
    """(F_{n-1}, F_n), with F_{-1} = 1, by fast doubling over the bits of n.

    From (F_k, F_{k+1}), F_2k = F_k (2 F_{k+1} - F_k) and
    F_{2k+1} = F_k^2 + F_{k+1}^2 double k, and a set bit steps it by one:
    O(log n) big-int steps. ``_fib_table``'s plain recurrence is the
    independent side that ``tt1.table`` checks ``fibonacci`` against.
    """
    a, b = 0, 1  # (F_k, F_{k+1}), from k = 0
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return b - a, a


def _walk_nice_subsets(t: int) -> Iterator[list[int]]:
    """The sparse subsets of {1,...,t-1} in lex order, as one live ascending
    list that changes in place after each yield; copy it to keep it."""
    subset: list[int] = []
    lo = 1  # the least value the next member may take
    yield subset
    while lo < t or subset:
        if lo < t:
            subset.append(lo)
            yield subset
            lo += 2
        else:
            lo = subset.pop() + 1


def _size_census(t: int) -> Counter[int]:
    """How many distinct-part (t, t+1)-cores there are of each size, by the
    formula of ``size_from_beta``, which would rerun ``check_beta`` on every
    subset: the walk's output is trusted (the rule in :mod:`corekit.cores`).
    """
    return Counter(sum(s) - comb(len(s), 2) for s in _walk_nice_subsets(t))


def iter_nice_subsets(t: int) -> Iterator[tuple[int, ...]]:
    """The sparse subsets of {1,...,t-1} as tuples, in lex order.

    The empty set is included; it encodes the empty partition and the counts
    below only come out Fibonacci-exact with it.
    """
    _require_ints((t,), 2, "need t >= 2")
    return (tuple(s) for s in _walk_nice_subsets(t))


@lru_cache(maxsize=8)
def distinct_core_partitions(t: int) -> tuple[Partition, ...]:
    """All partitions with distinct parts avoiding hooks t and t+1.

    Built constructively from sparse subsets of {1,...,t-1} as beta-sets,
    each decoded by ``partition_of_beta`` and validated through
    ``Partition(...)``, since this is the validating side that ``verify``'s
    ``tt1.count_fibonacci`` compares the trusted
    :func:`corekit.cores.enumerate_simultaneous_cores` with; sorted by
    (size, descending-lex parts).
    """
    _require_ints((t,), 2, f"need 2 <= t <= {_POPULATION_CAP}", _POPULATION_CAP)
    partitions = [Partition(partition_of_beta(bs).parts) for bs in _walk_nice_subsets(t)]
    partitions.sort(key=size_lex_key)
    return tuple(partitions)


def count_distinct_cores(t: int) -> int:
    """Closed form for ``len(distinct_core_partitions(t))``: F_{t+1}, read
    off :func:`_total_and_count`, the derivation it shares with
    :func:`total_size` and :func:`average_size`."""
    return _total_and_count(t)[1]


def largest_size(t: int) -> int:
    """Largest size among the partitions counted above: floor(C(t+1,2)/3)."""
    _require_ints((t,), 2, "need t >= 2")
    return comb(t + 1, 2) // 3


def maximizer_count(t: int) -> int:
    """How many of them attain the largest size: 2 when t = 1 mod 3, else 1."""
    _require_ints((t,), 2, "need t >= 2")
    return 2 if t % 3 == 1 else 1


def maximizers(t: int) -> list[Partition]:
    """The partitions attaining the largest size, constructed directly.

    Each has beta-set {t-1, t-3, ..., t-(2k-1)}; the admissible k depend on
    t mod 3 (both k and k+1 tie exactly when t = 1 mod 3). That beta-set
    decodes to the k consecutive parts t-k, t-k-1, ..., t-2k+1, all
    positive as 2k <= t, so each is built on the trusted path and
    ``tt1.extremes`` checks it against the census and ``Partition(...)``.
    """
    _require_ints((t,), 2, "need t >= 2")
    n, r = divmod(t, 3)
    ks = ((n,), (n, n + 1), (n + 1,))[r]
    return [_trusted_partition(tuple(range(t - k, t - 2 * k, -1))) for k in ks]


def fibonacci_convolution(n: int) -> int:
    """Sum of F_i * F_j over ordered pairs i + j = n with i, j >= 1."""
    _require_ints((n,), 0, "index must be >= 0")
    fib = _fib_table(n)
    return sum(fib[i] * fib[n - i] for i in range(1, n))


def fibonacci_triple_convolution(n: int) -> int:
    """Sum of F_i * F_j * F_k over ordered triples i + j + k = n, all >= 1."""
    _require_ints((n,), 0, "index must be >= 0")
    fib = _fib_table(n)
    return sum(
        fib[i] * fib[j] * fib[n - i - j]
        for i in range(1, n - 1)
        for j in range(1, n - i)
    )


def _fib_table(n: int) -> list[int]:
    table = [0, 1]
    while len(table) <= n:
        table.append(table[-1] + table[-2])
    return table


@lru_cache(maxsize=1, typed=True)
def _total_and_count(t: int) -> tuple[int, int]:
    """(psi_{t+1}, F_{t+1}) from one Fibonacci pair, psi in closed form.

    The one derivation of a t for :func:`count_distinct_cores`,
    :func:`total_size` and :func:`average_size`: it validates t, runs
    ``_fib_pair`` once, and keeps the last t's answer, so the three calls
    of one ``corekit stats`` request derive their t once. The memo is
    typed: untyped, ``7.0`` and ``True`` would hash as the ints 7 and 1 and
    read their answers instead of reaching the validation that refuses
    them. ``fibonacci`` calls ``_fib_pair`` itself and never fills it.
    """
    _require_ints((t,), 2, "need t >= 2")
    n = t + 1
    f_prev, f = _fib_pair(n)
    psi, rem = divmod((5 * n * n - 3 * n - 2) * f - 6 * n * f_prev, 50)
    if rem:
        raise ArithmeticError(f"closed form for psi_{n} left remainder {rem} mod 50")
    return psi, f


def total_size(t: int) -> int:
    """Sum of sizes over all distinct-part partitions avoiding hooks t, t+1.

    This is the triple Fibonacci convolution psi_{t+1}, evaluated in
    O(log t) big-int steps as ((5n^2 - 3n - 2) F_n - 6n F_{n-1}) / 50 with
    n = t+1, from one fast-doubling pair, by :func:`_total_and_count`, the
    derivation it shares with :func:`count_distinct_cores` and
    :func:`average_size`. The direct O(t^2) sum,
    :func:`fibonacci_triple_convolution`, is kept as the oracle that
    ``verify`` checks this against.
    """
    return _total_and_count(t)[0]


def average_size(t: int) -> Fraction:
    """Average size as an exact reduced fraction, total over the F_{t+1}
    count, both read off :func:`_total_and_count`, the derivation it shares
    with :func:`count_distinct_cores` and :func:`total_size`."""
    return Fraction(*_total_and_count(t))


@dataclass(frozen=True)
class SequenceRow:
    """One row of the statistics ladder at a given t.

    a = number of sparse subsets; b, c, d = sums of |B|, |B|^2, sum(B) over
    them; e = d - (c - b)/2 = total partition size; phi and psi are the
    double and triple Fibonacci convolutions at t; fib = F_t.
    """

    t: int
    a: int
    b: int
    c: int
    d: int
    e: int
    phi: int
    psi: int
    fib: int


@dataclass(frozen=True)
class SequenceTable:
    """The rows t = 2..t_max of :func:`sequence_table`, in order."""

    rows: tuple[SequenceRow, ...]

    def row(self, t: int) -> SequenceRow:
        """The row at t, for t in [2, t_max]."""
        last = len(self.rows) + 1
        _require_ints((t,), 2, f"t must be in [2, {last}]", last)
        return self.rows[t - 2]


def _definitional_bcd(t: int) -> tuple[int, int, int]:
    b = c = d = 0
    for subset in _walk_nice_subsets(t):
        k = len(subset)
        b += k
        c += k * k
        d += sum(subset)
    return b, c, d


def sequence_table(t_max: int) -> SequenceTable:
    """Rows t = 2..t_max of the statistics ladder, recurrence-filled.

    b, c, d satisfy
        b_t = b_{t-1} + b_{t-2} + F_{t-1}
        c_t = c_{t-1} + c_{t-2} + 2 b_{t-2} + F_{t-1}
        d_t = d_{t-1} + d_{t-2} + (t-1) F_{t-1}
    (split each sparse subset of {1..t-1} on whether it contains t-1), and
    phi_t = phi_{t-1} + phi_{t-2} + F_{t-1}, psi_{t+1} = psi_t + psi_{t-1} + phi_t.

    Every quantity is 0 at t = 0 and t = 1, where the empty set is the only
    sparse subset and every convolution is empty. ``verify``'s tt1.table
    check recomputes the rows up to t = 25 definitionally.
    """
    _require_ints((t_max,), 2, f"t_max must be in [2, {TABLE_CAP}]", TABLE_CAP)

    fib = _fib_table(t_max + 1)
    b, c, d, phi, psi = ([0, 0] for _ in range(5))  # indexed by t, from t = 0
    rows = []
    for t in range(2, t_max + 1):
        b.append(b[t - 1] + b[t - 2] + fib[t - 1])
        c.append(c[t - 1] + c[t - 2] + 2 * b[t - 2] + fib[t - 1])
        d.append(d[t - 1] + d[t - 2] + (t - 1) * fib[t - 1])
        phi.append(phi[t - 1] + phi[t - 2] + fib[t - 1])
        psi.append(psi[t - 1] + psi[t - 2] + phi[t - 1])
        diff = c[t] - b[t]
        if diff % 2:
            raise ArithmeticError(f"c_{t} - b_{t} = {diff} is odd; ladder is broken")
        row = SequenceRow(
            t=t,
            a=fib[t + 1],
            b=b[t],
            c=c[t],
            d=d[t],
            e=d[t] - diff // 2,
            phi=phi[t],
            psi=psi[t],
            fib=fib[t],
        )
        rows.append(row)
    return SequenceTable(tuple(rows))
