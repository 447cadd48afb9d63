"""Coefficient series counting distinct-part partitions that avoid hook t.

Three routes are kept side by side on purpose:

* :func:`distinct_core_series` evaluates the eq2 sum over the residue
  vectors with separated support (the faithful encoding of the objects
  being counted). It has two exact routes and picks the one
  :func:`eq2_costs` estimates cheaper from (t, limit) alone:
  :func:`distinct_core_series_walk` walks the vectors' prefixes and, since
  the size is a quadratic in the last nonzero entry, counts every choice of
  that entry in one tight loop; :func:`distinct_core_series_dp` sums the
  vectors by dynamic programming over residues, without listing them. The
  walk wins when there are few vectors (small t, any limit); the DP when
  there are many. Neither runs the beta-set walk of :mod:`corekit.cores`,
  whose census ``verify`` compares with both.
* :func:`distinct_core_series_closed` expands explicit exponent formulas
  that exist for t = 2, 3, 4,
* :func:`distinct_core_series_brute` filters raw partitions by hook lengths.

Agreement of all three, and of both eq2 routes, is one of the acceptance
gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import ceil, comb, inf, isqrt, log, pi, sqrt
from typing import Iterator

from .cores import _walk_cores, enumerate_partitions, is_core
from .residues import ResidueVector

SERIES_LIMIT_CAP = 1_000_000
BRUTE_FORCE_CAP = 60
# Largest packed DP state, in bytes; past it the DP refuses and the walk
# serves, however slowly, instead of exhausting memory.
DP_STATE_BYTES_CAP = 1 << 25

# The eq2 cost model, fitted with bench/eq2_crossover.py on a t x L grid
# chosen apart from the benchmark's inputs (t = 2..20, L = 16..10000; 2-vCPU
# x86-64, Python 3.11; BENCH_12.json). The walk's constant is a round value
# at the low end of its times per node where the routes measure within 2x
# of each other (median 0.22 us); its time per node falls as L grows. The
# DP's terms are fitted at that script's corners, where the budget of
# ``corekit series`` cuts off: there a word takes longer than the grid's 1.4 ns.
WALK_NODE_S = 0.15e-6  # per node of the walk's node bound
DP_WORD_S = 3.0e-9  # per 64-bit word of state a big-int shift, add or mask reads
DP_OP_S = 1.0e-6  # per big-int operation, on top of its words


@dataclass(frozen=True)
class CoefficientSeries:
    """Exact coefficients c_0..c_limit of a truncated power series.

    ``t`` tags which hook length the counted partitions avoid; it is None
    for generic series.
    """

    coeffs: tuple[int, ...]
    t: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        for value in self.coeffs:
            if type(value) is not int or value < 0:  # bool is an int subclass; reject it
                raise ValueError(f"coefficients must be counts, got {value!r}")

    @property
    def limit(self) -> int:
        return len(self.coeffs) - 1

    def to_json_dict(self) -> dict:
        return {"t": self.t, "limit": self.limit, "coeffs": list(self.coeffs)}


def _check_args(t: int, limit: int) -> None:
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if limit > SERIES_LIMIT_CAP:
        raise ValueError(f"dense series capped at limit {SERIES_LIMIT_CAP}")


def iter_distinct_core_vectors(t: int, limit: int) -> Iterator[ResidueVector]:
    """Residue vectors with separated support whose encoded size is <= limit.

    These encode the distinct-part t-cores; they come from the same walk as
    :func:`corekit.residues.iter_core_vectors`, restricted to distinct parts.
    """
    _check_args(t, limit)
    return (ResidueVector(t, counts) for _, counts, _ in _walk_cores(t, limit, True))


def distinct_core_series(t: int, limit: int) -> CoefficientSeries:
    """Count, per size, the distinct-part partitions avoiding hook t.

    Runs whichever eq2 route :func:`eq2_costs` estimates cheaper; both are
    exact.
    """
    costs = eq2_costs(t, limit)
    return EQ2_ROUTES[min(costs, key=costs.get)](t, limit)


def distinct_core_series_walk(t: int, limit: int) -> CoefficientSeries:
    """The eq2 sum term by term, its last nonzero entry summed in a tight loop.

    A prefix ``(p, K, A)`` fixes every entry before position p, with K and
    A as in :func:`distinct_core_series_dp`; the entries from p on are
    free. Setting one more entry n_j = m at a position j >= p, with zeros
    after it, gives a vector of size A - C(K, 2) + (j - K)*m + (t - 1)*C(m, 2).
    That is convex in m, so the m loop counts each size <= limit and stops
    only where the size is over the limit and still rising: it can fall
    first. Each vector is counted once, at its last nonzero entry, and the
    prefix it makes, with j + 2 the next free position, is pushed while an
    entry can still follow. A only grows, and every vector of size <= limit
    has A <= top (see :func:`_residue_bounds`), so both prunes on ``top``
    are exact.
    """
    _check_args(t, limit)
    _, top, caps, _, _, _ = _residue_bounds(t, limit)
    positions = len(caps)
    coeffs = [0] * (limit + 1)
    coeffs[0] = 1
    rise = t - 1
    stack = [(1, 0, 0)]
    while stack:
        p, k, a = stack.pop()
        base = a - k * (k - 1) // 2
        for j in range(p, positions + 1):
            if a + j > top:
                break
            cap = caps[j - 1]
            # sizes: step from m - 1 to m is (j - k) + (t - 1)*(m - 1)
            size, step = base, j - k
            for _ in range(cap):
                size += step
                step += rise
                if size <= limit:
                    coeffs[size] += 1
                elif step > 0:
                    break
            # prefixes: g = j*m + t*C(m, 2) grows by j + t*(m - 1)
            if j + 2 <= positions:
                room = top - a - j - 2  # g <= room leaves room for position j + 2
                g, grow = 0, j
                for m in range(1, cap + 1):
                    g += grow
                    if g > room:
                        break
                    grow += t
                    stack.append((j + 2, k + m, a + g))
    return CoefficientSeries(tuple(coeffs), t=t)


def distinct_core_series_dp(t: int, limit: int) -> CoefficientSeries:
    """The eq2 sum by dynamic programming over residues, without its terms.

    The size of a vector is A - C(K, 2), with A = sum(i*n_i + t*C(n_i, 2))
    and K = sum(n_i). The positions of :func:`_residue_bounds` are taken in
    turn; the state is (K so far, whether the last entry is nonzero), and
    each state holds the polynomial in A of its partial vectors, truncated
    at ``top``. A only grows, so the truncation is exact. The polynomials of
    all K with one flag are packed into one int, K-major, in slots of
    ``width`` bytes, which hold any count (Kronecker substitution), so
    setting n_i = n is one shift of that int by n blocks plus
    i*n + t*C(n, 2) slots. A block holds 2 * top + 1 slots, so a shifted
    slot <= top never leaves its block, and one mask per position drops
    every A > top and every K > k_max.
    """
    _check_args(t, limit)
    k_max, top, caps, _, width, state_bytes = _residue_bounds(t, limit)
    if state_bytes > DP_STATE_BYTES_CAP:
        raise ValueError(
            f"residue DP state for t={t}, limit={limit} exceeds {DP_STATE_BYTES_CAP} bytes"
        )
    block = 2 * top + 1
    bits = 8 * width
    keep = b"\xff" * ((top + 1) * width) + bytes(top * width)
    mask = int.from_bytes(keep * (k_max + 1), "little")
    zero, nonzero = 1, 0  # last entry zero (or no entry yet) / nonzero
    for i, cap in enumerate(caps, start=1):
        grown = 0
        for n in range(1, cap + 1):
            grown += zero << (n * block + i * n + t * comb(n, 2)) * bits
        zero, nonzero = zero + nonzero, grown & mask
    # size = A - C(K, 2): block K, read from slot C(K, 2) on, adds to sizes 0..limit
    raw = (zero + nonzero).to_bytes(state_bytes, "little")
    span = (limit + 1) * width
    packed = 0
    for k in range(k_max + 1):
        start = (k * block + comb(k, 2)) * width
        packed += int.from_bytes(raw[start : start + span], "little")
    raw = packed.to_bytes(span, "little")
    coeffs = tuple(int.from_bytes(raw[j : j + width], "little") for j in range(0, span, width))
    return CoefficientSeries(coeffs, t=t)


EQ2_ROUTES = {"walk": distinct_core_series_walk, "dp": distinct_core_series_dp}


def eq2_costs(t: int, limit: int) -> dict[str, float]:
    """Estimated seconds of each eq2 route, from (t, limit) alone.

    The walk takes at most a few steps per separated tuple within the caps
    of :func:`_residue_bounds`, and fewer where its m loops stop early. Per
    position, the DP shifts and adds once per allowed nonzero entry, then
    masks and adds once, each on an int of its whole state. The DP's
    estimate is infinite where it would refuse.
    """
    _check_args(t, limit)
    _, _, caps, nodes, _, state_bytes = _residue_bounds(t, limit)
    # past 64 KiB a word costs a third more, and faulting in the fresh pages
    # each new int lands on costs about three more passes per position
    big = state_bytes > 1 << 16
    passes = sum(2 * cap + (5 if big else 2) for cap in caps)
    word_s = DP_WORD_S * 4 / 3 if big else DP_WORD_S
    dp_s = passes * (DP_OP_S + word_s * state_bytes / 8)
    walk_s = WALK_NODE_S * nodes if nodes < 1 << 1000 else inf  # float() overflows near 2**1024
    return {"walk": walk_s, "dp": dp_s if state_bytes <= DP_STATE_BYTES_CAP else inf}


def _residue_bounds(t: int, limit: int) -> tuple[int, int, list[int], int, int, int]:
    """``(k_max, top, caps, nodes, width, state_bytes)``: the one derivation
    of an eq2 request, for both routes and :func:`eq2_costs`.

    A partition with K distinct parts has size >= K(K+1)/2, so K <= k_max.
    Its A = size + C(K, 2) is then at most top = limit + C(k_max, 2), and
    n_i is at most caps[i - 1], the largest n <= k_max with
    i*n + t*C(n, 2) <= top. A nonzero n_i puts i in the beta-set, whose
    elements are first-column hook lengths, and no hook of a partition of
    n (at most lambda_1 + l - 1 <= n) exceeds n: so positions past ``limit``
    only hold 0, and ``caps`` has min(t - 1, limit) entries. ``nodes``
    counts the tuples within the caps with no two adjacent entries nonzero:
    it bounds the vectors the walk counts.

    A DP slot counts the partial vectors of one (K, A) with A <= 2 * top.
    Each encodes a distinct-part partition of size A - C(K, 2) <= 2 * top,
    so there are at most ``nodes`` and fewer than
    p(2 * top) < exp(pi * sqrt(4 * top / 3)) (Apostol, *Introduction to
    Analytic Number Theory*, ch. 14). ``width`` is the whole bytes for the
    smaller bound, plus one bit of margin for the float's rounding, and the
    DP's state of k_max + 1 blocks of 2 * top + 1 slots has ``state_bytes``.
    """
    k_max = (isqrt(8 * limit + 1) - 1) // 2
    top = limit + comb(k_max, 2)
    caps = []
    n = k_max
    zero, nonzero = 1, 0  # separated tuples so far whose last entry is zero / nonzero
    for i in range(1, min(t - 1, limit) + 1):
        while i * n + t * comb(n, 2) > top:
            n -= 1
        caps.append(n)
        zero, nonzero = zero + nonzero, zero * n
    nodes = zero + nonzero
    width = (min(nodes.bit_length(), ceil(pi * sqrt(4 * top / 3) / log(2)) + 1) + 7) // 8
    return k_max, top, caps, nodes, width, (k_max + 1) * (2 * top + 1) * width


def distinct_core_series_closed(t: int, limit: int) -> CoefficientSeries:
    """Closed-form expansion, available for t = 2, 3, 4 only.

    t=2: ones at the triangular numbers C(n+1, 2).
    t=3: ones at n^2 (n >= 1) and at n(n+1) (n >= 0).
    t=4: ones at n(3n+1)/2 (n >= 1) plus, over all n, m >= 0, at
         (n(3n-1) + 3m(m+1) - 2mn)/2.
    """
    _check_args(t, limit)
    if t not in (2, 3, 4):
        raise ValueError(f"closed form only exists for t in {{2, 3, 4}}, got {t}")
    coeffs = [0] * (limit + 1)

    def add_all(exponents: Iterator[int]) -> None:
        for e in exponents:
            if e > limit:
                break
            coeffs[e] += 1

    if t == 2:
        add_all(comb(n + 1, 2) for n in count())
    elif t == 3:
        add_all(n * n for n in count(1))
        add_all(n * (n + 1) for n in count())
    else:
        add_all(n * (3 * n + 1) // 2 for n in count(1))
        # quadratic form is positive definite; the rectangle below overshoots
        # every exponent <= limit
        reach = isqrt(2 * limit) + 3
        for n in range(reach):
            for m in range(reach):
                e = (n * (3 * n - 1) + 3 * m * (m + 1) - 2 * m * n) // 2
                if e <= limit:
                    coeffs[e] += 1
    return CoefficientSeries(tuple(coeffs), t=t)


def distinct_core_series_brute(t: int, limit: int) -> CoefficientSeries:
    """Ground truth by direct filtering of partitions, hook length by hook length."""
    _check_args(t, limit)
    if limit > BRUTE_FORCE_CAP:
        raise ValueError(f"brute-force series capped at limit {BRUTE_FORCE_CAP}, got {limit}")
    forbidden = frozenset({t})
    coeffs = tuple(
        sum(1 for p in enumerate_partitions(n, distinct_only=True) if is_core(p, forbidden))
        for n in range(limit + 1)
    )
    return CoefficientSeries(coeffs, t=t)


def compare_series(a: CoefficientSeries, b: CoefficientSeries) -> str | None:
    """Coefficient-wise comparison: ``None`` when the series agree, else
    their first divergence."""
    if a.limit != b.limit:
        raise ValueError(f"limit mismatch: {a.limit} vs {b.limit}")
    for n, (x, y) in enumerate(zip(a.coeffs, b.coeffs)):
        if x != y:
            return f"first divergence at n={n}: {x} vs {y}"
    return None
