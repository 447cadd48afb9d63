"""Coefficient series counting distinct-part partitions that avoid hook t.

Three routes are kept side by side on purpose:

* :func:`distinct_core_series` evaluates the eq2 sum over the residue
  vectors with separated support (the faithful encoding of the objects
  being counted). It has two exact routes and picks the one
  :func:`eq2_costs` estimates cheaper from (t, limit) alone:
  :func:`distinct_core_series_walk` walks the vectors' prefixes and, since
  the size is a quadratic in the last nonzero entry, counts every choice of
  that entry in one tight loop; :func:`distinct_core_series_dp` sums the
  vectors by dynamic programming over residues, without listing them, with
  the counts of each (A, K) packed into one big int per state, in rows of
  B = A - alpha*K that cover only the band vectors of size <= limit pass. The
  walk wins when there are few vectors (small t, any limit); the DP when
  there are many. Neither runs the beta-set walk of :mod:`corekit.cores`,
  whose census ``verify`` compares with both. Only the dispatcher has a
  budget, :data:`SERIES_BUDGET_S`, and refuses requests estimated over it.
  Both routes write exact counts by construction, so their results skip
  :class:`CoefficientSeries`' validation (``_trusted_series``).
* :func:`distinct_core_series_closed` expands explicit exponent formulas
  that exist for t = 2, 3, 4,
* :func:`distinct_core_series_brute` filters raw partitions by hook lengths.

``verify`` compares both eq2 routes with its own hook scan
(``genfun.dfs_vs_oracle``) and with the closed forms
(``genfun.dfs_vs_closed``), the checks of acceptance criterion 3. The brute
route is compared with them only by the tests (``tests/test_series.py``,
``tests/test_cli.py``) and by perfbench's series gate.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass
from itertools import count
from math import ceil, comb, inf, isqrt, log, pi, sqrt
from typing import Iterator

from .cores import _walk_cores, enumerate_partitions, is_core
from .partitions import _require_ints, _shown
from .residues import VECTOR_SIZE_CAP, ResidueVector, _vector_of_beta

SERIES_LIMIT_CAP = VECTOR_SIZE_CAP
BRUTE_FORCE_CAP = 60
SERIES_BUDGET_S = 5.0  # distinct_core_series refuses cheaper estimates over this
# Largest packed DP state, in bytes; past it a direct DP call refuses
# instead of exhausting memory, and the DP's estimate is infinite.
DP_STATE_BYTES_CAP = 1 << 25

# The eq2 cost model, fitted with bench/eq2_crossover.py on a t x L grid
# chosen apart from the benchmark's inputs (t = 2..20, L = 16..10000; 2-vCPU
# x86-64, Python 3.11; BENCH_12.json). The walk's constant is a round value
# at the low end of its times per node where the routes measure within 2x
# of each other (median 0.22 us); its time per node falls as L grows. The
# DP's terms are round values refitted for its A-major state (BENCH_21.json):
# on the same host they leave the estimate over the measured time by the
# margin the previous K-major state's constants left, on the grid and at the
# script's corners, where SERIES_BUDGET_S cuts off. They are not scaled by the
# script's median_measured_over_estimate (0.35-0.50 for the DP there), which
# would admit limits whose calls take about the whole budget. The estimate
# still reads the A-major state's size, an upper bound on the sheared state
# the DP builds (_dp_layout).
WALK_NODE_S = 0.15e-6  # per node of the walk's node bound
DP_WORD_S = 7.0e-9  # per 64-bit word of state a big-int shift, add or mask reads
DP_OP_S = 1.0e-6  # per big-int operation, on top of its words

# (k_max, top, caps, nodes, width, state_bytes): one eq2 request, derived once
_Bounds = tuple[int, int, list[int], int, int, int]


@dataclass(frozen=True)
class CoefficientSeries:
    """Exact coefficients c_0..c_limit of a truncated power series.

    ``t``, an ``int`` >= 2, is the hook length the counted partitions avoid.
    """

    coeffs: tuple[int, ...]
    t: int

    def __post_init__(self) -> None:
        _require_ints((self.t,), 2, "need t >= 2")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        _require_ints(self.coeffs, 0, "coefficients must be counts")

    @property
    def limit(self) -> int:
        return len(self.coeffs) - 1

    def to_json_dict(self) -> dict:
        return {"t": self.t, "limit": self.limit, "coeffs": list(self.coeffs)}


def _trusted_series(coeffs: tuple[int, ...], t: int) -> CoefficientSeries:
    """A CoefficientSeries built without validation, for the eq2 routes,
    whose t is already checked and whose nonempty tuple of counts is exact
    ``int``s >= 0 by construction.
    Everything else goes through ``CoefficientSeries(...)``, which
    validates; the closed and brute routes, the oracle sides of ``verify``'s
    eq2 comparisons, keep doing so."""
    series = object.__new__(CoefficientSeries)
    object.__setattr__(series, "coeffs", coeffs)
    object.__setattr__(series, "t", t)
    return series


def _check_args(t: int, limit: int) -> None:
    _require_ints((t,), 2, "need t >= 2")
    _require_ints((limit,), 0, f"limit must be in [0, {SERIES_LIMIT_CAP}]", SERIES_LIMIT_CAP)


def iter_distinct_core_vectors(t: int, limit: int) -> Iterator[ResidueVector]:
    """Residue vectors with separated support whose encoded size is <= limit.

    These encode the distinct-part t-cores; they come from the same walk as
    :func:`corekit.residues.iter_core_vectors`, restricted to distinct parts.
    """
    _check_args(t, limit)
    return (_vector_of_beta(beta, t) for beta, _ in _walk_cores(t, limit, True))


def distinct_core_series(t: int, limit: int) -> CoefficientSeries:
    """Count, per size, the distinct-part partitions avoiding hook t.

    Runs whichever eq2 route :func:`eq2_costs` estimates cheaper; both are
    exact. Raises ValueError when that estimate exceeds
    :data:`SERIES_BUDGET_S`; call a route directly to run past it. The
    request is derived once, by :func:`_residue_bounds`, for the estimate
    and the route.
    """
    _check_args(t, limit)
    bounds = _residue_bounds(t, limit)
    costs = _costs(bounds)
    route = min(costs, key=costs.get)
    if costs[route] > SERIES_BUDGET_S:
        if costs[route] == inf:
            cost = (
                f"out of reach: its residue DP state exceeds {DP_STATE_BYTES_CAP} bytes "
                "and its walk's node bound is too large to estimate"
            )
        else:  # the float's shortest repr: never rounds down to the budget
            cost = f"estimated at {costs[route]!r} s, over the {SERIES_BUDGET_S:g} s budget"
        raise ValueError(
            f"eq2 at t={_shown(t)}, limit={_shown(limit)} is {cost}; the largest limit "
            f"admitted at t={_shown(t)} is {_largest_admitted(t)}"
        )
    return _BOUNDED_ROUTES[route](t, limit, bounds)


def _largest_admitted(t: int) -> int:
    """The largest limit :func:`distinct_core_series` admits at a checked t.

    The estimates grow with the limit, so the probed limit doubles from 1
    until its estimate is over :data:`SERIES_BUDGET_S` (or it reaches
    :data:`SERIES_LIMIT_CAP`), and that last doubling is bisected. A probe
    derives min(t - 1, limit) positions, so the search is bounded by its
    answer, not by t or the cap.
    """
    over = lambda limit: min(_costs(_residue_bounds(t, limit)).values()) > SERIES_BUDGET_S
    admitted, probe = 0, 1  # limit 0 has no positions: always admitted
    while probe < SERIES_LIMIT_CAP and not over(probe):
        admitted, probe = probe, min(2 * probe, SERIES_LIMIT_CAP)
    # the first refused limit in (admitted, probe], or none past the cap
    return admitted + bisect_left(range(admitted + 1, probe + 1), True, key=over)


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
    return _walk(t, limit, _residue_bounds(t, limit))


def _walk(t: int, limit: int, bounds: _Bounds) -> CoefficientSeries:
    _, top, caps, _, _, _ = bounds
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
    return _trusted_series(tuple(coeffs), t)


def distinct_core_series_dp(t: int, limit: int) -> CoefficientSeries:
    """The eq2 sum by dynamic programming over residues, without its terms.

    The size of a vector is A - C(K, 2), with A = sum(i*n_i + t*C(n_i, 2))
    and K = sum(n_i). The positions of :func:`_residue_bounds` are taken in
    turn; the state is whether the last entry is nonzero, and each state
    holds the counts of its partial vectors by (A, K). The beta-set of a
    partial vector has K elements, none consecutive, so A >= 1 + 3 + ... +
    (2K - 1) = K^2. The counts of one flag are packed into one int, sheared:
    with B = A - alpha*K, slot (A, K) is slot (B + c)*R + K, of ``width``
    bytes (Kronecker substitution). Setting n_i = n is then one shift of
    that int by ((i - alpha)*n + t*C(n, 2))*R + n slots, a right shift at
    some positions i < alpha, and one low-bits mask per position keeps the
    rows B <= H. :func:`_dp_layout` picks alpha = k_max // 2, and each bound
    is exact:

    * c: B >= K^2 - alpha*K >= -floor(alpha^2 / 4) = -c, so no real term
      has a negative slot, and a right shift drops none.
    * H: a vector of size <= limit ends with B <= limit + C(K, 2) -
      alpha*K <= limit, as K <= k_max <= 2*alpha + 1. Only the positions
      j < alpha can lower B, each by at most D_j = max_n (n*(alpha - j) -
      t*C(n, 2)), so a partial vector with B > limit + D, D = sum D_j,
      reaches no output; H is limit + D.
    * R: the least R > k_max with R*(R - alpha) > H. Every term with B <= H
      then has K < R and its own slot, and every other term, or carry,
      lands past the cut.
    * width: a kept partial vector has size B + alpha*K - C(K, 2) <= H +
      C(alpha + 1, 2). The shear is taken only where that is <= top, so
      the p(top) bound of ``width`` covers every slot, and only where its
      state is smaller than the unsheared one; otherwise alpha = 0, c = 0,
      H = top and R = k_max + 1, the A-major layout.

    An entry whose step of B exceeds H + c lands past the cut from every
    kept slot, so it is skipped. That step is convex in n and at most H + c
    at n = 1, so every n past the first skipped one is skipped too.

    Size A - C(K, 2) puts column K, from its least size C(K + 1, 2) on, at
    row K^2 - alpha*K + c. The readout views the final state as one slot a
    row and takes each column from there with one strided slice, sums the
    columns as packed ints, each shifted up by its least size, and decodes
    all limit + 1 sums with one little-endian ``struct.unpack`` of 8-byte
    lanes, filled with ``width`` strided byte copies. Slots wider than 8
    bytes are decoded one ``int.from_bytes`` each.
    """
    _check_args(t, limit)
    return _dp(t, limit, _residue_bounds(t, limit))


def _dp_layout(t: int, limit: int, bounds: _Bounds) -> tuple[int, int, int, int]:
    """``(alpha, c, H, R)``, the layout of :func:`_dp`'s state, in O(1)
    where t >= alpha and in O(alpha) elsewhere."""
    k_max, top, caps, _, _, _ = bounds
    alpha = k_max // 2
    c = alpha * alpha // 4
    m = min(alpha - 1, len(caps))  # positions 1..m are those below alpha
    if t >= alpha:  # D_j = alpha - j, at n = 1
        d = m * alpha - m * (m + 1) // 2
    else:  # D_j at n = ceil((alpha - j) / t), where the fall stops growing
        falls = (((alpha - j - 1) // t + 1, alpha - j) for j in range(1, m + 1))
        d = sum(n * fall - t * comb(n, 2) for n, fall in falls)
    h = limit + d
    r = max(k_max + 1, (alpha + isqrt(alpha * alpha + 4 * h)) // 2 + 1)
    if h + alpha * (alpha + 1) // 2 > top or (h + c + 1) * r >= (top + 1) * (k_max + 1):
        return 0, 0, top, k_max + 1
    return alpha, c, h, r


def _dp(t: int, limit: int, bounds: _Bounds) -> CoefficientSeries:
    k_max, top, caps, _, width, state_bytes = bounds
    if state_bytes > DP_STATE_BYTES_CAP:
        request = f"t={_shown(t)}, limit={_shown(limit)}"
        raise ValueError(f"residue DP state for {request} exceeds {DP_STATE_BYTES_CAP} bytes")
    alpha, c, h, r = _dp_layout(t, limit, bounds)
    bits = 8 * width
    rows = h + c + 1
    mask = (1 << rows * r * bits) - 1
    zero, nonzero = 1 << c * r * bits, 0  # last entry zero (or no entry yet) / nonzero
    # lean = i - alpha at position i; cap >= 1, as i <= limit <= top
    for lean, cap in enumerate(caps, start=1 - alpha):
        shift = (lean * r + 1) * bits
        grown = zero << shift if shift >= 0 else zero >> -shift
        step = lean  # B's step of n_i = n: lean*n + t*C(n, 2)
        for n in range(2, cap + 1):
            step += lean + t * (n - 1)
            if step >= rows:  # past the cut from every kept slot
                break
            shift = (step * r + n) * bits
            grown += zero << shift if shift >= 0 else zero >> -shift
        zero, nonzero = zero + nonzero, grown & mask
    # column K, from its least size C(K + 1, 2) on, adds to sizes up to limit
    slots = (zero + nonzero).to_bytes(rows * r * width, "little")
    grid = memoryview(slots).cast("B", [rows * r, width])  # one slot a row
    columns = ((comb(k + 1, 2), (k * (k - alpha) + c) * r + k) for k in range(k_max + 1))
    packed = sum(
        int.from_bytes(grid[s : s + (limit + 1 - least) * r : r], "little") << least * bits
        for least, s in columns
    )
    span = (limit + 1) * width
    raw = packed.to_bytes(span, "little")
    if width > 8:
        coeffs = tuple(int.from_bytes(raw[j : j + width], "little") for j in range(0, span, width))
    else:  # each coefficient widened to a little-endian 8-byte lane, all decoded at once
        lanes = bytearray(8 * (limit + 1))
        for b in range(width):
            lanes[b::8] = raw[b::width]
        coeffs = struct.unpack(f"<{limit + 1}Q", lanes)
    return _trusted_series(coeffs, t)


EQ2_ROUTES = {"walk": distinct_core_series_walk, "dp": distinct_core_series_dp}
_BOUNDED_ROUTES = {"walk": _walk, "dp": _dp}  # each route on bounds already derived


def eq2_costs(t: int, limit: int) -> dict[str, float]:
    """Estimated seconds of each eq2 route, from (t, limit) alone.

    The walk takes at most a few steps per separated tuple within the caps
    of :func:`_residue_bounds`, and fewer where its m loops stop early. Per
    position, the DP shifts and adds once per allowed nonzero entry, then
    masks and adds once, each on an int of its whole state. The DP's
    estimate is infinite where it would refuse.
    """
    _check_args(t, limit)
    return _costs(_residue_bounds(t, limit))


def _costs(bounds: _Bounds) -> dict[str, float]:
    _, _, caps, nodes, _, state_bytes = bounds
    passes = sum(2 * cap + 2 for cap in caps)
    dp_s = passes * (DP_OP_S + DP_WORD_S * state_bytes / 8)
    walk_s = WALK_NODE_S * nodes if nodes < 1 << 1000 else inf  # float() overflows near 2**1024
    return {"walk": walk_s, "dp": dp_s if state_bytes <= DP_STATE_BYTES_CAP else inf}


def _residue_bounds(t: int, limit: int) -> _Bounds:
    """``(k_max, top, caps, nodes, width, state_bytes)``: the one derivation
    of an eq2 request, for both routes and :func:`eq2_costs`.

    A partition with K distinct parts has size >= K(K+1)/2, so K <= k_max.
    Its A = size + C(K, 2) is then at most top = limit + C(k_max, 2), which
    is below (k_max + 1)^2 as limit < C(k_max + 2, 2), and n_i is at most
    caps[i - 1], the largest n <= k_max with i*n + t*C(n, 2) <= top. A
    nonzero n_i puts i in the beta-set, whose elements are first-column
    hook lengths, and no hook of a partition of n (at most
    lambda_1 + l - 1 <= n) exceeds n: so positions past ``limit`` only
    hold 0, and ``caps`` has min(t - 1, limit) entries. ``nodes``
    counts the tuples within the caps with no two adjacent entries nonzero:
    it bounds the vectors the walk counts. The count grows like a Fibonacci
    number, so it stops once it reaches 2^max(1000, bound), where ``bound``
    is the bit bound on p(top) below, and ``nodes`` is then only a lower
    bound. No reader needs more: the walk's estimate is infinite from 2^1000
    on, and ``width`` takes the p(top) bound once the count has more bits.
    Past that ceiling a position only adds its cap, with no big-int step, so
    a request at t = 10^6 + 1 and limit 10^6 is derived in a fraction of a
    second.

    A DP slot kept past a position counts the partial vectors of one
    (A, K) with A <= top. Each encodes a distinct-part partition of size
    A - C(K, 2) <= top, and distinct vectors encode distinct partitions, so
    there are at most ``nodes`` and fewer than
    p(top) < exp(pi * sqrt(2 * top / 3)) (Apostol, *Introduction to
    Analytic Number Theory*, ch. 14). ``width`` is the whole bytes for the
    smaller bound, plus one bit of margin for the float's rounding, and the
    DP's state of top + 1 rows of k_max + 1 slots has ``state_bytes``.
    """
    k_max = (isqrt(8 * limit + 1) - 1) // 2
    top = limit + comb(k_max, 2)
    bound = ceil(pi * sqrt(2 * top / 3) / log(2)) + 1  # bits of p(top), with margin
    ceiling = 1 << max(1000, bound)
    caps = []
    n = k_max
    zero, nonzero = 1, 0  # separated tuples so far whose last entry is zero / nonzero
    for i in range(1, min(t - 1, limit) + 1):
        while i * n + t * comb(n, 2) > top:
            n -= 1
        caps.append(n)
        if zero < ceiling:
            zero, nonzero = zero + nonzero, zero * n
    nodes = zero + nonzero
    width = (min(nodes.bit_length(), bound) + 7) // 8
    return k_max, top, caps, nodes, width, (top + 1) * (k_max + 1) * width


def distinct_core_series_closed(t: int, limit: int) -> CoefficientSeries:
    """Closed-form expansion, available for t = 2, 3, 4 only.

    t=2: ones at the triangular numbers C(n+1, 2).
    t=3: ones at n^2 (n >= 1) and at n(n+1) (n >= 0).
    t=4: ones at n(3n+1)/2 (n >= 1) plus, over all n, m >= 0, at
         (n(3n-1) + 3m(m+1) - 2mn)/2.
    """
    _check_args(t, limit)
    _require_ints((t,), 2, "closed form only exists for t in {2, 3, 4}", 4)
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
    _require_ints((t,), 2, "need t >= 2")
    _require_ints((limit,), 0, f"limit must be in [0, {BRUTE_FORCE_CAP}]", BRUTE_FORCE_CAP)
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
