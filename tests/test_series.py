import re
import time
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corekit import series
from corekit import (
    CoefficientSeries,
    compare_series,
    distinct_core_series,
    distinct_core_series_brute,
    distinct_core_series_closed,
    enumerate_partitions,
    iter_distinct_core_vectors,
    separated_support,
    size_of_vector,
)
from corekit.cores import _walk_cores


def distinct_count_oracle(n, max_part=None):
    """Independent count of distinct-part partitions of n."""
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    return sum(
        distinct_count_oracle(n - first, first - 1)
        for first in range(min(n, max_part), 0, -1)
    )


class TestSeriesType:
    def test_limit(self):
        assert CoefficientSeries((1, 0, 2), t=3).limit == 2

    def test_requires_t(self):
        with pytest.raises(TypeError, match="missing 1 required positional argument: 't'"):
            CoefficientSeries((1,))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CoefficientSeries((), t=3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CoefficientSeries((1, -1), t=3)

    def test_rejects_bool_coefficients(self):
        for bad in (True, 1.0, -1):
            message = f"coefficients must be counts, got {bad!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                CoefficientSeries((bad,), t=3)

    def test_rejects_float_coefficients(self):
        # with the three tests above, what the eq2 routes' _trusted_series skips
        for bad in (1.0, True, -1):
            message = f"coefficients must be counts, got {bad!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                CoefficientSeries((1, bad), t=3)

    def test_json_dict(self):
        s = CoefficientSeries((1, 1, 1, 0, 1), t=3)
        assert s.to_json_dict() == {"t": 3, "limit": 4, "coeffs": [1, 1, 1, 0, 1]}


class TestVectorSearch:
    def test_mod_2_triangulars(self):
        coeffs = distinct_core_series(2, 10).coeffs
        assert coeffs == tuple(1 if n in {0, 1, 3, 6, 10} else 0 for n in range(11))

    def test_mod_3_example(self):
        assert distinct_core_series(3, 9).coeffs == (1, 1, 1, 0, 1, 0, 1, 0, 0, 1)

    def test_mod_4_example(self):
        assert distinct_core_series(4, 5).coeffs == (1, 1, 1, 2, 0, 1)

    def test_limit_zero(self):
        assert distinct_core_series(2, 0).coeffs == (1,)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            distinct_core_series(1, 5)
        with pytest.raises(ValueError):
            distinct_core_series(3, -1)

    def test_visited_vectors_have_separated_support(self):
        for t in range(2, 9):
            for v in iter_distinct_core_vectors(t, 30):
                assert separated_support(v)
                assert size_of_vector(v) <= 30

    def test_visited_vectors_unique(self):
        seen = list(iter_distinct_core_vectors(5, 25))
        assert len(seen) == len(set(seen))


class TestEq2Routes:
    @pytest.mark.parametrize("t", range(2, 9))
    def test_walk_equals_dp_and_census_at_every_limit(self, t):
        # the walk's m loop must run on past sizes over the limit while they
        # still fall: at t = 4 and limit 65 the size of (7, 0, 1) is 66 and
        # that of (7, 0, 2) is 65. The beta-set walk's census at one limit
        # holds every smaller one as a prefix.
        census = [0] * 201
        for _, size in _walk_cores(t, 200, True):
            census[size] += 1
        for limit in range(201):
            walk = series.distinct_core_series_walk(t, limit)
            assert walk.coeffs == tuple(census[: limit + 1]), f"t={t} limit={limit}"
            assert walk == series.distinct_core_series_dp(t, limit), f"t={t} limit={limit}"

    @pytest.mark.parametrize(("t", "limit"), [(6, 3000), (8, 1000), (10, 500), (12, 300)])
    def test_walk_equals_dp_and_census_where_packing_matters(self, t, limit):
        # far past the limits above: k_max, the truncation at top and the
        # 3-byte DP slots all matter here, and the census is still cheap
        census = [0] * (limit + 1)
        for _, size in _walk_cores(t, limit, True):
            census[size] += 1
        walk = series.distinct_core_series_walk(t, limit)
        assert walk.coeffs == tuple(census)
        assert series.distinct_core_series_dp(t, limit) == walk

    @pytest.mark.parametrize("route", sorted(series.EQ2_ROUTES))
    def test_trusted_routes_write_exact_counts(self, route):
        # what CoefficientSeries would validate, on the results that skip it;
        # (16, 80) has multi-byte DP slots
        grid = [(t, limit) for t in (2, 3, 5, 8) for limit in (0, 1, 7, 60, 250)]
        for t, limit in grid + [(13, 60), (16, 80)]:
            s = series.EQ2_ROUTES[route](t, limit)
            assert type(s.coeffs) is tuple and len(s.coeffs) == limit + 1
            assert all(type(c) is int and c >= 0 for c in s.coeffs), (t, limit)
            assert s.t == t and s == CoefficientSeries(s.coeffs, t=t)

    @pytest.mark.parametrize("t", range(2, 17))
    def test_dp_equals_walk(self, t):
        for limit in sorted({0, 1, t - 1, t, 2 * t, 60}):
            dp = series.distinct_core_series_dp(t, limit)
            assert dp == series.distinct_core_series_walk(t, limit), f"t={t} limit={limit}"

    @given(st.integers(2, 14), st.integers(0, 120))
    @settings(max_examples=25, deadline=None)
    def test_dp_equals_walk_sampled(self, t, limit):
        dp = series.distinct_core_series_dp(t, limit)
        assert dp == series.distinct_core_series_walk(t, limit)

    @pytest.mark.parametrize(
        ("t", "limit", "picked"),
        [(3, 2000, "walk"), (5, 3000, "walk"), (7, 1500, "walk"), (12, 80, "dp"), (10, 150, "dp")],
    )
    def test_dispatch_equals_both_routes(self, t, limit, picked):
        # points where one route measured several times faster than the other
        costs = series.eq2_costs(t, limit)
        assert min(costs, key=costs.get) == picked
        dispatched = distinct_core_series(t, limit)
        assert dispatched == series.distinct_core_series_walk(t, limit)
        assert dispatched == series.distinct_core_series_dp(t, limit)

    @pytest.mark.parametrize(
        ("t", "limit", "multibyte"), [(6, 1400, False), (16, 80, True), (30, 60, True)]
    )
    def test_wide_slots_match_walk(self, t, limit, multibyte):
        # t = 6 packs 2727 rows of 53 slots, one per A <= 2726; at t = 16 and 30
        # coefficients need more than one byte of their slot
        dp = series.distinct_core_series_dp(t, limit)
        assert dp == series.distinct_core_series_walk(t, limit)
        assert (max(dp.coeffs) > 255) == multibyte

    def test_dp_decodes_every_slot_width(self):
        # slots of up to 8 bytes are decoded through 8-byte lanes, wider ones
        # slot by slot. Past t > limit no hook can be t, so the series is
        # q(n), the coefficients of prod(1 + x^k), here by a knapsack.
        for t, limit, width in [(5, 10, 1), (6, 1400, 2), (16, 80, 3)]:
            assert series._residue_bounds(t, limit)[4] == width
            dp = series.distinct_core_series_dp(t, limit)
            assert dp == series.distinct_core_series_walk(t, limit), (t, limit)
        for t, limit, width in [(1000, 150, 8), (1000, 200, 10)]:
            assert series._residue_bounds(t, limit)[4] == width
            q = [1] + [0] * limit
            for part in range(1, limit + 1):
                for n in range(limit, part - 1, -1):
                    q[n] += q[n - part]
            assert series.distinct_core_series_dp(t, limit).coeffs == tuple(q), (t, limit)

    def test_dp_refuses_oversized_state(self):
        state_bytes = series._residue_bounds(2, series.SERIES_LIMIT_CAP)[5]
        assert state_bytes > series.DP_STATE_BYTES_CAP
        with pytest.raises(ValueError):
            series.distinct_core_series_dp(2, series.SERIES_LIMIT_CAP)
        assert series.eq2_costs(2, series.SERIES_LIMIT_CAP)["dp"] == inf

    def test_cap_admitted_at_small_t(self):
        assert series._largest_admitted(2) == series._largest_admitted(3) == series.SERIES_LIMIT_CAP

    @pytest.mark.parametrize("t", [6, 1000])
    def test_refuses_past_largest_admitted(self, t):
        # found from the estimates alone; the admitted request is not run
        lo = series._largest_admitted(t)
        assert min(series.eq2_costs(t, lo).values()) <= series.SERIES_BUDGET_S
        with pytest.raises(ValueError, match=f"admitted at t={t} is {lo}$"):
            distinct_core_series(t, lo + 1)

    def test_refusal_at_a_huge_t_is_quick(self):
        # the admitted-limit search doubles from 1, so each of its probes
        # derives at most about twice its answer's positions, not t - 1
        started = time.perf_counter()
        with pytest.raises(ValueError, match="admitted at t=100001 is 927$"):
            distinct_core_series(10**5 + 1, 5000)
        assert time.perf_counter() - started < 0.5

    @pytest.mark.parametrize("t", [10**6 + 1, 10**21], ids=["1e6+1", "1e21"])
    def test_refusal_at_the_limit_cap_and_a_huge_t_is_quick(self, t):
        # the request's derivation has 10^6 positions; its node count stops
        # at a ceiling no estimate reads past, so each position is cheap
        started = time.perf_counter()
        with pytest.raises(ValueError, match="out of reach.* is 927$"):
            distinct_core_series(t, series.SERIES_LIMIT_CAP)
        assert time.perf_counter() - started < 1.0


class TestClosedForms:
    def test_mod_2(self):
        assert distinct_core_series_closed(2, 6).coeffs == (1, 1, 0, 1, 0, 0, 1)

    def test_mod_3(self):
        assert distinct_core_series_closed(3, 4).coeffs == (1, 1, 1, 0, 1)

    def test_mod_4(self):
        # exponent 3 is hit twice in the double sum
        assert distinct_core_series_closed(4, 3).coeffs == (1, 1, 1, 2)

    def test_rejects_other_moduli(self):
        with pytest.raises(ValueError):
            distinct_core_series_closed(5, 10)

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_agrees_with_search(self, t):
        assert distinct_core_series_closed(t, 120).coeffs == distinct_core_series(t, 120).coeffs


class TestBruteForce:
    def test_mod_2(self):
        assert distinct_core_series_brute(2, 6).coeffs == (1, 1, 0, 1, 0, 0, 1)

    def test_huge_modulus_counts_all_distinct(self):
        coeffs = distinct_core_series_brute(100, 10).coeffs
        assert coeffs == tuple(distinct_count_oracle(n) for n in range(11))

    def test_mod_4(self):
        assert distinct_core_series_brute(4, 5).coeffs == (1, 1, 1, 2, 0, 1)

    def test_cap(self):
        with pytest.raises(ValueError):
            distinct_core_series_brute(3, 81)

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
    def test_agrees_with_search(self, t):
        assert distinct_core_series_brute(t, 25).coeffs == distinct_core_series(t, 25).coeffs


class TestCompare:
    def test_pass(self):
        s = distinct_core_series(3, 20)
        assert compare_series(s, s) is None

    def test_first_divergence(self):
        detail = compare_series(CoefficientSeries((1, 1, 5), 2), CoefficientSeries((1, 2, 6), 2))
        assert detail == "first divergence at n=1: 1 vs 2"

    def test_limit_mismatch(self):
        with pytest.raises(ValueError):
            compare_series(CoefficientSeries((1,), 2), CoefficientSeries((1, 1), 2))


class TestCoefficientInvariants:
    @given(st.integers(2, 9), st.integers(0, 25))
    @settings(max_examples=25, deadline=None)
    def test_constant_term_and_bound(self, t, limit):
        coeffs = distinct_core_series(t, limit).coeffs
        assert coeffs[0] == 1
        for n, c in enumerate(coeffs):
            assert c <= sum(
                1 for _ in enumerate_partitions(n, distinct_only=True)
            )
