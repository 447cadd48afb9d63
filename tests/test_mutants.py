"""One mutation per answer-computing route, each caught by the check that
compares the route with an independent partner.

Every mutation is monkeypatched in for one test; the check must pass on the
real code and fail on the mutant, at a window small enough to take well
under a second.
"""

import __future__
import inspect
import textwrap
import time
from collections import Counter

import pytest

from corekit import consecutive, cores, partitions, residues, series, verify


def source_mutant(module, name, old, new, into=None):
    """A mutation that rewrites one fragment of ``module.name``'s source: a
    monkeypatch that swaps in the function compiled from the edited source,
    in ``module`` or in ``into``, a module that imported the name."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1, f"{old!r} is not a fragment of {name}"
    namespace = dict(vars(module))
    flags = __future__.annotations.compiler_flag
    exec(compile(source.replace(old, new), module.__file__, "exec", flags, True), namespace)
    return lambda monkeypatch: monkeypatch.setattr(into or module, name, namespace[name])


def census_without_binomial(monkeypatch):
    # the size formula loses its -C(k, 2)
    monkeypatch.setattr(
        consecutive,
        "_size_census",
        lambda t: Counter(sum(s) for s in consecutive._walk_nice_subsets(t)),
    )


def walk_ignores_distinct(monkeypatch):
    walk = cores._walk_cores
    monkeypatch.setattr(
        cores, "_walk_cores", lambda t, max_size, distinct, t2=None: walk(t, max_size, False, t2)
    )


def size_formula_off_by_one(monkeypatch):
    size_of_vector = residues.size_of_vector
    monkeypatch.setattr(
        residues, "size_of_vector", lambda v: size_of_vector(v) + (v.total > 2)
    )


def sparse_walk_steps_by_one(monkeypatch):
    def walk(t):
        # consecutive._walk_nice_subsets with lo += 1: adjacent members allowed
        subset, lo = [], 1
        yield subset
        while lo < t or subset:
            if lo < t:
                subset.append(lo)
                yield subset
                lo += 1
            else:
                lo = subset.pop() + 1

    monkeypatch.setattr(consecutive, "_walk_nice_subsets", walk)


def dp_one_byte_slots(monkeypatch):
    derive = series._residue_bounds

    def narrow(t, limit):
        request = derive(t, limit)
        return request._replace(
            width=1,
            state_bytes=request.state_bytes // request.width,
            dp_bytes=request.dp_bytes // request.width,
        )

    monkeypatch.setattr(series, "_residue_bounds", narrow)


def psi_plus_fib_past_20(monkeypatch):
    total_and_count = consecutive._total_and_count

    def mutated(t):
        psi, f = total_and_count(t)
        return (psi + f if t + 1 > 20 else psi), f

    monkeypatch.setattr(consecutive, "_total_and_count", mutated)


# the DP's readout: each coefficient's bytes written one byte up its lane,
# and column K read from its first row in column 0
dp_lane_one_byte_off = source_mutant(series, "_dp", "lanes[b::8]", "lanes[b + 1 :: 8]")
dp_column_without_offset = source_mutant(series, "_dp", "* r + k) for", "* r) for")
# the DP's shear: the rows below B = 0 one or more short of -min(K^2 - alpha*K),
# so a right shift drops some real terms
dp_shear_rows_short = source_mutant(
    series, "_residue_bounds", "c = alpha * alpha // 4", "c = (alpha - 1) ** 2 // 4"
)
# every ladder quantity seeded 1 at t = 1 instead of 0
ladder_seed_one = source_mutant(
    consecutive, "sequence_table", "([0, 0] for _ in range(5))", "([0, 1] for _ in range(5))"
)
# a fast-doubling step taken on the clear bits instead of the set ones
doubling_parity_swapped = source_mutant(
    consecutive, "_fib_pair", 'if bit == "1":', 'if bit == "0":'
)
# every maximizer part one larger
maximizer_parts_shifted = source_mutant(
    consecutive, "maximizers", "range(t - k, t - 2 * k, -1)", "range(t - k + 1, t - 2 * k + 1, -1)"
)

# the eq2 walk's last entry: its count stops short of a size equal to the
# limit, or it does not step past the sizes over the limit that still fall;
# its prefixes: the one whose A leaves exactly room for position j + 2 dropped
walk_count_short_of_limit = source_mutant(
    series, "_walk", "while size <= limit:", "while size < limit:"
)
walk_no_falling_stretch = source_mutant(
    series, "_walk", "while size > limit and step < 0:", "while False:"
)
walk_push_short_of_room = source_mutant(
    series, "_walk", "while grown <= ceiling:", "while grown < ceiling:"
)

# moduli clamped to the size budget instead of one above it: a modulus of
# max_size + 1 or more then turns the largest candidate away
walk_clamps_at_budget = source_mutant(
    cores, "_walk_cores", "min(m, max_size + 1)", "min(m, max_size)"
)
# a pushed element x frees slot x + low without testing x + low - high, so
# candidates escape the larger modulus's closure test
walk_free_ignores_high = source_mutant(
    cores, "_walk_cores", "free[v + low] = present[v + low]", "free[v + low] = 1"
)
# distinct mode no longer skips the last element plus 1
walk_distinct_no_skip = source_mutant(
    cores, "_walk_cores", "step = 2 if distinct else 1", "step = 1"
)
# each residue class recorded as present instead of counted
residue_presence_not_count = source_mutant(
    residues, "_vector_of_beta", "counts[x % t - 1] += 1", "counts[x % t - 1] = 1"
)
# each residue class decoded one element too long
residue_class_one_step_long = source_mutant(
    residues, "beta_of_vector", "range(i, i + n * t, t)", "range(i, i + n * t + 1, t)"
)
# every decoded part one smaller, in the decode that partition_of_beta runs
# after validating its input; the output is trusted, so no validation
# refuses the 0 part this writes
beta_decode_one_short = source_mutant(
    partitions, "_decode_beta", "range(k - 1, -1, -1)", "range(k, 0, -1)"
)


def beta_set_shifted_past_two_rows(monkeypatch):
    # every beta-set element one larger once the partition has three rows
    beta_set = verify.beta_set
    monkeypatch.setattr(
        verify, "beta_set", lambda p: frozenset(x + (len(p.parts) > 2) for x in beta_set(p))
    )


def check(name, t_max, n_max=None):
    """The registered check ``name`` at a small window: its detail or None."""

    def run():
        return verify.run_check(name, t_max, n_max).detail

    return run


def dp_against_walk():
    # slots of (16, 80) need 3 bytes; a narrower state overflows or wraps
    try:
        return verify._eq2_routes_differ(series.distinct_core_series_walk(16, 80))
    except OverflowError as exc:
        return f"dp route crashed: {exc!r}"


CASES = {
    "census-extremes": (census_without_binomial, check("tt1.extremes", 8), "observed max"),
    "census-total": (census_without_binomial, check("tt1.total_size", 8), "closed form"),
    "walk-distinct": (
        walk_ignores_distinct, check("genfun.dfs_vs_oracle", 5, 20), "beta-set walk"
    ),
    "size-formula": (size_formula_off_by_one, check("eta.roundtrip", 5, 12), "size formula"),
    "sparse-walk": (sparse_walk_steps_by_one, check("tt1.count_fibonacci", 8), "vs F_"),
    "dp-slots": (dp_one_byte_slots, dp_against_walk, "dp route"),
    "dp-readout": (dp_lane_one_byte_off, dp_against_walk, "dp route"),
    "dp-readout-column": (
        dp_column_without_offset, check("genfun.dfs_vs_oracle", 5, 20), "dp route"
    ),
    "dp-shear-rows": (
        dp_shear_rows_short, check("genfun.dfs_vs_oracle", 5, 20), "dp route"
    ),
    "eq2-walk-count": (
        walk_count_short_of_limit, check("genfun.dfs_vs_oracle", 5, 20), "walk route"
    ),
    # at t = 4 and limit 65 the size of (7, 0, 1) is 66 and that of (7, 0, 2) 65
    "eq2-walk-falling": (
        walk_no_falling_stretch, check("genfun.dfs_vs_closed", None, 65), "walk route"
    ),
    # the prefix dropped loses only vectors with K = k_max and A = top: at t = 4
    # and limit 12, (3, 0, 1), pushed from (3,) with A = 15 = top - 3
    "eq2-walk-push": (
        walk_push_short_of_room, check("genfun.dfs_vs_closed", None, 12), "walk route"
    ),
    "psi-past-20": (psi_plus_fib_past_20, check("tt1.total_size", 20), "closed form"),
    "ladder-seed": (ladder_seed_one, check("tt1.table", 8), "recurrence/definitional mismatch"),
    "fib-doubling": (doubling_parity_swapped, check("tt1.table", 8), "a != F_("),
    "walk-clamp": (walk_clamps_at_budget, check("kernel.pair_enumeration", 2), "enumerated 1"),
    "walk-free-map": (
        walk_free_ignores_high, check("kernel.pair_core_band", 4), "outside the band"
    ),
    "walk-distinct-skip-reach": (
        walk_distinct_no_skip, check("kernel.distinct_pair_reach", 4), "beta element"
    ),
    "walk-distinct-skip-census": (
        walk_distinct_no_skip, check("genfun.dfs_vs_oracle", 5, 20), "beta-set walk"
    ),
    "residue-presence": (
        residue_presence_not_count, check("eta.roundtrip", 2, 3), "roundtrip broke"
    ),
    "residue-class-length": (
        residue_class_one_step_long, check("eta.roundtrip", 2, 3), "roundtrip broke"
    ),
    "beta-decode": (
        beta_decode_one_short, check("kernel.beta_algebra", None, 3), "roundtrip broke"
    ),
    "maximizer-parts": (
        maximizer_parts_shifted, check("tt1.extremes", 8), "constructed maximizers differ"
    ),
    "beta-set-rows": (
        beta_set_shifted_past_two_rows,
        check("kernel.column_hooks", None, 8),
        "column formula broke",
    ),
}


@pytest.mark.parametrize(("mutate", "compare", "detail"), CASES.values(), ids=CASES.keys())
def test_mutant_is_caught(monkeypatch, mutate, compare, detail):
    assert compare() is None
    mutate(monkeypatch)
    started = time.perf_counter()
    found = compare()
    assert time.perf_counter() - started < 1.0
    assert found is not None and detail in found, found
