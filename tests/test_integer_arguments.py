"""One range rule for every integer argument, and one way to quote a refused value.

Each range check on a modulus, an index, a size bound or a verify bound goes
through ``partitions._require_ints``, one call per argument: a value that is
not an exact ``int`` in the argument's range (``bool`` and integral floats
included) is refused with ``ValueError(f"{what}, got {_shown(x)}")``, where
``what`` states the whole range, floor and cap alike. ``partitions._shown``
quotes every refused value, here and in the refusals outside
``_require_ints``; it clips a long ``repr`` and never raises, so an argument
past the interpreter's 4300-digit int-to-string limit is refused by its rule,
not by the conversion's own error. The collections (parts, beta-sets,
forbidden sets, residue counts, coefficients) have floors only and are
pinned by the rejection tests of their own modules.
"""

import argparse

import pytest

from corekit import EMPTY, Partition, cli, consecutive, cores, residues, series, verify
from corekit.partitions import _shown

# past 5000 digits: more than the interpreter converts to a string
HUGE = 10**5000 + 1

# (function and argument, call, floor, cap or None, the message's text before ", got")
RULES = [
    ("fibonacci", consecutive.fibonacci, 0, None, "index must be >= 0"),
    ("iter_nice_subsets", lambda x: list(consecutive.iter_nice_subsets(x)), 2, None,
     "need t >= 2"),
    ("distinct_core_partitions", consecutive.distinct_core_partitions, 2, 26,
     "need 2 <= t <= 26"),
    ("count_distinct_cores", consecutive.count_distinct_cores, 2, None, "need t >= 2"),
    ("largest_size", consecutive.largest_size, 2, None, "need t >= 2"),
    ("maximizer_count", consecutive.maximizer_count, 2, None, "need t >= 2"),
    ("maximizers", consecutive.maximizers, 2, None, "need t >= 2"),
    ("fibonacci_convolution", consecutive.fibonacci_convolution, 0, None, "index must be >= 0"),
    ("fibonacci_triple_convolution", consecutive.fibonacci_triple_convolution, 0, None,
     "index must be >= 0"),
    ("total_size", consecutive.total_size, 2, None, "need t >= 2"),
    ("average_size", consecutive.average_size, 2, None, "need t >= 2"),
    ("sequence_table", consecutive.sequence_table, 2, 90, "t_max must be in [2, 90]"),
    ("SequenceTable.row", consecutive.sequence_table(10).row, 2, 10, "t must be in [2, 10]"),
    ("residue_vector.t", lambda x: residues.residue_vector(EMPTY, x), 2, None,
     "modulus must be >= 2"),
    ("iter_core_vectors.t", lambda x: list(residues.iter_core_vectors(x, 3)), 2, None,
     "modulus must be >= 2"),
    ("iter_core_vectors.max_size", lambda x: list(residues.iter_core_vectors(3, x)), 0, 10**6,
     "max_size must be in [0, 1000000]"),
    ("abacus_is_t_core.t", lambda x: cores.abacus_is_t_core({1}, x), 1, None,
     "modulus must be >= 1"),
    ("enumerate_partitions", lambda x: next(cores.enumerate_partitions(x)), 0, 120,
     "n must be in [0, 120]"),
    ("enumerate_simultaneous_cores.t1", lambda x: cores.enumerate_simultaneous_cores(x, 3), 1,
     None, "need positive integers"),
    ("enumerate_simultaneous_cores.t2", lambda x: cores.enumerate_simultaneous_cores(2, x), 1,
     None, "need positive integers"),
    ("anderson_count.t1", lambda x: cores.anderson_count(x, 2), 1, None,
     "need positive integers"),
    ("olsson_stanton_max.t2", lambda x: cores.olsson_stanton_max(2, x), 1, None,
     "need positive integers"),
    ("distinct_core_series.t", lambda x: series.distinct_core_series(x, 5), 2, None,
     "need t >= 2"),
    ("CoefficientSeries.t", lambda x: series.CoefficientSeries((1,), x), 2, None,
     "need t >= 2"),
    ("distinct_core_series.limit", lambda x: series.distinct_core_series(3, x), 0, 10**6,
     "limit must be in [0, 1000000]"),
    ("distinct_core_series_walk.limit", lambda x: series.distinct_core_series_walk(3, x), 0,
     10**6, "limit must be in [0, 1000000]"),
    ("distinct_core_series_dp.limit", lambda x: series.distinct_core_series_dp(3, x), 0, 10**6,
     "limit must be in [0, 1000000]"),
    ("distinct_core_series_closed.limit", lambda x: series.distinct_core_series_closed(3, x), 0,
     10**6, "limit must be in [0, 1000000]"),
    ("distinct_core_series_brute.limit", lambda x: series.distinct_core_series_brute(3, x), 0,
     60, "limit must be in [0, 60]"),
    ("iter_distinct_core_vectors.limit",
     lambda x: list(series.iter_distinct_core_vectors(3, x)), 0, 10**6,
     "limit must be in [0, 1000000]"),
    ("run_check.t_max", lambda x: verify.run_check("kernel.pair_core_band", x), 0, None,
     "bounds must be ints >= 0"),
    ("run_check.n_max", lambda x: verify.run_check("kernel.column_hooks", None, x), 0, None,
     "bounds must be ints >= 0"),
    ("run_suite", lambda x: verify.run_suite("kernel", t_max=x, n_max=x), 0, None,
     "bounds must be ints >= 0"),
]
CAPPED = [r for r in RULES if r[3] is not None]


def refusal(call, bad):
    with pytest.raises(ValueError) as info:
        call(bad)
    return str(info.value)


@pytest.mark.parametrize(
    "call,floor,what", [(r[1], r[2], r[4]) for r in RULES], ids=[r[0] for r in RULES]
)
def test_integer_argument_is_refused(call, floor, what):
    # a bool, a fraction, the floor as a float, a string, the int just below
    # the floor, and one too long to convert to a string
    for bad in (True, floor + 0.5, float(floor), "x", floor - 1, -HUGE):
        assert refusal(call, bad) == f"{what}, got {_shown(bad)}"


@pytest.mark.parametrize(
    "call,cap,what", [(r[1], r[3], r[4]) for r in CAPPED], ids=[r[0] for r in CAPPED]
)
def test_capped_argument_is_refused_above_its_cap(call, cap, what):
    # past the cap, the same message as below the floor
    for bad in (cap + 1, HUGE):
        assert refusal(call, bad) == f"{what}, got {_shown(bad)}"


def test_closed_form_t_has_a_floor_rule_and_a_cap_rule():
    # t in {2, 3, 4}: below it the t rule every series shares answers, above
    # it the closed form's own
    closed = lambda t: series.distinct_core_series_closed(t, 5)
    assert refusal(closed, 1) == "need t >= 2, got 1"
    for bad in (5, HUGE):
        what = "closed form only exists for t in {2, 3, 4}"
        assert refusal(closed, bad) == f"{what}, got {_shown(bad)}"


# refusals outside _require_ints: (name, call, its argument, the rule the message names)
OTHER_REFUSALS = [
    ("coprime-pair", lambda x: cores.anderson_count(2 * x, 4 * x), HUGE,
     "is not a coprime pair"),
    ("gap-cap", lambda x: cores.enumerate_simultaneous_cores(x, 2), HUGE,
     "has more than 50 gap cells"),
    ("gap-cap-both", lambda x: cores.enumerate_simultaneous_cores(x, x - 1), HUGE,
     "has more than 50 gap cells"),
    ("closed-form-t", lambda x: series.distinct_core_series_closed(x, 3), HUGE,
     "closed form only exists for t in {2, 3, 4}"),
    ("dp-state", lambda x: series.distinct_core_series_dp(x, 5000), HUGE,
     "exceeds 33554432 bytes"),
    ("parts-order", lambda x: Partition((1, x)), HUGE, "parts must be weakly decreasing"),
    ("residue-count", lambda x: residues.ResidueVector(x, (0,)), HUGE, "counts for modulus"),
    ("residue-non-core", lambda x: residues.residue_vector(Partition((x,)), 3), HUGE,
     "has a hook of length 3; not encodable mod 3"),
    ("suite-name", verify.checks_for, "x" * 10**6, "unknown suite"),
    ("cli-junk", cli._ranged_int(0), "x" * 10**6, "not an integer"),
    ("cli-over-cap", cli._ranged_int(0, 10), "9" * 4000, "must be >= 0 and <= 10"),
]


@pytest.mark.parametrize(
    "call,bad,rule", [r[1:] for r in OTHER_REFUSALS], ids=[r[0] for r in OTHER_REFUSALS]
)
def test_refusal_quotes_a_huge_value_briefly(call, bad, rule):
    with pytest.raises((ValueError, argparse.ArgumentTypeError)) as info:
        call(bad)
    # the longest, checks_for's, also lists the suites
    message = str(info.value)
    assert rule in message and len(message) < 150
    assert "Exceeds the limit" not in message


class Opaque:
    def __repr__(self):
        raise AttributeError("no repr")


SHOWN_INPUTS = [
    *(sign * (10**digits - 1) for digits in (20, 21, 4300, 4301, 10**5) for sign in (1, -1)),
    "x" * 10**6, True, 2.5, Partition((10**5000,)), (1, 10**5000), Opaque(),
]


@pytest.mark.parametrize("x", SHOWN_INPUTS, ids=range(len(SHOWN_INPUTS)))
def test_shown_is_short_and_never_raises(x):
    assert len(_shown(x)) < 100
    if type(x) is int:
        assert _shown(-x) != _shown(x)


def test_shown_quotes_a_short_value_as_its_repr():
    for x in (True, 2.5, -1, 10**20 - 1, "x" * 20, (3, 6), Partition((3, 1))):
        assert _shown(x) == repr(x)


def test_shown_clips_a_long_value_and_keeps_its_sign():
    assert _shown(10**21 - 1) == "99999999999999999999... (21 characters)"
    assert _shown(1 - 10**21) == "-9999999999999999999... (22 characters)"
    assert _shown("x" * 10**6) == f"{'x' * 20!r}... (1000000 characters)"
    # past the conversion limit the repr fails, and the sign and size stand in
    big = 10**4301 - 1
    assert _shown(big) == f"<int of {big.bit_length()} bits>"
    assert _shown(-big) == f"<negative int of {big.bit_length()} bits>"
    assert _shown(Partition((10**5000,))) == "<Partition that cannot be printed>"
    assert _shown((1, 10**5000)) == "<tuple that cannot be printed>"
    assert _shown(Opaque()) == "<Opaque that cannot be printed>"
