"""The exact-integer rule on every single integer argument.

Each floor check on a modulus, an index, a size bound or a verify bound goes
through ``partitions._require_ints``: a value that is not an exact ``int`` at
or above the floor, ``bool`` and integral floats included, is refused with
``ValueError(f"{what}, got {x!r}")``. The collections (parts, beta-sets,
forbidden sets, residue counts, coefficients) and the ``ResidueVector``
modulus are pinned by the rejection tests of their own modules.
"""

import pytest

from corekit import EMPTY, consecutive, cores, residues, series, verify

# (function and argument, call, floor, the message's text before ", got")
RULES = [
    ("fibonacci", consecutive.fibonacci, 0, "index must be >= 0"),
    ("iter_nice_subsets", lambda x: list(consecutive.iter_nice_subsets(x)), 2, "need t >= 2"),
    ("distinct_core_partitions", consecutive.distinct_core_partitions, 2, "need 2 <= t <= 26"),
    ("count_distinct_cores", consecutive.count_distinct_cores, 2, "need t >= 2"),
    ("largest_size", consecutive.largest_size, 2, "need t >= 2"),
    ("maximizer_count", consecutive.maximizer_count, 2, "need t >= 2"),
    ("maximizers", consecutive.maximizers, 2, "need t >= 2"),
    ("fibonacci_convolution", consecutive.fibonacci_convolution, 0, "index must be >= 0"),
    ("fibonacci_triple_convolution", consecutive.fibonacci_triple_convolution, 0,
     "index must be >= 0"),
    ("total_size", consecutive.total_size, 2, "need t >= 2"),
    ("average_size", consecutive.average_size, 2, "need t >= 2"),
    ("sequence_table", consecutive.sequence_table, 2, "t_max must be in [2, 90]"),
    ("residue_vector.t", lambda x: residues.residue_vector(EMPTY, x), 2, "modulus must be >= 2"),
    ("iter_core_vectors.t", lambda x: list(residues.iter_core_vectors(x, 3)), 2,
     "modulus must be >= 2"),
    ("iter_core_vectors.max_size", lambda x: list(residues.iter_core_vectors(3, x)), 0,
     "max_size must be >= 0"),
    ("abacus_is_t_core.t", lambda x: cores.abacus_is_t_core({1}, x), 1, "modulus must be >= 1"),
    ("enumerate_partitions", lambda x: next(cores.enumerate_partitions(x)), 0,
     "cannot partition a negative integer"),
    ("enumerate_simultaneous_cores.t1", lambda x: cores.enumerate_simultaneous_cores(x, 3), 1,
     "need positive integers"),
    ("enumerate_simultaneous_cores.t2", lambda x: cores.enumerate_simultaneous_cores(2, x), 1,
     "need positive integers"),
    ("anderson_count.t1", lambda x: cores.anderson_count(x, 2), 1, "need positive integers"),
    ("olsson_stanton_max.t2", lambda x: cores.olsson_stanton_max(2, x), 1,
     "need positive integers"),
    ("distinct_core_series.t", lambda x: series.distinct_core_series(x, 5), 2, "need t >= 2"),
    ("distinct_core_series.limit", lambda x: series.distinct_core_series(3, x), 0,
     "limit must be >= 0"),
    ("distinct_core_series_walk.limit", lambda x: series.distinct_core_series_walk(3, x), 0,
     "limit must be >= 0"),
    ("distinct_core_series_dp.limit", lambda x: series.distinct_core_series_dp(3, x), 0,
     "limit must be >= 0"),
    ("distinct_core_series_closed.limit", lambda x: series.distinct_core_series_closed(3, x), 0,
     "limit must be >= 0"),
    ("distinct_core_series_brute.limit", lambda x: series.distinct_core_series_brute(3, x), 0,
     "limit must be >= 0"),
    ("iter_distinct_core_vectors.limit",
     lambda x: list(series.iter_distinct_core_vectors(3, x)), 0, "limit must be >= 0"),
    ("run_check.t_max", lambda x: verify.run_check("kernel.pair_core_band", x), 0,
     "bounds must be ints >= 0"),
    ("run_check.n_max", lambda x: verify.run_check("kernel.column_hooks", None, x), 0,
     "bounds must be ints >= 0"),
    ("run_suite", lambda x: verify.run_suite("kernel", t_max=x, n_max=x), 0,
     "bounds must be ints >= 0"),
]


@pytest.mark.parametrize("call,floor,what", [r[1:] for r in RULES], ids=[r[0] for r in RULES])
def test_integer_argument_is_refused(call, floor, what):
    # a bool, a fraction, the floor as a float, and the int just below the floor
    for bad in (True, floor + 0.5, float(floor), floor - 1):
        with pytest.raises(ValueError) as info:
            call(bad)
        assert str(info.value) == f"{what}, got {bad!r}"

