"""Exact combinatorics of core partitions with distinct parts.

Beta-set algebra, residue-vector encodings of t-cores, coefficient series
for distinct-part t-cores, Fibonacci statistics of partitions avoiding two
consecutive hook lengths, and a cross-verification suite tying it all
together. Everything is exact integer/rational arithmetic on immutable
values.

The verification suite is the submodule ``corekit.verify`` (``run_suite``,
``CheckReport``). It is loaded on first use, not by ``import corekit``:
only ``corekit verify`` and the tests run it, so every other command
starts without compiling or running it.
"""

from .consecutive import (
    SequenceRow,
    SequenceTable,
    average_size,
    count_distinct_cores,
    distinct_core_partitions,
    fibonacci,
    fibonacci_convolution,
    fibonacci_triple_convolution,
    largest_size,
    maximizer_count,
    maximizers,
    sequence_table,
    total_size,
)
from .cores import (
    abacus_is_t_core,
    anderson_count,
    enumerate_partitions,
    enumerate_simultaneous_cores,
    is_core,
    olsson_stanton_max,
)
from .partitions import (
    EMPTY,
    Partition,
    beta_distinct_criterion,
    beta_set,
    hook_length_set,
    hook_lengths,
    partition_of_beta,
    size_from_beta,
)
from .residues import (
    ResidueVector,
    beta_of_vector,
    core_of_vector,
    iter_core_vectors,
    residue_vector,
    separated_support,
    size_of_vector,
)
from .series import (
    CoefficientSeries,
    compare_series,
    distinct_core_series,
    distinct_core_series_brute,
    distinct_core_series_closed,
    iter_distinct_core_vectors,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientSeries",
    "EMPTY",
    "Partition",
    "ResidueVector",
    "SequenceRow",
    "SequenceTable",
    "abacus_is_t_core",
    "anderson_count",
    "average_size",
    "beta_distinct_criterion",
    "beta_of_vector",
    "beta_set",
    "compare_series",
    "core_of_vector",
    "count_distinct_cores",
    "distinct_core_partitions",
    "distinct_core_series",
    "distinct_core_series_brute",
    "distinct_core_series_closed",
    "enumerate_partitions",
    "enumerate_simultaneous_cores",
    "fibonacci",
    "fibonacci_convolution",
    "fibonacci_triple_convolution",
    "hook_length_set",
    "hook_lengths",
    "is_core",
    "iter_core_vectors",
    "iter_distinct_core_vectors",
    "largest_size",
    "maximizer_count",
    "maximizers",
    "olsson_stanton_max",
    "partition_of_beta",
    "residue_vector",
    "separated_support",
    "sequence_table",
    "size_from_beta",
    "size_of_vector",
    "total_size",
]
