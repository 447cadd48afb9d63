"""Residue-class encoding of t-cores.

The beta-set of a t-core is a union of bottom-loaded residue classes: for
each residue i in 1..t-1 it contains exactly {i, t+i, ..., (n_i - 1)t + i}
for some count n_i >= 0 (residue 0 is impossible, since 0 is never a
beta-set element). Recording the counts (n_1, ..., n_{t-1}) is therefore a
bijective encoding of t-cores, and the partition size has the closed form
implemented by :func:`size_of_vector`. Distinct-part t-cores correspond
exactly to vectors whose support contains no two adjacent residues.

:func:`iter_core_vectors` lists the vectors up to a size budget with the
beta-set walk of :mod:`corekit.cores`, the one that also enumerates
(t1, t2)-cores; restricted to separated support, the same walk lists
:func:`corekit.series.iter_distinct_core_vectors`. The two routes of the
eq2 series in :mod:`corekit.series`, a walk over vector prefixes and a DP,
count the same vectors without listing them, and ``verify`` checks both
against the beta-set walk's census. :func:`size_of_vector` is the
independent check of the sizes the walk tracks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from math import comb
from typing import Iterator

from .cores import _walk_cores, abacus_is_t_core
from .partitions import Partition, beta_set, partition_of_beta


@dataclass(frozen=True)
class ResidueVector:
    """Counts of beta-set elements per nonzero residue class mod ``modulus``."""

    modulus: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if len(self.counts) != self.modulus - 1:
            raise ValueError(
                f"need exactly {self.modulus - 1} counts for modulus "
                f"{self.modulus}, got {len(self.counts)}"
            )
        for c in self.counts:
            if type(c) is not int or c < 0:  # bool is an int subclass; reject it
                raise ValueError(f"counts must be nonnegative integers, got {c!r}")

    @property
    def total(self) -> int:
        """Number of beta-set elements, i.e. number of parts of the encoded core."""
        return sum(self.counts)


def residue_vector(p: Partition, t: int) -> ResidueVector:
    """Encode the t-core ``p`` as its per-residue beta-set counts.

    Raises ValueError when ``p`` is not a t-core (the encoding is only
    faithful under the beta-set closure condition).
    """
    if t < 2:
        raise ValueError(f"modulus must be >= 2, got {t}")
    bs = beta_set(p)
    if not abacus_is_t_core(bs, t):
        raise ValueError(f"{p!r} has a hook of length {t}; not encodable mod {t}")
    counts = [0] * (t - 1)
    for x in bs:
        counts[x % t - 1] += 1
    return ResidueVector(t, tuple(counts))


def beta_of_vector(v: ResidueVector) -> frozenset[int]:
    """The beta-set a residue vector encodes."""
    t = v.modulus
    return frozenset(
        j * t + i for i, n in enumerate(v.counts, start=1) for j in range(n)
    )


def core_of_vector(v: ResidueVector) -> Partition:
    """Decode a residue vector back to its t-core partition."""
    return partition_of_beta(beta_of_vector(v))


def size_of_vector(v: ResidueVector) -> int:
    """Size of the encoded partition, without materializing it.

    Class i contributes elements i, t+i, ..., summing to i*n_i + t*C(n_i, 2);
    subtracting C(total, 2) turns the beta-set sum into the partition size.
    """
    t = v.modulus
    total = sum(i * n + t * comb(n, 2) for i, n in enumerate(v.counts, start=1))
    return total - comb(v.total, 2)


def separated_support(v: ResidueVector) -> bool:
    """True iff no two adjacent entries are both nonzero.

    These are precisely the vectors that encode cores with distinct parts.
    """
    return all(a == 0 or b == 0 for a, b in pairwise(v.counts))


def iter_core_vectors(t: int, max_size: int) -> Iterator[ResidueVector]:
    """Every residue vector whose encoded partition has size <= ``max_size``."""
    if t < 2:
        raise ValueError(f"modulus must be >= 2, got {t}")
    if max_size < 0:
        raise ValueError(f"max_size must be >= 0, got {max_size}")
    for _, counts, _ in _walk_cores(t, max_size, False):
        yield ResidueVector(t, counts)
