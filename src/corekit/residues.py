"""Residue-class encoding of t-cores.

The beta-set of a t-core is a union of bottom-loaded residue classes: for
each residue i in 1..t-1 it contains exactly {i, t+i, ..., (n_i - 1)t + i}
for some count n_i >= 0 (residue 0 is impossible, since 0 is never a
beta-set element). Recording the counts (n_1, ..., n_{t-1}) is therefore a
bijective encoding of t-cores, and the partition size has the closed form
implemented by :func:`size_of_vector`. Distinct-part t-cores correspond
exactly to vectors whose support contains no two adjacent residues.

This module owns the encoding: :func:`_vector_of_beta` reads the counts
off a beta-set, the one place the residue indexing is written.
:func:`iter_core_vectors` applies it to the beta-set walk of
:mod:`corekit.cores`, which also enumerates (t1, t2)-cores and yields only
beta-sets and sizes; restricted to distinct parts, the same walk lists
:func:`corekit.series.iter_distinct_core_vectors`. The two routes of the
eq2 series in :mod:`corekit.series`, a walk over vector prefixes and a DP,
count the same vectors without listing them, and ``verify`` checks both
against the beta-set walk's census. :func:`size_of_vector` is the
independent check of the sizes the walk tracks.

``ResidueVector(...)`` validates its modulus and counts. The vectors read
off a beta-set are valid by construction, t - 1 counts >= 0 under a modulus
their callers have already checked, so :func:`_vector_of_beta` builds them
through :func:`_trusted_vector`, which skips that check. Likewise
:func:`core_of_vector` decodes the beta-set :func:`beta_of_vector` builds,
distinct positive ``int``s by construction, without ``check_beta``, and
:func:`residue_vector` tests the closure of a beta-set it has just built
without re-checking the modulus. ``verify``'s eta checks test them against
the hook scan's t-cores: ``eta.roundtrip`` decodes each encoded core back
to its partition, and ``eta.vector_roundtrip`` decodes every walked vector
and encodes the result again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from typing import Iterable, Iterator

from .cores import _closed_under, _walk_cores
from .partitions import Partition, _decode_beta, _require_ints, beta_set


@dataclass(frozen=True)
class ResidueVector:
    """Counts of beta-set elements per nonzero residue class mod ``modulus``."""

    modulus: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        _require_ints((self.modulus,), 2, "modulus must be >= 2")
        if len(self.counts) != self.modulus - 1:
            raise ValueError(
                f"need exactly {self.modulus - 1} counts for modulus "
                f"{self.modulus}, got {len(self.counts)}"
            )
        _require_ints(self.counts, 0, "counts must be nonnegative integers")

    @property
    def total(self) -> int:
        """Number of beta-set elements, i.e. number of parts of the encoded core."""
        return sum(self.counts)


def _trusted_vector(t: int, counts: tuple[int, ...]) -> ResidueVector:
    """A ResidueVector built without validation, for a modulus ``t >= 2``
    already checked and a tuple of t - 1 ``int``s >= 0 by construction.
    Everything from outside goes through ``ResidueVector(...)``, which
    validates."""
    v = object.__new__(ResidueVector)
    object.__setattr__(v, "modulus", t)
    object.__setattr__(v, "counts", counts)
    return v


def residue_vector(p: Partition, t: int) -> ResidueVector:
    """Encode the t-core ``p`` as its per-residue beta-set counts.

    Raises ValueError when ``p`` is not a t-core (the encoding is only
    faithful under the beta-set closure condition).
    """
    _require_ints((t,), 2, "modulus must be >= 2")
    bs = beta_set(p)
    if not _closed_under(bs, t):
        raise ValueError(f"{p!r} has a hook of length {t}; not encodable mod {t}")
    return _vector_of_beta(bs, t)


def _vector_of_beta(beta: Iterable[int], t: int) -> ResidueVector:
    """The residue vector of a t-core's beta-set: ``counts[i - 1]`` of its
    elements are congruent to i modulo t (none is a multiple of t)."""
    counts = [0] * (t - 1)
    for x in beta:
        counts[x % t - 1] += 1
    return _trusted_vector(t, tuple(counts))


def beta_of_vector(v: ResidueVector) -> frozenset[int]:
    """The beta-set a residue vector encodes."""
    t = v.modulus
    beta: set[int] = set()
    for i, n in enumerate(v.counts, start=1):
        if n:
            beta.update(range(i, i + n * t, t))
    return frozenset(beta)


def core_of_vector(v: ResidueVector) -> Partition:
    """Decode a residue vector back to its t-core partition.

    The beta-set :func:`beta_of_vector` builds holds distinct positive
    ``int``s by construction, so it is decoded without ``check_beta``."""
    return _decode_beta(beta_of_vector(v))


def size_of_vector(v: ResidueVector) -> int:
    """Size of the encoded partition, without materializing it.

    Class i contributes elements i, t+i, ..., summing to i*n_i + t*C(n_i, 2);
    subtracting C(k, 2), with k = n_1 + ... + n_{t-1} elements in all, turns
    the beta-set sum into the partition size.
    """
    t = v.modulus
    total = k = 0
    for i, n in enumerate(v.counts, start=1):
        k += n
        total += i * n + t * (n * (n - 1) // 2)
    return total - k * (k - 1) // 2


def separated_support(v: ResidueVector) -> bool:
    """True iff no two adjacent entries are both nonzero.

    These are precisely the vectors that encode cores with distinct parts.
    """
    return all(a == 0 or b == 0 for a, b in pairwise(v.counts))


def iter_core_vectors(t: int, max_size: int) -> Iterator[ResidueVector]:
    """Every residue vector whose encoded partition has size <= ``max_size``."""
    _require_ints((t,), 2, "modulus must be >= 2")
    _require_ints((max_size,), 0, "max_size must be >= 0")
    return (_vector_of_beta(beta, t) for beta, _ in _walk_cores(t, max_size, False))
