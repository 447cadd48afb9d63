"""Coefficient series counting distinct-part partitions that avoid hook t.

Three routes are kept side by side on purpose:

* :func:`distinct_core_series` evaluates the eq2 sum: it walks the residue
  vectors with separated support (the faithful encoding of the objects
  being counted) and adds one at each vector's size,
* :func:`distinct_core_series_closed` expands explicit exponent formulas
  that exist for t = 2, 3, 4,
* :func:`distinct_core_series_brute` filters raw partitions by hook lengths.

Agreement of all three is one of the acceptance gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt
from typing import Iterator

from .cores import enumerate_partitions, is_core
from .report import CheckReport
from .residues import ResidueVector, _walk_core_vectors

SERIES_LIMIT_CAP = 1_000_000
BRUTE_FORCE_CAP = 80


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
    return (ResidueVector(t, counts) for counts, _ in _walk_core_vectors(t, limit, True))


def distinct_core_series(t: int, limit: int) -> CoefficientSeries:
    """Count, per size, the distinct-part partitions avoiding hook t."""
    _check_args(t, limit)
    coeffs = [0] * (limit + 1)
    for _, size in _walk_core_vectors(t, limit, True):
        coeffs[size] += 1
    return CoefficientSeries(tuple(coeffs), t=t)


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
        add_all(comb(n + 1, 2) for n in _naturals())
    elif t == 3:
        add_all(n * n for n in _naturals(1))
        add_all(n * (n + 1) for n in _naturals())
    else:
        add_all(n * (3 * n + 1) // 2 for n in _naturals(1))
        # quadratic form is positive definite; the rectangle below overshoots
        # every exponent <= limit
        reach = isqrt(2 * limit) + 3
        for n in range(reach):
            for m in range(reach):
                e = (n * (3 * n - 1) + 3 * m * (m + 1) - 2 * m * n) // 2
                if e <= limit:
                    coeffs[e] += 1
    return CoefficientSeries(tuple(coeffs), t=t)


def _naturals(start: int = 0) -> Iterator[int]:
    n = start
    while True:
        yield n
        n += 1


def distinct_core_series_brute(
    t: int, limit: int, *, cap: int = BRUTE_FORCE_CAP
) -> CoefficientSeries:
    """Ground truth by direct filtering of partitions, hook length by hook length."""
    _check_args(t, limit)
    if limit > cap:
        raise ValueError(f"brute-force series capped at limit {cap}, got {limit}")
    forbidden = frozenset({t})
    coeffs = tuple(
        sum(1 for p in enumerate_partitions(n, distinct_only=True) if is_core(p, forbidden))
        for n in range(limit + 1)
    )
    return CoefficientSeries(coeffs, t=t)


def compare_series(a: CoefficientSeries, b: CoefficientSeries) -> CheckReport:
    """Coefficient-wise comparison; the report carries the first divergence."""
    if a.limit != b.limit:
        raise ValueError(f"limit mismatch: {a.limit} vs {b.limit}")
    params = {"t_a": a.t, "t_b": b.t, "limit": a.limit}
    for n, (x, y) in enumerate(zip(a.coeffs, b.coeffs)):
        if x != y:
            return CheckReport(
                check="series.compare",
                params=params,
                status="fail",
                detail=f"first divergence at n={n}: {x} vs {y}",
            )
    return CheckReport(check="series.compare", params=params, status="pass")
