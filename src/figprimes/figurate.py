"""Generation and membership for binomials of prime powers.

The working set is every positive value C(p**a, i) with p prime, a >= 1 and
1 <= i <= p**a.  The i = 1 stratum contributes all prime powers, so in
particular every prime is in the set.  C(m, m) = 1, so the value 1 belongs to
the set as well; callers can opt out of it.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import comb, isqrt
from operator import index

import numpy as np

from .errors import ResourceLimitError, UsageError
from .intkernel import (
    U63_MAX,
    PrimeTable,
    build_sieve,
    prime_power_decompose,
    prime_powers_upto,
)
from .reporting import int_lines

#: default membership bitmap budget, counted in entries
DEFAULT_BITMAP_ENTRIES = 1 << 28

#: canonical witness for the value 1: C(2**1, 2) = 1
ONE_WITNESS_ARGS = (1, 2, 1, 2)


@dataclass(frozen=True)
class FigurateWitness:
    """value = C(p**a, i).  Canonical: minimal i, then minimal p**a."""

    value: int
    p: int
    a: int
    i: int

    @property
    def base(self) -> int:
        return self.p**self.a


@dataclass(frozen=True)
class FigurateTable:
    """Membership structures for the set restricted to [1, limit].

    The table stores membership only; ``witness`` derives the canonical
    witness of a member on demand, through ``figurate_witness``.
    """

    limit: int
    include_one: bool
    values: np.ndarray          # ascending member values, dtype int64
    membership: np.ndarray      # bool, indexable by value
    prime_table: PrimeTable

    @property
    def count(self) -> int:
        return int(self.values.size)

    def contains(self, n: int) -> bool:
        if not 0 <= n <= self.limit:
            raise UsageError(f"{n} outside table range [0, {self.limit}]")
        return bool(self.membership[n])

    def witness(self, n: int) -> FigurateWitness | None:
        """Canonical witness for a member value, None for non-members."""
        return figurate_witness(n) if self.contains(n) else None


def generate_figurate(
    limit: int,
    include_one: bool = True,
    *,
    table: PrimeTable | None = None,
    max_entries: int = DEFAULT_BITMAP_ENTRIES,
) -> FigurateTable:
    """Enumerate all members up to ``limit``.

    Strata run over i: i = 1 contributes the prime powers, taken as one array
    from ``prime_powers_upto``; for i >= 2 only arguments m >= 2i matter since
    C(m, i) = C(m, m - i) and C(m, m) = 1 is handled by the include_one flag.
    Only membership is recorded; ``FigurateTable.witness`` finds witnesses.
    """
    if limit < 2:
        raise UsageError("generation limit must be >= 2")
    if limit > U63_MAX:
        raise UsageError("values are capped at 2^63 - 1")
    if limit + 1 > max_entries:
        raise ResourceLimitError(
            f"membership bitmap of {limit + 1} entries exceeds the budget of {max_entries}"
        )
    if table is None:
        table = build_sieve(limit)
    if table.limit < limit:
        raise UsageError("prime table too small for generation limit")

    prime_powers = prime_powers_upto(limit, table)[0]
    membership = np.zeros(limit + 1, dtype=bool)
    membership[prime_powers] = True

    # C(m, i) >= C(m, 2) > limit once m > isqrt(2 * limit) + 1, for every i >= 2
    cut = int(np.searchsorted(prime_powers, isqrt(2 * limit) + 2, side="right"))
    powers = prime_powers[:cut].tolist()
    i = 2
    while comb(2 * i, i) <= limit:
        for m in powers[bisect_left(powers, 2 * i) :]:
            v = comb(m, i)
            if v > limit:
                break
            membership[v] = True
        i += 1

    if include_one:
        membership[1] = True

    values = np.flatnonzero(membership).astype(np.int64)
    return FigurateTable(
        limit=limit,
        include_one=include_one,
        values=values,
        membership=membership,
        prime_table=table,
    )


def _binomial_arg(target: int, i: int) -> int | None:
    """The unique m >= 2i with C(m, i) = target, if it exists."""
    lo = 2 * i
    if comb(lo, i) > target:
        return None
    hi = lo
    while comb(hi, i) < target:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if comb(mid, i) < target:
            lo = mid + 1
        else:
            hi = mid
    return lo if comb(lo, i) == target else None


def figurate_witness(n: int) -> FigurateWitness | None:
    """Table-free canonical witness for n, None when n is not a member.

    Mirrors the table construction: try i = 1 (prime powers), then each
    stratum i >= 2 while C(2i, i) <= n.  C(m, i) is strictly increasing in m
    for m >= 2i, so each stratum has at most one candidate argument.
    """
    n = index(n)
    if n < 1:
        raise UsageError("figurate_witness needs n >= 1")
    if n == 1:
        return FigurateWitness(*ONE_WITNESS_ARGS)
    pp = prime_power_decompose(n)
    if pp is not None:
        return FigurateWitness(n, pp.p, pp.a, 1)
    i = 2
    while comb(2 * i, i) <= n:
        m = _binomial_arg(n, i)
        if m is not None:
            d = prime_power_decompose(m)
            if d is not None:
                return FigurateWitness(n, d.p, d.a, i)
        i += 1
    return None


@dataclass(frozen=True)
class StatsRecord:
    limit: int
    total: int
    primes: int
    composite_even: int
    composite_odd: int
    includes_one: bool
    density_vs_primes: float

    def as_rows(self) -> list[tuple[str, object]]:
        return [
            ("limit", self.limit),
            ("total", self.total),
            ("primes", self.primes),
            ("composite_even", self.composite_even),
            ("composite_odd", self.composite_odd),
            ("includes_one", self.includes_one),
            ("density_vs_primes", self.density_vs_primes),
        ]


def figurate_stats(table: FigurateTable) -> StatsRecord:
    """Count members by class and compare the density against the primes."""
    vals = table.values
    pm = table.prime_table.prime_mask[vals]
    ones = vals == 1
    comp = ~pm & ~ones
    primes = int(pm.sum())
    comp_even = int((comp & (vals % 2 == 0)).sum())
    comp_odd = int((comp & (vals % 2 == 1)).sum())
    return StatsRecord(
        limit=table.limit,
        total=table.count,
        primes=primes,
        composite_even=comp_even,
        composite_odd=comp_odd,
        includes_one=bool(ones.any()),
        density_vs_primes=table.count / primes,
    )


def twin_figurate(limit: int, table: FigurateTable | None = None) -> list[tuple[int, int]]:
    """All pairs (f, f + 2) of members with f + 2 <= limit, ascending."""
    if table is None:
        table = generate_figurate(limit)
    if table.limit < limit:
        raise UsageError("table limit below twin limit")
    vals = table.values[table.values + 2 <= limit]
    hits = vals[table.membership[vals + 2]]
    return [(f, f + 2) for f in hits.tolist()]


def write_values(table: FigurateTable, path: str) -> int:
    """Dump member values one per line.  Returns the number of lines.

    The text is the body ``render_csv`` writes for the values column.
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write(int_lines(table.values))
    return table.count
