"""Generation and membership for binomials of prime powers.

The working set is every positive value C(p**a, i) with p prime, a >= 1 and
1 <= i <= p**a.  The i = 1 stratum contributes all prime powers, so in
particular every prime is in the set.  C(m, m) = 1, so the value 1 belongs to
the set as well; callers can opt out of it.  The module answers in numbers
and arrays; writing them out, as a dump file or a report, is the CLI's part.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import comb, isqrt
from operator import index

import numpy as np

from .errors import UsageError
from .intkernel import (
    U63_MAX,
    PrimeTable,
    binomial_arg,
    build_sieve,
    prime_power_decompose,
    prime_powers_upto,
)

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
    """The set restricted to [1, limit]: its members, and the sieve they came from.

    The table's one array indexed by value is the sieve's ``prime_mask``; the
    members other than the primes are a few thousand up to 10**8, so a test
    of membership by value is a search in ``values``.  ``figurate_witness``
    derives the canonical witness of a member on demand, with no table.
    """

    limit: int
    values: np.ndarray          # ascending member values, dtype int64
    prime_table: PrimeTable

    @property
    def count(self) -> int:
        return int(self.values.size)


def generate_figurate(
    limit: int,
    include_one: bool = True,
    *,
    table: PrimeTable | None = None,
) -> FigurateTable:
    """Enumerate all members up to ``limit``.

    Strata run over i: i = 1 contributes the prime powers, taken as one array
    from ``prime_powers_upto``; for i >= 2 only arguments m >= 2i matter since
    C(m, i) = C(m, m - i) and C(m, m) = 1 is handled by the include_one flag.
    Only the ascending values are kept, with no bitmap of their own: the
    sieve's budget is the table's.  ``figurate_witness`` finds witnesses.
    """
    limit = index(limit)
    if limit < 2:
        raise UsageError("generation limit must be >= 2")
    if limit > U63_MAX:
        raise UsageError("values are capped at 2^63 - 1")
    if table is None:
        table = build_sieve(limit)
    if table.limit < limit:
        raise UsageError("prime table too small for generation limit")

    prime_powers = prime_powers_upto(limit, table)

    # C(m, i) >= C(m, 2) > limit once m > isqrt(2 * limit) + 1, for every i >= 2
    cut = int(np.searchsorted(prime_powers, isqrt(2 * limit) + 2, side="right"))
    powers = prime_powers[:cut].tolist()
    found = [1] if include_one else []
    i = 2
    while comb(2 * i, i) <= limit:
        for m in powers[bisect_left(powers, 2 * i) :]:
            v = comb(m, i)
            if v > limit:
                break
            found.append(v)
        i += 1

    # The other strata hold a few hundred values, merged into the prime
    # powers where ``searchsorted`` places them.  Neither they nor 1 is a
    # prime power: every prime power dividing C(m, i) is at most m (Kummer),
    # and C(m, i) >= C(m, 2) > m for 2 <= i <= m - 2.
    found = np.unique(np.array(found, dtype=np.int64))
    values = np.insert(prime_powers, np.searchsorted(prime_powers, found), found)
    return FigurateTable(limit=limit, values=values, prime_table=table)


def figurate_witness(n: int) -> FigurateWitness | None:
    """Table-free canonical witness for n, None when n is not a member.

    Mirrors the table construction: try i = 1 (prime powers), then each
    stratum i >= 2 while C(2i, i) <= n.  C(m, i) is strictly increasing in m
    for m >= i, so each stratum has at most one candidate argument, and it is
    at least 2i because C(2i, i) <= n.
    """
    n = index(n)
    if not 1 <= n <= U63_MAX:
        raise UsageError("figurate_witness needs 1 <= n <= 2^63 - 1")
    if n == 1:
        return FigurateWitness(*ONE_WITNESS_ARGS)
    pp = prime_power_decompose(n)
    if pp is not None:
        return FigurateWitness(n, pp.p, pp.a, 1)
    i = 2
    while comb(2 * i, i) <= n:
        m, exact = binomial_arg(n, i)
        if exact:
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


def twin_figurate(limit: int) -> np.ndarray:
    """All pairs (f, f + 2) of members with f + 2 <= limit, ascending, as the
    rows of an (n, 2) int64 array.  The members ascend and are distinct, so
    f + 2, if a member, is one of the next two."""
    v = generate_figurate(limit).values
    twin = np.zeros(v.size, dtype=bool)
    twin[:-1] = v[1:] == v[:-1] + 2
    twin[:-2] |= v[2:] == v[:-2] + 2
    f = v[twin]
    return np.column_stack((f, f + 2))
