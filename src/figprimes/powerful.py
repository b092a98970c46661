"""Searches over powerful numbers: consecutive square-full pairs, the Pell
recurrence family, and cube-full constraints on pairs with a fixed gap.

A number is t-full when every prime in it carries exponent >= t; 1 counts
vacuously.  "Square-full" is t = 2, "cube-full" is t = 3.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import ResourceLimitError, UsageError
from .intkernel import U63_MAX, PrimeTable, build_sieve, integer_root

#: default budget for the square-full bitmap, in entries
DEFAULT_MASK_ENTRIES = 1 << 28

#: fundamental solution of u^2 - 2*v^2 = 1
PELL_SEED = (3, 2)


@dataclass(frozen=True)
class DifferencePair:
    """A - B = d with the product A*B t-full."""

    A: int
    B: int
    d: int
    t: int


@dataclass(frozen=True)
class PellPair:
    u: int
    v: int
    A: int  # u**2
    B: int  # 2 * v**2


@dataclass
class PellFamily:
    requested: int
    pairs: list[PellPair]
    truncated: bool


def squarefull_mask(limit: int, max_entries: int = DEFAULT_MASK_ENTRIES) -> np.ndarray:
    """Boolean array marking square-full numbers; every such n is a^2 * b^3."""
    if limit < 1:
        raise UsageError("limit must be >= 1")
    if limit + 1 > max_entries:
        raise ResourceLimitError(
            f"square-full bitmap of {limit + 1} entries exceeds the budget of {max_entries}"
        )
    mask = np.zeros(limit + 1, dtype=bool)
    b = 1
    while b * b * b <= limit:
        cube = b * b * b
        amax = isqrt(limit // cube)
        squares = np.arange(1, amax + 1, dtype=np.int64) ** 2 * cube
        mask[squares] = True
        b += 1
    return mask


def consecutive_powerful_pairs(limit: int) -> list[DifferencePair]:
    """All (B + 1, B) with both members square-full and B + 1 <= limit."""
    if limit < 9:
        raise UsageError("limit must be >= 9")
    mask = squarefull_mask(limit)
    both = np.flatnonzero(mask[:-1] & mask[1:])
    return [DifferencePair(int(b) + 1, int(b), 1, 2) for b in both if b >= 2]


def pell_family(count: int) -> PellFamily:
    """Pairs (u^2, 2*v^2) from u^2 - 2*v^2 = 1, via (u, v) -> (3u + 4v, 2u + 3v).

    Each pair is a consecutive square-full pair.  The family is truncated as
    soon as u^2 would leave the 63-bit envelope.
    """
    if count < 1:
        raise UsageError("count must be >= 1")
    pairs: list[PellPair] = []
    u, v = PELL_SEED
    truncated = False
    while len(pairs) < count:
        if u * u > U63_MAX:
            truncated = True
            break
        pairs.append(PellPair(u, v, u * u, 2 * v * v))
        u, v = 3 * u + 4 * v, 2 * u + 3 * v
    return PellFamily(requested=count, pairs=pairs, truncated=truncated)


def _products_with_min_exp(primes: list[int], limit: int, min_exp: int) -> list[int]:
    """All products over ``primes`` with every exponent >= min_exp, up to limit."""
    out = [1]

    def extend(idx: int, value: int) -> None:
        for pos in range(idx, len(primes)):
            p = primes[pos]
            nxt = value * p**min_exp
            if nxt > limit:
                break
            while nxt <= limit:
                out.append(nxt)
                extend(pos + 1, nxt)
                nxt *= p

    extend(0, 1)
    return out


def _cubefull_upto(limit: int, table: PrimeTable) -> list[int]:
    """Every cube-full number up to limit, ascending; the table covers limit^(1/3)."""
    cut = int(np.searchsorted(table.primes, integer_root(limit, 3)[0], side="right"))
    return sorted(_products_with_min_exp(table.primes[:cut].tolist(), limit, 3))


def _merged_exponents_at_least(A: int, B: int, t: int, table: PrimeTable) -> bool:
    merged = table.factorize(A)
    for p, e in table.factorize(B).items():
        merged[p] = merged.get(p, 0) + e
    return all(e >= t for e in merged.values())


def diff_cubefull_search(
    d: int,
    limit: int,
    table: PrimeTable | None = None,
    cubefull: list[int] | None = None,
) -> list[DifferencePair]:
    """All B with A = B + d <= limit and A*B cube-full, ascending by B.

    Any prime q outside d cannot divide both A and B (it would divide d), so
    its full exponent in A*B sits in one factor and must already be >= 3
    there.  Hence every admissible B factors as a d-smooth part times a
    cube-full part, which cuts the candidate set far below a full range scan.
    Candidates are then validated on the merged factorizations of A and B;
    the product itself is never factored.
    """
    if d < 1:
        raise UsageError("d must be >= 1")
    if limit <= d:
        raise UsageError("limit must exceed d")
    if table is None or table.limit < limit:
        table = build_sieve(limit)
    if cubefull is None:
        cubefull = _cubefull_upto(limit, table)
    d_primes = sorted(table.factorize(d)) if d > 1 else []
    smooth = sorted(_products_with_min_exp(d_primes, limit, 1))
    candidates = sorted({m * c for m in smooth for c in cubefull if m * c <= limit})
    out: list[DifferencePair] = []
    for B in candidates:
        A = B + d
        if A <= limit and _merged_exponents_at_least(A, B, 3, table):
            out.append(DifferencePair(A, B, d, 3))
    return out


@dataclass
class PowerGapRow:
    r: int
    d: int
    pairs: list[DifferencePair]
    expected: list[tuple[int, int]]  # (A, B)

    @property
    def matches(self) -> bool:
        return [(p.A, p.B) for p in self.pairs] == self.expected


@dataclass
class PowerOfTwoGapReport:
    limit: int
    rmax: int
    rows: list[PowerGapRow]

    @property
    def consistent(self) -> bool:
        return all(row.matches for row in self.rows)


def power_of_two_gap_report(
    rmax: int, limit: int, table: PrimeTable | None = None
) -> PowerOfTwoGapReport:
    """Check d = 2^r for r in [0, rmax]: no pair at r = 0, exactly the pair
    (2^(r+1), 2^r) for r >= 1."""
    if rmax < 0:
        raise UsageError("rmax must be >= 0")
    if 2 ** (rmax + 1) > limit:
        raise UsageError("limit too small to contain the expected pair at rmax")
    if table is None or table.limit < limit:
        table = build_sieve(limit)
    cubefull = _cubefull_upto(limit, table)
    rows = []
    for r in range(rmax + 1):
        d = 2**r
        pairs = diff_cubefull_search(d, limit, table, cubefull)
        expected = [] if r == 0 else [(2 ** (r + 1), 2**r)]
        rows.append(PowerGapRow(r=r, d=d, pairs=pairs, expected=expected))
    return PowerOfTwoGapReport(limit=limit, rmax=rmax, rows=rows)


@dataclass
class GapCountRow:
    d: int
    count: int
    first: tuple[int, int] | None  # (A, B)


@dataclass
class PrimeGapReport:
    limit: int
    nmax: int
    search_cap: int
    rows: list[GapCountRow]          # every gap d = n in [2, nmax]
    least_empty: int | None          # least n in [2, search_cap] with no pair
    least_empty_prime: int | None    # least prime in that range with no pair

    @property
    def all_nonempty(self) -> bool:
        return all(row.count > 0 for row in self.rows)


def prime_gap_report(
    limit: int,
    nmax: int = 28,
    search_cap: int = 64,
    table: PrimeTable | None = None,
) -> PrimeGapReport:
    """Tabulate cube-full-product pairs for every gap n in [2, nmax] and find
    the least gap (and least prime gap) with no pair up to ``search_cap``."""
    if not 2 <= nmax <= search_cap:
        raise UsageError("need 2 <= nmax <= search_cap")
    if limit <= search_cap:
        raise UsageError("limit must exceed search_cap")
    if table is None or table.limit < limit:
        table = build_sieve(limit)
    cubefull = _cubefull_upto(limit, table)
    rows: list[GapCountRow] = []
    least_empty = None
    least_empty_prime = None
    for n in range(2, search_cap + 1):
        pairs = diff_cubefull_search(n, limit, table, cubefull)
        if n <= nmax:
            first = (pairs[0].A, pairs[0].B) if pairs else None
            rows.append(GapCountRow(d=n, count=len(pairs), first=first))
        if not pairs:
            if least_empty is None:
                least_empty = n
            if least_empty_prime is None and table.contains_prime(n):
                least_empty_prime = n
        if n >= nmax and least_empty_prime is not None:
            break
    return PrimeGapReport(
        limit=limit,
        nmax=nmax,
        search_cap=search_cap,
        rows=rows,
        least_empty=least_empty,
        least_empty_prime=least_empty_prime,
    )
