"""Searches over powerful numbers: consecutive square-full pairs, the Pell
recurrence family, and cube-full constraints on pairs with a fixed gap.

A number is t-full when every prime in it carries exponent >= t; 1 counts
vacuously.  "Square-full" is t = 2, "cube-full" is t = 3.  Every search
takes its t-full numbers from one enumerator, ``_tfull_upto``: there are
only about c * N^(1/t) of them up to N, so nothing is indexed by value.

A gap pair A - B = d has A*B cube-full iff (1) A and B both lie in the
reach set R_d, the numbers whose part prime to d is cube-full, and (2) for
each prime p | d, A*B % p != 0 or A*B % p^3 == 0.  A prime q outside d
divides at most one of A and B (else it divides d), so its whole exponent
in A*B lies in one of them, and (1) says exactly that this exponent is 0 or
>= 3.  R_d is every d-smooth number times a cube-full number, since taking
primes out of a cube-full number leaves it cube-full.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import isqrt
from operator import index

from .errors import ResourceLimitError, UsageError
from .intkernel import DEFAULT_SIEVE_ENTRIES, U63_MAX, build_sieve, integer_root, is_prime

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
    pairs: list[PellPair]
    truncated: bool


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


def _tfull_upto(limit: int, t: int) -> list[int]:
    """Every t-full number up to limit >= 1, ascending, 1 included.

    The searches keep the sieve budget as their ceiling, though none sieves
    up to limit: with no ceiling, a square-full list up to 10^18 would not
    fit in memory.
    """
    if limit + 1 > DEFAULT_SIEVE_ENTRIES:
        raise ResourceLimitError(
            f"limit {limit} exceeds the ceiling of {DEFAULT_SIEVE_ENTRIES - 1}"
        )
    root = integer_root(limit, t)[0]
    primes = build_sieve(root).primes.tolist() if root >= 2 else []
    return sorted(_products_with_min_exp(primes, limit, t))


def consecutive_powerful_pairs(limit: int) -> list[DifferencePair]:
    """All (B + 1, B) with both members square-full and B + 1 <= limit.

    They are the adjacent entries of the square-full list that differ by 1;
    2 is not square-full, so B = 1 never pairs.
    """
    limit = index(limit)
    if limit < 9:
        raise UsageError("limit must be >= 9")
    full = _tfull_upto(limit, 2)
    return [DifferencePair(A, B, 1, 2) for B, A in zip(full, full[1:]) if A == B + 1]


def pell_family(count: int) -> PellFamily:
    """Pairs (u^2, 2*v^2) from u^2 - 2*v^2 = 1, via (u, v) -> (3u + 4v, 2u + 3v).

    Each pair is a consecutive square-full pair.  The family is truncated as
    soon as u^2 would leave the 63-bit envelope.
    """
    count = index(count)
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
    return PellFamily(pairs=pairs, truncated=truncated)


def _prime_factors(n: int) -> list[int]:
    """The distinct primes of n >= 1, ascending, by trial division up to isqrt(n)."""
    out = []
    for p in range(2, isqrt(n) + 1):
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
    if n > 1:
        out.append(n)
    return out


def _gap_pairs(
    d: int, limit: int, cubefull: list[int], reaches: dict | None = None
) -> list[DifferencePair]:
    """``diff_cubefull_search`` with ``cubefull`` every cube-full number up
    to limit, ascending.  R_d depends only on the distinct primes of d, so
    calls with one limit can share ``reaches``, which keeps each R_d by
    that prime set."""
    d_primes = _prime_factors(d)
    reaches = {} if reaches is None else reaches
    key = tuple(d_primes)
    if key not in reaches:
        reaches[key] = {
            m * c
            for m in _products_with_min_exp(d_primes, limit, 1)
            for c in cubefull[: bisect_right(cubefull, limit // m)]
        }
    reach = reaches[key]
    return [
        DifferencePair(B + d, B, d, 3)
        for B in sorted(B for B in reach if B + d in reach)
        if all((B + d) * B % p or (B + d) * B % p**3 == 0 for p in d_primes)
    ]


def diff_cubefull_search(d: int, limit: int) -> list[DifferencePair]:
    """All B with A = B + d <= limit and A*B cube-full, ascending by B.

    The pairs are the B with B and B + d in the reach set R_d that pass the
    exponent rule for d's primes (the criterion in the module docstring).
    Only d is factored.
    """
    d, limit = index(d), index(limit)
    if d < 1:
        raise UsageError("d must be >= 1")
    if limit <= d:
        raise UsageError("limit must exceed d")
    return _gap_pairs(d, limit, _tfull_upto(limit, 3))


@dataclass
class PowerGapRow:
    r: int
    d: int
    pairs: list[DifferencePair]
    expected: list[tuple[int, int]]  # (A, B)

    @property
    def matches(self) -> bool:
        return [(p.A, p.B) for p in self.pairs] == self.expected


def power_of_two_gap_report(rmax: int, limit: int) -> list[PowerGapRow]:
    """Check d = 2^r for r in [0, rmax]: no pair at r = 0, exactly the pair
    (2^(r+1), 2^r) for r >= 1."""
    rmax, limit = index(rmax), index(limit)
    if rmax < 0:
        raise UsageError("rmax must be >= 0")
    # 2^(rmax+1) > limit, read from the bit length so no rmax-bit integer is built
    if limit < 1 or rmax + 1 >= limit.bit_length():
        raise UsageError("limit too small to contain the expected pair at rmax")
    cubefull = _tfull_upto(limit, 3)
    reaches: dict = {}
    rows = []
    for r in range(rmax + 1):
        d = 2**r
        pairs = _gap_pairs(d, limit, cubefull, reaches)
        expected = [] if r == 0 else [(2 ** (r + 1), 2**r)]
        rows.append(PowerGapRow(r=r, d=d, pairs=pairs, expected=expected))
    return rows


@dataclass
class GapCountRow:
    d: int
    count: int
    first: tuple[int, int] | None  # (A, B)


@dataclass
class PrimeGapReport:
    rows: list[GapCountRow]          # every gap d = n in [2, nmax]
    least_empty: int | None          # least n in [2, search_cap] with no pair
    least_empty_prime: int | None    # least prime in that range with no pair


def prime_gap_report(limit: int, nmax: int = 28, search_cap: int = 64) -> PrimeGapReport:
    """Tabulate cube-full-product pairs for every gap n in [2, nmax] and find
    the least gap (and least prime gap) with no pair up to ``search_cap``."""
    limit, nmax, search_cap = index(limit), index(nmax), index(search_cap)
    if not 2 <= nmax <= search_cap:
        raise UsageError("need 2 <= nmax <= search_cap")
    if limit <= search_cap:
        raise UsageError("limit must exceed search_cap")
    cubefull = _tfull_upto(limit, 3)
    reaches: dict = {}
    rows: list[GapCountRow] = []
    least_empty = None
    least_empty_prime = None
    for n in range(2, search_cap + 1):
        pairs = _gap_pairs(n, limit, cubefull, reaches)
        if n <= nmax:
            first = (pairs[0].A, pairs[0].B) if pairs else None
            rows.append(GapCountRow(d=n, count=len(pairs), first=first))
        if not pairs:
            if least_empty is None:
                least_empty = n
            if least_empty_prime is None and is_prime(n):
                least_empty_prime = n
        if n >= nmax and least_empty_prime is not None:
            break
    return PrimeGapReport(rows, least_empty, least_empty_prime)
