"""Exact integer arithmetic: primality, sieves, prime powers, roots, binomials.

Every routine here is deterministic and exact.  Floating point may be used to
seed an iteration but never decides a result.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from operator import index

import numpy as np

from .errors import ResourceLimitError, UsageError

#: inclusive cap for values reported by the checked binomial helpers
U63_MAX = 2**63 - 1

#: default sieve budget, counted in table entries
DEFAULT_SIEVE_ENTRIES = 1 << 28

BINOM_OK = "ok"
BINOM_ZERO = "zero"
BINOM_OVERFLOW = "overflow"

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Deterministic Miller-Rabin witness set, correct for every n < 2^64.
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def is_prime(n: int) -> bool:
    """Exact primality for 0 <= n < 2^64 via fixed-witness Miller-Rabin."""
    n = index(n)
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimePower:
    """n = p**a with p prime and a >= 1."""

    p: int
    a: int
    value: int


@dataclass(frozen=True)
class PrimeTable:
    """Sieve products up to ``limit``: prime list, spf table, prime mask."""

    limit: int
    primes: np.ndarray      # ascending, dtype int64
    spf: np.ndarray         # spf[n] = smallest prime factor of n, n in [2, limit]
    prime_mask: np.ndarray  # bool, prime_mask[n] iff n prime

    @property
    def prime_count(self) -> int:
        return int(self.primes.size)

    def contains_prime(self, n: int) -> bool:
        if not 0 <= n <= self.limit:
            raise UsageError(f"{n} outside sieve range [0, {self.limit}]")
        return bool(self.prime_mask[n])

    def factorize(self, n: int) -> dict[int, int]:
        """Prime -> exponent map by walking the spf chain.  Needs 1 <= n <= limit."""
        if not 1 <= n <= self.limit:
            raise UsageError(f"{n} outside sieve range [1, {self.limit}]")
        out: dict[int, int] = {}
        spf = self.spf
        while n > 1:
            p = int(spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
        return out


def build_sieve(limit: int, max_entries: int = DEFAULT_SIEVE_ENTRIES) -> PrimeTable:
    """Smallest-prime-factor sieve over [2, limit]."""
    if limit < 2:
        raise UsageError("sieve limit must be >= 2")
    if limit + 1 > max_entries:
        raise ResourceLimitError(
            f"sieve of {limit + 1} entries exceeds the budget of {max_entries}"
        )
    dtype = np.uint32 if limit < 2**32 else np.uint64
    spf = np.zeros(limit + 1, dtype=dtype)
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == 0:
            sl = spf[p * p :: p]
            sl[sl == 0] = p
    # Composites are now marked with their least factor; the zero entries
    # from 2 on are exactly the primes.
    mask = spf == 0
    mask[:2] = False
    primes = np.flatnonzero(mask).astype(np.int64)
    spf[primes] = primes
    return PrimeTable(limit=limit, primes=primes, spf=spf, prime_mask=mask)


def prime_powers_upto(limit: int, table: PrimeTable) -> list[PrimePower]:
    """All p**a <= limit with a >= 1, ascending by value."""
    if limit > table.limit:
        raise UsageError("prime table too small for requested limit")
    out: list[PrimePower] = []
    cut = int(np.searchsorted(table.primes, limit, side="right"))
    for p in table.primes[:cut].tolist():
        v, a = p, 1
        while v <= limit:
            out.append(PrimePower(p, a, v))
            v *= p
            a += 1
    out.sort(key=lambda pp: pp.value)
    return out


def integer_root(n: int, e: int) -> tuple[int, bool]:
    """(floor(n ** (1/e)), exact?) computed purely in integers."""
    if n < 0:
        raise UsageError("integer_root needs n >= 0")
    if e < 2:
        raise UsageError("integer_root needs e >= 2")
    if n == 0:
        return 0, True
    if e == 2:
        r = isqrt(n)
        return r, r * r == n
    # Integer Newton iteration from a power-of-two overestimate.
    r = 1 << ((n.bit_length() + e - 1) // e)
    while True:
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            break
        r = s
    while r**e > n:
        r -= 1
    return r, r**e == n


def binomial_status(n: int, i: int) -> tuple[str, int | None]:
    """C(n, i) capped at 2^63-1.

    Returns (BINOM_OK, value), (BINOM_ZERO, None) when i > n, or
    (BINOM_OVERFLOW, None) once the exact value exceeds the cap.  The two
    empty outcomes are deliberately distinct.
    """
    if n < 0 or i < 1:
        raise UsageError("binomial_status needs n >= 0 and i >= 1")
    if i > n:
        return BINOM_ZERO, None
    i = min(i, n - i)
    value = 1
    # After step t the partial product equals C(n-i+t, t); those ascend to
    # C(n, i), so the first partial above the cap proves overflow.
    for t in range(1, i + 1):
        value = value * (n - i + t) // t
        if value > U63_MAX:
            return BINOM_OVERFLOW, None
    return BINOM_OK, value


def binomial_checked(n: int, i: int) -> int | None:
    """C(n, i) when it is positive and fits in 63 bits, else None."""
    status, value = binomial_status(n, i)
    return value if status == BINOM_OK else None


def prime_power_decompose(n: int) -> PrimePower | None:
    """Write n = p**a if possible.  None for n <= 1 and for mixed composites."""
    if n <= 1:
        return None
    for d in _SMALL_PRIMES:
        if n % d == 0:
            value = n
            a = 0
            while n % d == 0:
                n //= d
                a += 1
            return PrimePower(d, a, value) if n == 1 else None
    if is_prime(n):
        return PrimePower(n, 1, n)
    # No factor <= 37, so a nontrivial power has base >= 41 and exponent
    # <= log_41(2^64) < 13; prime exponents cover the rest via recursion.
    for e in (2, 3, 5, 7, 11):
        if 41**e > n:
            break
        r, exact = integer_root(n, e)
        if exact:
            inner = prime_power_decompose(r)
            if inner is not None:
                return PrimePower(inner.p, inner.a * e, n)
            return None
    return None


def powerful_class(n: int, t: int, table: PrimeTable) -> bool:
    """True iff every prime exponent of n is >= t (t=2 square-full, t=3 cube-full).

    n = 1 counts vacuously.  Beyond the table the check strips primes up to
    n^(1/3) by trial division, which pins the unfactored remainder down to a
    prime, a prime square, or a product of two distinct primes.
    """
    if t not in (2, 3):
        raise UsageError("powerful_class supports t = 2 or 3")
    if n < 1:
        raise UsageError("powerful_class needs n >= 1")
    if n == 1:
        return True
    if n <= table.limit:
        for e in table.factorize(n).values():
            if e < t:
                return False
        return True
    root3, _ = integer_root(n, 3)
    if table.limit < root3:
        raise UsageError("prime table too small to classify this value")
    m = n
    cut = int(np.searchsorted(table.primes, root3, side="right"))
    for p in table.primes[:cut].tolist():
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e < t:
                return False
    if m == 1:
        return True
    if is_prime(m):
        return False
    r, exact = integer_root(m, 2)
    if exact and is_prime(r):
        return t == 2
    return False
