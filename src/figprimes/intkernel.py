"""Exact integer arithmetic: primality, sieves, prime powers, roots, binomial inverse.

Every routine here is deterministic and exact.  Floating point may be used to
seed an iteration but never decides a result.  ``binomial_arg`` starts its
exact walks from an lgamma estimate, and the batch function
``prime_power_decompose_many`` uses it twice: its Miller-Rabin
takes the quotient of a*b mod n from float64 for n <= 2^50 and from long
double with a 64-bit significand for n < 2^62, which is off from the true
quotient by less than 1/2, so wrapping 64-bit arithmetic and two unsigned
minimums make the residue exact (see ``_mulmod``); and it seeds integer
roots with a float64 power whose rounded value is then checked in integers.
Each batch block runs the smallest deterministic witness set its largest
lane allows.  Values from 2^62 up, and from 2^50 up where long double is
plain double, go to the scalar ``prime_power_decompose``, which uses Python
integers and the seven bases valid below 2^64 throughout.  Batch primality
is exponent 1 of that decomposition.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, exp, isqrt, lgamma, log, prod
from operator import index

import numpy as np

from .errors import ArithmeticGuardError, ResourceLimitError, UsageError

#: inclusive cap for every value the package computes with: values stay in 63 bits
U63_MAX = 2**63 - 1

#: budget of every table indexed by value (sieve, membership bitmap), in entries
DEFAULT_SIEVE_ENTRIES = 1 << 28

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Deterministic Miller-Rabin witness set, correct for every n < 2^64.
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_MR_LIMIT = 2**64

#: prime exponents of the perfect-power step; 41**13 > 2^64
_ROOT_EXPONENTS = (2, 3, 5, 7, 11)

#: batch Miller-Rabin takes its quotients in float64 below this bound (see ``_mulmod``)
_FLOAT_LIMIT = 2**50

#: long double holds a 64-bit significand (x86 extended precision), so batch
#: lanes from 2^50 up can take their quotients in it
_WIDE = np.finfo(np.longdouble).nmant >= 63

#: batch lanes run below this bound; values at or above it go to the scalar functions
_LANE_LIMIT = 2**62 if _WIDE else _FLOAT_LIMIT

#: (bound, bases): Miller-Rabin over the bases decides every n < bound (Jaeschke
#: 1993; Forisek and Jancina 2015).  Each bound is itself a strong pseudoprime to
#: its own bases, so the comparison is strict.
_WITNESS_SETS = (
    (4_759_123_141, (2, 7, 61)),
    (105_936_894_253, (2, 1_005_905_886, 1_340_600_841)),
    (31_858_317_218_647, (2, 642_735, 553_174_392, 3_046_413_974)),
    (3_071_837_692_357_849, (2, 75_088, 642_735, 203_659_041, 3_613_982_119)),
    (_MR_LIMIT, _MR_BASES),
)

#: lanes per batch Miller-Rabin block, which bounds its temporaries
_BLOCK = 1 << 14

#: odd entries per ``build_sieve`` segment; they span 1 MiB of the mask, which
#: stays inside a 2 MiB L2 cache
_SEGMENT = 1 << 19


def _factor_screen(primes: tuple[int, ...]) -> tuple[int, np.ndarray]:
    """(m, shares) for m the product of ``primes``: shares[r] tells whether r
    has one of them as a factor, so shares[v % m] tells it of v."""
    m = prod(primes)
    shares = np.zeros(m, dtype=bool)
    for p in primes:
        shares[::p] = True
    return m, shares


#: the primes <= 37 in three groups whose products index small tables
_FACTOR_SCREENS = tuple(map(_factor_screen, ((2, 3, 5, 7, 11, 13), (17, 19, 23), (29, 31, 37))))

#: the wheel of ``build_sieve``: its primes, and over one period 2*3*5*7*11*13
#: = 30,030 whether a number is prime to all of them
_WHEEL_PRIMES = _SMALL_PRIMES[:6]
_WHEEL = ~_factor_screen(_WHEEL_PRIMES)[1]

#: every p**e <= 2^62 for p <= 37 as aligned (values, bases, exponents), ascending
#: by value; the last row is 2^62 itself, so no lane below 2^62 looks past the end
_SMALL_POWERS = tuple(
    np.array(column, dtype=np.int64)
    for column in zip(*sorted(
        (p**e, p, e) for p in _SMALL_PRIMES for e in range(1, 63) if p**e <= 2**62
    ))
)


def _check_exact(n: int) -> None:
    if n >= _MR_LIMIT:
        raise ArithmeticGuardError(
            f"{n} is not below 2^64, where the Miller-Rabin witness set is deterministic"
        )


def is_prime(n: int) -> bool:
    """Exact primality for n < 2^64 via fixed-witness Miller-Rabin.

    Raises ArithmeticGuardError for n >= 2^64, where the witness set is no
    longer known to be deterministic.
    """
    n = index(n)
    _check_exact(n)
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
    """Sieve products up to ``limit``: prime list and prime mask."""

    limit: int
    primes: np.ndarray      # ascending, dtype int64
    prime_mask: np.ndarray  # bool, prime_mask[n] iff n prime


def build_sieve(limit: int) -> PrimeTable:
    """Segmented wheel sieve of Eratosthenes over [2, limit] into a boolean prime mask.

    The mask starts as copies of the 30,030-entry pattern of the numbers
    prime to 2*3*5*7*11*13, with those six primes set.  What is left to
    clear are 1 and the odd composites whose least prime factor p is 17 or
    more, so only the odd entries, the view ``mask[1::2]``, are sieved: each
    p up to sqrt(limit), taken from a sieve to sqrt(limit), clears every
    p-th odd entry from p*p on, one segment of ``_SEGMENT`` odd entries at a
    time, so that the entries a segment's slices write stay in cache (Bays
    and Hudson, BIT 17 (1977)).  ``primes`` is read off the odd view, with
    no full-size copy.  The budget is checked before anything is allocated.
    """
    if limit < 2:
        raise UsageError("sieve limit must be >= 2")
    if limit + 1 > DEFAULT_SIEVE_ENTRIES:
        raise ResourceLimitError(
            f"sieve of {limit + 1} entries exceeds the budget of {DEFAULT_SIEVE_ENTRIES}"
        )
    mask = np.resize(_WHEEL, limit + 1)
    mask[[p for p in _WHEEL_PRIMES if p <= limit]] = True
    odd = mask[1::2]  # odd[t] is the entry of 2t + 1
    root = isqrt(limit)
    if root >= 17:
        steps = build_sieve(root).primes[len(_WHEEL_PRIMES):].tolist()
        starts = [p * p // 2 for p in steps]  # odd index of p*p, ascending
        active = 0
        for lo in range(0, odd.size, _SEGMENT):
            hi = min(lo + _SEGMENT, odd.size)
            while active < len(steps) and starts[active] < hi:
                active += 1
            for k in range(active):
                p, t = steps[k], starts[k]
                odd[t:hi:p] = False
                starts[k] = t + (hi - t + p - 1) // p * p
    # odd index 0 is the entry of 1, which the wheel left set: set it for the
    # read, where its index becomes the prime 2, then clear it for good
    odd[0] = True
    primes = odd.nonzero()[0].astype(np.int64, copy=False)
    odd[0] = False
    primes *= 2
    primes += 1
    primes[0] = 2
    return PrimeTable(limit=limit, primes=primes, prime_mask=mask)


def prime_powers_upto(
    limit: int, table: PrimeTable
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All p**a <= limit with a >= 1, as aligned int64 arrays ascending by value.

    Returns ``(values, bases, exponents)`` with ``values == bases**exponents``.
    Row a of the construction holds p**a for a prefix of the primes: p**a * p
    grows with p, so the primes that still fit one more factor are a prefix of
    the previous row, and the rows a >= 2 take only the primes p with
    p * p <= limit.  Those rows are few (about 500 values at 10^7): they alone
    are sorted, then inserted into the primes where ``searchsorted`` places
    them.  Prime powers are distinct, so the order is exact.
    """
    if limit > table.limit:
        raise UsageError("prime table too small for requested limit")
    if limit < 0:
        raise UsageError("prime_powers_upto needs a limit >= 0")
    primes = table.primes[: int(np.searchsorted(table.primes, limit, side="right"))]
    small = primes[: int(np.searchsorted(primes, isqrt(limit), side="right"))]
    rows = [small]
    while True:
        row = rows[-1]
        cut = int(np.count_nonzero(row <= limit // small[: row.size]))
        if not cut:
            break
        rows.append(row[:cut] * small[:cut])
    higher = rows[1:] or [small[:0]]
    powers = np.concatenate(higher)
    order = np.argsort(powers)
    powers = powers[order]
    bases = np.concatenate([small[: row.size] for row in higher])[order]
    at = np.searchsorted(primes, powers)
    exponents = np.ones(primes.size + powers.size, dtype=np.int64)
    # each inserted value lands at its place among the primes plus the
    # number of inserted values before it
    exponents[at + np.arange(at.size)] = np.repeat(
        np.arange(2, len(higher) + 2, dtype=np.int64), [row.size for row in higher]
    )[order]
    return np.insert(primes, at, powers), np.insert(primes, at, bases), exponents


def integer_root(n: int, e: int) -> tuple[int, bool]:
    """(floor(n ** (1/e)), exact?) computed purely in integers."""
    if n < 0:
        raise UsageError("integer_root needs n >= 0")
    if e < 2:
        raise UsageError("integer_root needs e >= 2")
    if n == 0:
        return 0, True
    if e >= n.bit_length():  # 2^e > n >= 1
        return 1, n == 1
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


def binomial_arg(target: int, i: int) -> tuple[int, bool]:
    """(n, exact?) for the largest n >= i with C(n, i) <= target, 1 <= target < 2^63.

    C(m, i) increases with m >= i, so two exact walks decide from any start
    n >= i: down while C(n, i) > target, then up while C(n + 1, i) <= target.
    The start only sets their length.  It is n = i when target <= i, which is
    the answer there, since C(i + 1, i) = i + 1; otherwise it is
    max(i, floor((i! * target)^(1/i) + (i - 1)/2)) in floating point, as
    i! * C(n, i) = n(n-1)...(n-i+1) is close to (n - (i - 1)/2)^i.
    """
    if target > U63_MAX:
        raise ArithmeticGuardError("binomial_arg needs a target below 2^63")
    if target < 1:
        raise UsageError("binomial_arg needs a target >= 1")
    if i < 1:  # C(n, 0) = 1 for every n: no largest n
        raise UsageError("binomial_arg needs i >= 1")
    if i == 1:
        return target, True
    n = i if target <= i else max(i, int(exp((lgamma(i + 1) + log(target)) / i) + (i - 1) / 2))
    while n > i and comb(n, i) > target:
        n -= 1
    while comb(n + 1, i) <= target:
        n += 1
    return n, comb(n, i) == target


def prime_power_decompose(n: int) -> PrimePower | None:
    """Write n = p**a if possible.  None for n <= 1 and for mixed composites.

    Raises ArithmeticGuardError for n >= 2^64, like ``is_prime``.
    """
    n = index(n)
    _check_exact(n)
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
    return _power_root(n)


def _power_root(n: int) -> PrimePower | None:
    """n = p**a with a >= 2, for a composite n < 2^64 with no prime factor <= 37.

    Such a power has base >= 41 and exponent <= log_41(2^64) < 13; prime
    exponents cover the rest through the decomposition of the root.
    """
    for e in _ROOT_EXPONENTS:
        if 41**e > n:
            break
        r, exact = integer_root(n, e)
        if exact:
            inner = prime_power_decompose(r)
            if inner is not None:
                return PrimePower(inner.p, inner.a * e, n)
            return None
    return None


def _mulmod(a: np.ndarray, b: np.ndarray, n: np.ndarray, nf: np.ndarray) -> np.ndarray:
    """a*b mod n over uint64 lanes with a, b < n; nf is n in the quotient
    dtype: float64 for n <= 2^50, long double with a 64-bit significand for
    n < 2^62.  A squaring passes b = a and converts a once.

    Proof of exactness: a, b and n convert exactly, being below 2^53 for
    float64 and below 2^64 for the 64-bit significand.  With p = 53 or 64
    significand bits, the product and the quotient each round once, with
    relative error below u = 2^-p / (1 + 2^-p), and (1 + u)^2 - 1 < 2^(1-p),
    so the float quotient is within (ab/n) * 2^(1-p) of ab/n, and ab/n < n:
    within 2^50 * 2^-52 = 1/4 in float64 and 2^62 * 2^-63 = 1/2 in long
    double.  Its truncation q is therefore the true quotient Q = floor(ab/n)
    or off from it by one, and ab - q*n = (ab mod n) + (Q - q)*n lies in
    [-n, 2n), inside (-2^63, 2^63).  Computed in wrapping 64-bit arithmetic
    it is exact; read as uint64, min(r, r + n) lifts [-n, 0) into [0, n) and
    min(r, r - n) brings [n, 2n) down, each leaving the other lanes alone.
    """
    af = a.astype(nf.dtype)
    bf = af if b is a else b.astype(nf.dtype)
    r = a * b - (af * bf / nf).astype(np.int64).view(np.uint64) * n
    r = np.minimum(r, r + n)
    return np.minimum(r, r - n)


def _strong_test(
    n: np.ndarray, nf: np.ndarray, d: np.ndarray, s: np.ndarray, a: np.ndarray | None
) -> np.ndarray:
    """Lanes of odd n = d * 2^s + 1 that pass the strong test to base a, or
    to base 2 where ``a`` is None; nf is n in the quotient dtype of ``_mulmod``.

    Base 2 multiplies by doubling: 2x < 2n < 2^63, and min(2x, 2x - n) over
    uint64 reduces it.  Another base takes two bits of d per step: two
    squarings, then one product with a^0, a^1, a^2 or a^3, gathered per lane.
    A base that is 0 mod n passes, as in ``is_prime``.
    """
    # x = a^d mod n, left to right over the bits of d
    top = int(d.max()).bit_length()
    if a is None:
        x = np.ones(n.size, dtype=np.uint64)
        for bit in range(top - 1, -1, -1):
            x = _mulmod(x, x, n, nf)
            x <<= (d >> np.uint64(bit)) & np.uint64(1)
            x = np.minimum(x, x - n)
    else:
        # a^0, ..., a^3 side by side; each pair of bits of d picks one
        square = _mulmod(a, a, n, nf)
        powers = np.concatenate([np.ones_like(a), a, square, _mulmod(square, a, n, nf)])
        col = np.arange(n.size)
        bit = (top - 1) & ~1
        x = powers[(d >> np.uint64(bit)).astype(np.int64) * n.size + col]
        for bit in range(bit - 2, -1, -2):
            x = _mulmod(x, x, n, nf)
            x = _mulmod(x, x, n, nf)
            pair = ((d >> np.uint64(bit)) & np.uint64(3)).astype(np.int64)
            x = _mulmod(x, powers[pair * n.size + col], n, nf)
    n1 = n - np.uint64(1)
    passed = (x == 1) | (x == n1)
    if a is not None:
        passed |= a == 0
    # up to s - 1 squarings, looking for n - 1
    wait = np.flatnonzero(~passed & (s > 1))
    y = x[wait]
    for r in range(1, int(s.max())):
        if not wait.size:
            break
        y = _mulmod(y, y, n[wait], nf[wait])
        hit = y == n1[wait]
        passed[wait[hit]] = True
        go = ~hit & (s[wait] > r + 1)
        wait, y = wait[go], y[go]
    return passed


def _miller_rabin_block(n: np.ndarray, quotient: type) -> np.ndarray:
    """``is_prime``'s witness loop over int64 lanes: odd n in (37, 2^62) with
    no factor <= 37, all below 2^50 when ``quotient`` is float64.

    The block runs the first witness set of ``_WITNESS_SETS`` whose bound
    exceeds its largest lane.  Every set opens with base 2, which runs on
    every lane.  Few composites pass it, so the other bases of the set run
    together on the lanes that do, one stacked copy of those lanes per base.
    """
    top = int(n.max())
    _, *bases = next(bases for bound, bases in _WITNESS_SETS if top < bound)
    n = n.astype(np.uint64)
    nf = n.astype(quotient)
    n1 = n - np.uint64(1)
    # n - 1 = d * 2^s; the lowest set bit of n - 1 is a power of two, exact in
    # float64, and frexp reads its exponent off exactly
    s = np.frexp((n1 & (~n1 + np.uint64(1))).astype(np.float64))[1] - 1
    d = n1 >> s.astype(np.uint64)
    prime = _strong_test(n, nf, d, s, None)
    lanes = np.flatnonzero(prime)
    if lanes.size:
        stack = np.tile(lanes, len(bases))
        m = n[stack]
        a = np.repeat(np.array(bases, dtype=np.uint64), lanes.size) % m
        passed = _strong_test(m, nf[stack], d[stack], s[stack], a)
        prime[lanes] = passed.reshape(len(bases), lanes.size).all(axis=0)
    return prime


def _power_screen(n: np.ndarray) -> np.ndarray:
    """Lanes of n < 2^62 that are a perfect e-th power for an e in _ROOT_EXPONENTS.

    The float64 e-th root is within a few ulps of the true root, which is
    below 2^31, so it is off by far less than 1/2 and rounds to the exact
    root whenever there is one.  The rounded root r is at most n^(1/e) + 1/2,
    so r**e stays below 2^63 for every e (for e = 2, (2^31 + 1/2)^2 <
    2^62 + 2^32), and the int64 check r**e == n decides.
    """
    hit = np.zeros(n.size, dtype=bool)
    nf = n.astype(np.float64)
    for e in _ROOT_EXPONENTS:
        r = np.rint(nf ** (1.0 / e)).astype(np.int64)
        hit |= r**e == n
    return hit


def _miller_rabin_many(n: np.ndarray) -> np.ndarray:
    """Primality of int64 lanes n in (37, _LANE_LIMIT) with no factor <= 37.

    The lanes are sorted first, so each block spans a narrow range of values
    and runs the witness set its largest lane needs; blocks below 2^50 take
    float64 quotients and the rest long double, so no float64 block holds a
    lane at or above 2^50.
    """
    order = np.argsort(n)
    v = n[order]
    wide = int(np.searchsorted(v, _FLOAT_LIMIT))
    prime = np.zeros(n.size, dtype=bool)
    for lo, hi, quotient in ((0, wide, np.float64), (wide, v.size, np.longdouble)):
        for s in range(lo, hi, _BLOCK):
            t = min(s + _BLOCK, hi)
            prime[order[s:t]] = _miller_rabin_block(v[s:t], quotient)
    return prime


def prime_power_decompose_many(values) -> tuple[np.ndarray, np.ndarray]:
    """``prime_power_decompose`` over a one-dimensional integer array.

    Returns aligned int64 arrays ``(bases, exponents)`` with
    ``values == bases**exponents`` where the value is a prime power, and
    ``bases == exponents == 0`` where it is not.  A lane with a prime factor
    p <= 37 is a prime power exactly when it is a power of p, so one lookup in
    ``_SMALL_POWERS`` decides it; the lanes with no factor <= 37 run batch
    Miller-Rabin, and only the composite lanes whose float root screen finds
    an exact power reach the scalar ``_power_root``.  Values at or above
    ``_LANE_LIMIT`` (2^62, or 2^50 where long double is plain double) go
    through scalar ``prime_power_decompose``.  Other dtypes than integers (bool
    too) raise UsageError, and values from 2^63 up ArithmeticGuardError.
    """
    v = np.asarray(values)
    if v.ndim != 1 or v.dtype.kind not in "iu":
        raise UsageError("batch arithmetic needs a one-dimensional integer array")
    if v.dtype.kind == "u" and v.size and v.max() > U63_MAX:
        raise ArithmeticGuardError("batch values must not exceed 2^63 - 1")
    v = v.astype(np.int64, copy=False)
    bases = np.zeros(v.size, dtype=np.int64)
    exponents = np.zeros(v.size, dtype=np.int64)
    for lane in np.flatnonzero(v >= _LANE_LIMIT).tolist():
        d = prime_power_decompose(int(v[lane]))
        if d is not None:
            bases[lane], exponents[lane] = d.p, d.a
    small = (v >= 2) & (v < _LANE_LIMIT)
    divisible = np.zeros(v.size, dtype=bool)
    for m, shares in _FACTOR_SCREENS:
        divisible |= shares[v % m]
    lanes = np.flatnonzero(small & divisible)
    powers, power_bases, power_exponents = _SMALL_POWERS
    row = np.searchsorted(powers, v[lanes])
    found = powers[row] == v[lanes]
    lanes, row = lanes[found], row[found]
    bases[lanes], exponents[lanes] = power_bases[row], power_exponents[row]
    rest = np.flatnonzero(small & ~divisible)
    prime = _miller_rabin_many(v[rest])
    bases[rest[prime]], exponents[rest[prime]] = v[rest[prime]], 1
    composite = rest[~prime]
    for lane in composite[_power_screen(v[composite])].tolist():
        d = _power_root(int(v[lane]))
        if d is not None:
            bases[lane], exponents[lane] = d.p, d.a
    return bases, exponents
