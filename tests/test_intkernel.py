"""Arithmetic kernel against independent oracles.

The oracles here are deliberately dumb: trial division, math.comb, and
exhaustive factorization.  Anything the kernel computes cleverly must agree
with them on every checked input.
"""
from __future__ import annotations

import json
import os
import tracemalloc
from dataclasses import asdict
from math import comb, factorial, gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import isprime, nextprime, perfect_power

from figprimes import (
    ArithmeticGuardError,
    EquationInstance,
    PrimePower,
    ResourceLimitError,
    UsageError,
    build_sieve,
    consecutive_powerful_pairs,
    cubic_model,
    diff_cubefull_search,
    emit_samples,
    enumerate_p_minus1_triangular,
    figurate_stats,
    generate_figurate,
    integer_root,
    is_prime,
    map_solution,
    pell_family,
    power_of_two_gap_report,
    prime_gap_report,
    prime_power_decompose,
    prime_powers_upto,
    quartic_model,
    search_integral_points,
    special_family_checks,
    twin_figurate,
)
from figprimes import intkernel
from figprimes.intkernel import (
    U63_MAX,
    binomial_arg,
    prime_power_decompose_many,
)


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def trial_factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def eager_spf_sieve(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Eager smallest-prime-factor sieve, primes read off its zeros: the oracle
    for ``build_sieve``.

    Returns ``(primes, prime_mask)``.
    """
    spf = np.zeros(limit + 1, dtype=np.uint32)
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == 0:
            sl = spf[p * p :: p]
            sl[sl == 0] = p
    mask = spf == 0
    mask[:2] = False
    primes = np.flatnonzero(mask).astype(np.int64)
    return primes, mask


def slice_sieve(limit: int) -> np.ndarray:
    """The unsegmented sieve over one mask, each prime up to sqrt(limit)
    clearing its multiples with one slice: the oracle for the segments and
    the wheel of ``build_sieve``.  Returns the prime mask."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def argsort_prime_powers(limit: int, primes: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every row p**a concatenated and ordered by one stable argsort over all
    of them: the oracle for the merge in ``prime_powers_upto``."""
    primes = primes[: int(np.searchsorted(primes, limit, side="right"))]
    rows = [primes]
    while True:
        row = rows[-1]
        cut = int(np.count_nonzero(row <= limit // primes[: row.size]))
        if not cut:
            break
        rows.append(row[:cut] * primes[:cut])
    values = np.concatenate(rows)
    bases = np.concatenate([primes[: row.size] for row in rows])
    exponents = np.repeat(
        np.arange(1, len(rows) + 1, dtype=np.int64), [row.size for row in rows]
    )
    order = np.argsort(values, kind="stable")
    return values[order], bases[order], exponents[order]


def assert_sieve_agrees(limit: int, primes: np.ndarray, mask: np.ndarray) -> None:
    """build_sieve(limit) against the oracle's primes and mask up to 3e6,
    cut to the limit (primality does not depend on the limit)."""
    table = build_sieve(limit)
    count = int(np.searchsorted(primes, limit, side="right"))
    assert table.limit == limit
    assert table.primes.dtype == np.int64 and table.prime_mask.dtype == bool
    assert np.array_equal(table.primes, primes[:count]), limit
    assert np.array_equal(table.prime_mask, mask[: limit + 1]), limit


@pytest.fixture(scope="module")
def spf3e6():
    return eager_spf_sieve(3 * 10**6)


class TestIsPrime:
    def test_agrees_with_trial_division_on_initial_range(self):
        for n in range(0, 20000):
            assert is_prime(n) == trial_division_prime(n), n

    def test_agrees_with_trial_division_sampled_to_1e5(self):
        for n in range(2, 10**5, 97):
            assert is_prime(n) == trial_division_prime(n), n

    def test_known_strong_pseudoprimes_rejected(self):
        # composites that defeat common small witness sets
        for n in (3215031751, 3474749660383, 341550071728321, 3825123056546413051):
            assert not is_prime(n), n

    def test_large_primes_accepted(self):
        for n in (2**31 - 1, 2**61 - 1, 18446744073709551557, np.int64(97)):
            assert is_prime(n), n

    def test_64bit_boundary_composites(self):
        assert not is_prime(2**64 - 1)
        assert not is_prime((2**31 - 1) ** 2)
        # the witness set is deterministic only below 2^64
        with pytest.raises(ArithmeticGuardError):
            is_prime(2**64)


class TestSieve:
    def test_primes_match_eratosthenes(self):
        limit = 10**4
        flags = [True] * (limit + 1)
        flags[0] = flags[1] = False
        for p in range(2, isqrt(limit) + 1):
            if flags[p]:
                for m in range(p * p, limit + 1, p):
                    flags[m] = False
        expected = [n for n in range(limit + 1) if flags[n]]
        table = build_sieve(limit)
        assert table.primes.tolist() == expected
        assert table.primes.size == len(expected)
        for n in range(limit + 1):
            assert bool(table.prime_mask[n]) == flags[n]

    @pytest.mark.parametrize(
        "limits", [range(2, 301), (9, 25, 961, 994009, 10**6)], ids=["2-300", "squares-1e6"]
    )
    def test_matches_eager_spf_oracle(self, limits):
        # 9, 25, 961 and 994009 are prime squares: the last sieving prime's
        # first multiple is the limit itself
        for limit in limits:
            primes, mask = eager_spf_sieve(limit)
            table = build_sieve(limit)
            assert table.primes.dtype == np.int64
            assert np.array_equal(table.primes, primes), limit
            assert np.array_equal(table.prime_mask, mask), limit

    def test_limit_below_two_rejected(self):
        with pytest.raises(UsageError):
            build_sieve(1)

    def test_budget_checked_before_allocation(self):
        # 2^28 + 1 entries: over the budget by one
        with pytest.raises(ResourceLimitError):
            build_sieve(1 << 28)


class TestSegmentedSieve:
    def test_small_limits_and_wheel_periods(self, spf3e6):
        # every limit to 400, and the ends of the first four wheel periods
        limits = list(range(2, 401))
        limits += [30030 * k + d for k in range(1, 5) for d in (-1, 0, 1)]
        for limit in limits:
            assert_sieve_agrees(limit, *spf3e6)

    def test_first_sieving_primes_and_segment_edges(self, spf3e6):
        # 17^2 and 19^2 are the first composites the wheel leaves; a segment
        # starts at odd index k * _SEGMENT, the value 2 * k * _SEGMENT + 1
        limits = [17**2 - 1, 17**2, 17**2 + 1, 19**2 - 1, 19**2, 19**2 + 1]
        for k in (1, 2):
            edge = 2 * k * intkernel._SEGMENT + 1
            limits += [edge - 2, edge - 1, edge, edge + 1, edge + 2]
        for limit in limits:
            assert_sieve_agrees(limit, *spf3e6)

    def test_largest_square_below_1e7(self):
        # 3162^2 = 9,998,244: the last sieving prime is 3137
        limit = 3162**2
        primes, mask = eager_spf_sieve(limit)
        assert_sieve_agrees(limit, primes, mask)

    def test_seeded_random_limits(self, spf3e6):
        rng = np.random.default_rng(2026)
        for limit in rng.integers(2, 3 * 10**6, size=30).tolist():
            assert_sieve_agrees(limit, *spf3e6)

    @pytest.mark.parametrize("segment", [1, 2, 7, 64, 1000])
    def test_narrow_segments(self, monkeypatch, spf3e6, segment):
        # many segments per sieve, so a prime's stride crosses many edges
        monkeypatch.setattr(intkernel, "_SEGMENT", segment)
        limits = [2, 3, 288, 289, 290, 30029, 30031]
        limits += [2 * k * segment + 1 + d for k in (1, 3, 17) for d in (-1, 0, 1)]
        for limit in limits:
            assert_sieve_agrees(max(limit, 2), *spf3e6)


class TestPrimePowers:
    def test_matches_factorization_oracle(self):
        table = build_sieve(5000)
        for limit in (1, 2, 3, 5000):
            expected = [
                n for n in range(2, limit + 1) if len(trial_factorize(n)) == 1
            ]
            values = prime_powers_upto(limit, table)
            assert values.dtype == np.int64
            assert values.tolist() == expected
            # the oracle's bases and exponents, which other tests read
            oracle = argsort_prime_powers(limit, table.primes)
            assert oracle[0].tolist() == expected
            for v, p, a in zip(*(column.tolist() for column in oracle)):
                assert p**a == v
                assert trial_division_prime(p)

    def test_values_ascend(self):
        table = build_sieve(10**4)
        vals = prime_powers_upto(10**4, table).tolist()
        assert vals == sorted(vals)

    def test_table_too_small_rejected(self):
        with pytest.raises(UsageError):
            prime_powers_upto(1000, build_sieve(100))

    def test_negative_limit_rejected(self):
        with pytest.raises(UsageError):
            prime_powers_upto(-1, build_sieve(100))

    def test_matches_argsort_construction(self, spf3e6):
        primes = spf3e6[0]
        table = build_sieve(3 * 10**6)
        limits = list(range(1, 1200)) + [10**5, 10**6, 3 * 10**6]
        # each side of every prime power p**a >= p**2 up to 10^6
        limits += [
            p**a + d
            for p in primes[primes <= 1000].tolist()
            for a in range(2, 20)
            if p**a <= 10**6
            for d in (-1, 0, 1)
        ]
        rng = np.random.default_rng(17)
        limits += rng.integers(2, 3 * 10**6, size=20).tolist()
        for limit in limits:
            got = prime_powers_upto(limit, table)
            assert got.dtype == np.int64
            assert np.array_equal(got, argsort_prime_powers(limit, primes)[0]), limit


class TestIntegerRoot:
    def test_bracketing_over_range(self):
        for n in range(0, 10**4):
            for e in (2, 3, 4):
                r, exact = integer_root(n, e)
                assert r**e <= n < (r + 1) ** e, (n, e)
                assert exact == (r**e == n)

    def test_bracketing_sampled_to_1e6(self):
        for n in range(0, 10**6, 9973):
            for e in (2, 3, 4):
                r, exact = integer_root(n, e)
                assert r**e <= n < (r + 1) ** e, (n, e)
                assert exact == (r**e == n)

    def test_exact_powers_round_trip(self):
        for base in (2, 3, 10, 41, 12345):
            for e in (2, 3, 5, 7):
                assert integer_root(base**e, e) == (base, True)
                assert integer_root(base**e + 1, e)[0] == base
                assert integer_root(base**e - 1, e)[0] == base - 1

    def test_huge_exponents_return_at_once(self):
        # Newton from r = 2 would build 2^(e - 1) here
        for e in (10**18, 2**63):
            for n in (1, 2, 10, U63_MAX, 2**200):
                assert integer_root(n, e) == (1, n == 1)

    def test_exponents_around_the_bit_length(self):
        def brute_root(n, e):
            r = 1
            while (r + 1) ** e <= n:
                r += 1
            return r, r**e == n

        rng = np.random.default_rng(61)
        ns = [1, 2, 3, 4, 7, 8, 9, 2**62, U63_MAX] + rng.integers(2, 2**62, size=40).tolist()
        for n in ns:
            bits = n.bit_length()
            for e in (bits - 1, bits, bits + 1):
                if e >= 2:
                    assert integer_root(n, e) == brute_root(n, e), (n, e)

    def test_rejects_bad_arguments(self):
        with pytest.raises(UsageError):
            integer_root(-1, 2)
        with pytest.raises(UsageError):
            integer_root(10, 1)

    @given(st.integers(min_value=0, max_value=2**64), st.integers(min_value=2, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_bracketing_property(self, n, e):
        r, exact = integer_root(n, e)
        assert r**e <= n < (r + 1) ** e
        assert exact == (r**e == n)


class TestBinomial:
    def test_difference_identity_and_gcd(self):
        # 2*(C(n,2) - 1) = (n+1)(n-2), whose factors share at most a 3
        for n in range(2, 2001):
            assert 2 * (comb(n, 2) - 1) == (n + 1) * (n - 2)
            assert gcd(n + 1, n - 2) in (1, 3)


def assert_binomial_arg(t: int, i: int) -> None:
    n, exact = binomial_arg(t, i)
    assert n >= i and comb(n, i) <= t < comb(n + 1, i), (t, i)
    assert exact == (comb(n, i) == t), (t, i)


def root_rule_binomial_arg(target: int, i: int) -> tuple[int, bool]:
    """The former start rule of ``binomial_arg``: walk up from max(r, i), r the
    integer i-th root of i! * target, or from i when i >= 64.  For n >= i,
    (n-i+1)^i <= i! * C(n, i) <= n^i, so the answer lies in [r, r + i - 1]."""
    if i == 1:
        return target, True
    n = max(integer_root(factorial(i) * target, i)[0], i) if i < 64 else i
    while comb(n + 1, i) <= target:
        n += 1
    return n, comb(n, i) == target


class TestBinomialArg:
    def test_matches_root_rule(self):
        pairs = [(t, i) for i in range(1, 13) for t in range(1, 3001)]
        rng = np.random.default_rng(9)
        for i in (2, 3, 4, 5, 10, 20, 33, 40, 60, 63, 64, 65, 70, 100, 10**5, 10**9):
            pairs += [(t, i) for t in rng.integers(1, U63_MAX, 200, endpoint=True).tolist()]
            for m in range(0, 3000, 97 if i <= 3 else 1):
                c = comb(i + m, i)
                if c + 1 > U63_MAX:
                    break
                pairs += [(t, i) for t in (c - 1, c, c + 1) if t >= 1]
        for t, i in pairs:
            assert binomial_arg(t, i) == root_rule_binomial_arg(t, i), (t, i)

    def test_targets_out_of_range(self):
        for i in (1, 2, 64, 10**9):
            with pytest.raises(ArithmeticGuardError):
                binomial_arg(U63_MAX + 1, i)
            # no n >= i has C(n, i) <= target below 1
            for t in (0, -5):
                with pytest.raises(UsageError):
                    binomial_arg(t, i)

    # C(n, 0) = 1 for every n, and C(n, i) has no meaning for i < 0
    @pytest.mark.parametrize("i", [0, -1])
    def test_index_below_one_rejected(self, i):
        with pytest.raises(UsageError):
            binomial_arg(5, i)

    def test_every_small_target(self):
        for i in range(1, 13):
            for t in range(1, 5001):
                assert_binomial_arg(t, i)

    # m = isqrt(2^63) for i = 2; for i = 3 and 33, C(m + 1, i) passes 2^63
    @pytest.mark.parametrize("i, m", [(2, 3_037_000_499), (3, 3_810_779), (33, 66)])
    def test_neighbours_near_2_63(self, i, m):
        assert comb(m, i) + 1 <= U63_MAX
        for t in (comb(m, i) - 1, comb(m, i), comb(m, i) + 1):
            assert_binomial_arg(t, i)
        assert binomial_arg(comb(m, i), i) == (m, True)
        assert binomial_arg(comb(m, i) - 1, i) == (m - 1, False)

    # indices around 64, where the former start rule stopped rooting i! * target
    @pytest.mark.parametrize("i", [*range(60, 71), 10**5, 10**9])
    def test_large_index(self, i):
        rng = np.random.default_rng(i)
        targets = [1, i, i + 1, U63_MAX, *rng.integers(1, U63_MAX, 20, endpoint=True).tolist()]
        m = 1
        while comb(i + m, i) + 1 <= U63_MAX:
            targets += [comb(i + m, i) - 1, comb(i + m, i), comb(i + m, i) + 1]
            m += 1
        for t in targets:
            assert_binomial_arg(t, i)

    @given(st.integers(min_value=1, max_value=U63_MAX), st.integers(min_value=1, max_value=40))
    @settings(max_examples=300, deadline=None)
    def test_bracketing_property(self, t, i):
        assert_binomial_arg(t, i)


class TestPrimePowerDecompose:
    def test_matches_factorization_oracle(self):
        for n in range(-3, 5000):
            d = prime_power_decompose(n)
            if n <= 1:
                assert d is None
                continue
            f = trial_factorize(n)
            if len(f) == 1:
                ((p, a),) = f.items()
                assert d == PrimePower(p, a, n)
            else:
                assert d is None

    def test_large_inputs(self):
        assert prime_power_decompose(2**62) == PrimePower(2, 62, 2**62)
        assert prime_power_decompose(3**39) == PrimePower(3, 39, 3**39)
        assert prime_power_decompose(2**61 - 1) == PrimePower(2**61 - 1, 1, 2**61 - 1)
        m31 = 2**31 - 1
        assert prime_power_decompose(m31**2) == PrimePower(m31, 2, m31**2)
        assert prime_power_decompose((10**9 + 7) * (10**9 + 9)) is None
        d = prime_power_decompose(np.int64(97))
        assert d == PrimePower(97, 1, 97)
        assert type(d.p) is type(d.value) is int
        with pytest.raises(ArithmeticGuardError):
            prime_power_decompose(2**64)

    def test_large_prime_powers_with_composite_exponent(self):
        # exponent 6 = 2*3 resolves through the recursive root path
        assert prime_power_decompose(101**6) == PrimePower(101, 6, 101**6)
        assert prime_power_decompose(41**10) == PrimePower(41, 10, 41**10)


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

STRONG_PSEUDOPRIMES = (
    2047, 3277, 4033, 4681, 8321, 1373653, 25326001, 3215031751,
    2152302898747, 3474749660383, 341550071728321, 3825123056546413051,
)

CARMICHAEL = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
    5394826801, 232250619601, 9746347772161,
)


def chernick_carmichael(count: int) -> list[int]:
    """(6k+1)(12k+1)(18k+1) with all three factors prime and above 37."""
    out, k = [], 7
    while len(out) < count:
        f = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(isprime(x) for x in f):
            out.append(f[0] * f[1] * f[2])
        k += 1
    return out


def max_exponent(p: int, cap: int) -> int:
    a = 1
    while p ** (a + 1) <= cap:
        a += 1
    return a


def assert_batch_agrees(values) -> None:
    """The batch decomposition equals the scalar one on every value."""
    values = [int(v) for v in values]
    arr = np.array(values, dtype=np.int64)
    bases, exps = prime_power_decompose_many(arr)
    assert bases.dtype == exps.dtype == np.int64
    got = list(zip(bases.tolist(), exps.tolist()))
    for v, pair in zip(values, got):
        d = prime_power_decompose(v)
        assert pair == ((d.p, d.a) if d is not None else (0, 0)), v


def sympy_decompose(n: int) -> tuple[int, int] | None:
    if isprime(n):
        return n, 1
    pp = perfect_power(n)
    return pp if pp and isprime(pp[0]) else None


class TestBatchAgainstScalar:
    def test_every_value_below_1e5(self):
        assert_batch_agrees(range(10**5))

    def test_blocks_split_anywhere(self, monkeypatch):
        # the same lanes cut into many blocks of an odd size
        monkeypatch.setattr(intkernel, "_BLOCK", 997)
        assert_batch_agrees(range(2 * 10**4))

    def test_seeded_random_below_2_50(self):
        rng = np.random.default_rng(2026)
        values = rng.integers(0, 2**50, size=20_000)
        odd_high = rng.integers(2**49, 2**50, size=20_000) | 1
        assert_batch_agrees(np.concatenate([values, odd_high]))

    def test_pseudoprimes_and_carmichael_numbers(self):
        chernick = chernick_carmichael(12)
        assert all(not is_prime(n) for n in chernick)
        assert_batch_agrees(STRONG_PSEUDOPRIMES + CARMICHAEL + tuple(chernick))

    def test_prime_powers_and_neighbours(self):
        # holds every row of the batch lookup table (each p**e <= 2^62 for
        # p <= 37) with its neighbours, and the first power of each p past 2^62
        powers = [p**a for p in SMALL_PRIMES for a in range(1, max_exponent(p, U63_MAX) + 1)]
        for p in (41, 43, 101, 1009, 65537, 2**31 - 1):
            powers += [p**a for a in range(1, max_exponent(p, U63_MAX) + 1)]
        powers += [41**9, 1009**5, 41**10, 101**6, 41**2 * 43, 1009**2 * 1013]
        values = {v + d for v in powers for d in (-1, 0, 1)}
        assert_batch_agrees(sorted(v for v in values if v <= U63_MAX))
        bases, exps = prime_power_decompose_many(np.array([41**9, 1009**5], dtype=np.int64))
        assert bases.tolist() == [41, 1009] and exps.tolist() == [9, 5]

    def test_scalar_fallback_above_2_50(self):
        near = [2**50 + d for d in range(-40, 41)]
        primes = [nextprime(2**50 + 10**6), nextprime(2**55), nextprime(2**62)]
        top = [2**63 - 1, 2**62, 3**39, 2**61 - 1, (2**31 - 1) ** 2, 3825123056546413051]
        assert_batch_agrees(near + primes + top)

    def test_zero_one_and_empty(self):
        assert_batch_agrees([0, 1, 2, 3, 4])
        assert_batch_agrees([-5, -2, -1])
        empty = np.zeros(0, dtype=np.int64)
        bases, exps = prime_power_decompose_many(empty)
        assert bases.shape == exps.shape == (0,)

    def test_rejects_non_vector(self):
        with pytest.raises(UsageError):
            prime_power_decompose_many(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(UsageError):
            prime_power_decompose_many(np.int64(7))

    def test_rejects_floats(self):
        # 2.5 used to be truncated to 2, a prime
        with pytest.raises(UsageError):
            prime_power_decompose_many([2.5])
        with pytest.raises(UsageError):
            prime_power_decompose_many(np.array([7.0]))

    def test_rejects_strings(self):
        # '7' used to be parsed as the prime 7
        with pytest.raises(UsageError):
            prime_power_decompose_many(["7"])

    def test_rejects_bools(self):
        with pytest.raises(UsageError):
            prime_power_decompose_many(np.array([True, False]))

    def test_python_int_past_63_bits(self):
        # a list holding 2^63 becomes a uint64 array; it used to overflow int64
        with pytest.raises(ArithmeticGuardError):
            prime_power_decompose_many([2**63])

    def test_uint64_primes_past_63_bits(self):
        # both are prime, and used to wrap negative into non-prime-powers
        for p in (2**63 + 29, 2**64 - 59):
            assert is_prime(p)
            with pytest.raises(ArithmeticGuardError):
                prime_power_decompose_many(np.array([3, p], dtype=np.uint64))

    def test_other_integer_dtypes(self):
        # unsigned and narrow lanes below 2^63 agree with the scalar
        values = [0, 1, 2, 4, 97, 127, 2**31 - 1, 2**61 - 1, U63_MAX]
        expected = prime_power_decompose_many(np.array(values, dtype=np.int64))
        for got in (prime_power_decompose_many(np.array(values, dtype=np.uint64)),
                    prime_power_decompose_many(values)):
            assert [a.tolist() for a in got] == [a.tolist() for a in expected]
        small = np.arange(128, dtype=np.int8)
        bases, exps = prime_power_decompose_many(small)
        assert bases.tolist() == prime_power_decompose_many(small.astype(np.int64))[0].tolist()
        assert exps.dtype == np.int64


def prime_power_strategy(cap: int):
    """p**a below cap for a prime p, with any exponent that fits."""
    return st.tuples(st.integers(2, 2**32), st.integers(1, 63)).map(
        lambda t: nextprime(t[0] - 1) ** min(t[1], max_exponent(nextprime(t[0] - 1), cap - 1))
    )


def u64_values(cap: int):
    return st.one_of(
        st.integers(0, cap - 1),
        st.integers(0, 10**6),
        prime_power_strategy(cap),
        st.integers(2**50 - 2**20, 2**50 + 2**20),
    )


class TestSympyOracle:
    @given(u64_values(2**64))
    @settings(max_examples=300, deadline=None)
    def test_is_prime(self, n):
        assert is_prime(n) == isprime(n)

    @given(u64_values(2**64))
    @settings(max_examples=300, deadline=None)
    def test_prime_power_decompose(self, n):
        d = prime_power_decompose(n)
        assert (None if d is None else (d.p, d.a)) == (sympy_decompose(n) if n >= 2 else None)

    @given(st.lists(u64_values(2**63), max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_batch_functions(self, values):
        arr = np.array(values, dtype=np.int64)
        bases, exps = prime_power_decompose_many(arr)
        expected = [sympy_decompose(v) if v >= 2 else None for v in values]
        assert list(zip(bases.tolist(), exps.tolist())) == [e or (0, 0) for e in expected]


def strong_probable_prime(n: int, a: int) -> bool:
    """One Miller-Rabin round to base a, on Python integers."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


WITNESS_BOUNDS = [bound for bound, _ in intkernel._WITNESS_SETS[:-1]]

#: the lane range of each witness set, and the long-double lanes
LANE_RANGES = list(zip([38] + WITNESS_BOUNDS, WITNESS_BOUNDS + [2**62])) + [(2**50, 2**62)]


def odd_lanes_without_small_factor(rng, lo: int, hi: int, size: int) -> list[int]:
    """Seeded odd values in [lo, hi) with no prime factor <= 37: the lanes
    that reach batch Miller-Rabin."""
    values = rng.integers(lo, hi, size=4 * size) | 1
    values = [v for v in values.tolist() if lo <= v < hi and all(v % p for p in SMALL_PRIMES)]
    return values[:size]


class TestWitnessSets:
    @pytest.mark.parametrize("bound", WITNESS_BOUNDS)
    def test_bounds_and_neighbours(self, bound):
        # each bound is a composite that passes its own set, so a block whose
        # largest lane is the bound must take the next set
        bases = dict(intkernel._WITNESS_SETS)[bound]
        assert not is_prime(bound)
        assert all(strong_probable_prime(bound, a) for a in bases)
        assert_batch_agrees(range(bound - 64, bound))       # this set
        assert_batch_agrees(range(bound - 64, bound + 1))   # the largest lane is the bound
        assert_batch_agrees(range(bound - 64, bound + 65))

    def test_every_base_2_strong_pseudoprime_below_1e6(self):
        primes, _ = eager_spf_sieve(10**6)
        prime = set(primes.tolist())
        pseudo = [n for n in range(3, 10**6, 2)
                  if n not in prime and strong_probable_prime(n, 2)]
        assert len(pseudo) == 46 and pseudo[:3] == [2047, 3277, 4033]
        assert_batch_agrees(pseudo)

    @pytest.mark.parametrize("lo, hi", LANE_RANGES)
    def test_seeded_random_lanes_per_set(self, lo, hi):
        rng = np.random.default_rng(lo % 1009)
        values = odd_lanes_without_small_factor(rng, lo, hi, 1500)
        assert_batch_agrees(values)
        _, exps = prime_power_decompose_many(np.array(values, dtype=np.int64))
        assert [e == 1 for e in exps.tolist()] == [isprime(v) for v in values]

    @staticmethod
    def spy_strong_test(monkeypatch) -> list[tuple[int, int, np.dtype]]:
        """(smallest lane, largest lane, quotient dtype) of every ``_strong_test`` call."""
        seen = []
        strong = intkernel._strong_test

        def spy(n, nf, d, s, a):
            seen.append((int(n.min()), int(n.max()), nf.dtype))
            return strong(n, nf, d, s, a)

        monkeypatch.setattr(intkernel, "_strong_test", spy)
        return seen

    def test_float64_blocks_stay_below_2_50(self, monkeypatch):
        # sorted lanes, so that blocks of 64 fall wholly below 2^50 or
        # reach past it, and both kinds of block occur
        seen = self.spy_strong_test(monkeypatch)
        monkeypatch.setattr(intkernel, "_BLOCK", 64)
        rng = np.random.default_rng(50)
        values = sorted(odd_lanes_without_small_factor(rng, 2**50 - 2**12, 2**50 + 2**12, 500))
        assert_batch_agrees(values)
        assert all(top < 2**50 for _, top, dtype in seen if dtype == np.float64)
        if intkernel._WIDE:
            assert {dtype for _, _, dtype in seen} == {np.dtype(np.float64), np.dtype(np.longdouble)}

    @pytest.mark.skipif(not intkernel._WIDE, reason="lanes from 2^50 up go scalar")
    def test_block_across_2_50_runs_long_double(self, monkeypatch):
        # one block with lanes on both sides of 2^50: its largest lane puts
        # all of them into long double, which is exact below 2^62
        seen = self.spy_strong_test(monkeypatch)
        rng = np.random.default_rng(51)
        below = odd_lanes_without_small_factor(rng, 2**50 - 2**12, 2**50, 100)
        above = odd_lanes_without_small_factor(rng, 2**50, 2**50 + 2**12, 100)
        values = [v for pair in zip(below, above) for v in pair]
        assert_batch_agrees(values)
        assert seen[0] == (min(below), max(above), np.dtype(np.longdouble))
        assert {dtype for _, _, dtype in seen} == {np.dtype(np.longdouble)}

    def test_lanes_past_a_2_50_ceiling_go_scalar(self, monkeypatch):
        # a long double without a 64-bit significand leaves the ceiling at 2^50
        seen = []
        block = intkernel._miller_rabin_block

        def spy(n):
            seen.extend(n.tolist())
            return block(n)

        monkeypatch.setattr(intkernel, "_LANE_LIMIT", 2**50)
        monkeypatch.setattr(intkernel, "_miller_rabin_block", spy)
        rng = np.random.default_rng(62)
        values = (odd_lanes_without_small_factor(rng, 2**49, 2**50, 200)
                  + odd_lanes_without_small_factor(rng, 2**50, 2**62, 200))
        assert_batch_agrees(values + [2**50 - 1, 2**50 + 1, 3**39, 2**62 - 1])
        assert seen and max(seen) < 2**50


def test_batch_peak_memory_near_outputs():
    """The batch holds temporaries for one block of ``_BLOCK`` lanes at a
    time, so over 10^6 lanes its traced peak stays within 1.5 times its two
    outputs (1.14 today); whole-array temporaries read 2.88."""
    values = np.arange(10**8, 10**8 + 10**6, dtype=np.int64)
    prime_power_decompose_many(values[:1000])  # first-call allocations stay out
    tracemalloc.start()
    try:
        bases, exps = prime_power_decompose_many(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (bases.nbytes + exps.nbytes), peak / (bases.nbytes + exps.nbytes)


def test_extended_batch_against_sieve_and_scalar():
    if os.environ.get("FIGPRIMES_EXTENDED") != "1":
        pytest.skip("set FIGPRIMES_EXTENDED=1 for the batch run to 10^8")
    limit = 10**8
    values, bases, exps = argsort_prime_powers(limit - 1, build_sieve(limit - 1).primes)
    for lo in range(0, limit, 10**6):
        n = np.arange(lo, lo + 10**6, dtype=np.int64)
        got_bases, got_exps = prime_power_decompose_many(n)
        rows = slice(*np.searchsorted(values, [lo, lo + 10**6]))
        want_bases, want_exps = np.zeros_like(n), np.zeros_like(n)
        want_bases[values[rows] - lo], want_exps[values[rows] - lo] = bases[rows], exps[rows]
        assert np.array_equal(got_bases, want_bases), lo
        assert np.array_equal(got_exps, want_exps), lo
    rng = np.random.default_rng(10**5)
    for lo, hi in LANE_RANGES:
        assert_batch_agrees(odd_lanes_without_small_factor(rng, lo, hi, 10**5))


def test_extended_sieve_at_the_budget():
    if os.environ.get("FIGPRIMES_EXTENDED") != "1":
        pytest.skip("set FIGPRIMES_EXTENDED=1 for the sieve at 2^28 - 1")
    limit = 2**28 - 1
    table = build_sieve(limit)
    assert table.primes.size == 14_630_843
    assert np.array_equal(table.primes, np.flatnonzero(table.prime_mask))
    mask = slice_sieve(limit)
    # compared in blocks, so that no third mask-sized array is made
    for lo in range(0, limit + 1, 1 << 24):
        assert np.array_equal(table.prime_mask[lo : lo + (1 << 24)], mask[lo : lo + (1 << 24)]), lo


@pytest.mark.parametrize("call, value", [
    pytest.param(build_sieve, 10, id="build_sieve"),
    pytest.param(generate_figurate, 10, id="generate_figurate"),
    pytest.param(twin_figurate, 10, id="twin_figurate"),
    pytest.param(lambda v: cubic_model(1, v), 10, id="cubic_model"),
    pytest.param(lambda v: quartic_model(-1, v), 10, id="quartic_model"),
    pytest.param(pell_family, 10, id="pell_family"),
    pytest.param(enumerate_p_minus1_triangular, 10, id="enumerate_p_minus1_triangular"),
    pytest.param(lambda v: integer_root(v, 3), 1000, id="integer_root"),
    pytest.param(lambda v: integer_root(1000, v), 3, id="integer_root-e"),
    pytest.param(lambda v: binomial_arg(v, 2), 10, id="binomial_arg"),
    pytest.param(lambda v: binomial_arg(10, v), 2, id="binomial_arg-i"),
    pytest.param(lambda v: prime_powers_upto(v, build_sieve(100)), 50, id="prime_powers_upto"),
    pytest.param(consecutive_powerful_pairs, 1000, id="consecutive_powerful_pairs"),
    pytest.param(lambda v: diff_cubefull_search(v, 1000), 1, id="diff_cubefull_search"),
    pytest.param(lambda v: diff_cubefull_search(1, v), 1000, id="diff_cubefull_search-limit"),
    pytest.param(lambda v: power_of_two_gap_report(v, 1000), 3, id="power_of_two_gap_report"),
    pytest.param(lambda v: power_of_two_gap_report(3, v), 1000,
                 id="power_of_two_gap_report-limit"),
    pytest.param(prime_gap_report, 10**4, id="prime_gap_report"),
    pytest.param(lambda v: prime_gap_report(10**4, v), 20, id="prime_gap_report-nmax"),
    pytest.param(lambda v: prime_gap_report(10**4, 20, v), 40, id="prime_gap_report-cap"),
    pytest.param(lambda v: search_integral_points(cubic_model(1, 1), v), 10,
                 id="search_integral_points"),
    pytest.param(lambda v: emit_samples(cubic_model(1, 1), v, 3), 0, id="emit_samples"),
    pytest.param(lambda v: emit_samples(cubic_model(1, 1), 0, v), 3, id="emit_samples-xhi"),
    pytest.param(lambda v: emit_samples(cubic_model(1, 1), 0, 3, v), 1, id="emit_samples-step"),
    pytest.param(special_family_checks, 10**6, id="special_family_checks"),
    pytest.param(lambda v: EquationInstance(v, 1, 1), 2, id="EquationInstance-i"),
    pytest.param(lambda v: EquationInstance(1, v, 1), 1, id="EquationInstance-j"),
    pytest.param(lambda v: EquationInstance(1, 1, v), 3, id="EquationInstance-k"),
    pytest.param(lambda v: map_solution(cubic_model(1, 1), v, 2), 1, id="map_solution-x"),
    pytest.param(lambda v: map_solution(cubic_model(1, 1), 1, v), 2, id="map_solution-y"),
])
def test_integer_arguments_only(call, value):
    """An entry point takes its integer arguments through ``operator.index``,
    as ``is_prime`` does: a float is refused at the door, and a numpy integer
    gives the result of the int it holds, with no numpy scalar in it (whose
    ``repr`` would differ)."""
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call(value + 0.5)
    assert repr(call(np.int64(value))) == repr(call(value))


def test_numpy_limit_leaves_no_numpy_in_the_record():
    rec = figurate_stats(generate_figurate(np.int64(100)))
    assert type(rec.limit) is int
    json.dumps(asdict(rec))
