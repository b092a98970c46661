"""Arithmetic kernel against independent oracles.

The oracles here are deliberately dumb: trial division, math.comb, and
exhaustive factorization.  Anything the kernel computes cleverly must agree
with them on every checked input.
"""
from __future__ import annotations

from math import comb, gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figprimes import (
    PrimePower,
    UsageError,
    binomial_checked,
    binomial_status,
    build_sieve,
    integer_root,
    is_prime,
    powerful_class,
    prime_power_decompose,
    prime_powers_upto,
)
from figprimes.intkernel import BINOM_OK, BINOM_OVERFLOW, BINOM_ZERO, U63_MAX


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
        assert table.prime_count == len(expected)
        for n in range(limit + 1):
            assert bool(table.prime_mask[n]) == flags[n]

    def test_factorize_matches_trial_division(self):
        table = build_sieve(3000)
        for n in range(2, 3001):
            assert table.factorize(n) == trial_factorize(n), n

    def test_factorize_of_one_is_empty(self):
        assert build_sieve(10).factorize(1) == {}

    def test_contains_prime_range_checked(self):
        table = build_sieve(100)
        with pytest.raises(UsageError):
            table.contains_prime(101)

    def test_limit_below_two_rejected(self):
        with pytest.raises(UsageError):
            build_sieve(1)


class TestPrimePowers:
    def test_matches_factorization_oracle(self):
        limit = 5000
        table = build_sieve(limit)
        expected = [
            n for n in range(2, limit + 1) if len(trial_factorize(n)) == 1
        ]
        got = prime_powers_upto(limit, table)
        assert [pp.value for pp in got] == expected
        for pp in got:
            assert pp.p ** pp.a == pp.value
            assert trial_division_prime(pp.p)

    def test_values_ascend(self):
        table = build_sieve(10**4)
        vals = [pp.value for pp in prime_powers_upto(10**4, table)]
        assert vals == sorted(vals)

    def test_table_too_small_rejected(self):
        with pytest.raises(UsageError):
            prime_powers_upto(1000, build_sieve(100))


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
    def test_agrees_with_comb_small(self):
        for n in range(0, 200):
            for i in range(1, n + 2):
                status, value = binomial_status(n, i)
                if i > n:
                    assert status == BINOM_ZERO and value is None
                elif comb(n, i) <= U63_MAX:
                    assert status == BINOM_OK and value == comb(n, i)
                else:
                    assert status == BINOM_OVERFLOW and value is None

    def test_overflow_boundary_central(self):
        assert binomial_checked(66, 33) == comb(66, 33)  # largest central fit
        assert binomial_status(68, 34) == (BINOM_OVERFLOW, None)

    def test_overflow_large_argument(self):
        assert binomial_checked(10**9, 2) == comb(10**9, 2)
        assert binomial_status(2**40, 2) == (BINOM_OVERFLOW, None)

    def test_symmetry_reduction(self):
        assert binomial_checked(100, 98) == comb(100, 98)
        assert binomial_checked(2**62, 2**62 - 1) == 2**62

    def test_edge_cases(self):
        assert binomial_checked(5, 5) == 1
        assert binomial_checked(1, 1) == 1
        assert binomial_status(0, 1) == (BINOM_ZERO, None)
        with pytest.raises(UsageError):
            binomial_status(5, 0)
        with pytest.raises(UsageError):
            binomial_status(-1, 1)

    def test_difference_identity_and_gcd(self):
        # 2*(C(n,2) - 1) = (n+1)(n-2), whose factors share at most a 3
        for n in range(2, 2001):
            assert 2 * (binomial_checked(n, 2) - 1) == (n + 1) * (n - 2)
            assert gcd(n + 1, n - 2) in (1, 3)

    @given(st.integers(min_value=0, max_value=3000), st.integers(min_value=1, max_value=3100))
    @settings(max_examples=300, deadline=None)
    def test_matches_comb_property(self, n, i):
        status, value = binomial_status(n, i)
        if i > n:
            assert (status, value) == (BINOM_ZERO, None)
        elif comb(n, i) <= U63_MAX:
            assert (status, value) == (BINOM_OK, comb(n, i))
        else:
            assert (status, value) == (BINOM_OVERFLOW, None)


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

    def test_large_prime_powers_with_composite_exponent(self):
        # exponent 6 = 2*3 resolves through the recursive root path
        assert prime_power_decompose(101**6) == PrimePower(101, 6, 101**6)
        assert prime_power_decompose(41**10) == PrimePower(41, 10, 41**10)


class TestPowerfulClass:
    def test_matches_factorization_oracle(self):
        table = build_sieve(5000)
        for n in range(1, 5001):
            f = trial_factorize(n)
            for t in (2, 3):
                expected = all(e >= t for e in f.values())
                assert powerful_class(n, t, table) == expected, (n, t)

    def test_cubefull_implies_squarefull(self):
        table = build_sieve(10**5)
        for n in range(1, 10**5 + 1, 7):
            if powerful_class(n, 3, table):
                assert powerful_class(n, 2, table)

    def test_beyond_table_paths(self):
        table = build_sieve(10**4)
        assert powerful_class(2**3 * 3**2 * 5**4, 2, table)
        assert powerful_class(9800 * 9801, 2, table)
        assert not powerful_class(9800 * 9801, 3, table)
        big_prime = 99991  # cube root of its square stays within the table
        assert not powerful_class(big_prime, 2, table)
        assert powerful_class(big_prime**2, 2, table)
        assert not powerful_class(big_prime**2, 3, table)
        assert not powerful_class(10007 * 10037, 2, table)

    def test_one_is_vacuously_powerful(self):
        table = build_sieve(10)
        assert powerful_class(1, 2, table)
        assert powerful_class(1, 3, table)

    def test_guards(self):
        table = build_sieve(1000)
        with pytest.raises(UsageError):
            powerful_class(10, 4, table)
        with pytest.raises(UsageError):
            powerful_class(0, 2, table)
        with pytest.raises(UsageError):
            powerful_class(10**10 + 19, 2, table)  # needs primes past the table
