"""Square-full pairs, the Pell family, and fixed-gap cube-full searches,
checked against a smallest-prime-factor oracle built in the test."""
from __future__ import annotations

from bisect import bisect_right
from math import isqrt

import pytest
from sympy import primefactors

from figprimes import (
    UsageError,
    consecutive_powerful_pairs,
    diff_cubefull_search,
    pell_family,
    power_of_two_gap_report,
    prime_gap_report,
)
from figprimes import powerful
from figprimes.powerful import DifferencePair, _tfull_upto

ORACLE_LIMIT = 3 * 10**4


@pytest.fixture(scope="module")
def spf():
    lst = list(range(ORACLE_LIMIT + 1))
    for p in range(2, isqrt(ORACLE_LIMIT) + 1):
        if lst[p] == p:
            for m in range(p * p, ORACLE_LIMIT + 1, p):
                if lst[m] == m:
                    lst[m] = p
    return lst


def factor(n: int, spf: list[int]) -> dict[int, int]:
    out: dict[int, int] = {}
    while n > 1:
        p = spf[n]
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out[p] = e
    return out


def merged_cubefull(A: int, B: int, spf: list[int]) -> bool:
    exps = factor(A, spf)
    for p, e in factor(B, spf).items():
        exps[p] = exps.get(p, 0) + e
    return all(e >= 3 for e in exps.values())


def oracle_gap_pairs(d: int, limit: int, spf: list[int]) -> list[tuple[int, int]]:
    return [
        (B + d, B)
        for B in range(1, limit - d + 1)
        if merged_cubefull(B + d, B, spf)
    ]


def reference_gap_pairs(d: int, limit: int, cubefull: list[int]) -> list[DifferencePair]:
    """The per-candidate gap search: candidates are d-smooth parts times
    cube-full parts up to limit - d; each has d's primes stripped from A and
    B, and A's cofactor is looked up among the cube-full numbers."""
    d_primes = powerful._prime_factors(d)
    top = limit - d
    candidates = sorted({
        m * c
        for m in powerful._products_with_min_exp(d_primes, top, 1)
        for c in cubefull[: bisect_right(cubefull, top // m)]
    })
    members = set(cubefull)
    out: list[DifferencePair] = []
    for B in candidates:
        A = B + d
        # B's part prime to d is its cube-full factor with d's primes taken
        # out, so it is cube-full already; only A's part needs the list
        a, b = A, B
        for p in d_primes:
            e = 0
            while a % p == 0:
                a //= p
                e += 1
            while b % p == 0:
                b //= p
                e += 1
            if e in (1, 2):
                break
        else:
            if a in members:
                out.append(DifferencePair(A, B, d, 3))
    return out


class TestSquarefullMask:
    """The t-full enumerator behind every search, square-full and cube-full."""

    def test_matches_factorization_oracle(self, spf):
        for t, limit in ((2, 10**4), (3, ORACLE_LIMIT)):
            got = _tfull_upto(limit, t)
            assert got == sorted(set(got)), t
            want = {
                n for n in range(1, limit + 1) if all(e >= t for e in factor(n, spf).values())
            }
            assert set(got) == want, t


class TestConsecutivePairs:
    def test_pairs_up_to_1e4(self):
        pairs = consecutive_powerful_pairs(10**4)
        assert [(p.A, p.B) for p in pairs] == [
            (9, 8), (289, 288), (676, 675), (9801, 9800),
        ]
        assert all(p.d == 1 and p.t == 2 for p in pairs)

    def test_matches_oracle(self, spf):
        got = [(p.A, p.B) for p in consecutive_powerful_pairs(ORACLE_LIMIT)]
        want = [
            (B + 1, B)
            for B in range(2, ORACLE_LIMIT)
            if all(e >= 2 for e in factor(B, spf).values())
            and all(e >= 2 for e in factor(B + 1, spf).values())
        ]
        assert got == want

    def test_consecutive_product_never_cubefull(self):
        # gap 1 admits square-full pairs but no cube-full product
        assert diff_cubefull_search(1, 10**5) == []

    def test_guard(self):
        with pytest.raises(UsageError):
            consecutive_powerful_pairs(8)


class TestPellFamily:
    def test_recurrence_and_forms(self):
        fam = pell_family(8)
        assert [(p.u, p.v) for p in fam.pairs[:3]] == [(3, 2), (17, 12), (99, 70)]
        for p in fam.pairs:
            assert p.u * p.u - 2 * p.v * p.v == 1
            assert p.A == p.u * p.u and p.B == 2 * p.v * p.v
            assert p.A - p.B == 1

    def test_first_three_pairs(self):
        fam = pell_family(3)
        assert [(p.A, p.B) for p in fam.pairs] == [(9, 8), (289, 288), (9801, 9800)]
        assert not fam.truncated

    def test_truncation_at_63_bits(self):
        assert len(pell_family(15).pairs) == 12
        assert pell_family(15).truncated
        assert not pell_family(12).truncated

    def test_pairs_are_consecutive_squarefull(self):
        fam = pell_family(3)
        consecutive = {(p.A, p.B) for p in consecutive_powerful_pairs(10**4)}
        assert {(p.A, p.B) for p in fam.pairs} <= consecutive
        # the family is not exhaustive: (676, 675) is square-full on both
        # sides yet 676 is an even square, not of the form u^2 with 2v^2 below
        assert (676, 675) in consecutive
        assert 676 not in {p.A for p in pell_family(12).pairs}

    def test_guard(self):
        with pytest.raises(UsageError):
            pell_family(0)


class TestDiffCubefull:
    # 9973 and 9998 = 2 * 4999 have a prime factor above sqrt(d)
    # 12, 30, 36 and 60 have two and three distinct primes
    @pytest.mark.parametrize(
        "d", [1, 2, 3, 4, 7, 8, 9, 12, 25, 26, 27, 30, 36, 60, 9973, 9998]
    )
    def test_matches_scan_oracle(self, spf, d):
        pairs = diff_cubefull_search(d, 10**4)
        assert [(p.A, p.B) for p in pairs] == oracle_gap_pairs(d, 10**4, spf)
        assert all(p.d == d and p.t == 3 for p in pairs)
        assert [p.B for p in pairs] == sorted(p.B for p in pairs)

    @pytest.mark.parametrize("limit", [10**6, 10**8])
    def test_matches_reference_search(self, limit):
        cubefull = _tfull_upto(limit, 3)
        for d in range(1, 65):
            want = reference_gap_pairs(d, limit, cubefull)
            assert powerful._gap_pairs(d, limit, cubefull) == want, d

    def test_shared_reach_sets(self):
        # the reports share R_d between gaps with one prime set: 2, 4, ..., 64
        # share R_2, 6, 12, 18, ... share R_6, and so on
        limit = 10**6
        cubefull = _tfull_upto(limit, 3)
        reaches: dict = {}
        for d in list(range(1, 65)) + [2**r for r in range(1, 20)]:
            want = reference_gap_pairs(d, limit, cubefull)
            assert powerful._gap_pairs(d, limit, cubefull, reaches) == want, d
        assert set(reaches) == {tuple(primefactors(d)) for d in range(1, 65)}

    def test_unit_B_is_admissible(self):
        assert (8, 1) in [(p.A, p.B) for p in diff_cubefull_search(7, 100)]
        assert (27, 1) in [(p.A, p.B) for p in diff_cubefull_search(26, 100)]

    def test_returned_pairs_revalidate(self, spf):
        for p in diff_cubefull_search(6, ORACLE_LIMIT):
            assert merged_cubefull(p.A, p.B, spf)

    def test_guards(self):
        with pytest.raises(UsageError):
            diff_cubefull_search(0, 100)
        with pytest.raises(UsageError):
            diff_cubefull_search(10, 10)


class TestPowerOfTwoGaps:
    def test_rows_match_expected_family(self):
        rows = power_of_two_gap_report(6, 31000)
        assert all(row.matches for row in rows)
        assert [(row.r, row.d) for row in rows] == [(r, 2**r) for r in range(7)]
        assert rows[0].pairs == []
        for row in rows[1:]:
            assert [(p.A, p.B) for p in row.pairs] == [(2 ** (row.r + 1), 2**row.r)]
            assert row.expected == [(2 ** (row.r + 1), 2**row.r)]

    def test_guards(self):
        with pytest.raises(UsageError):
            power_of_two_gap_report(-1, 100)
        with pytest.raises(UsageError):
            power_of_two_gap_report(10, 100)

    def test_guard_boundary_matches_power_rule(self, monkeypatch):
        # past the guard the report sieves to limit; stopping it there leaves
        # only where the guard falls, checked against 2^(rmax+1) > limit
        class PastGuard(Exception):
            pass

        def stop(*args):
            raise PastGuard

        monkeypatch.setattr(powerful, "_tfull_upto", stop)
        for r in range(63):
            for limit in (2 ** (r + 1) - 1, 2 ** (r + 1)):
                with pytest.raises(UsageError if 2 ** (r + 1) > limit else PastGuard):
                    power_of_two_gap_report(r, limit)
        for limit in (0, -1):
            with pytest.raises(UsageError, match="limit too small"):
                power_of_two_gap_report(0, limit)


class TestPrimeGaps:
    def test_report_at_1e5(self):
        rep = prime_gap_report(10**5)
        assert all(row.count > 0 for row in rep.rows)
        assert [row.d for row in rep.rows] == list(range(2, 29))
        assert rep.least_empty == 29
        assert rep.least_empty_prime == 29
        by_d = {row.d: row.first for row in rep.rows}
        assert by_d[2] == (4, 2)
        assert by_d[7] == (8, 1)
        assert by_d[25] == (2025, 2000)
        assert by_d[26] == (27, 1)

    def test_counts_match_oracle(self, spf):
        rep = prime_gap_report(10**4, nmax=10, search_cap=64)
        for row in rep.rows:
            assert row.count == len(oracle_gap_pairs(row.d, 10**4, spf)), row.d

    def test_guards(self):
        with pytest.raises(UsageError):
            prime_gap_report(10**5, nmax=1)
        with pytest.raises(UsageError):
            prime_gap_report(10**5, nmax=30, search_cap=29)
        with pytest.raises(UsageError):
            prime_gap_report(64, nmax=28, search_cap=64)
