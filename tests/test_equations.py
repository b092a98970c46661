"""Equation solver against a subtraction-table oracle, plus catalog checks.

The oracle maps every admissible binomial value on each side into a dict and
intersects by direct subtraction; no inversion, no windows.  Published
solution sets appear here only through the shipped catalog file.
"""
from __future__ import annotations

import tracemalloc
from math import comb, isqrt

import numpy as np
import pytest
from sympy import isprime

from figprimes import (
    ArithmeticGuardError,
    EquationInstance,
    ResourceLimitError,
    UsageError,
    build_sieve,
    enumerate_p_minus1_triangular,
    is_prime,
    prime_power_decompose,
    solve_equation,
    special_family_checks,
    theorem_errata,
)
from figprimes.equations import _binomials, _pair_args, _walk, load_published_catalog
from figprimes.intkernel import U63_MAX, binomial_arg
from test_intkernel import argsort_prime_powers

CATALOG_INSTANCES = [
    (2, 1, 1), (3, 1, 1), (4, 1, 1),
    (2, 3, 1), (3, 2, 1), (2, 4, 1), (4, 2, 1),
    (2, 3, 2), (3, 2, 2), (2, 4, 2), (4, 2, 2),
]


def prime_power_values(cap: int, table) -> list[tuple[int, int, int]]:
    out = []
    for p in table.primes.tolist():
        if p > cap:
            break
        v, a = p, 1
        while v <= cap:
            out.append((v, p, a))
            v *= p
            a += 1
    return out


def oracle_solutions(i, j, k, bound, table):
    """All (p, q, a, b) with C(p^a,i) - C(q^b,j) = k and C(q^b,j) <= bound."""
    pps = prime_power_values(bound + k, table)
    left = {}
    for v, p, a in pps:
        if v >= i and (c := comb(v, i)) <= bound + k:
            left.setdefault(c, []).append((p, a))
    out = set()
    for v, q, b in pps:
        if v < j:
            continue
        c = comb(v, j)
        if c > bound:
            continue
        for p, a in left.get(c + k, []):
            out.add((p, q, a, b))
    return out


class TestSolveOracle:
    @pytest.mark.parametrize(
        "key",
        [(*key, 10**6) for key in CATALOG_INSTANCES + [(1, 1, 1), (2, 2, 1)]]
        + [(1, 1, k, 10**5) for k in range(1, 100, 2)]
        + [(*key, 10**6) for key in [(2, 2, 3), (3, 3, 6), (1, 2, 7), (1, 3, 2), (3, 1, 5)]]
        + [(1, 1, k, 10**5) for k in range(2, 40, 2)],
    )
    def test_agrees_with_subtraction_table(self, table1e6, key):
        i, j, k, bound = key
        sols = solve_equation(EquationInstance(i, j, k), bound)
        assert {s.pqab for s in sols} == oracle_solutions(i, j, k, bound, table1e6)

    def test_solutions_revalidate(self):
        for key in CATALOG_INSTANCES:
            inst = EquationInstance(*key)
            for s in solve_equation(inst, 10**8):
                assert comb(s.p**s.a, inst.i) == s.left
                assert comb(s.q**s.b, inst.j) == s.right
                assert s.left - s.right == inst.k
                assert is_prime(s.p) and is_prime(s.q)

    def test_output_sorted_by_right_then_left(self):
        for key in [(2, 1, 1), (1, 1, 1), (2, 3, 2), (1, 1, 2), (3, 2, 1), (2, 2, 3), (2, 4, 1)]:
            sols = solve_equation(EquationInstance(*key), 10**6)
            keys = [(s.right, s.left) for s in sols]
            assert keys == sorted(keys)

    def test_square_triangular_factorization(self):
        # k = 1, i = 2: 2*(C(n,2) - 1) factors as (n+1)(n-2)
        for s in solve_equation(EquationInstance(2, 1, 1), 10**10):
            v = s.p**s.a
            assert (v + 1) * (v - 2) == 2 * s.q**s.b

    def test_unit_instance_k1_is_catalan(self):
        # By Mihailescu's theorem (Catalan's conjecture) and the elementary
        # cases, p**a - q**b = 1 leaves only 9 - 8 and a power of two next to
        # a Mersenne or a Fermat prime; 3 - 2 is the Fermat prime 2 + 1.
        bound = 2**62
        expected = {(3, 2, 2, 3)}
        expected |= {(2, 2**e - 1, e, 1) for e in range(2, 63) if isprime(2**e - 1)}
        expected |= {(2**e + 1, 2, 1, e) for e in range(1, 63) if isprime(2**e + 1)}
        assert len(expected) == 15
        sols = solve_equation(EquationInstance(1, 1, 1), bound)
        assert {s.pqab for s in sols} == expected
        for s in sols:
            assert s.left - s.right == 1 and s.right <= bound

    def test_equal_indices_empty(self):
        assert solve_equation(EquationInstance(2, 2, 1), 10**9) == []

    @pytest.mark.parametrize("i", [2, 3, 4, 5])
    def test_equal_indices_against_small_brute_force(self, table1e6, i):
        # x > y >= i gives k >= C(x - 1, i - 1) >= x - 1, so both prime
        # powers of a solution lie at or below k + 1
        for k in range(1, 81):
            pps = prime_power_values(k + 1, table1e6)
            want = {
                (p, q, a, b)
                for x, p, a in pps
                for y, q, b in pps
                if y >= i and comb(x, i) - comb(y, i) == k
            }
            sols = solve_equation(EquationInstance(i, i, k), 10**9)
            assert {s.pqab for s in sols} == want, k

    def test_unit_instance_matches_small_scan(self, table1e6):
        sols = solve_equation(EquationInstance(1, 1, 2), 10**4)
        pairs = {s.pqab for s in sols}
        assert (5, 3, 1, 1) in pairs     # twin primes qualify
        assert (3, 2, 1, 1) not in pairs  # 3 - 2 = 1, wrong gap
        assert {s.pqab for s in sols} == oracle_solutions(1, 1, 2, 10**4, table1e6)
        # numpy integers give the same answer as Python ints
        assert solve_equation(EquationInstance(1, 1, np.int64(3)), np.int64(10**4)) == (
            solve_equation(EquationInstance(1, 1, 3), 10**4)
        )

    def test_guards(self):
        with pytest.raises(UsageError):
            EquationInstance(0, 1, 1)
        with pytest.raises(UsageError):
            EquationInstance(1, 1, 0)
        with pytest.raises(UsageError):
            solve_equation(EquationInstance(2, 1, 1), 0)
        with pytest.raises(UsageError):
            solve_equation(EquationInstance(2, 1, 1), 2**62 + 1)
        # an even-k unit walk needs a sieve up to the bound
        with pytest.raises(ResourceLimitError):
            solve_equation(EquationInstance(1, 1, 2), 3 * 10**8)
        # the minuend reaches value_bound + k, which must fit in 63 bits
        for k, bound in [(10**25 + 1, 100), (2**62 + 1, 2**62 - 1), (2**62, 2**62)]:
            for i in (1, 2):
                with pytest.raises(ArithmeticGuardError):
                    solve_equation(EquationInstance(i, 1, k), bound)
        solve_equation(EquationInstance(1, 1, 2**62 - 1), 2**62)  # sum 2^63 - 1
        with pytest.raises(ArithmeticGuardError):  # int64 addition would wrap
            solve_equation(EquationInstance(1, 1, np.int64(2**62 + 1)), 2**62 - 1)
        # so must the binomial indices
        for i, j in ((2**63, 1), (1, 2**63)):
            with pytest.raises(ArithmeticGuardError):
                solve_equation(EquationInstance(i, j, 1), 100)


class TestTriangularPredecessors:
    def test_least_ten_pairs(self):
        pairs = enumerate_p_minus1_triangular(10**4)
        assert pairs[:9] == [
            (2, 2), (11, 5), (79, 13), (137, 17), (821, 41),
            (1831, 61), (3917, 89), (4657, 97), (5051, 101),
        ]
        assert pairs[9] == (6329, 113)
        assert len(pairs) == 10

    def test_limit_ten(self):
        assert enumerate_p_minus1_triangular(10) == [(2, 2)]

    def test_limit_7000_contains_tail(self):
        assert (6329, 113) in enumerate_p_minus1_triangular(7000)

    def test_matches_direct_scan(self):
        limit = 10**5
        naive = []
        q = 2
        while q * (q - 1) // 2 + 1 <= limit:
            p = q * (q - 1) // 2 + 1
            if is_prime(q) and is_prime(p):
                naive.append((p, q))
            q += 1
        assert enumerate_p_minus1_triangular(limit) == naive

    def test_guard(self):
        with pytest.raises(UsageError):
            enumerate_p_minus1_triangular(1)
        # the solver's bound C(q, 2) <= 2^62 is the limit 2^62 + 1
        with pytest.raises(UsageError, match="limit"):
            enumerate_p_minus1_triangular(2**62 + 2)

    def test_batch_matches_scalar_walk_at_1e12(self):
        # the batch test against one scalar is_prime call per candidate
        limit = 10**12
        table = build_sieve(isqrt(2 * limit) + 2)
        walk, candidates = [], 0
        for q in table.primes.tolist():
            p = q * (q - 1) // 2 + 1
            if p > limit:
                break
            candidates += 1
            if is_prime(p):
                walk.append((p, q))
        assert candidates == 108_108
        assert len(walk) == 7_968
        assert enumerate_p_minus1_triangular(limit) == walk


class TestEvenUnitInstance:
    @pytest.mark.parametrize("k, count", [(2, 59_130), (30, 156_750)])
    def test_matches_prime_power_mask_at_1e7(self, k, count):
        # p**a = q**b + k read off a prime-power mask, with no decomposition
        bound = 10**7
        table = build_sieve(bound + k)
        values, bases, exps = argsort_prime_powers(bound + k, table.primes)
        mask = np.zeros(bound + k + 1, dtype=bool)
        mask[values] = True
        power = dict(zip(values.tolist(), zip(bases.tolist(), exps.tolist())))
        expected = set()
        for v in values[values <= bound].tolist():
            if mask[v + k]:
                (p, a), (q, b) = power[v + k], power[v]
                expected.add((p, q, a, b))
        sols = solve_equation(EquationInstance(1, 1, k), bound)
        assert len(sols) == count
        assert {s.pqab for s in sols} == expected


@pytest.mark.parametrize("i, j, k, bound, ratio", [
    (1, 1, 2, 10**6, 3.6),
    (1, 2, 1, 10**12, 3.6),
    (1, 1, 2, 10**7, 2.0),
])
def test_walk_peak_memory_near_sieve(i, j, k, bound, ratio):
    """The walk keeps one int64 value and one prime flag per walked prime
    power, cuts its targets as a suffix, lets the sieve go before the batch
    decomposition, and the batch holds temporaries for one block of lanes
    only: its traced peak stays within ``ratio`` times that of the sieve it
    builds (3.35, 3.36 and 1.65 today), which aligned base and exponent
    arrays, an index array of the kept targets or whole-array batch
    temporaries (3.93, 3.69 and 2.66) would exceed."""
    limit = binomial_arg(bound + k if i > j else bound, max(i, j))[0]
    _walk(i, j, k, 10**4)  # first-call allocations stay out
    tracemalloc.start()
    try:
        build_sieve(limit)
        sieve = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        _walk(i, j, k, bound)
        walk = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walk <= ratio * sieve, walk / sieve


def family_oracle(bound):
    """The three family sections by a scalar walk: one decomposition of
    C(q, 2) + 1 per prime q and of C(q**b, 3) + 1 per prime power q**b."""
    even, odd, tetra = [], [], []
    q = 2
    while comb(q, 2) + 1 <= bound:
        d = prime_power_decompose(comb(q, 2) + 1) if isprime(q) else None
        if d is not None and d.a % 2 == 0:
            even.append((d.p, d.a, q))
        elif d is not None and d.a in (3, 5, 7):
            odd.append((d.p, d.a, q))
        q += 1
    m = 3
    while comb(m, 3) + 1 <= bound:
        base = prime_power_decompose(m)
        d = prime_power_decompose(comb(m, 3) + 1) if base is not None else None
        if d is not None:
            tetra.append((d.p, base.p, d.a, base.a))
        m += 1
    return [even, odd, tetra]


class TestSpecialFamilies:
    @pytest.mark.parametrize("bound", [10**6, 10**6 + 1, 10**7, 10**8, 10**9])
    def test_matches_scalar_walk(self, bound):
        sections = special_family_checks(bound)
        assert [s.solutions for s in sections] == family_oracle(bound)

    def test_triangular_family_takes_prime_q_only(self):
        # 11**2 = C(2**4, 2) + 1 solves (1, 2, 1), but q**b = 16 is no prime
        sols = solve_equation(EquationInstance(1, 2, 1), 10**6 - 1)
        assert (11, 2, 2, 4) in {s.pqab for s in sols}
        first = special_family_checks(10**6)[0]
        assert (11, 2, 16) not in first.solutions

    def test_all_sections_match_expectations(self):
        sections = special_family_checks(10**9)
        assert all(s.matches for s in sections)
        by_name = {s.name: s for s in sections}
        assert by_name["square-plus-one-triangular"].solutions == [(2, 2, 3)]
        assert by_name["odd-exponent-triangular"].solutions == []
        assert set(by_name["power-plus-one-tetrahedral"].solutions) == {
            (2, 3, 1, 1), (5, 2, 1, 2), (11, 5, 1, 1),
        }

    def test_bound_guard(self):
        with pytest.raises(UsageError):
            special_family_checks(10**5)


class TestCatalog:
    def test_eleven_instances_loaded(self):
        catalog = load_published_catalog()
        assert set(catalog) == set(CATALOG_INSTANCES)

    def test_printed_sets_verbatim(self):
        catalog = load_published_catalog()
        assert catalog[(2, 1, 1)] == [(2, 5, 2, 1), (3, 2, 1, 1), (2, 3, 3, 3), (5, 3, 1, 2)]
        assert catalog[(3, 1, 1)] == [(2, 3, 2, 1), (3, 83, 2, 1), (5, 3, 1, 2)]
        assert catalog[(4, 1, 1)] == [(5, 2, 1, 2), (3, 5, 2, 3)]
        assert catalog[(2, 3, 1)] == [(3, 7, 2, 1)]
        assert catalog[(3, 2, 1)] == [(2, 3, 2, 1), (3, 7, 2, 1)]
        assert catalog[(2, 4, 1)] == [(2, 5, 2, 1), (3, 7, 2, 1)]
        assert catalog[(4, 2, 1)] == []
        assert catalog[(2, 3, 2)] == [(2, 2, 2, 2), (3, 3, 1, 1)]
        assert catalog[(3, 2, 2)] == []
        assert catalog[(2, 4, 2)] == [(3, 2, 1, 2)]
        assert catalog[(4, 2, 2)] == [(5, 3, 1, 1)]


class TestErrata:
    def test_single_discrepancy(self, errata_report):
        statuses = {e.instance: e.status for e in errata_report}
        assert statuses[(3, 2, 1)] == "DISCREPANCY"
        del statuses[(3, 2, 1)]
        assert set(statuses.values()) == {"MATCH"}
        assert [e.instance for e in errata_report if e.status != "MATCH"] == [(3, 2, 1)]

    def test_discrepancy_carries_both_sets_and_note(self, errata_report):
        entry = next(e for e in errata_report if e.instance == (3, 2, 1))
        assert set(entry.published) == {(2, 3, 2, 1), (3, 7, 2, 1)}
        assert set(entry.computed) == {(2, 3, 2, 1), (2, 11, 3, 1)}
        assert len(entry.notes) == 1
        assert "63" in entry.notes[0]  # C(9,3) - C(7,2)

    def test_match_entries_carry_no_notes(self, errata_report):
        for e in errata_report:
            if e.status == "MATCH":
                assert e.notes == []

    def test_computed_solutions_satisfy_equations(self, errata_report):
        for e in errata_report:
            i, j, k = e.instance
            for p, q, a, b in e.computed:
                assert comb(p**a, i) - comb(q**b, j) == k


class TestBinomialArrays:
    @pytest.mark.parametrize("i", [3, 4])
    def test_matches_comb(self, i):
        # small v, random v, and the v whose C(v, i) lie on both sides of
        # 2^62 up to the largest below 2^63
        top, near = binomial_arg(U63_MAX, i)[0], binomial_arg(2**62, i)[0]
        rng = np.random.default_rng(i)
        vs = list(range(60)) + rng.integers(0, top + 1, size=20_000).tolist()
        vs += list(range(near - 500, near + 500)) + list(range(top - 500, top + 1))
        got = _binomials(np.array(vs, dtype=np.int64), i)
        assert got.dtype == np.int64
        assert got.tolist() == [comb(v, i) for v in vs]


class TestPairInverse:
    def test_matches_binomial_arg(self):
        # the array inverse of C(n, 2) against the scalar binomial_arg, below
        # and above 2^62 and up to 2^63 - 1, with the top 3,000 n of C(n, 2)
        # below 2^63: their halved products need the 64th bit
        rng = np.random.default_rng(2)
        ns = rng.integers(2, 2**32, size=3000).tolist() + list(range(2**32 - 2999, 2**32 + 2))
        ns += [2, 3, 4, 2**31, 3_037_000_499, 3_037_000_500, 3_037_000_501]
        t = [comb(n, 2) + d for n in ns for d in (-1, 0, 1)]
        t += rng.integers(1, 2**62, size=20_000).tolist() + [1, 2**62, 2**62 + 1, U63_MAX]
        t = [v for v in t if 1 <= v <= U63_MAX]
        assert comb(2**32, 2) + 1 in t and U63_MAX in t
        expected = [n if exact else 0 for n, exact in (binomial_arg(v, 2) for v in t)]
        assert _pair_args(np.array(t, dtype=np.int64)).tolist() == expected
