"""Set generation against a literal double-loop oracle.

The oracle enumerates C(p**a, i) for every prime power and every admissible
index directly from the definition, with no symmetry shortcuts, so it is slow
but unarguable on small limits.
"""
from __future__ import annotations

import json
import tracemalloc
from math import comb

import numpy as np
import pytest

from figprimes import (
    ResourceLimitError,
    UsageError,
    build_sieve,
    figurate_stats,
    figurate_witness,
    generate_figurate,
    twin_figurate,
)
from figprimes.cli import run
from figprimes.figurate import ONE_WITNESS_ARGS


def _is_pp(m: int) -> bool:
    for p in range(2, m + 1):
        if m % p == 0:
            while m % p == 0:
                m //= p
            return m == 1
    return False


def member_mask(table) -> np.ndarray:
    """A bool mask indexed by value, true at the table's members."""
    mask = np.zeros(table.limit + 1, dtype=bool)
    mask[table.values] = True
    return mask


def oracle_members(limit: int, include_one: bool) -> set[int]:
    """Every positive C(p**a, i) <= limit, straight from the definition.

    i = 1 needs m <= limit; interior indices 2 <= i <= m-2 give values of at
    least C(m, 2), so arguments stop mattering once C(m, 2) > limit; i = m-1
    repeats the value m and i = m gives 1.
    """
    out = {m for m in range(2, limit + 1) if _is_pp(m)}
    m = 2
    while m * (m - 1) // 2 <= limit:
        if _is_pp(m):
            for i in range(2, m):
                v = comb(m, i)
                if v <= limit:
                    out.add(v)
        m += 1
    if include_one:
        out.add(1)
    return out


class TestMembershipOracle:
    @pytest.mark.parametrize("include_one", [True, False])
    def test_small_range_exact(self, include_one):
        limit = 400
        table = generate_figurate(limit, include_one=include_one)
        expected = oracle_members(limit, include_one)
        got = set(table.values.tolist())
        assert got == expected
        mask = member_mask(table)
        for n in range(0, limit + 1):
            assert mask[n] == (n in expected), n

    def test_first_members_include_one(self):
        table = generate_figurate(40)
        head = table.values.tolist()[:14]
        assert head == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 16, 17]

    def test_one_excluded_on_flag(self):
        table = generate_figurate(40, include_one=False)
        assert table.values.tolist()[0] == 2
        assert not member_mask(table)[1]

    def test_fifteen_not_member(self):
        # C(6, 2) = 15 but 6 is not a prime power
        table = generate_figurate(100)
        assert not member_mask(table)[15]
        assert figurate_witness(15) is None


class TestWitnesses:
    def test_witnesses_valid_and_canonical(self, fig2e4):
        for n in fig2e4.values.tolist()[:4000] + [np.int64(97)]:
            w = figurate_witness(n)
            assert w.value == n
            assert comb(w.base, w.i) == n
            assert w.a >= 1 and w.i >= 1
            # plain ints, so that reports serialize
            assert all(type(x) is int for x in (w.value, w.p, w.a, w.i))

    def test_one_has_fixed_witness(self):
        w = figurate_witness(1)
        assert (w.value, w.p, w.a, w.i) == ONE_WITNESS_ARGS
        assert comb(w.base, w.i) == 1

    def test_minimal_index_canonicality(self, fig2e4):
        # no stratum below the witness index may reproduce the value
        pps = [m for m in range(2, 300) if _is_pp(m)]
        for n in fig2e4.values.tolist()[:600]:
            w = figurate_witness(n)
            if w.i == 1:
                continue
            assert not _is_pp(n), n
            for i in range(2, w.i):
                assert all(comb(m, i) != n for m in pps), (n, i)

    def test_symmetry_on_stored_witnesses(self, fig2e4):
        for n in fig2e4.values.tolist():
            w = figurate_witness(n)
            m = w.base
            if 2 <= w.i <= m // 2:
                assert comb(m, m - w.i) == comb(m, w.i)

    def test_witness_for_nonmember_is_none(self, fig2e4):
        for n in np.flatnonzero(~member_mask(fig2e4)[1:3000]) + 1:
            assert figurate_witness(n) is None, n

    def test_large_table_free_witness(self):
        w = figurate_witness(2**61 - 1)
        assert (w.p, w.a, w.i) == (2**61 - 1, 1, 1)
        assert figurate_witness(comb(97, 4)) is not None

    def test_witness_stays_in_63_bits(self):
        assert figurate_witness(2**63 - 1) is None
        for n in (2**63, 0):
            with pytest.raises(UsageError):
                figurate_witness(n)


class TestTableShape:
    def test_values_strictly_increasing(self, fig1e6):
        vals = fig1e6.values
        assert (vals[1:] > vals[:-1]).all()
        assert fig1e6.count == vals.size

    def test_one_bitmap_per_table(self):
        # the sieve's prime mask is the one array indexed by value that a
        # table and its prime table hold together
        table = generate_figurate(1000)
        bitmaps = [v for part in (table, table.prime_table) for v in vars(part).values()
                   if isinstance(v, np.ndarray) and v.dtype == bool]
        assert len(bitmaps) == 1 and bitmaps[0] is table.prime_table.prime_mask
        assert bitmaps[0].shape == (1001,)

    def test_generation_peak_memory_near_sieve(self):
        # generation adds the prime powers and the few other members to the
        # sieve; the three aligned prime-power arrays it once built do not fit
        generate_figurate(10**4)  # first-call allocations stay out
        tracemalloc.start()
        try:
            build_sieve(10**6)
            sieve = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            generate_figurate(10**6)
            table = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table <= 1.9 * sieve, table / sieve

    def test_generation_guards(self):
        with pytest.raises(UsageError):
            generate_figurate(1)
        with pytest.raises(ResourceLimitError):
            generate_figurate(1 << 28)
        with pytest.raises(UsageError):
            generate_figurate(100, table=build_sieve(50))

    def test_dump_round_trip(self, tmp_path):
        for limit in (50, 40, 10**5):
            table = generate_figurate(limit)
            path = tmp_path / f"values-{limit}.txt"
            out = tmp_path / f"report-{limit}.json"
            argv = ["figurate", "--limit", str(limit), "--dump", str(path), "--out", str(out)]
            assert run(argv) == 0
            count = json.loads(out.read_text())["stats"]["dumped"]
            lines = path.read_text("ascii").splitlines()
            assert count == len(lines) == table.count
            assert [int(s) for s in lines] == table.values.tolist()
            # byte for byte what one f"{v}\n" write per member gives
            per_line = "".join(f"{v}\n" for v in table.values.tolist())
            assert path.read_bytes() == per_line.encode("ascii")


class TestStats:
    def test_limit_ten_classes(self):
        rec = figurate_stats(generate_figurate(10))
        assert rec.total == 10
        assert rec.primes == 4
        assert rec.composite_even == 4   # 4, 6, 8, 10
        assert rec.composite_odd == 1    # 9
        assert rec.includes_one

    def test_limit_two(self):
        rec = figurate_stats(generate_figurate(2))
        assert rec.total == 2
        assert rec.primes == 1

    def test_density_below_bound_at_1e6(self, fig1e6, table1e6):
        rec = figurate_stats(fig1e6)
        assert rec.primes == table1e6.primes.size
        assert 1.0 < rec.density_vs_primes < 1.02

    def test_composite_parity_balance_at_1e6(self, fig1e6):
        # composites split into even/odd classes of comparable size
        rec = figurate_stats(fig1e6)
        assert rec.composite_even > 0 and rec.composite_odd > 0
        assert rec.total == rec.primes + rec.composite_even + rec.composite_odd + 1


def naive_twins(members: set[int], limit: int) -> list[list[int]]:
    """Every [f, f + 2] with both in ``members`` and f + 2 <= limit, ascending."""
    return [[f, f + 2] for f in sorted(members) if f + 2 <= limit and f + 2 in members]


def twin_rows(limit: int) -> list[list[int]]:
    """``twin_figurate`` after checking its array form: int64 rows (f, g)."""
    pairs = twin_figurate(limit)
    assert pairs.dtype == np.int64 and pairs.ndim == 2 and pairs.shape[1] == 2
    return pairs.tolist()


class TestTwins:
    def test_limit_ten_pairs(self):
        pairs = twin_rows(10)
        for f, g in [(2, 4), (3, 5), (5, 7), (7, 9)]:
            assert [f, g] in pairs
        assert pairs == sorted(pairs)
        assert all(g == f + 2 for f, g in pairs)

    def test_pair_members_in_set(self, fig2e4):
        pairs = twin_rows(fig2e4.limit)
        members = set(fig2e4.values.tolist())
        for f, g in pairs:
            assert f in members and g in members
        assert pairs == naive_twins(members, fig2e4.limit)

    def test_prime_power_pair_present(self):
        assert [25, 27] in twin_rows(30)

    def test_non_member_pair_absent(self):
        assert [13, 15] not in twin_rows(30)

    def test_matches_membership_oracle(self):
        for limit in (2, 3, 4, 300):
            assert twin_rows(limit) == naive_twins(oracle_members(limit, True), limit)
