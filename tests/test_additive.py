"""Additive-representation scans against set-based brute force.

The oracle builds the two member sets explicitly, from sympy's primality test
and the table-free ``figurate_witness``, and checks every target by direct
subtraction, so engine shortcuts (direction switching, chunking, straggler
fallback) must all collapse to the same answers.
"""
from __future__ import annotations

import json
import threading
import tracemalloc
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import isprime

from figprimes import (
    ArithmeticGuardError,
    DomainSpec,
    UsageError,
    build_sieve,
    figurate_witness,
    generate_figurate,
    verify_additive,
    verify_linear,
)
from figprimes import additive
from figprimes.additive import DOMAIN_KINDS, resolve_domain
from test_intkernel import argsort_prime_powers

#: the oracle's sets end here, above every range the oracles check
ORACLE_LIMIT = 2 * 10**4


@lru_cache
def _oracle_sets() -> tuple[frozenset[int], frozenset[int]]:
    """The primes and the members of the set up to ORACLE_LIMIT, no table used."""
    primes = frozenset(n for n in range(2, ORACLE_LIMIT + 1) if isprime(n))
    members = frozenset(n for n in range(1, ORACLE_LIMIT + 1) if figurate_witness(n) is not None)
    return primes, members


def domain_set(spec: DomainSpec) -> frozenset[int]:
    primes, members = _oracle_sets()
    if spec.kind == "primes":
        return primes
    if spec.kind == "prime-powers":
        return frozenset(
            p**k for p in primes for k in range(1, ORACLE_LIMIT.bit_length())
            if p**k <= ORACLE_LIMIT
        )
    if spec.kind == "proper":
        members -= primes
    return members if spec.include_one else members - {1}


def reference_domain(spec: DomainSpec, table) -> SimpleNamespace:
    """The domain as ``resolve_domain`` built it before a domain became its
    member array: the ascending members and a membership mask of their own,
    the prime mask for the primes and else scattered from the members.  It
    is the oracle for the member arrays and for the mask a scan reads."""
    pt = table.prime_table
    if spec.kind == "primes":
        return SimpleNamespace(values=pt.primes, membership=pt.prime_mask)
    if spec.kind == "prime-powers":
        values = argsort_prime_powers(table.limit, pt.primes)[0]
        membership = np.zeros(table.limit + 1, dtype=bool)
        membership[values] = True
        return SimpleNamespace(values=values, membership=membership)
    membership = np.zeros(table.limit + 1, dtype=bool)
    membership[table.values] = True
    if spec.kind == "figurate" and spec.include_one:
        return SimpleNamespace(values=table.values, membership=membership)
    if spec.kind == "proper":
        membership &= ~pt.prime_mask
    if not spec.include_one:
        membership[1] = False
    return SimpleNamespace(values=np.flatnonzero(membership).astype(np.int64),
                           membership=membership)


def split_layout(mask: np.ndarray) -> np.ndarray:
    """A membership mask de-interleaved as a scan reads it: its even
    entries, one false entry if the mask's size is even, then its odd
    entries, which so start at size // 2 + 1 of an odd size."""
    pad = np.zeros(1 - mask.size % 2, dtype=bool)
    return np.concatenate((mask[::2], pad, mask[1::2]))


#: every domain, with and without 1
SPECS = [DomainSpec(kind, one) for kind in DOMAIN_KINDS for one in (True, False)]


def oracle_additive(lo, hi, left, right, even_only=False):
    """(counterexamples, minimal-x witness per n, its 1-based rank among
    the left values) by direct subtraction."""
    lset = sorted(domain_set(left))
    rset = domain_set(right)
    cex, witness, position = [], {}, {}
    for n in range(lo, hi + 1):
        if even_only and n % 2:
            continue
        for pos, x in enumerate(lset, 1):
            if x >= n:
                cex.append(n)
                break
            if n - x in rset:
                witness[n] = (x, n - x)
                position[n] = pos
                break
        else:
            cex.append(n)
    return cex, witness, position


class TestSumOfTwoMembers:
    def test_matches_oracle_small(self):
        spec = DomainSpec("figurate", True)
        rep = verify_additive(2, 3000, spec, spec)
        cex, witness, position = oracle_additive(2, 3000, spec, spec)
        assert rep.counterexamples == cex == []
        assert rep.verified
        assert rep.stats["max_search_depth"] == max(position.values())
        for w in rep.witness_sample:
            assert witness[w["n"]] == (w["x"], w["y"])

    def test_forced_decomposition_for_two(self):
        spec = DomainSpec("figurate", True)
        rep = verify_additive(2, 2, spec, spec)
        assert rep.witness_sample[0]["n"] == 2
        assert (rep.witness_sample[0]["x"], rep.witness_sample[0]["y"]) == (1, 1)

    def test_minimal_x_witness_for_97(self):
        spec = DomainSpec("figurate", True)
        rep = verify_additive(97, 97, spec, spec)
        assert (rep.witness_sample[0]["x"], rep.witness_sample[0]["y"]) == (8, 89)

    def test_scalar_tail_witness_and_depth(self):
        # one target is below the straggler cutoff from the start, so its
        # witness and depth come from the late phase's first-hit search
        spec = DomainSpec("figurate", True)
        rep = verify_additive(671581, 671581, spec, spec)
        assert (rep.witness_sample[0]["x"], rep.witness_sample[0]["y"]) == (88410, 583171)
        assert rep.stats["max_search_depth"] == 8834

    def test_exclude_one_fails_below_four(self):
        # at 20000, 2 and 3 are still open when the late phase takes over,
        # and it leaves them open
        spec = DomainSpec("figurate", False)
        for hi in (100, 20000):
            rep = verify_additive(2, hi, spec, spec)
            assert 2 in rep.counterexamples and 3 in rep.counterexamples
            assert not rep.verified

    def test_witnesses_satisfy_equation_and_membership(self):
        spec = DomainSpec("figurate", True)
        rep = verify_additive(2, 500, spec, spec, sample_size=10)
        members = domain_set(spec)
        for w in rep.witness_sample:
            assert w["x"] + w["y"] == w["n"]
            assert w["x"] in members and w["y"] in members
            assert w["x_cert"]["kind"] in ("prime", "prime-power", "binomial")


class TestPrimePlusProper:
    def test_matches_oracle_small(self):
        left, right = DomainSpec("primes"), DomainSpec("proper", True)
        rep = verify_additive(6, 2500, left, right)
        cex, witness, _ = oracle_additive(6, 2500, left, right)
        assert rep.counterexamples == cex
        for w in rep.witness_sample:
            assert witness[w["n"]] == (w["x"], w["y"])

    def test_spec_witness_for_eleven(self):
        left, right = DomainSpec("primes"), DomainSpec("proper", True)
        rep = verify_additive(11, 11, left, right)
        assert (rep.witness_sample[0]["x"], rep.witness_sample[0]["y"]) == (2, 9)

    def test_proper_domain_excludes_primes(self, fig2e4):
        for one in (True, False):
            spec = DomainSpec("proper", one)
            values = resolve_domain(spec, fig2e4)
            assert values.dtype == np.int64
            assert np.array_equal(values, reference_domain(spec, fig2e4).values)
            proper = set(values.tolist())
            assert {4, 6, 9, 10}.issubset(proper) and (1 in proper) == one
            assert not any(p in proper for p in (2, 3, 5, 7, 11, 13))


class TestGoldbach:
    def test_even_range_verified_to_1e4(self):
        spec = DomainSpec("primes")
        rep = verify_additive(4, 10**4, spec, spec, even_only=True)
        assert rep.verified
        assert rep.stats["scanned"] == (10**4 - 4) // 2 + 1
        _, _, position = oracle_additive(4, 10**4, spec, spec, even_only=True)
        assert rep.stats["max_search_depth"] == max(position.values())

    def test_odd_targets_skipped(self):
        spec = DomainSpec("primes")
        for lo, scanned in ((4, 48), (5, 47)):
            rep = verify_additive(lo, 99, spec, spec, even_only=True)
            assert rep.stats["scanned"] == scanned


class TestEngineMechanics:
    def test_direction_switch_same_report(self):
        # prime + proper iterates the sparse proper side descending; force the
        # ascending path with equal domains and compare a mixed case instead
        left, right = DomainSpec("primes"), DomainSpec("proper", True)
        rep = verify_additive(6, 4000, left, right)
        assert rep.stats["mode"] == "right-descending"
        # descending depths leave out the hits from the late phase's tail
        # position on; the benchmark's recordings pin that figure
        assert rep.stats["max_search_depth"] == 83
        cex, witness, _ = oracle_additive(6, 4000, left, right)
        assert rep.counterexamples == cex
        for w in rep.witness_sample:
            assert witness[w["n"]] == (w["x"], w["y"])

    def test_direction_depends_only_on_range(self):
        # the domains are sized over [1, hi]: to 1000 the proper side is not
        # sparse enough to iterate, whatever table a caller holds elsewhere
        left, right = DomainSpec("primes"), DomainSpec("proper", True)
        rep = verify_additive(6, 1000, left, right)
        assert rep.stats["mode"] == "left-ascending"
        cex, _, position = oracle_additive(6, 1000, left, right)
        assert rep.counterexamples == cex
        assert rep.stats["max_search_depth"] == max(position.values()) == 146

    def test_chunk_width_does_not_change_reports(self, monkeypatch):
        spec, primes = DomainSpec("figurate", True), DomainSpec("primes")
        proper = DomainSpec("proper", True)
        # a width of 1 puts one target of each class in a chunk
        for width, hi in ((1 << 8, 9000), (1, 2000)):
            runs = [
                lambda: verify_additive(2, hi, spec, spec),
                lambda: verify_additive(4, 2 * hi, primes, primes, even_only=True),
                lambda: verify_linear(2, 3, 1, hi, spec),
                # descending, with samples that span every chunk
                lambda: verify_linear(2, 151, 1, 2000, spec, sample_size=10**4),
                lambda: verify_additive(6, hi, primes, proper, sample_size=10**30),
            ]
            monkeypatch.undo()
            wide = [run() for run in runs]
            monkeypatch.setattr(additive, "CHUNK", width)
            monkeypatch.setattr(additive, "CHUNK_ASCENDING", width)
            narrow = [run() for run in runs]
            for w, n in zip(wide[:3], narrow[:3]):  # ascending: every field
                assert vars(w) == vars(n)
            assert wide[4].stats["mode"] == "right-descending"
            # descending depth counts from each chunk's top
            for w, n in zip(wide[3:], narrow[3:]):
                assert w.witness_sample == n.witness_sample
                assert w.counterexamples == n.counterexamples

    def test_scans_start_no_thread(self, monkeypatch):
        # every chunk runs in the calling thread, however many there are
        def refuse(self):
            raise AssertionError(f"a scan started thread {self.name}")

        spec, primes = DomainSpec("figurate", True), DomainSpec("primes")
        runs = [
            lambda: verify_additive(2, 9000, spec, spec),
            lambda: verify_additive(6, 9000, primes, DomainSpec("proper", True)),
            lambda: verify_linear(2, 3, 1, 9000, spec),
        ]
        expected = [run().counterexamples for run in runs]
        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setattr(additive, "CHUNK", 1 << 8)
        monkeypatch.setattr(additive, "CHUNK_ASCENDING", 1 << 8)
        assert [run().counterexamples for run in runs] == expected

    @pytest.mark.parametrize("scan", [
        lambda spec, **kw: verify_additive(2, 100, spec, spec, **kw),
        lambda spec, **kw: verify_linear(2, 3, 1, 100, spec, **kw),
    ], ids=["additive", "linear"])
    def test_jobs_keyword_rejected(self, scan):
        # a caller that still passes a worker count learns that none is taken
        spec = DomainSpec("figurate", True)
        with pytest.raises(TypeError, match="jobs"):
            scan(spec, jobs=1)
        assert scan(spec).hi == 100

    def test_compaction_does_not_change_reports(self, monkeypatch):
        # the full-width passes are the oracle for the late phase; narrow
        # ascending chunks give several to merge
        monkeypatch.setattr(additive, "CHUNK_ASCENDING", 1 << 12)
        spec, primes = DomainSpec("figurate", True), DomainSpec("primes")
        no_one = DomainSpec("figurate", False)
        runs = [
            lambda: verify_additive(2, 2 * 10**4, spec, spec),
            lambda: verify_additive(2, 2 * 10**4, no_one, no_one),
            lambda: verify_additive(4, 2 * 10**4, primes, primes, even_only=True),
            lambda: verify_additive(6, 4000, primes, DomainSpec("proper", True)),
            lambda: verify_linear(2, 3, 1, 2000, spec),
            lambda: verify_linear(2, 151, 1, 2000, spec, sample_size=10**4),
        ]
        reports = {}
        for below in (0, 2):  # late phase by the straggler cutoff only; from the first pass
            monkeypatch.setattr(additive, "_COMPACT_BELOW", below)
            reports[below] = [vars(run()) for run in runs]
        assert reports[0] == reports[2]
        proper = reports[2][3]["stats"]  # prime-proper
        assert (proper["mode"], proper["max_search_depth"]) == ("right-descending", 83)

    def test_split_ranges_merge_to_full_run(self):
        spec = DomainSpec("figurate", True)
        full = verify_additive(2, 9000, spec, spec, max_counterexamples=10**6)
        parts = [
            verify_additive(lo, hi, spec, spec, max_counterexamples=10**6)
            for lo, hi in ((2, 4500), (4501, 9000))
        ]
        merged = parts[0].counterexamples + parts[1].counterexamples
        assert full.counterexamples == merged

    def test_monotone_include_one(self):
        incl = verify_additive(
            2, 10**4, DomainSpec("figurate", True), DomainSpec("figurate", True),
            max_counterexamples=10**6,
        )
        excl = verify_additive(
            2, 10**4, DomainSpec("figurate", False), DomainSpec("figurate", False),
            max_counterexamples=10**6,
        )
        assert set(incl.counterexamples).issubset(set(excl.counterexamples))

    def test_range_and_table_guards(self):
        spec = DomainSpec("figurate", True)
        with pytest.raises(UsageError):
            verify_additive(1, 10, spec, spec)
        for bad in ({"sample_size": -1}, {"max_counterexamples": -1}):
            with pytest.raises(UsageError):
                verify_additive(2, 10, spec, spec, **bad)
            with pytest.raises(UsageError):
                verify_linear(1, 2, 1, 10, spec, **bad)

    def test_unknown_domain_kind_rejected(self):
        with pytest.raises(UsageError):
            DomainSpec("integers")

    def test_resolve_domain_matches_oracle(self):
        table = generate_figurate(3000)
        for spec in SPECS:
            values, ref = resolve_domain(spec, table), reference_domain(spec, table)
            expected = sorted(n for n in domain_set(spec) if n <= 3000)
            assert values.dtype == np.int64, spec
            assert values.tolist() == expected, spec
            assert np.array_equal(values, ref.values), spec
            assert np.flatnonzero(ref.membership).tolist() == expected, spec

    def test_scan_reads_the_looked_up_domain_mask(self, monkeypatch):
        """Every mask that a scan's kernels, ``_settle`` and ``_first_hits``,
        receive is the membership of the side it looks up, as
        ``reference_domain`` built it, in the layout the call names: the
        mask itself, or its even entries followed by its odd ones, for every
        ordered pair of domains in both directions."""
        reads = []
        for name, at in (("_settle", 6), ("_first_hits", 4)):
            def spy(*args, kernel=getattr(additive, name), at=at):
                reads.append(args[at : at + 2])  # (mem, half)
                return kernel(*args)

            monkeypatch.setattr(additive, name, spy)
        hi, modes, layouts = 3000, set(), set()
        table = generate_figurate(hi)
        for left in SPECS:
            for right in SPECS:
                reads.clear()
                for even_only in (False, True):
                    rep = verify_additive(5, hi, left, right, even_only=even_only)
                mode = rep.stats["mode"]
                modes.add(mode)
                other = left if mode == "right-descending" else right
                expected = reference_domain(other, table).membership
                assert reads, (left, right)
                for mem, half in reads:
                    layouts.add(half)
                    assert half in (0, expected.size // 2 + 1), (left, right)
                    assert np.array_equal(mem, split_layout(expected) if half else expected), (
                        left, right)
        assert modes == {"left-ascending", "right-descending"}
        assert layouts == {0, (hi + 1) // 2 + 1}


def oracle_linear(a, b, lo, hi, spec):
    """Also returns each witness x's 1-based rank among the values = x mod b."""
    vals = sorted(domain_set(spec))
    vset = set(vals)
    rank, seen = {}, {}
    for v in vals:
        seen[v % b] = rank[v] = seen.get(v % b, 0) + 1
    cex, witness, below, position = [], {}, 0, {}
    for n in range(lo, hi + 1):
        if n < a + b:
            below += 1
            continue
        for x in vals:
            if a * x + b > n:
                cex.append(n)
                break
            if (n - a * x) % b == 0 and (n - a * x) // b in vset:
                witness[n] = (x, (n - a * x) // b)
                position[n] = rank[x]
                break
        else:
            cex.append(n)
    return cex, witness, below, position


class TestNumpyIntegerInputs:
    """numpy integers enter as Python ints, so that the 63-bit guard sees
    exact values and a report serializes."""

    def test_linear_guard_sees_exact_coefficients(self):
        # int64 (a-1)*(b-1) would wrap to a negative threshold
        with pytest.raises(ArithmeticGuardError):
            verify_linear(np.int64(2**40), np.int64(2**40 + 1), 1, 100, DomainSpec("figurate"))

    def test_reports_hold_python_ints(self):
        spec, n = DomainSpec("figurate"), np.int64
        options = {"max_counterexamples": 5, "sample_size": 3}
        as_numpy = {key: n(v) for key, v in options.items()}
        pairs = [
            (verify_additive(n(2), n(100), spec, spec, **as_numpy),
             verify_additive(2, 100, spec, spec, **options)),
            (verify_linear(n(2), n(3), n(1), n(100), spec, **as_numpy),
             verify_linear(2, 3, 1, 100, spec, **options)),
        ]
        for got, want in pairs:
            assert json.dumps(vars(got)) == json.dumps(vars(want))

    def test_non_integers_rejected(self):
        spec = DomainSpec("figurate")
        for call in (
            lambda: verify_additive(2, 100.5, spec, spec),
            lambda: verify_additive(2.0, 100, spec, spec),
            lambda: verify_additive(2, 100, spec, spec, sample_size=2.5),
            lambda: verify_linear(2.0, 3, 1, 100, spec),
        ):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                call()


class TestLinear:
    @pytest.mark.parametrize("a,b", [(1, 2), (2, 3), (3, 4), (4, 7)])
    def test_matches_oracle_figurate(self, a, b):
        spec = DomainSpec("figurate", True)
        rep = verify_linear(a, b, 1, 1200, spec, max_counterexamples=10**6)
        cex, witness, below, position = oracle_linear(a, b, 1, 1200, spec)
        assert rep.counterexamples == cex
        assert rep.stats["below_floor"] == below
        assert rep.stats["max_search_depth"] == max(position.values())
        assert rep.stats["largest_exception"] == (max(cex) if cex else None)
        for w in rep.witness_sample:
            assert witness[w["n"]] == (w["x"], w["y"])

    @pytest.mark.parametrize("a,b", [(1, 150), (2, 151)])
    def test_descending_matches_oracle(self, monkeypatch, a, b):
        # b*b exceeds the 2000 targets, so y runs descending in its classes
        # mod a; the sample holds every represented target
        orders = []
        settle = additive._settle
        monkeypatch.setattr(
            additive, "_settle", lambda *args: orders.append(args[-1]) or settle(*args)
        )
        spec = DomainSpec("figurate", True)
        rep = verify_linear(a, b, 1, 2000, spec,
                            max_counterexamples=10**6, sample_size=10**4)
        assert orders and not any(orders)
        cex, witness, below, _ = oracle_linear(a, b, 1, 2000, spec)
        assert rep.counterexamples == cex
        assert rep.stats["below_floor"] == below
        assert rep.stats["largest_exception"] == (max(cex) if cex else None)
        assert {w["n"]: (w["x"], w["y"]) for w in rep.witness_sample} == witness

    def test_large_b_sample_and_counterexamples(self, fig1e6):
        # every y is a member <= 10; the first represented target is 99993
        spec = DomainSpec("figurate", True)
        rep = verify_linear(2, 99991, 1, 10**6, spec)
        sample = [(w["n"], w["x"], w["y"]) for w in rep.witness_sample]
        assert len(sample) == 10
        assert sample[0] == (99993, 1, 1)
        member = np.zeros(10**6 + 1, dtype=bool)
        member[fig1e6.values] = True
        represented = np.zeros(10**6 + 1, dtype=bool)
        for y in range(1, 11):
            if member[y]:
                xs = fig1e6.values[fig1e6.values <= (10**6 - 99991 * y) // 2]
                represented[2 * xs + 99991 * y] = True
        first = np.flatnonzero(represented)[:10].tolist()
        assert [n for n, _, _ in sample] == first
        for n, x, _ in sample:
            assert x == min(
                (n - 99991 * y) // 2 for y in range(1, 11)
                if (n - 99991 * y) % 2 == 0 and n - 99991 * y >= 2
                and member[y] and member[(n - 99991 * y) // 2]
            )
        assert rep.stats["below_floor"] == 99992
        assert rep.counterexample_total == 10**6 - 99992 - int(represented.sum()) == 708802

    def test_large_coefficients_visit_no_class(self, monkeypatch):
        # every target lies below the floor a + b, and no candidate leaves
        # room below hi, so the kernel never runs
        calls = []
        settle = additive._settle
        monkeypatch.setattr(additive, "_settle", lambda *args: calls.append(args) or settle(*args))
        spec = DomainSpec("figurate", True)
        for a, b in ((2, 10**6 + 3), (1000003, 1000033), (2**31, 2**31 + 1)):
            rep = verify_linear(a, b, 1, 100, spec)
            assert rep.stats["below_floor"] == 100
            assert rep.verified and rep.witness_sample == []
        assert calls == []

    def test_matches_oracle_primes(self):
        spec = DomainSpec("primes")
        rep = verify_linear(1, 2, 2, 800, spec, max_counterexamples=10**6)
        cex, _, _, _ = oracle_linear(1, 2, 2, 800, spec)
        assert rep.counterexamples == cex
        assert 20 in rep.counterexamples

    def test_twenty_over_members_has_witness(self):
        rep = verify_linear(1, 2, 20, 20, DomainSpec("figurate", True))
        assert rep.verified
        assert (rep.witness_sample[0]["x"], rep.witness_sample[0]["y"]) == (2, 9)

    def test_minimum_of_form_witness(self):
        rep = verify_linear(2, 3, 5, 5, DomainSpec("figurate", True))
        assert (rep.witness_sample[0]["x"], rep.witness_sample[0]["y"]) == (1, 1)

    def test_below_floor_not_counterexamples(self):
        rep = verify_linear(2, 3, 1, 4, DomainSpec("figurate", True))
        assert rep.counterexamples == []
        assert rep.stats["below_floor"] == 4
        assert rep.verified

    def test_threshold_reported(self):
        rep = verify_linear(4, 7, 1, 2000, DomainSpec("figurate", True),
                            max_counterexamples=10**6)
        assert rep.stats["threshold"] == 18
        assert rep.stats["largest_exception_within_threshold"] in (None, False, True)

    def test_witnesses_satisfy_equation(self):
        spec = DomainSpec("figurate", True)
        rep = verify_linear(2, 3, 5, 400, spec, sample_size=10)
        members = domain_set(spec)
        for w in rep.witness_sample:
            assert 2 * w["x"] + 3 * w["y"] == w["n"]
            assert w["x"] in members and w["y"] in members

    def test_coprimality_enforced(self):
        with pytest.raises(UsageError):
            verify_linear(2, 4, 1, 10, DomainSpec("figurate", True))

    def test_coefficients_stay_in_63_bits(self):
        spec = DomainSpec("figurate", True)
        # a or b past 2^63 - 1, or a threshold (a-1)(b-1) past it
        for a, b in ((10**30, 10**30 + 1), (1, 2**63), (2**32, 2**32 + 1)):
            with pytest.raises(ArithmeticGuardError):
                verify_linear(a, b, 1, 100, spec)
        rep = verify_linear(1, 2**63 - 1, 1, 100, spec)
        assert rep.stats["threshold"] == 0


def reference_settle(n0, step, wit, cands, a, b, mem, ascending):
    """The scan kernel before it settled an open mask only and before its
    late phase ran through ``additive._first_hits``: compacted passes, then
    a per-target scalar tail.  It writes each target's witness c into
    ``wit`` (filled with -1) and reads ``mem`` strided.  It is the oracle for
    ``additive._settle`` and ``additive._first_hits``, under the same module
    constants: its tail rule is the one that bounds descending depth."""
    count = wit.size
    depth = 0
    open_ = np.ones(count, dtype=bool)
    idx = None
    pending = count
    last = n0 + step * (count - 1)
    s = step // b
    tail = len(cands)
    for pos, c in enumerate(cands):
        if a * c + b > last or (
            pending <= additive._STRAGGLER_CUTOFF and pos >= additive._STRAGGLER_MIN_PASSES
        ):
            tail = pos
            break
        o0 = (n0 - a * c) // b
        t0 = max(0, (s - o0) // s)
        if idx is None and pending < count * additive._COMPACT_BELOW:
            idx = np.flatnonzero(open_)
        if idx is None:
            hit = open_[t0:] & mem[o0 + s * t0 : o0 + s * count : s]
            k = int(np.count_nonzero(hit))
            if k:
                wit[t0:][hit] = c
                open_[t0:] ^= hit
        else:
            j = int(idx.searchsorted(t0)) if t0 else 0
            rest = idx[j:]
            hit = mem[o0 + s * t0 :: s][rest - t0 if t0 else rest]
            k = int(np.count_nonzero(hit))
            if k:
                wit[rest[hit]] = c
                rest = rest[~hit]
                idx = np.concatenate((idx[:j], rest)) if j else rest
        if k:
            pending -= k
            depth = pos + 1
            if pending == 0:
                break
    for t in (np.flatnonzero(open_) if idx is None else idx).tolist():
        n = n0 + step * t
        for pos in range(tail, len(cands)):
            c = cands[pos]
            if a * c + b > n:
                if ascending:
                    break
                continue
            if mem[(n - a * c) // b]:
                wit[t] = c
                if ascending:
                    depth = max(depth, pos + 1)
                break
    return depth


def _random_class(rng, a, b, s, ascending):
    """A class as the engine builds one: the targets n0 + s*b*t, a sorted
    candidate group c = r (mod b) with a*r = n0 (mod b), some of whose
    largest c have no room below the last target, and a membership array
    whose density varies so that chunks reach the late phase."""
    count = int(rng.integers(1, 600))
    n0 = int(rng.integers(a + b, a + b + 400))
    last = n0 + s * b * (count - 1)
    mem = rng.random((last - a) // b + 1) < rng.choice([0.02, 0.1, 0.4])
    mem[0] = False
    r = next(r for r in range(b) if (a * r - n0) % b == 0)
    past = b * int(rng.integers(0, 20))  # reach of the c with no room
    group = np.arange(r or b, (last - b) // a + 1 + past, b, dtype=np.int64)
    group = np.sort(rng.choice(group, min(group.size, int(rng.integers(1, 300))), replace=False))
    cands = group.tolist()
    if not ascending:
        # a descending scan starts at the largest c that leaves room below the last target
        cands = [c for c in cands if a * c + b <= last][::-1]
    return n0, count, group, cands, mem


class TestMaskKernel:
    """``_settle`` against ``reference_settle`` on random classes: the open
    mask, the depth and the late phase's first hits, and each represented
    target's witness as ``_first_hits`` finds it.  Classes whose targets lie
    two strides apart read the mask de-interleaved, as the engine does."""

    @pytest.mark.parametrize("below", [0, 2, 1 / 32])
    @pytest.mark.parametrize("straggle", [False, True])
    @pytest.mark.parametrize("ascending", [True, False])
    def test_matches_reference(self, monkeypatch, below, straggle, ascending):
        self.check(monkeypatch, below, straggle, ascending)

    @pytest.mark.parametrize("below", [0, 2, 1 / 32])
    @pytest.mark.parametrize("straggle", [False, True])
    @pytest.mark.parametrize("ascending", [True, False])
    def test_one_column_blocks(self, monkeypatch, below, straggle, ascending):
        # 64 cells make the late phase run blocks of one column
        monkeypatch.setattr(additive, "_SEARCH_CELLS", 64)
        self.check(monkeypatch, below, straggle, ascending)

    @staticmethod
    def check(monkeypatch, below, straggle, ascending):
        monkeypatch.setattr(additive, "_COMPACT_BELOW", below)
        if straggle:  # every class reaches the late phase early
            monkeypatch.setattr(additive, "_STRAGGLER_CUTOFF", 200)
            monkeypatch.setattr(additive, "_STRAGGLER_MIN_PASSES", 3)
        first_hits, late, starts, layout = additive._first_hits, [], [], []

        def spy(ns, cands, ci, m, mem, half, ascending, start):
            assert mem is layout[0] and half == layout[1]
            starts.append(start)
            late.append(first_hits(ns, cands, ci, m, mem, half, ascending, start))
            return late[-1]

        monkeypatch.setattr(additive, "_first_hits", spy)
        rng = np.random.default_rng(int(below * 64) + 2 * straggle + 4 * ascending)
        for _ in range(60):
            a, b = [(1, 1), (2, 3), (3, 2), (1, 7), (5, 4)][int(rng.integers(5))]
            s = int(rng.choice([1, 2]))
            n0, count, group, cands, mem = _random_class(rng, a, b, s, ascending)
            wit = np.full(count, -1, dtype=np.int64)
            depth = reference_settle(n0, s * b, wit, cands, a, b, mem, ascending)
            half = mem.size // 2 + 1 if s == 2 else 0
            layout[:] = split_layout(mem) if half else mem, half
            open_, got_depth, (full, rows, found) = additive._settle(
                n0, s * b, count, group, a, b, *layout, ascending)
            assert got_depth == depth
            assert np.array_equal(open_, wit < 0)
            # the late phase's first hits are the reference's witnesses, and
            # the full-width passes reach the deepest position of the others
            assert np.array_equal(np.where(found >= 0, group[found], -1), wit[rows])
            position = {c: p for p, c in enumerate(cands, 1)}
            before = np.ones(count, dtype=bool)
            before[rows] = False
            assert full == max((position[c] for c in wit[before & (wit >= 0)].tolist()), default=0)
            shown = np.flatnonzero(wit >= 0)
            ns = n0 + s * b * shown
            found = first_hits(ns, group, a, b, *layout, ascending)
            assert np.array_equal(group[found], wit[shown])
        # some classes reach the late phase, and some of its targets stay open
        assert late and any((hits < 0).any() for hits in late)
        if below == 0:
            # classes of at most _STRAGGLER_CUTOFF targets reach the late phase
            # before _STRAGGLER_MIN_PASSES, so the descending depth rule cuts
            # at a position past the call's start
            assert min(starts) < additive._STRAGGLER_MIN_PASSES


@lru_cache
def _oracle(a, b, spec):
    """(counterexamples, witness per n, its position) of a*x + b*y over
    [1, 3000], x and y from ``spec``, by the brute-force oracles; x + y by
    ``oracle_additive``, whose positions rank x among all the values."""
    if a == b == 1:
        return oracle_additive(2, 3000, spec, spec)
    cex, witness, _, position = oracle_linear(a, b, 1, 3000, spec)
    return cex, witness, position


class TestParityClasses:
    """Scans whose sides are one domain split their targets by parity: odd
    targets of x + y meet only the even x, even targets of a*x + b*y with a
    even only the even y.  Reports stay those of the brute-force oracles."""

    #: n = 7,629,217 (mod 11,184,810) with 2^k < n: n - 2^k has one of these
    #: as a factor (Erdos, Summa Brasil. Math. 2 (1950))
    COVER = (3, 5, 7, 13, 17, 241)

    @pytest.mark.parametrize("n, x, depth", [(7629217, 56, 33), (18814027, 84, 45)])
    def test_erdos_progression(self, n, x, depth):
        assert 2 * 3 * 5 * 7 * 13 * 17 * 241 == 11184810 and n % 11184810 == 7629217
        k = 0
        while 2**k < n:  # no n - 2^k is a prime power
            rest = n - 2**k
            p = next(p for p in self.COVER if rest % p == 0)
            while rest % p == 0:
                rest //= p
            assert rest > 1, (n, k)
            k += 1
        # so n is no sum of two prime powers, one of them a power of 2 ...
        powers = DomainSpec("prime-powers")
        rep = verify_additive(n, n, powers, powers)
        assert rep.counterexamples == [n] and rep.stats["max_search_depth"] == 0
        # ... but it is one of two members, through an even binomial C(8, 3) or C(9, 3)
        spec = DomainSpec("figurate")
        rep = verify_additive(n, n, spec, spec)
        w = rep.witness_sample[0]
        assert (w["x"], w["y"], w["x_cert"]) == (x, n - x, {"kind": "binomial", **{
            "p": 2 if x == 56 else 3, "a": 3 if x == 56 else 2, "i": 3}})
        assert rep.stats["max_search_depth"] == depth

    @pytest.mark.parametrize("kind", ["primes", "prime-powers"])
    def test_one_set_under_either_one_option(self, monkeypatch, kind):
        """Primes and prime powers never hold 1, so specs that differ only
        in ``include_one`` name one member set: the mixed pairs split by
        parity as the equal pair does, making the same kernel calls and
        giving the same report."""
        calls, settle = [], additive._settle

        def spy(*args):
            calls.append([x.tobytes() if isinstance(x, np.ndarray) else x for x in args])
            return settle(*args)

        monkeypatch.setattr(additive, "_settle", spy)
        runs = []
        for pair in ((True, True), (True, False), (False, True)):
            calls.clear()
            rep = verify_additive(2, 20000, *(DomainSpec(kind, one) for one in pair),
                                  max_counterexamples=10**4)
            runs.append((vars(rep), list(calls)))
        assert runs[0][1] and all(run == runs[0] for run in runs)

    @staticmethod
    def check(rep, a, b, spec, lo, hi, step, end, sample_size):
        """The report's counterexamples, witness sample and depth are the
        oracle's over the grid of multiples of ``step`` in [lo, hi]."""
        cex, witness, position = _oracle(a, b, spec)
        grid = [n for n in range(max(lo, a + b), hi + 1) if n % step == 0]
        assert rep.counterexamples == [n for n in grid if n in cex]
        assert rep.counterexample_total == len(rep.counterexamples)
        shown = [n for n in grid if n in witness and n < end][:sample_size]
        assert [w["n"] for w in rep.witness_sample] == shown
        assert all((w["x"], w["y"]) == witness[w["n"]] for w in rep.witness_sample)
        if not (a < b and b * b > hi - lo + 1):  # descending scans count depth per chunk
            assert rep.stats["max_search_depth"] == max(
                (position[n] for n in grid if n in witness), default=0)

    @pytest.mark.parametrize("chunk", [1 << 4, additive.CHUNK_ASCENDING])
    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_whole_range_matches_oracle(self, monkeypatch, spec, chunk):
        """All of [2, 3000]: the prime powers' deepest odd targets settle in
        the full-width passes, before the late phase, so only the search
        for their least x finds the depth."""
        monkeypatch.setattr(additive, "CHUNK_ASCENDING", chunk)
        rep = verify_additive(2, 3000, spec, spec, max_counterexamples=10**4, sample_size=10**4)
        self.check(rep, 1, 1, spec, 2, 3000, 1, 10**4, 10**4)

    @settings(max_examples=120, deadline=None)
    @given(bounds=st.lists(st.integers(1, 3000), min_size=2, max_size=2).map(sorted),
           spec=st.sampled_from(SPECS),
           pair=st.sampled_from([(1, 1), (2, 3), (4, 7), (3, 5), (2, 151)]),
           linear=st.booleans(), even_only=st.booleans(),
           chunk=st.sampled_from([1 << 4, 1 << 7, additive.CHUNK_ASCENDING]),
           sample_size=st.sampled_from([0, 3, 10**4]))
    def test_matches_oracles(self, bounds, spec, pair, linear, even_only, chunk, sample_size):
        lo, hi = bounds
        a, b = pair if linear else (1, 1)
        counts = {"max_counterexamples": 10**4, "sample_size": sample_size}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(additive, "CHUNK_ASCENDING", chunk)
            if linear:
                rep, step, end = verify_linear(a, b, lo, hi, spec, **counts), 1, hi + 1
            else:
                lo, step = max(lo, 2), 2 if even_only else 1
                hi = max(lo, hi)
                rep = verify_additive(lo, hi, spec, spec, even_only=even_only, **counts)
                end = lo + step * sample_size
        self.check(rep, a, b, spec, lo, hi, step, end, sample_size)


class TestLargeSample:
    """Witness samples that span many narrow chunks, every one of them
    checked against the brute-force oracles."""

    @pytest.fixture(autouse=True)
    def narrow(self, monkeypatch):
        monkeypatch.setattr(additive, "CHUNK", 1 << 8)
        monkeypatch.setattr(additive, "CHUNK_ASCENDING", 1 << 8)

    @staticmethod
    def check(rep, witness):
        sample = {w["n"]: (w["x"], w["y"]) for w in rep.witness_sample}
        first = sorted(witness)[: 10**4]
        assert list(sample) == first
        assert sample == {n: witness[n] for n in first}

    def test_goldbach(self):
        spec = DomainSpec("primes")
        rep = verify_additive(4, 2 * 10**4, spec, spec, even_only=True, sample_size=10**4)
        _, witness, _ = oracle_additive(4, 2 * 10**4, spec, spec, even_only=True)
        self.check(rep, witness)

    def test_prime_proper_descending(self):
        left, right = DomainSpec("primes"), DomainSpec("proper", True)
        rep = verify_additive(6, 2 * 10**4, left, right, sample_size=10**4)
        assert rep.stats["mode"] == "right-descending"
        _, witness, _ = oracle_additive(6, 2 * 10**4, left, right)
        self.check(rep, witness)

    def test_unbounded_sample_holds_every_represented_target(self):
        spec, primes = DomainSpec("figurate", True), DomainSpec("primes")
        no_one, proper = DomainSpec("figurate", False), DomainSpec("proper", True)
        runs = [  # (verifier, oracle, arguments, keywords)
            (verify_additive, oracle_additive, (2, 4000, no_one, no_one), {}),
            (verify_additive, oracle_additive, (5, 4000, primes, primes), {"even_only": True}),
            (verify_additive, oracle_additive, (6, 4000, primes, proper), {}),
            (verify_linear, oracle_linear, (2, 3, 1, 4000, spec), {}),
            (verify_linear, oracle_linear, (2, 151, 1, 4000, spec), {}),
        ]
        for verify, oracle, args, kw in runs:
            rep = verify(*args, **kw, sample_size=10**30)
            witness = oracle(*args, **kw)[1]
            assert len(rep.witness_sample) == rep.stats["witnesses"] == len(witness)
            self.check(rep, witness)

    def test_linear_descending_classes(self):
        spec = DomainSpec("figurate", True)
        rep = verify_linear(2, 151, 1, 2 * 10**4, spec, sample_size=10**4,
                            max_counterexamples=10**6)
        _, witness, _, _ = oracle_linear(2, 151, 1, 2 * 10**4, spec)
        self.check(rep, witness)
        assert {w["n"] % 2 for w in rep.witness_sample} == {0, 1}


@pytest.mark.parametrize("left, right", [
    (DomainSpec("figurate"), DomainSpec("figurate")),
    (DomainSpec("figurate", False), DomainSpec("figurate", False)),
    (DomainSpec("primes"), DomainSpec("proper")),
    (DomainSpec("prime-powers"), DomainSpec("prime-powers")),
], ids=["sum2", "sum2-no-one", "prime-proper", "prime-powers"])
def test_scan_peak_memory_near_table(left, right):
    """The scan holds each candidate class once, as an array, and reads the
    side it looks up through the sieve's prime mask, cut in place: its traced
    peak stays within 2.8 times that of building the prime table alone (2.45
    to 2.58 today).  A copy of the mask per domain would exceed it, and so
    would a Python-list copy of the members or a bitmap of the set table's."""
    verify_additive(2, 10**4, left, right)  # first-call allocations stay out
    tracemalloc.start()
    try:
        build_sieve(10**6)
        sieve = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        verify_additive(2, 10**6, left, right)
        scan = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scan <= 2.8 * sieve, scan / sieve


def test_scan_holds_counterexamples_once(monkeypatch):
    """Sums of two prime powers leave 121,376 counterexamples in [2, 3*10**6].
    Once its chunks are done, the scan holds their joined array once, and it
    takes the sample's grid indices from the counterexamples below the
    sample's end alone.  With the set table built before tracing, the traced
    peak stays within 2.6 times the bytes of the one mask the scan looks up
    (2.48 today); two more int64 copies of the counterexamples reach 2.88."""
    spec, hi = DomainSpec("prime-powers"), 3 * 10**6
    verify_additive(2, 10**4, spec, spec)  # first-call allocations stay out
    table = generate_figurate(hi)
    monkeypatch.setattr(additive, "generate_figurate", lambda limit: table)
    tracemalloc.start()
    try:
        rep = verify_additive(2, hi, spec, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.counterexample_total == 121_376
    assert peak <= 2.6 * (hi + 1), peak / (hi + 1)  # the de-interleaved mask has hi + 1 entries
