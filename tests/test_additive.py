"""Additive-representation scans against set-based brute force.

The oracle builds the two member sets explicitly and checks every target by
direct subtraction, so engine shortcuts (direction switching, chunking,
straggler fallback) must all collapse to the same answers.
"""
from __future__ import annotations

import pytest

from figprimes import DomainSpec, UsageError, verify_additive, verify_linear
from figprimes.additive import resolve_domain


def domain_set(spec: DomainSpec, table) -> set[int]:
    return set(resolve_domain(spec, table).values.tolist())


def oracle_additive(lo, hi, left, right, table, even_only=False):
    """(counterexamples, minimal-x witness per n, its 1-based rank among
    the left values) by direct subtraction."""
    lset = sorted(domain_set(left, table))
    rset = domain_set(right, table)
    cex, witness, position = [], {}, {}
    for n in range(lo, hi + 1):
        if even_only and n % 2:
            continue
        for pos, x in enumerate(lset, 1):
            if x >= n:
                break
            if n - x in rset:
                witness[n] = (x, n - x)
                position[n] = pos
                break
        else:
            cex.append(n)
    return cex, witness, position


class TestSumOfTwoMembers:
    def test_matches_oracle_small(self, fig2e4):
        spec = DomainSpec("figurate", True)
        rep = verify_additive(2, 3000, spec, spec, fig2e4)
        cex, witness, position = oracle_additive(2, 3000, spec, spec, fig2e4)
        assert rep.counterexamples == cex == []
        assert rep.verified
        assert rep.stats["max_search_depth"] == max(position.values())
        for w in rep.witness_sample:
            assert witness[w["n"]] == (w["x"], w["y"])

    def test_forced_decomposition_for_two(self, fig2e4):
        spec = DomainSpec("figurate", True)
        rep = verify_additive(2, 2, spec, spec, fig2e4)
        assert rep.witness_sample[0]["n"] == 2
        assert (rep.witness_sample[0]["x"], rep.witness_sample[0]["y"]) == (1, 1)

    def test_minimal_x_witness_for_97(self, fig2e4):
        spec = DomainSpec("figurate", True)
        rep = verify_additive(97, 97, spec, spec, fig2e4)
        assert (rep.witness_sample[0]["x"], rep.witness_sample[0]["y"]) == (8, 89)

    def test_scalar_tail_witness_and_depth(self, fig1e6):
        # one target leaves the vectorized passes after 64 candidates, so
        # its witness and depth come from the scalar tail
        spec = DomainSpec("figurate", True)
        rep = verify_additive(671581, 671581, spec, spec, fig1e6)
        assert (rep.witness_sample[0]["x"], rep.witness_sample[0]["y"]) == (88410, 583171)
        assert rep.stats["max_search_depth"] == 8834

    def test_exclude_one_fails_below_four(self, fig2e4):
        # at 20000, 2 and 3 are still open when the scalar tail takes over
        spec = DomainSpec("figurate", False)
        for hi in (100, 20000):
            rep = verify_additive(2, hi, spec, spec, fig2e4)
            assert 2 in rep.counterexamples and 3 in rep.counterexamples
            assert not rep.verified

    def test_witnesses_satisfy_equation_and_membership(self, fig2e4):
        spec = DomainSpec("figurate", True)
        rep = verify_additive(2, 500, spec, spec, fig2e4, sample_size=10)
        members = domain_set(spec, fig2e4)
        for w in rep.witness_sample:
            assert w["x"] + w["y"] == w["n"]
            assert w["x"] in members and w["y"] in members
            assert w["x_cert"]["kind"] in ("prime", "prime-power", "binomial")


class TestPrimePlusProper:
    def test_matches_oracle_small(self, fig2e4):
        left, right = DomainSpec("primes"), DomainSpec("proper", True)
        rep = verify_additive(6, 2500, left, right, fig2e4)
        cex, witness, _ = oracle_additive(6, 2500, left, right, fig2e4)
        assert rep.counterexamples == cex
        for w in rep.witness_sample:
            assert witness[w["n"]] == (w["x"], w["y"])

    def test_spec_witness_for_eleven(self, fig2e4):
        left, right = DomainSpec("primes"), DomainSpec("proper", True)
        rep = verify_additive(11, 11, left, right, fig2e4)
        assert (rep.witness_sample[0]["x"], rep.witness_sample[0]["y"]) == (2, 9)

    def test_proper_domain_excludes_primes(self, fig2e4):
        proper = domain_set(DomainSpec("proper", True), fig2e4)
        assert {1, 4, 6, 9, 10}.issubset(proper)
        assert not any(p in proper for p in (2, 3, 5, 7, 11, 13))


class TestGoldbach:
    def test_even_range_verified_to_1e4(self, fig2e4):
        spec = DomainSpec("primes")
        rep = verify_additive(4, 10**4, spec, spec, fig2e4, even_only=True)
        assert rep.verified
        assert rep.stats["scanned"] == (10**4 - 4) // 2 + 1
        _, _, position = oracle_additive(4, 10**4, spec, spec, fig2e4, even_only=True)
        assert rep.stats["max_search_depth"] == max(position.values())

    def test_odd_targets_skipped(self, fig2e4):
        spec = DomainSpec("primes")
        for lo, scanned in ((4, 48), (5, 47)):
            rep = verify_additive(lo, 99, spec, spec, fig2e4, even_only=True)
            assert rep.stats["scanned"] == scanned


class TestEngineMechanics:
    def test_direction_switch_same_report(self, fig2e4):
        # prime + proper iterates the sparse proper side descending; force the
        # ascending path with equal domains and compare a mixed case instead
        left, right = DomainSpec("primes"), DomainSpec("proper", True)
        rep = verify_additive(6, 4000, left, right, fig2e4)
        assert rep.stats["mode"] == "right-descending"
        # descending depths leave the scalar tail out; the benchmark's
        # recordings pin that figure
        assert rep.stats["max_search_depth"] == 83
        cex, witness, _ = oracle_additive(6, 4000, left, right, fig2e4)
        assert rep.counterexamples == cex
        for w in rep.witness_sample:
            assert witness[w["n"]] == (w["x"], w["y"])

    def test_jobs_do_not_change_report(self, fig1e6):
        spec = DomainSpec("figurate", True)
        reps = [
            verify_additive(2, 2 * 10**5, spec, spec, fig1e6, jobs=j)
            for j in (1, 4)
        ]
        a, b = reps
        assert a.counterexamples == b.counterexamples
        assert a.witness_sample == b.witness_sample
        assert a.stats == b.stats
        assert a.verified == b.verified

    def test_split_ranges_merge_to_full_run(self, fig2e4):
        spec = DomainSpec("figurate", True)
        full = verify_additive(2, 9000, spec, spec, fig2e4, max_counterexamples=10**6)
        parts = [
            verify_additive(lo, hi, spec, spec, fig2e4, max_counterexamples=10**6)
            for lo, hi in ((2, 4500), (4501, 9000))
        ]
        merged = parts[0].counterexamples + parts[1].counterexamples
        assert full.counterexamples == merged

    def test_monotone_include_one(self, fig2e4):
        incl = verify_additive(
            2, 10**4, DomainSpec("figurate", True), DomainSpec("figurate", True),
            fig2e4, max_counterexamples=10**6,
        )
        excl = verify_additive(
            2, 10**4, DomainSpec("figurate", False), DomainSpec("figurate", False),
            fig2e4, max_counterexamples=10**6,
        )
        assert set(incl.counterexamples).issubset(set(excl.counterexamples))

    def test_range_and_table_guards(self, fig2e4):
        spec = DomainSpec("figurate", True)
        with pytest.raises(UsageError):
            verify_additive(1, 10, spec, spec, fig2e4)
        with pytest.raises(UsageError):
            verify_additive(2, fig2e4.limit + 1, spec, spec, fig2e4)
        for bad in ({"jobs": 0}, {"sample_size": -1}, {"max_counterexamples": -1}):
            with pytest.raises(UsageError):
                verify_additive(2, 10, spec, spec, fig2e4, **bad)
            with pytest.raises(UsageError):
                verify_linear(1, 2, 1, 10, spec, fig2e4, **bad)

    def test_unknown_domain_kind_rejected(self):
        with pytest.raises(UsageError):
            DomainSpec("integers")

    def test_include_one_needs_matching_table(self):
        from figprimes import generate_figurate

        bare = generate_figurate(100, include_one=False)
        with pytest.raises(UsageError):
            resolve_domain(DomainSpec("figurate", True), bare)


def oracle_linear(a, b, lo, hi, spec, table):
    """Also returns each witness x's 1-based rank among the values = x mod b."""
    vals = sorted(domain_set(spec, table))
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


class TestLinear:
    @pytest.mark.parametrize("a,b", [(1, 2), (2, 3), (3, 4), (4, 7)])
    def test_matches_oracle_figurate(self, fig2e4, a, b):
        spec = DomainSpec("figurate", True)
        rep = verify_linear(a, b, 1, 1200, spec, fig2e4, max_counterexamples=10**6)
        cex, witness, below, position = oracle_linear(a, b, 1, 1200, spec, fig2e4)
        assert rep.counterexamples == cex
        assert rep.stats["below_floor"] == below
        assert rep.stats["max_search_depth"] == max(position.values())
        assert rep.stats["largest_exception"] == (max(cex) if cex else None)
        for w in rep.witness_sample:
            assert witness[w["n"]] == (w["x"], w["y"])

    def test_matches_oracle_primes(self, fig2e4):
        spec = DomainSpec("primes")
        rep = verify_linear(1, 2, 2, 800, spec, fig2e4, max_counterexamples=10**6)
        cex, _, _, _ = oracle_linear(1, 2, 2, 800, spec, fig2e4)
        assert rep.counterexamples == cex
        assert 20 in rep.counterexamples

    def test_twenty_over_members_has_witness(self, fig2e4):
        rep = verify_linear(1, 2, 20, 20, DomainSpec("figurate", True), fig2e4)
        assert rep.verified
        assert (rep.witness_sample[0]["x"], rep.witness_sample[0]["y"]) == (2, 9)

    def test_minimum_of_form_witness(self, fig2e4):
        rep = verify_linear(2, 3, 5, 5, DomainSpec("figurate", True), fig2e4)
        assert (rep.witness_sample[0]["x"], rep.witness_sample[0]["y"]) == (1, 1)

    def test_below_floor_not_counterexamples(self, fig2e4):
        rep = verify_linear(2, 3, 1, 4, DomainSpec("figurate", True), fig2e4)
        assert rep.counterexamples == []
        assert rep.stats["below_floor"] == 4
        assert rep.verified

    def test_threshold_reported(self, fig2e4):
        rep = verify_linear(4, 7, 1, 2000, DomainSpec("figurate", True), fig2e4,
                            max_counterexamples=10**6)
        assert rep.stats["threshold"] == 18
        assert rep.stats["largest_exception_within_threshold"] in (None, False, True)

    def test_witnesses_satisfy_equation(self, fig2e4):
        spec = DomainSpec("figurate", True)
        rep = verify_linear(2, 3, 5, 400, spec, fig2e4, sample_size=10)
        members = domain_set(spec, fig2e4)
        for w in rep.witness_sample:
            assert 2 * w["x"] + 3 * w["y"] == w["n"]
            assert w["x"] in members and w["y"] in members

    def test_jobs_do_not_change_report(self, fig2e4):
        spec = DomainSpec("figurate", True)
        reps = [
            verify_linear(2, 3, 1, 2 * 10**4, spec, fig2e4, jobs=j,
                          max_counterexamples=10**6)
            for j in (1, 4)
        ]
        assert reps[0].counterexamples == reps[1].counterexamples
        assert reps[0].stats == reps[1].stats
        assert reps[0].witness_sample == reps[1].witness_sample

    def test_coprimality_enforced(self, fig2e4):
        with pytest.raises(UsageError):
            verify_linear(2, 4, 1, 10, DomainSpec("figurate", True), fig2e4)
