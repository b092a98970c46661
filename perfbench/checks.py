"""Output checks for the benchmark's operations.

An operation fails when its exit code or any report field except
``elapsed_ms`` differs from what is expected. Two sources of expectation:

* the reports recorded from the seed commit (``expected/<workload>.json``),
  for every operation whose argv equals the recorded one (all of them at the
  default seed); stats keys the recording lacks are ignored;
* on every seed, checks that use no figprimes code: witnesses and solutions
  are re-evaluated with ``math.comb`` and ``sympy.isprime``, listed
  counterexamples are re-checked by brute force over an independently built
  member set, and small searches are recounted from scratch.
"""
from __future__ import annotations

import hashlib
import json
import random
from math import comb, isqrt

import numpy as np
from sympy import factorint, isprime, primepi

from workloads import DEFAULT_SEED

SPOT_CHECKS = 32
#: scans up to this size get a full independent recount of counterexamples;
#: larger ones get SPOT_CHECKS sampled targets
RECOUNT_MAX = 2 * 10**5
SAMPLE_CHECKS = 200
BRUTE_MAX = 20000


# ---------------------------------------------------------------------------
# report normalisation and the recorded expectations


def parse(op, payload: bytes):
    """The report as data: a dict for json; for csv, (header, int64 rows)."""
    if op.fmt == "json":
        return json.loads(payload)
    head, _, body = payload.partition(b"\n")
    header = head.decode("utf-8").split(",")
    flat = np.fromstring(body.replace(b",", b" ").decode("ascii"), dtype=np.int64, sep=" ")
    return header, flat.reshape(-1, len(header))


def record(op, rc: int, payload: bytes) -> dict:
    """What ``expected/<workload>.json`` keeps for one operation."""
    entry = {"argv": list(op.argv), "rc": rc}
    if op.fmt == "json":
        env = json.loads(payload)
        env.pop("elapsed_ms", None)
        entry["report"] = env
    else:
        entry["sha256"] = hashlib.sha256(payload).hexdigest()
        entry["bytes"] = len(payload)
    return entry


def against_recorded(op, payload: bytes, want: dict) -> list[str]:
    """Differences between a report and the seed commit's recording."""
    if list(op.argv) != want["argv"]:
        return [f"argv {list(op.argv)} differs from the recorded {want['argv']}"]
    if op.fmt != "json":
        if hashlib.sha256(payload).hexdigest() != want["sha256"]:
            return [f"csv differs from the recording ({len(payload)} vs {want['bytes']} bytes)"]
        return []
    env = json.loads(payload)
    env.pop("elapsed_ms", None)
    expected = want["report"]
    if isinstance(env.get("stats"), dict) and isinstance(expected.get("stats"), dict):
        env["stats"] = {k: v for k, v in env["stats"].items() if k in expected["stats"]}
    return [
        f"field {key!r} differs from the recording"
        for key in sorted(set(env) | set(expected))
        if env.get(key) != expected.get(key)
    ]


# ---------------------------------------------------------------------------
# an independent model of the set: C(p^a, i) with p prime, a >= 1


def prime_mask(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


class MemberModel:
    """Membership arrays up to ``limit``, built from a sieve and math.comb."""

    def __init__(self, limit: int):
        self.limit = limit
        self.primes = prime_mask(limit)
        self.powers = np.zeros(limit + 1, dtype=bool)
        for p in np.flatnonzero(self.primes).tolist():
            v = p
            while v <= limit:
                self.powers[v] = True
                v *= p
        self.members = self.powers.copy()
        self.members[1] = True  # C(m, m)
        bases = np.flatnonzero(self.powers).tolist()
        i = 2
        while comb(2 * i, i) <= limit:
            for m in bases:
                if m < 2 * i:
                    continue
                v = comb(m, i)
                if v > limit:
                    break
                self.members[v] = True
            i += 1

    def domain(self, kind: str, include_one: bool = True) -> np.ndarray:
        if kind == "primes":
            return self.primes
        if kind == "prime-powers":
            return self.powers
        mask = self.members.copy()
        if kind == "proper":
            mask &= ~self.primes
        if not include_one:
            mask[1] = False
        return mask


def prime_power(n: int) -> tuple[int, int] | None:
    if n < 2:
        return None
    f = factorint(n)
    return next(iter(f.items())) if len(f) == 1 else None


def is_member(n: int) -> bool:
    """n = 1, a prime power, or C(m, i) with m a prime power and 2i <= m."""
    if n == 1 or prime_power(n):
        return True
    i = 2
    while comb(2 * i, i) <= n:
        lo, hi = 2 * i, 2 * i
        while comb(hi, i) < n:
            hi *= 2
        while lo < hi:
            mid = (lo + hi) // 2
            if comb(mid, i) < n:
                lo = mid + 1
            else:
                hi = mid
        if comb(lo, i) == n and prime_power(lo):
            return True
        i += 1
    return False


def t_full(n: int, t: int) -> bool:
    return all(e >= t for e in factorint(n).values())


# ---------------------------------------------------------------------------
# per-kind report checks; each returns a list of problems


def _cert_ok(value: int, cert: dict, domain: str) -> bool:
    kind = cert.get("kind")
    if kind == "prime":
        ok = isprime(value)
    elif kind == "prime-power":
        ok = cert["p"] ** cert["a"] == value and isprime(cert["p"])
    elif kind == "binomial":
        p, a, i = cert["p"], cert["a"], cert["i"]
        ok = a >= 1 and 1 <= i <= p**a and isprime(p) and comb(p**a, i) == value
    else:
        return False
    if domain == "primes":
        return ok and isprime(value)
    if domain == "proper":
        return ok and not isprime(value)
    return ok


def recount(lo, hi, a, b, even, left, right) -> list[int]:
    """Every n in [lo, hi] with n >= a + b that is not a*x + b*y, x in left and
    y in right, found by marking all sums."""
    reach = np.zeros(hi + 1, dtype=bool)
    ys = np.flatnonzero(right[: hi + 1])
    ys = ys[ys >= 1]
    for x in np.flatnonzero(left[: hi // a + 1]).tolist():
        if x < 1:
            continue
        cut = int(np.searchsorted(ys, (hi - a * x) // b, side="right"))
        reach[a * x + b * ys[:cut]] = True
    n = np.arange(max(lo, a + b), hi + 1)
    if even:
        n = n[n % 2 == 0]
    return n[~reach[n]].tolist()


def check_scan(op, env, rng, model_for) -> list[str]:
    p = op.params
    lo, hi = p["lo"], p["hi"]
    a, b = p.get("a", 1), p.get("b", 1)
    bad = []
    stats = env["stats"]
    ces, total = env["counterexamples"], env["counterexample_total"]
    width = (hi // 2 - (lo - 1) // 2) if p["even"] else hi - lo + 1
    if env["range"] != [lo, hi]:
        bad.append(f"range {env['range']} is not [{lo}, {hi}]")
    if env["verified"] != (total == 0) or len(ces) != min(total, 100):
        bad.append("verified flag or counterexample list disagrees with the total")
    if stats.get("scanned") != width:
        bad.append(f"scanned {stats.get('scanned')} targets, expected {width}")
    if stats.get("witnesses") != width - total - stats.get("below_floor", 0):
        bad.append("witness count disagrees with scanned minus counterexamples")
    if not env["witness_sample"]:
        bad.append("no witnesses sampled")
    for w in env["witness_sample"]:
        n, x, y = w["n"], w["x"], w["y"]
        if not lo <= n <= hi or a * x + b * y != n:
            bad.append(f"witness {n} = {a}*{x} + {b}*{y} is wrong")
        elif not (_cert_ok(x, w["x_cert"], p["left"]) and _cert_ok(y, w["y_cert"], p["right"])):
            bad.append(f"certificate of witness {n} = {a}*{x} + {b}*{y} is wrong")
    if hi <= RECOUNT_MAX:
        model = model_for(hi)
        want = recount(lo, hi, a, b, p["even"], model.domain(p["left"]),
                       model.domain(p["right"]))
        if total != len(want) or ces != want[: len(ces)]:
            bad.append(f"counterexamples differ from a full recount ({len(want)} of them)")
        return bad
    complete = len(ces) == total
    spots = []
    if complete:
        pool = range(lo + (lo % 2 if p["even"] else 0), hi + 1, 2 if p["even"] else 1)
        spots = rng.sample(pool, min(SPOT_CHECKS, len(pool)))
    top = max(ces + spots) if ces or spots else 0
    if top < 2:
        return bad
    model = model_for(top)
    left = model.domain(p["left"])
    right = model.domain(p["right"])
    lvals = np.flatnonzero(left)

    def representable(n: int) -> bool:
        xs = lvals[a * lvals < n]
        rest = n - a * xs
        ys = rest[rest % b == 0] // b
        return bool(right[ys[ys >= 1]].any())

    for n in ces:
        if not lo <= n <= hi or representable(n):
            bad.append(f"listed counterexample {n} has a representation")
    listed = set(ces)
    for n in spots:
        if n in listed or n < a + b:
            continue
        if not representable(n):
            bad.append(f"target {n} has no representation but is not listed")
    return bad


def _solution_ok(i, j, k, p, a, q, b, left=None, right=None) -> bool:
    if not (isprime(p) and isprime(q) and a >= 1 and b >= 1):
        return False
    lv, rv = comb(p**a, i), comb(q**b, j)
    if left is not None and (lv, rv) != (left, right):
        return False
    return lv - rv == k and rv >= 1


def unit_solutions(k: int, bound: int) -> set[tuple[int, int, int, int]]:
    """All p^a - q^b = k (k odd) with q^b <= bound: one side is a power of 2."""
    out = set()
    e = 1
    while 2**e <= bound + k:
        two = 2**e
        up = prime_power(two + k)
        if two <= bound and up:
            out.add((up[0], up[1], 2, e))
        down = prime_power(two - k) if two - k >= 2 else None
        if down and two - k <= bound:
            out.add((2, e, down[0], down[1]))
        e += 1
    return out


def check_solve(op, env, rng, model_for) -> list[str]:
    i, j, k, bound = (op.params[x] for x in ("i", "j", "k", "bound"))
    bad = []
    sols = env["witness_sample"]
    for s in sols:
        if not _solution_ok(i, j, k, s["p"], s["a"], s["q"], s["b"], s["left"], s["right"]):
            bad.append(f"solution {s} does not satisfy C(p^a,{i}) - C(q^b,{j}) = {k}")
        elif s["right"] > bound:
            bad.append(f"solution {s} exceeds the bound")
    if env["stats"].get("solutions") != len(sols):
        bad.append("solution count disagrees with the solutions listed")
    if i == j == 1 and k % 2:
        got = {(s["p"], s["a"], s["q"], s["b"]) for s in sols}
        want = unit_solutions(k, bound)
        if got != want:
            bad.append(f"unit solve lists {sorted(got ^ want)} wrongly")
    for e in env.get("errata") or []:
        computed = {tuple(t) for t in e["computed"]}
        if computed != {(s["p"], s["q"], s["a"], s["b"]) for s in sols}:
            bad.append("catalog entry disagrees with the solutions")
        match = {tuple(t) for t in e["published"]} == computed
        if (e["status"] == "MATCH") != match or env["verified"] != match:
            bad.append("catalog status is wrong")
    return bad


def check_errata(op, env, rng, model_for) -> list[str]:
    bad = []
    discrepant = []
    for e in env["errata"]:
        if "instance" not in e:
            continue
        i, j, k = e["instance"]
        published = {tuple(t) for t in e["published"]}
        computed = {tuple(t) for t in e["computed"]}
        for p, q, a, b in computed:
            if not _solution_ok(i, j, k, p, a, q, b):
                bad.append(f"computed {(p, q, a, b)} does not solve {(i, j, k)}")
        wrong = [t for t in published if not _solution_ok(i, j, k, t[0], t[2], t[1], t[3])]
        if len(e["notes"]) != len(wrong):
            bad.append(f"{(i, j, k)} notes {len(e['notes'])} bad tuples, found {len(wrong)}")
        if (e["status"] == "MATCH") != (published == computed):
            bad.append(f"status of {(i, j, k)} is wrong")
        if e["status"] != "MATCH":
            discrepant.append([i, j, k])
            # brute-force side: a published tuple fails its equation, or a
            # verified solution is missing from the publication
            if not wrong and computed <= published:
                bad.append(f"discrepancy {(i, j, k)} is not confirmed")
    if env["counterexamples"] != discrepant or env["counterexample_total"] != len(discrepant):
        bad.append("counterexamples are not the discrepant instances")
    if env["verified"] != (not discrepant):
        bad.append("verified flag is wrong")
    return bad


FAMILIES = {
    "square-plus-one-triangular": lambda p, a, q: (
        a % 2 == 0 and isprime(q) and p**a == comb(q, 2) + 1),
    "odd-exponent-triangular": lambda p, a, q: (
        a in (3, 5, 7) and isprime(q) and p**a == comb(q, 2) + 1),
    "power-plus-one-tetrahedral": lambda p, q, a, b: (
        isprime(q) and p**a == comb(q**b, 3) + 1),
}


def check_families(op, env, rng, model_for) -> list[str]:
    bad = []
    failing = []
    for name, rule in FAMILIES.items():
        sec = env["stats"].get(name)
        if sec is None:
            bad.append(f"family {name} missing")
            continue
        for t in sec["solutions"]:
            if not (isprime(t[0]) and rule(*t)):
                bad.append(f"{name} solution {t} is wrong")
        match = {tuple(t) for t in sec["solutions"]} == {tuple(t) for t in sec["expected"]}
        if sec["matches"] != match:
            bad.append(f"{name} match flag is wrong")
        if not match:
            failing.append(name)
    if env["counterexamples"] != failing or env["verified"] != (not failing):
        bad.append("family verdict is wrong")
    return bad


def check_triangular(op, env, rng, model_for) -> list[str]:
    limit = op.params["limit"]
    want = []
    mask = prime_mask(isqrt(2 * limit) + 2)
    for q in np.flatnonzero(mask).tolist():
        p = comb(q, 2) + 1
        if p > limit:
            break
        if isprime(p):
            want.append({"p": p, "q": q})
    bad = []
    if env["stats"].get("count") != len(want):
        bad.append(f"count {env['stats'].get('count')} but recount gives {len(want)}")
    if env["witness_sample"] != want[: len(env["witness_sample"])] or not env["witness_sample"]:
        bad.append("listed pairs differ from the recount")
    return bad


def _curve_rhs(kind: str, sign: int, k: int, X: int) -> int:
    if kind == "cubic":
        return X**3 - 144 * X + 1296 + 10368 * sign * k
    return 3 * X**4 + 6 * X**3 - 3 * X**2 - 6 * X + 9 + 72 * sign * k


def check_curve(op, env, rng, model_for) -> list[str]:
    kind, sign, k, xmax = (op.params[x] for x in ("kind", "sign", "k", "xmax"))
    points = []
    for X in range(-xmax, xmax + 1):
        r = _curve_rhs(kind, sign, k, X)
        if r >= 0 and isqrt(r) ** 2 == r:
            points.append({"X": X, "Y": isqrt(r)})
    high = 3 if kind == "cubic" else 4
    i, j = (2, high) if sign > 0 else (high, 2)
    sols = set()
    for pt in points:
        X, Y = pt["X"], pt["Y"]
        if Y <= 0:
            continue
        if kind == "cubic":
            if X % 12 or Y % 72 != 36:
                continue
            x, y = (X + 12) // 12, (Y + 36) // 72
        else:
            if Y % 6 != 3:
                continue
            x, y = X + 2, (Y + 3) // 6
        la, ra = (y, x) if sign > 0 else (x, y)
        pl, pr = prime_power(la), prime_power(ra)
        if pl and pr and la >= i and ra >= j and comb(la, i) - comb(ra, j) == k:
            sols.add((pl[0], pr[0], pl[1], pr[1]))
    bad = []
    if env["witness_sample"] != points or env["stats"].get("points") != len(points):
        bad.append(f"integral points differ from a brute-force search ({len(points)} points)")
    if {tuple(s) for s in env["stats"].get("solutions", [])} != sols:
        bad.append("lifted solutions differ from the brute-force lift")
    return bad


def _cubefull_pair_ok(A: int, B: int, d: int, limit: int) -> bool:
    return A - B == d and 1 <= B and A <= limit and t_full(A * B, 3)


def _no_cubefull_pair(d: int, limit: int) -> bool:
    """Brute force over B, capped at BRUTE_MAX so a bad report cannot stall the run."""
    top = min(limit - d, BRUTE_MAX)
    return not any(t_full(B * (B + d), 3) for B in range(1, top + 1))


def check_conj41(op, env, rng, model_for) -> list[str]:
    bad, failing = [], []
    rows = env["stats"]["rows"]
    if [row["r"] for row in rows] != list(range(op.params["rmax"] + 1)):
        bad.append("rows do not cover r = 0..rmax")
    for row in rows:
        r, d = row["r"], row["d"]
        expected = [] if r == 0 else [[2 ** (r + 1), 2**r]]
        if d != 2**r or row["expected"] != expected:
            bad.append(f"row r={r} has the wrong gap or expectation")
        for A, B in row["pairs"]:
            if not _cubefull_pair_ok(A, B, d, op.params["limit"]):
                bad.append(f"pair {(A, B)} at r={r} is not a cube-full pair")
        if row["matches"] != (row["pairs"] == expected):
            bad.append(f"match flag at r={r} is wrong")
        if row["pairs"] != expected:
            failing.append(r)
    if env["counterexamples"] != failing or env["verified"] != (not failing):
        bad.append("verdict disagrees with the rows")
    return bad


def check_conj42(op, env, rng, model_for) -> list[str]:
    bad = []
    limit = op.params["limit"]
    rows = env["stats"]["rows"]
    for row in rows:
        d, first = row["d"], row["first"]
        if (row["count"] > 0) != (first is not None):
            bad.append(f"gap {d}: count and first pair disagree")
        if first and not _cubefull_pair_ok(first[0], first[1], d, limit):
            bad.append(f"gap {d}: {first} is not a cube-full pair")
    empty = [row["d"] for row in rows if row["count"] == 0]
    if env["counterexamples"] != empty or env["verified"] != (not empty):
        bad.append("verdict disagrees with the rows")
    for d in empty:
        if not _no_cubefull_pair(d, limit):
            bad.append(f"gap {d} is listed empty but has a pair")
    least = env["stats"].get("least_empty_prime")
    if least is not None and not isprime(least):
        bad.append("least empty prime gap is not prime")
    return bad


def check_cubefull(op, env, rng, model_for) -> list[str]:
    d, limit = op.params["d"], op.params["limit"]
    bad = []
    for w in env["witness_sample"]:
        if w["d"] != d or not _cubefull_pair_ok(w["A"], w["B"], d, limit):
            bad.append(f"{w} is not a cube-full pair")
    if env["stats"].get("count", -1) < len(env["witness_sample"]):
        bad.append("count below the pairs listed")
    return bad


def squarefull_upto(limit: int) -> np.ndarray:
    """Square-full numbers up to limit as a^2 b^3, sorted and unique."""
    out = set()
    b = 1
    while b**3 <= limit:
        for a in range(1, isqrt(limit // b**3) + 1):
            out.add(a * a * b**3)
        b += 1
    return np.array(sorted(out), dtype=np.int64)


def check_powerful_pairs(op, env, rng, model_for) -> list[str]:
    sq = squarefull_upto(op.params["limit"])
    lows = sq[:-1][np.diff(sq) == 1]
    want = [{"d": 1, "A": int(b) + 1, "B": int(b)} for b in lows if b >= 2]
    bad = []
    if env["stats"].get("count") != len(want):
        bad.append(f"count {env['stats'].get('count')}, recount gives {len(want)}")
    if env["witness_sample"] != want[: len(env["witness_sample"])] or not env["witness_sample"]:
        bad.append("listed pairs differ from the recount")
    return bad


def _values(report, header: list[str]) -> np.ndarray | None:
    got, rows = report
    return rows if got == header else None


def check_members(op, rows, rng, model_for) -> list[str]:
    limit = op.params["limit"]
    vals = _values(rows, ["value"])
    if vals is None or vals.size == 0:
        return ["member dump has the wrong header or no rows"]
    vals = vals[:, 0]
    bad = []
    if vals[0] != 1 or vals[-1] > limit or not (np.diff(vals) > 0).all():
        bad.append("member dump is not ascending within [1, limit]")
    for v in rng.sample(vals.tolist(), min(SAMPLE_CHECKS, vals.size)):
        if not is_member(v):
            bad.append(f"{v} is listed but not a member")
    for n in rng.sample(range(1, limit + 1), SAMPLE_CHECKS):
        pos = int(np.searchsorted(vals, n))
        listed = pos < vals.size and vals[pos] == n
        if listed != is_member(n):
            bad.append(f"{n} is {'listed' if listed else 'missing'} wrongly")
    return bad


def check_figurate_stats(op, env, rng, model_for) -> list[str]:
    s = env["stats"]
    limit = op.params["limit"]
    bad = []
    if s.get("limit") != limit or s.get("primes") != int(primepi(limit)):
        bad.append("prime count differs from sympy.primepi")
    if s.get("total") != s.get("primes", 0) + s.get("composite_even", 0) + s.get(
        "composite_odd", 0
    ) + 1 or s.get("includes_one") is not True:
        bad.append("class counts do not add up to the total")
    elif s.get("density_vs_primes") != s["total"] / s["primes"]:
        bad.append("density is not total / primes")
    return bad


def check_twins(op, rows, rng, model_for) -> list[str]:
    limit = op.params["limit"]
    pairs = _values(rows, ["f", "g"])
    if pairs is None or pairs.size == 0:
        return ["twin dump has the wrong header or no rows"]
    bad = []
    f, g = pairs[:, 0], pairs[:, 1]
    if not ((g == f + 2).all() and (np.diff(f) > 0).all() and g[-1] <= limit):
        bad.append("twin dump is not ascending pairs (f, f+2) within the limit")
    for v in rng.sample(f.tolist(), min(SAMPLE_CHECKS, f.size)):
        if not (is_member(v) and is_member(v + 2)):
            bad.append(f"({v}, {v + 2}) is not a pair of members")
    return bad


CHECKS = {
    "scan": check_scan,
    "solve": check_solve,
    "errata": check_errata,
    "families": check_families,
    "triangular": check_triangular,
    "curve": check_curve,
    "conj41": check_conj41,
    "conj42": check_conj42,
    "cubefull": check_cubefull,
    "powerful-pairs": check_powerful_pairs,
    "members": check_members,
    "figurate-stats": check_figurate_stats,
    "twins": check_twins,
}


def cross_checks(reports: dict) -> dict[str, list[str]]:
    """Checks between reports of one pass: problems keyed by operation id."""
    out: dict[str, list[str]] = {}
    members = reports.get("figurate-csv")
    stats = reports.get("figurate-stats")
    twins = reports.get("twins-csv")
    if members is not None:
        vals = _values(members, ["value"])
        if vals is not None:
            vals = vals[:, 0]
            if stats is not None and stats["stats"].get("total") != vals.size:
                out.setdefault("figurate-stats", []).append("total differs from the dump")
            if twins is not None:
                pairs = _values(twins, ["f", "g"])
                want = vals[np.isin(vals + 2, vals)]
                if pairs is None or not np.array_equal(pairs[:, 0], want):
                    out.setdefault("twins-csv", []).append("twins differ from the member dump")
    return out


class Checker:
    """Runs every check for one workload and caches verdicts by report digest."""

    def __init__(self, workload, recorded: dict | None):
        """``recorded``: the recorded reports by operation id, or None to run
        only the independent checks."""
        self.workload = workload
        self.recorded = recorded
        self.rng = random.Random(f"checks:{workload.name}:{workload.seed}")
        self._model: MemberModel | None = None

    def model_for(self, limit: int) -> MemberModel:
        if self._model is None or self._model.limit < limit:
            self._model = MemberModel(limit)
        return self._model

    def recording(self, op) -> dict | None:
        """The recorded report of ``op``, if one was recorded with its argv."""
        want = self.recorded.get(op.id) if self.recorded is not None else None
        return want if want is not None and want["argv"] == list(op.argv) else None

    def rc_problems(self, op, rc) -> list[str]:
        want = self.recording(op)
        expected = want["rc"] if want else op.rc
        return [] if rc == expected else [f"exit code {rc}, expected {expected}"]

    def report_problems(self, op, payload: bytes, report) -> list[str]:
        """Everything wrong with one operation's report."""
        bad = []
        want = self.recording(op)
        if want is not None:
            bad += against_recorded(op, payload, want)
        elif self.recorded is not None and self.workload.seed == DEFAULT_SEED:
            # every operation is recorded at the default seed
            bad.append("no recorded report with this operation's argv")
        try:
            bad += CHECKS[op.kind](op, report, self.rng, self.model_for)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            bad.append(f"report is malformed: {exc!r}")
        return bad
