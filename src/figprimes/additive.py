"""Range verification for additive representations n = x + y and n = ax + by.

Both public verifiers are thin wrappers over one engine, ``_verify``; x + y is
its case a = b = 1.  The engine iterates one side and looks the other up in a
membership array: either x ascending in its residue classes mod b, or y
descending in its classes mod a, whose first hit from the top gives the same
minimal x.  It goes descending when the right domain has fewer than a quarter
of the left's members, or when a < b and b*b exceeds the number of targets,
so that ascending would have more classes than targets per class.  Only the
candidates that leave room for the other summand below hi are kept.  The
candidates of one class reach exactly one class of targets, a progression of
stride equal to the modulus, which one kernel settles with one vectorized
pass per candidate; classes holding no candidate are never visited, and their
targets stay counterexamples.  A pass only clears the hits from an open mask:
no witness is stored per target.  The range is cut into chunks, each chunk
fills one open mask over its targets, and chunk results are merged in chunk
order, so the report is identical no matter how many worker threads run.
Witnesses always use the minimal x.

Targets one stride s apart (s = 2 for even-only scans) look their summands
up one stride apart too.  Such a scan copies the membership array once into
the s contiguous residue views ``mem[r::s]``, shared by every chunk, so that
no pass reads memory with a stride; at s = 1 the array itself is the one
view.

A chunk spans a fixed number of targets per class, times the modulus, and
that number depends on the direction.  Ascending scans take CHUNK_ASCENDING:
each target's search starts at the smallest candidate whatever chunk holds
it, so the width changes no report, and wide chunks pay the per-pass cost of
a candidate once over many targets.  Descending scans keep CHUNK: each chunk
starts at the largest candidate below its own last target, so a wider chunk
spends more passes on candidates its low targets cannot use, and
``max_search_depth``, which those scans count from the chunk's top, would
change with the width.

The engine builds its own set table, to max(hi, 2), and resolves both domains
from it, so a report depends only on the range, the domains and the options.

The witness sample is the represented targets below a sample end, at most
``sample_size`` of them.  ``verify_additive`` ends it after its first
``sample_size`` targets; ``verify_linear`` ends it at hi + 1, so its sample is
the first ``sample_size`` represented targets of [lo, hi].  After its scan, a
chunk finds the witnesses of its share of the sample by the kernel's own
rule, one vectorized first-hit search per residue class.  A report names no
task and carries no parameters; the command line adds both.
"""
from __future__ import annotations

import os
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import ArithmeticGuardError, UsageError
from .figurate import FigurateTable, figurate_witness, generate_figurate
from .intkernel import U63_MAX, prime_power_decompose, prime_powers_upto

# Targets per residue class in one chunk, by direction (see above).
CHUNK = 1 << 16
CHUNK_ASCENDING = 1 << 18

# Below this many unresolved targets a chunk drops out of vectorized passes
# into per-target scalar scans.
_STRAGGLER_CUTOFF = 32
_STRAGGLER_MIN_PASSES = 64
# Below this fraction of open targets a chunk's passes gather the open
# targets only.
_COMPACT_BELOW = 1 / 32
# Rows times columns of one block of the witness search.
_SEARCH_CELLS = 1 << 18

DOMAIN_KINDS = ("primes", "figurate", "proper", "prime-powers")


@dataclass(frozen=True)
class DomainSpec:
    """A summand domain: which set, and whether the value 1 is admitted."""

    kind: str
    include_one: bool = True

    def __post_init__(self) -> None:
        if self.kind not in DOMAIN_KINDS:
            raise UsageError(f"unknown domain kind {self.kind!r}")


@dataclass(frozen=True)
class _Domain:
    values: np.ndarray      # ascending members, dtype int64
    membership: np.ndarray  # bool, indexable by value


def resolve_domain(spec: DomainSpec, table: FigurateTable) -> _Domain:
    """The members of ``spec`` up to the table's limit; the table holds 1."""
    pt = table.prime_table
    if spec.kind == "primes":
        return _Domain(pt.primes, pt.prime_mask)
    if spec.kind == "prime-powers":
        values = prime_powers_upto(table.limit, pt)[0]
        membership = np.zeros(table.limit + 1, dtype=bool)
        membership[values] = True
        return _Domain(values, membership)
    if spec.kind == "figurate" and spec.include_one:
        # the table's own arrays, shared: the kernel only reads them
        return _Domain(table.values, table.membership)
    membership = table.membership.copy()
    if spec.kind == "proper":
        membership &= ~pt.prime_mask
    if not spec.include_one:
        membership[1] = False
    return _Domain(np.flatnonzero(membership).astype(np.int64), membership)


@dataclass
class VerificationReport:
    lo: int
    hi: int
    verified: bool
    counterexamples: list[int]
    counterexample_total: int
    witness_sample: list[dict]
    stats: dict


def _settle(
    n0: int,
    step: int,
    count: int,
    cands: list[int],
    a: int,
    b: int,
    views: list[np.ndarray],
    ascending: bool,
) -> tuple[np.ndarray, int]:
    """Settle the targets n = n0 + step*t, 0 <= t < count, as n = a*c + b*o.

    Candidates c are tried in the given order, and a target settles at the
    first one with o >= 1 in the membership array ``mem``.  Callers keep
    n0 - a*c divisible by b and step a multiple of b, so for one c the o of
    all targets are o0 + s*t with s = step//b; ``views[r]`` is ``mem[r::s]``,
    so they are ``views[o0 % s]`` from o0 // s on, read contiguously.  A
    candidate that leaves no room (a*c + b > n) is skipped, and in ascending
    order it ends the search.  Returns the open mask, true at the targets
    that no candidate settles, and the search depth, the largest 1-based
    candidate position that settled a target.  Which candidate settled a
    target is not kept: ``_first_hits`` finds it for the targets a report
    shows.

    A pass ANDs the open mask with the lookups, counts the hits and clears
    them, until fewer than ``_COMPACT_BELOW`` of the targets are open.  Then
    the chunk compacts: the open t are taken once, ascending, and each later
    pass gathers the lookups of the open t >= t0 only and keeps the misses,
    so its work follows the open targets, not the chunk.  Once at most
    ``_STRAGGLER_CUTOFF`` targets are open after ``_STRAGGLER_MIN_PASSES``
    passes, the rest settle one target at a time in a scalar tail.
    """
    depth = 0
    open_ = np.ones(count, dtype=bool)
    idx = None  # the open t, ascending, once the chunk is compacted
    pending = count
    last = n0 + step * (count - 1)
    s = step // b
    tail = len(cands)
    for pos, c in enumerate(cands):
        if a * c + b > last:  # no room below any target
            if ascending:
                break  # nor for any later candidate
            continue
        if pending <= _STRAGGLER_CUTOFF and pos >= _STRAGGLER_MIN_PASSES:
            tail = pos
            break
        o0 = (n0 - a * c) // b
        t0 = max(0, (s - o0) // s)  # first t with o >= 1
        view, q = views[o0 % s], o0 // s  # mem[o0 + s*t] is view[q + t]
        if idx is None and pending < count * _COMPACT_BELOW:
            idx = np.flatnonzero(open_)
        if idx is None:
            hit = open_[t0:] & view[q + t0 : q + count]
            k = int(np.count_nonzero(hit))
            if k:
                open_[t0:] ^= hit
        else:
            j = int(idx.searchsorted(t0)) if t0 else 0
            rest = idx[j:]
            hit = view[rest + q]
            k = int(np.count_nonzero(hit))
            if k:
                rest = rest[~hit]
                idx = np.concatenate((idx[:j], rest)) if j else rest
        if k:
            pending -= k
            depth = pos + 1
            if pending == 0:
                break
    if idx is not None:
        open_[:] = False
        open_[idx] = True
    if tail == len(cands) or not pending:
        return open_, depth
    for t in (np.flatnonzero(open_) if idx is None else idx).tolist():
        n = n0 + step * t
        for pos in range(tail, len(cands)):
            c = cands[pos]
            if a * c + b > n:
                if ascending:
                    break
                continue
            o = (n - a * c) // b
            if views[o % s][o // s]:
                open_[t] = False
                # Descending orders leave tail positions out of the depth, an
                # undercount that the reports in perfbench/expected/ pin.
                # Counting the depth per target (ROADMAP item 5) waits for a
                # benchmark change that may record those reports again.
                if ascending:
                    depth = max(depth, pos + 1)
                break
    return open_, depth


def _first_hits(ns, cands, ci, m, mem, ascending):
    """The witness of each target n in ``ns``, all of them represented: the
    first c of ``cands`` (ascending, one residue class mod m) in the scan's
    order with ci*c + m <= n and ``mem[(n - ci*c) // m]``, as ``_settle``
    finds it.  Ascending order starts at the smallest c, descending order at
    the largest c that leaves room below n.  Each round tests the next
    columns of candidates for every target still open, a block whose width
    doubles from 64 but keeps rows times columns near ``_SEARCH_CELLS``.

    With c = r + m*u for the class's residue r, the lookup is
    o = (n - ci*r)//m - ci*u, and the room rule is o >= 1.  An o below 1
    reads ``mem[0]``, which is false: no domain holds 0.
    """
    base = (ns - ci * (int(cands[0]) % m)) // m
    # index -1 pads every row's search with a candidate that leaves no room
    shift = np.append(ci * (cands // m), base.max(initial=0))
    top = None if ascending else np.searchsorted(cands, (ns - m) // ci, "right") - 1
    found = np.empty(ns.size, dtype=np.int64)
    rows = np.arange(ns.size)
    done = 0  # columns tested so far, counted from each target's start
    while rows.size and done < cands.size:
        width = max(1, min(max(64, done), _SEARCH_CELLS // rows.size))
        cols = np.arange(done, done + width)
        if ascending:
            k = np.where(cols < cands.size, cols, -1)  # one row serves every target
        else:
            k = np.maximum(top[rows, None] - cols, -1)
        o = base[rows, None] - shift[k]
        hit = mem[np.maximum(o, 0)]
        first = hit.argmax(axis=1)
        got = hit[np.arange(rows.size), first]
        found[rows[got]] = cands[np.broadcast_to(k, hit.shape)[got, first[got]]]
        rows = rows[~got]
        done += width
    return found


def _certificate(value: int, spec: DomainSpec) -> dict:
    if spec.kind == "primes":
        return {"kind": "prime"}
    if spec.kind == "prime-powers":
        pp = prime_power_decompose(value)
        return {"kind": "prime-power", "p": pp.p, "a": pp.a}
    w = figurate_witness(value)
    return {"kind": "binomial", "p": w.p, "a": w.a, "i": w.i}


def _verify(a, b, lo, hi, left, right, step, sample_end, *,
            jobs, max_counterexamples, sample_size):
    """Settle every target n = a*x + b*y in [lo, hi], x from ``left`` and y
    from ``right``, on the grid of multiples of ``step`` (2 only for a = b = 1),
    over a set table built to max(hi, 2).

    Returns the report with its verdict and the stats every scan shares,
    whether y was iterated descending and the largest counterexample, if any.
    Every target of the range counts as scanned; those below a + b are
    neither witnesses nor counterexamples.
    """
    if jobs < 1:
        raise UsageError("jobs must be >= 1")
    if max_counterexamples < 0 or sample_size < 0:
        raise UsageError("max_counterexamples and sample_size must be >= 0")
    table = generate_figurate(max(hi, 2))
    ldom = resolve_domain(left, table)
    rdom = ldom if right == left else resolve_domain(right, table)
    descending = rdom.values.size * 4 < ldom.values.size or (a < b and b * b > hi - lo + 1)
    # n = ci*c + m*o: c runs over the iterated side, o is looked up in the other
    ci, m, it, other = (b, a, rdom, ldom) if descending else (a, b, ldom, rdom)
    cands = it.values[: np.searchsorted(it.values, (hi - m) // ci, "right")]
    if m == 1:  # one class
        groups = [cands]
    else:
        res = cands % m if cands.size else cands  # m may pass int64 only when none is left
        order = np.argsort(res, kind="stable")
        groups = np.split(cands[order], np.flatnonzero(np.diff(res[order])) + 1)
    # c = r (mod m) reaches exactly the targets n = ci*r (mod m)
    classes = [(ci * int(g[0]) % m, g.tolist(), g) for g in groups if g.size]
    mem = other.membership
    # targets one stride s = step apart look up o one stride apart
    views = [mem] if step == 1 else [mem[r::step].copy() for r in range(step)]

    def worker(span):
        n0 = span[0] + -span[0] % step
        count = max(0, (span[1] - n0) // step + 1)
        opens = np.ones(count, dtype=bool)
        by_offset = {}
        depth = 0
        for q, group, arr in classes:
            t0 = (q - n0) % m  # m = 1 whenever step > 1
            k = (count - 1 - t0) // m + 1
            if k <= 0:
                continue
            by_offset[t0] = arr
            first = n0 + step * t0
            if descending:
                # start at the largest c that leaves room below the class's last target
                last = first + step * m * (k - 1)
                group = group[: bisect_right(group, (last - m) // ci)][::-1]
            mask, d = _settle(first, step * m, k, group, ci, m, views, not descending)
            opens[t0::m] = mask
            depth = max(depth, d)
        cex = np.flatnonzero(opens)
        # the first sample_size represented targets lie among the first
        # cex.size + sample_size
        end = min(cex.size + sample_size, max(0, -((n0 - sample_end) // step)))
        shown = np.flatnonzero(~opens[:end])[:sample_size]
        del opens  # a chunk can span the range; free it before the lists are built
        wit = np.empty(shown.size, dtype=np.int64)
        res = shown % m
        for t0 in np.unique(res).tolist():
            sel = res == t0
            wit[sel] = _first_hits(n0 + step * shown[sel], by_offset[t0], ci, m, mem,
                                   not descending)
        found = []
        for t, c in zip(shown.tolist(), wit.tolist()):
            n = n0 + step * t
            o = (n - ci * c) // m
            found.append((n, o, c) if descending else (n, c, o))
        cex *= step
        cex += n0
        return cex.tolist(), found, count, depth

    width = (CHUNK if descending else CHUNK_ASCENDING) * m
    # no target below a + b has x, y >= 1
    chunks = [(s, min(s + width - 1, hi)) for s in range(max(lo, a + b), hi + 1, width)]
    if jobs > 1:
        # ex.map submits every chunk at once, each starting a thread while none idles
        with ThreadPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1)) as ex:
            results = list(ex.map(worker, chunks))
    else:
        results = [worker(c) for c in chunks]
    counterexamples: list[int] = []
    samples: list[dict] = []
    scanned = depth = 0
    for cex, found, count, d in results:
        counterexamples.extend(cex)
        scanned += count
        depth = max(depth, d)
        for n, x, y in found[: sample_size - len(samples)]:
            samples.append(
                {
                    "n": n,
                    "x": x,
                    "y": y,
                    "x_cert": _certificate(x, left),
                    "y_cert": _certificate(y, right),
                }
            )
    total = len(counterexamples)
    report = VerificationReport(
        lo=lo,
        hi=hi,
        verified=total == 0,
        counterexamples=counterexamples[:max_counterexamples],
        counterexample_total=total,
        witness_sample=samples,
        stats={
            "scanned": len(range(lo + -lo % step, hi + 1, step)),
            "witnesses": scanned - total,
            "max_search_depth": depth,
        },
    )
    return report, descending, counterexamples[-1] if counterexamples else None


def verify_additive(
    lo: int,
    hi: int,
    left: DomainSpec,
    right: DomainSpec,
    *,
    jobs: int = 1,
    even_only: bool = False,
    max_counterexamples: int = 100,
    sample_size: int = 10,
) -> VerificationReport:
    """Check that every n in [lo, hi] is x + y with x, y in the two domains."""
    if not 2 <= lo <= hi:
        raise UsageError("need 2 <= lo <= hi")
    step = 2 if even_only else 1
    report, descending, _ = _verify(
        1, 1, lo, hi, left, right, step, lo + step * sample_size,
        jobs=jobs, max_counterexamples=max_counterexamples, sample_size=sample_size,
    )
    report.stats["mode"] = "right-descending" if descending else "left-ascending"
    return report


def verify_linear(
    a: int,
    b: int,
    lo: int,
    hi: int,
    domain: DomainSpec,
    *,
    jobs: int = 1,
    max_counterexamples: int = 100,
    sample_size: int = 10,
) -> VerificationReport:
    """Check n = a*x + b*y with x, y from one domain and gcd(a, b) = 1.

    Witnesses take the minimal x.  Targets below a + b cannot possibly be
    represented with x, y >= 1 and are counted separately, not as
    counterexamples.  The stats compare the largest failure against the
    (a-1)(b-1) threshold classically tied to coprime coefficient pairs; a, b
    and that threshold must fit in 63 bits.
    """
    if a < 1 or b < 1 or gcd(a, b) != 1:
        raise UsageError("need a, b >= 1 with gcd(a, b) = 1")
    if max(a, b, (a - 1) * (b - 1)) > U63_MAX:
        raise ArithmeticGuardError("a, b and (a-1)(b-1) must not exceed 2^63 - 1")
    if not 1 <= lo <= hi:
        raise UsageError("need 1 <= lo <= hi")
    report, _, largest = _verify(
        a, b, lo, hi, domain, domain, 1, hi + 1,
        jobs=jobs, max_counterexamples=max_counterexamples, sample_size=sample_size,
    )
    threshold = (a - 1) * (b - 1)
    report.stats.update(
        below_floor=max(0, min(hi + 1, a + b) - lo),
        largest_exception=largest,
        threshold=threshold,
        largest_exception_within_threshold=None if largest is None else largest <= threshold,
    )
    return report
