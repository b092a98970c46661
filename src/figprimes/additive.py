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
no witness is stored per target.  Once few targets are open, by share or by
count, a late phase hands them and the remaining candidates to one blocked
first-hit search, ``_first_hits``, the same search that finds the witness
sample.  Each class is held once, as its ascending candidate array, and both
searches read it by position.  The range is cut into chunks, each chunk
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
the first ``sample_size`` represented targets of [lo, hi].  A chunk returns
only its counterexamples and its depth; once every chunk is done, the sample
is read off the grid and the joined counterexamples, and one ``_first_hits``
call per residue class finds its witnesses by the kernel's own rule.  A
report names no task and carries no parameters; the command line adds both.
"""
from __future__ import annotations

import os
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

# A chunk leaves its full-width passes for the late phase once fewer than
# _COMPACT_BELOW of its targets, or at most _STRAGGLER_CUTOFF of them, are
# open.  _STRAGGLER_MIN_PASSES only bounds descending depth (see _settle).
_STRAGGLER_CUTOFF = 32
_STRAGGLER_MIN_PASSES = 64
_COMPACT_BELOW = 1 / 32
# Rows times columns of one block of the first-hit search.
_SEARCH_CELLS = 1 << 16

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
    cands: np.ndarray,
    offs: np.ndarray,
    a: int,
    b: int,
    mem: np.ndarray,
    views: list[np.ndarray],
    ascending: bool,
) -> tuple[np.ndarray, int]:
    """Settle the targets n = n0 + step*t, 0 <= t < count, as n = a*c + b*o.

    ``cands`` holds the candidates c ascending, one residue class mod b, and
    ``offs`` their lookup offsets a*(c // b), which only ``_first_hits``
    reads.  Both are first cut to the candidates with room below the last
    target, a*c + b <= n0 + step*(count - 1): no other c reaches a target.
    Scan position p is ``cands[p]`` ascending and ``cands[cands.size - 1 - p]``
    descending over what is left, as in ``_first_hits``, so a descending scan
    starts at the largest candidate with room, and a target settles at the
    first position whose o >= 1 is in the membership array ``mem``.  Callers keep
    n0 - a*c divisible by b and step a multiple of b, so for one c the o of
    all targets are o0 + s*t with s = step//b; ``views[r]`` is
    ``mem[r::s]``, so they are ``views[o0 % s]`` from o0 // s on, read
    contiguously.  Returns the open mask, true at the targets that no
    candidate settles, and the search depth, the largest 1-based position
    that settled a target.  Which candidate settled a target is not kept:
    ``_first_hits`` finds it for the targets a report shows.

    A full-width pass ANDs the open mask with the lookups, counts the hits
    and clears them.  Once fewer than ``_COMPACT_BELOW`` of the targets, or
    at most ``_STRAGGLER_CUTOFF`` of them, are open, the late phase hands the
    open targets and the remaining positions to ``_first_hits`` in one call,
    so its work follows the open targets, not the chunk.
    """
    last = n0 + step * (count - 1)
    top = np.searchsorted(cands, (last - b) // a, "right")
    cands, offs = cands[:top], offs[:top]
    depth = 0
    open_ = np.ones(count, dtype=bool)
    pending = count
    s = step // b
    # Python ints, so that o0 stays exact
    for pos, c in enumerate(map(int, cands if ascending else cands[::-1])):
        if pending < count * _COMPACT_BELOW or pending <= _STRAGGLER_CUTOFF:
            rows = np.flatnonzero(open_)
            hits = _first_hits(n0 + step * rows, cands, offs, a, b, mem, ascending, pos)
            open_[rows[hits >= 0]] = False
            hits = hits[hits >= 0]
            if not ascending:
                hits = np.sort(cands.size - 1 - hits)  # positions in the scan's order
                need = rows.size - _STRAGGLER_CUTOFF  # hits that leave at most the cutoff open
                if need <= hits.size:
                    # Descending orders leave out the hits from the first
                    # position p >= _STRAGGLER_MIN_PASSES at which at most
                    # _STRAGGLER_CUTOFF targets are open, an undercount that
                    # the reports in perfbench/expected/ pin.  Counting the
                    # depth per target (ROADMAP item 5) waits for a benchmark
                    # change that may record those reports again.
                    p = max(pos, _STRAGGLER_MIN_PASSES, int(hits[need - 1]) + 1 if need > 0 else 0)
                    hits = hits[: np.searchsorted(hits, p)]
            return open_, max(depth, int(hits.max(initial=-1)) + 1)
        o0 = (n0 - a * c) // b
        t0 = max(0, (s - o0) // s)  # first t with o >= 1
        view, q = views[o0 % s], o0 // s  # mem[o0 + s*t] is view[q + t]
        hit = open_[t0:] & view[q + t0 : q + count]
        k = int(np.count_nonzero(hit))
        if k:
            open_[t0:] ^= hit
            pending -= k
            depth = pos + 1
            if pending == 0:
                break
    return open_, depth


def _first_hits(ns, cands, offs, ci, m, mem, ascending, start=0):
    """For each target n in ``ns``, the index into ``cands`` (ascending, one
    residue class mod m) of its first c in the scan's order with
    ci*c + m <= n and ``mem[(n - ci*c) // m]``, as ``_settle`` finds it, or
    -1 where none is.  The scan's order skips its first ``start`` positions:
    ascending order then starts at ``cands[start]``, descending order at
    ``cands[cands.size - 1 - start]`` or at the largest c that leaves room
    below n, if that is smaller.  Each round tests the next columns of
    candidates for every target still open, a block whose width doubles
    from 64 but keeps rows times columns near ``_SEARCH_CELLS``; a target
    retires at its first hit or once its candidates with room run out.

    With c = r + m*u for the class's residue r, the lookup is
    o = (n - ci*r)//m - ci*u, and the room rule is o >= 1.  ``offs`` holds
    ci*u = ci*(c // m) for every c of ``cands``, computed once per class.
    The lookups clip their indices: an o below 1 reads ``mem[0]``, which is
    false, since no domain holds 0, and o never exceeds n.
    """
    base = (ns - ci * (int(cands[0]) % m)) // m
    room = np.searchsorted(cands, (ns - m) // ci, "right")  # candidates with room
    if ascending:
        left = room - start  # candidates left from the start on
    else:
        top = np.minimum(room, cands.size - start) - 1
        left = top + 1
    found = np.full(ns.size, -1, dtype=np.int64)
    rows = np.flatnonzero(left > 0)
    done = 0  # columns tested so far, counted from each target's start
    while rows.size:
        width = max(1, min(max(64, done), _SEARCH_CELLS // rows.size))
        if ascending:  # one row of columns serves every target
            k = start + done
            u = offs[k : k + width]
        else:
            # a column past index 0 repeats it, a miss already tested
            u = np.take(offs, top[rows, None] - np.arange(done, done + width), mode="clip")
        hit = np.take(mem, base[rows, None] - u, mode="clip")
        first = hit.argmax(axis=1)
        got = hit[np.arange(rows.size), first]
        first += done
        found[rows[got]] = first[got] + start if ascending else top[rows[got]] - first[got]
        done += width
        rows = rows[~got & (left[rows] > done)]
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

    Each chunk settles its targets class by class and returns only its
    counterexamples and its depth.  The rest runs once per scan: the chunks'
    counterexamples are joined in chunk order, the sample is the first
    ``sample_size`` grid targets below ``sample_end`` that are not among
    them, and one ``_first_hits`` call per residue class finds its witnesses.
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
    # c = r (mod m) reaches exactly the targets n = ci*r (mod m), the class's
    # key; with each class its lookup offsets ci*(c // m), the class itself at m = ci = 1
    classes = {
        ci * int(g[0]) % m: (g, g if m == ci == 1 else ci * (g // m)) for g in groups if g.size
    }
    mem = other.membership
    # targets one stride s = step apart look up o one stride apart
    views = [mem] if step == 1 else [mem[r::step].copy() for r in range(step)]

    def worker(span):
        """The counterexamples of one chunk, ascending, and its depth."""
        n0 = span[0] + -span[0] % step
        count = max(0, (span[1] - n0) // step + 1)
        opens = np.ones(count, dtype=bool)
        depth = 0
        for q, (group, offs) in classes.items():
            t0 = (q - n0) % m  # m = 1 whenever step > 1
            k = (count - 1 - t0) // m + 1
            if k > 0:
                mask, d = _settle(n0 + step * t0, step * m, k, group, offs, ci, m, mem, views,
                                  not descending)
                opens[t0::m] = mask
                depth = max(depth, d)
        return n0 + step * np.flatnonzero(opens), depth

    start = max(lo, a + b)  # no target below a + b has x, y >= 1
    width = (CHUNK if descending else CHUNK_ASCENDING) * m
    chunks = [(s, min(s + width - 1, hi)) for s in range(start, hi + 1, width)]
    if jobs > 1:
        # ex.map submits every chunk at once, each starting a thread while none idles
        with ThreadPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1)) as ex:
            results = list(ex.map(worker, chunks))
    else:
        results = [worker(c) for c in chunks]
    cex = np.concatenate([c for c, _ in results] or [np.empty(0, dtype=np.int64)])
    first = start + -start % step  # the grid's first target
    # The sample is the first sample_size grid targets below sample_end that
    # are not counterexamples.  With idx_j the grid index of the j-th
    # counterexample, the k-th of them has index k + #{j : idx_j - j <= k}.
    below = len(range(first, min(sample_end, hi + 1), step))
    ns = np.arange(min(sample_size, below))
    if ns.size:  # else first may lie past int64
        ns += np.searchsorted((cex - first) // step - np.arange(cex.size), ns, "right")
        ns = first + step * ns[ns < below]
    wit = np.empty(ns.size, dtype=np.int64)
    res = ns % m
    for q in np.unique(res).tolist():
        sel = res == q
        group, offs = classes[q]
        wit[sel] = group[_first_hits(ns[sel], group, offs, ci, m, mem, not descending)]
    o = (ns - ci * wit) // m
    xs, ys = (o, wit) if descending else (wit, o)
    samples = [
        {"n": n, "x": x, "y": y, "x_cert": _certificate(x, left), "y_cert": _certificate(y, right)}
        for n, x, y in zip(ns.tolist(), xs.tolist(), ys.tolist())
    ]
    total = cex.size
    report = VerificationReport(
        lo=lo,
        hi=hi,
        verified=total == 0,
        counterexamples=cex[:max_counterexamples].tolist(),
        counterexample_total=total,
        witness_sample=samples,
        stats={
            "scanned": len(range(lo + -lo % step, hi + 1, step)),
            "witnesses": len(range(first, hi + 1, step)) - total,
            "max_search_depth": max((d for _, d in results), default=0),
        },
    )
    return report, descending, int(cex[-1]) if total else None


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
