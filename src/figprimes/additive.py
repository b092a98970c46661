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
sample.  Each class is its ascending candidate array alone, which both
searches read by position, computing the lookup offsets where they read
them.  The range is cut into chunks, each chunk fills one open mask over its
targets, and chunk results are merged in chunk order.  Witnesses always use
the minimal x.

Parity classes.  When both sides are one domain and x ascends, the parity of
n can rule out every odd member on one side, and all but a few members are
odd: the even ones are the powers of 2 and the even C(p^a, i), 226 up to
10**6.  For n = a*x + b*y with a even, y has n's parity, so an even target
needs an even y: its sub-scan runs the even y descending, whose first hit
from the top gives the minimal x, and records in each target the y that
settled it.  For x + y, an odd target needs x or y even, and exchanging them
settles the same n: its sub-scan runs the even x ascending.  Its minimal x is
min(e, n - e'), e the least even member with n - e a member and e' the
largest; e' is searched only where n minus the largest even member below n
is less than e.  The other parity class, the even targets of x + y or the
odd ones of a*x + b*y with a even, admits every pair and runs the
candidates of its classes mod b as before.  A scan with b even, whose
classes mod b already fix x's parity, or with a and b odd and unequal, or
with two domains, or descending, is not split; specs of one kind whose
``drops_one`` agree are one domain.  ``max_search_depth`` keeps its meaning:
each target's minimal x's 1-based position in the ascending
candidates of its class.  The even-y sub-scan takes it from the recorded y.
The odd x + y sub-scan takes it from the late phase's first hits, which give
e for the targets they settle; if the full-width passes reached deeper, the
targets that their last 1, 2, 4, ... passes settled have their minimal x
found, until the passes before reach no deeper.

The class plan.  ``_verify`` states once the spacing g of the targets that
one runner settles, 2 in a parity split or an even-only scan and else 1,
which picks the mask layout below, and pairs each residue of n mod g with
its runner: ``_open`` over the classes, or, for a parity split's other
residue, the odd targets' even x or the even targets' even y.  A chunk runs
the plan in order, each runner filling its residue's rows of the open mask.

Targets two apart, in a parity class or an even-only scan, look their
summands up two apart too.  Such a scan drops the table's mask and lays the
looked-up side out de-interleaved, its even entries and then its odd ones in
one buffer of the same size (rounded up to odd), scattered from its member
array a block at a time and shared by every chunk, so that no pass reads
memory with a stride and the scan holds one mask as before.  ``_first_hits``
reads that layout with one subtraction per lookup, as it reads the
interleaved one.

A chunk spans a fixed number of targets per class, times the modulus, and
that number depends on the direction.  Ascending scans take CHUNK_ASCENDING:
each target's search starts at the smallest candidate whatever chunk holds
it, so the width changes no report, and wide chunks pay the per-pass cost of
a candidate once over many targets.  Descending scans keep CHUNK: each chunk
starts at the largest candidate below its own last target, so a wider chunk
spends more passes on candidates its low targets cannot use, and
``max_search_depth``, which those scans count from the chunk's top, would
change with the width.

The engine builds its own set table, to max(hi, 2), so a report depends only
on the range, the domains and the options.  A domain is its member array, and
the side looked up is read through the table's one bitmap, the sieve's prime
mask, which no domain copies: once both domains are read, the scan cuts that
mask in place to the looked-up side's members unless that side is the primes,
or, if its targets lie two apart, replaces it with the de-interleaved one.

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

from dataclasses import dataclass
from math import gcd
from operator import index

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
# Members laid out per step of a de-interleaved mask, which bounds its temporaries.
_SCATTER_BLOCK = 1 << 16
_NONE = np.empty(0, dtype=np.int64)

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
    def drops_one(self) -> bool:
        """Whether ``include_one`` takes 1 out of the set, which the primes
        and the prime powers never hold."""
        return not self.include_one and self.kind not in ("primes", "prime-powers")


def resolve_domain(spec: DomainSpec, table: FigurateTable) -> np.ndarray:
    """The domain ``spec`` as its ascending int64 members up to the table's
    limit, the table's own arrays where they fit; the table holds 1.  A
    domain is this array alone: the one mask a scan looks up is the sieve's
    prime mask, which ``_verify`` cuts in place only after this has read it."""
    pt = table.prime_table
    if spec.kind == "primes":
        return pt.primes
    if spec.kind == "prime-powers":
        return prime_powers_upto(table.limit, pt)
    values = table.values
    if spec.kind == "proper":
        values = values[~pt.prime_mask[values]]
    return values[1:] if spec.drops_one else values  # 1 is the least member


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
    a: int,
    b: int,
    mem: np.ndarray,
    half: int,
    ascending: bool,
    wit: np.ndarray | None = None,
) -> tuple[np.ndarray, int, tuple[int, np.ndarray, np.ndarray]]:
    """Settle the targets n = n0 + step*t, 0 <= t < count, as n = a*c + b*o.

    ``cands`` holds the candidates c ascending, one residue class mod b,
    first cut to the candidates with room below the last target,
    a*c + b <= n0 + step*(count - 1): no other c reaches a target.
    Scan position p is ``cands[p]`` ascending and ``cands[cands.size - 1 - p]``
    descending over what is left, as in ``_first_hits``, so a descending scan
    starts at the largest candidate with room, and a target settles at the
    first position whose o >= 1 is a member, by the mask ``mem`` in the
    layout ``half`` names (see ``_first_hits``).  Callers keep n0 - a*c
    divisible by b and step a multiple of b, so for one c the o of all
    targets are o0 + s*t with s = step//b, which is 2 for the de-interleaved
    layout and 1 for the interleaved one.  Its views, ``mem[:half]`` and
    ``mem[half:]`` or ``mem`` itself, hold the o = r (mod s) in turn, so the
    lookups are ``views[o0 % s]`` from o0 // s on, read contiguously.
    Returns the open mask, true at the targets that no candidate settles;
    the search depth, the largest 1-based position that settled a target;
    and the late phase as (the full-width passes' depth, its targets' row
    indices, their first hits as indices into ``cands`` or -1), with no rows
    if it did not run.  Which candidate settled a target in a full-width
    pass is kept only in ``wit``, where one is given: else ``_first_hits``
    finds it for the targets a report shows.

    A full-width pass ANDs the open mask with the lookups, counts the hits
    and clears them.  Once fewer than ``_COMPACT_BELOW`` of the targets, or
    at most ``_STRAGGLER_CUTOFF`` of them, are open, the late phase hands the
    open targets and the remaining positions to ``_first_hits`` in one call,
    so its work follows the open targets, not the chunk.
    """
    last = n0 + step * (count - 1)
    top = np.searchsorted(cands, (last - b) // a, "right")
    cands = cands[:top]
    depth = 0
    open_ = np.ones(count, dtype=bool)
    pending = count
    s = step // b
    views = [mem[:half], mem[half:]] if half else [mem]
    # Python ints, so that o0 stays exact
    for pos, c in enumerate(map(int, cands if ascending else cands[::-1])):
        if pending < count * _COMPACT_BELOW or pending <= _STRAGGLER_CUTOFF:
            rows = np.flatnonzero(open_)
            found = _first_hits(n0 + step * rows, cands, a, b, mem, half, ascending, pos)
            open_[rows[found >= 0]] = False
            hits = found[found >= 0]
            if wit is not None:
                wit[rows[found >= 0]] = cands[hits]
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
            return open_, max(depth, int(hits.max(initial=-1)) + 1), (depth, rows, found)
        o0 = (n0 - a * c) // b
        t0 = max(0, (s - o0) // s)  # first t with o >= 1
        view, q = views[o0 % s], o0 // s  # mem[o0 + s*t] is view[q + t]
        hit = open_[t0:] & view[q + t0 : q + count]
        k = int(np.count_nonzero(hit))
        if k:
            open_[t0:] ^= hit
            if wit is not None:
                np.copyto(wit[t0:], c, where=hit)
            pending -= k
            depth = pos + 1
    return open_, depth, (depth, _NONE, _NONE)


def _first_hits(ns, cands, ci, m, mem, half, ascending, start=0):
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
    o = (n - ci*r)//m - ci*u, and the room rule is o >= 1.  ``mem`` holds
    the membership of o at index o when ``half`` is 0, and de-interleaved
    otherwise: the even o, then the odd from index ``half``, with mem.size =
    2*half - 1, so o is at (o >> 1) + half*(o & 1).  That is P(base) -
    Q(ci*u) modulo mem.size, with P(v) = (v >> 1) + half*(v & 1) and Q(v) =
    (v >> 1) + (1 - half)*(v & 1), so a lookup costs one subtraction in
    either layout.  ci*u, in the layout, is taken per block slice when
    ascending, so no whole class is ever transformed, and once per call when
    descending.  A column past a target's room reads an arbitrary entry: a
    descending block never reaches one, and an ascending block's first hit
    there shows that the target has none.
    """
    def offsets(c):  # ci*(c // m) for the candidates c, in the layout
        u = ci * (c // m)
        return (u >> 1) + (u & 1) * (1 - half) if half else u

    base = (ns - ci * (int(cands[0]) % m)) // m
    if half:
        base = (base >> 1) + (base & 1) * half
    room = np.searchsorted(cands, (ns - m) // ci, "right")  # candidates with room
    if ascending:
        left = room - start  # candidates left from the start on
    else:
        top = np.minimum(room, cands.size - start) - 1
        left = top + 1
        offs = offsets(cands)
    found = np.full(ns.size, -1, dtype=np.int64)
    rows = np.flatnonzero(left > 0)
    done = 0  # columns tested so far, counted from each target's start
    while rows.size:
        width = max(1, min(max(64, done), _SEARCH_CELLS // rows.size))
        if ascending:  # one row of columns serves every target
            u = offsets(cands[start + done : start + done + width])
        else:
            # a column past index 0 repeats it, a miss already tested
            u = np.take(offs, top[rows, None] - np.arange(done, done + width), mode="clip")
        hit = np.take(mem, base[rows, None] - u, mode="wrap")
        first = hit.argmax(axis=1)
        got = hit[np.arange(rows.size), first]
        if ascending:  # a first hit past the target's room is none, and its room is spent
            got &= first < left[rows] - done
        first += done
        found[rows[got]] = first[got] + start if ascending else top[rows[got]] - first[got]
        done += width
        rows = rows[~got & (left[rows] > done)]
    return found


def _classes(cands, ci, m):
    """The candidates ``cands`` (ascending) by residue class mod m.  The
    class c = r (mod m) reaches exactly the targets n = ci*r (mod m), its
    key, which maps to the class's array."""
    if m == 1:
        groups = [cands]
    else:
        res = cands % m if cands.size else cands  # m may pass int64 only when none is left
        order = np.argsort(res, kind="stable")
        groups = np.split(cands[order], np.flatnonzero(np.diff(res[order])) + 1)
    return {ci * int(g[0]) % m: g for g in groups if g.size}


def _open(n0, step, count, classes, ci, m, mem, half, ascending, wit=None):
    """The open mask of the grid n0 + step*t, 0 <= t < count, and its depth.

    ``_settle`` runs over the targets t = t0 (mod m) at a time, which share
    one class key and, as step is 2 in the de-interleaved layout, one view.
    The targets of a key that holds no candidate stay open.  ``wit``, where
    given, receives each settled target's candidate, as in ``_settle``."""
    opens = np.ones(count, dtype=bool)
    depth = 0
    for t0 in range(min(m, count)):
        n, rows = n0 + step * t0, slice(t0, None, m)
        if n % m in classes:
            opens[rows], d, _ = _settle(n, step * m, opens[rows].size, classes[n % m], ci, m,
                                        mem, half, ascending, None if wit is None else wit[rows])
            depth = max(depth, d)
    return opens, depth


def _certificate(value: int, spec: DomainSpec) -> dict:
    if spec.kind == "primes":
        return {"kind": "prime"}
    if spec.kind == "prime-powers":
        pp = prime_power_decompose(value)
        return {"kind": "prime-power", "p": pp.p, "a": pp.a}
    w = figurate_witness(value)
    return {"kind": "binomial", "p": w.p, "a": w.a, "i": w.i}


def _verify(a, b, lo, hi, left, right, step, sample_end, *, max_counterexamples, sample_size):
    """Settle every target n = a*x + b*y in [lo, hi], x from ``left`` and y
    from ``right``, on the grid of multiples of ``step`` (2 only for a = b = 1),
    over a set table built to max(hi, 2).

    Each chunk runs the class plan, residue by residue of n mod g, and
    returns only its counterexamples and its depth.  The rest runs
    once per scan: the chunks' counterexamples are joined in chunk order, the
    sample is the first ``sample_size`` grid targets below ``sample_end``
    that are not among them, and one ``_first_hits`` call per residue class
    finds its witnesses.  Returns the report with its verdict and the stats
    every scan shares, whether y was iterated descending and the largest
    counterexample, if any.  Every target of the range counts as scanned;
    those below a + b are neither witnesses nor counterexamples.
    """
    if max_counterexamples < 0 or sample_size < 0:
        raise UsageError("max_counterexamples and sample_size must be >= 0")
    table = generate_figurate(max(hi, 2))
    one = (left.kind, left.drops_one) == (right.kind, right.drops_one)  # one member set
    lvals = resolve_domain(left, table)
    rvals = lvals if one else resolve_domain(right, table)
    descending = rvals.size * 4 < lvals.size or (a < b and b * b > hi - lo + 1)
    # n = ci*c + m*o: c runs over the iterated side, o is looked up in the other
    ci, m, it, other = (b, a, rvals, lvals) if descending else (a, b, lvals, rvals)
    # parity classes, when both sides read one mask, x ascends, and n's parity
    # fixes y's (a even) or leaves x or y even for odd n with x, y exchangeable
    parity = one and not descending and (a % 2 == 0 or a == b)
    g = 2 if parity or step == 2 else 1  # the spacing of the targets that one runner settles
    mem, primes = table.prime_table.prime_mask, table.prime_table.primes
    del table
    half = 0
    if g == 2:  # targets two apart: drop the table's mask, lay out the other side
        half = mem.size // 2 + 1
        del mem, primes
        mem = np.zeros(2 * half - 1, dtype=bool)  # odd-sized: a false pad ends an even count
        for i in range(0, other.size, _SCATTER_BLOCK):
            o = other[i : i + _SCATTER_BLOCK]
            mem[(o >> 1) + half * (o & 1)] = True
    elif other is not primes:  # no one else holds this scan's table: cut its mask in place
        mem[primes] = False
        mem[other] = True
    classes = _classes(it[: np.searchsorted(it, (hi - m) // ci, "right")], ci, m)
    if parity:
        evens = 2 * np.flatnonzero(mem[: (hi - a) // b // 2 + 1])  # the even y with room
        yeven = _classes(evens, b, a)

    def depth_of(xs):
        """The largest 1-based position of the x values ``xs`` in their classes."""
        keys = a * xs % b
        return max((int(np.searchsorted(group, xs[keys == q].max(initial=0), "right"))
                    for q, group in classes.items()), default=0)

    def least(ns, xs):
        """The least x of odd targets ``ns`` of x + y whose least even x is
        ``xs``: n - e' for the largest even e' with n - e' a member, where the
        largest even member below n leaves that smaller than ``xs``."""
        top = np.searchsorted(evens, ns - 1, "right") - 1
        near = np.flatnonzero((top >= 0) & (ns - evens[top] < xs))
        if not near.size:
            return xs
        e = evens[_first_hits(ns[near], evens, 1, 1, mem, half, False)]  # e' <= n - x exists
        xs[near] = np.minimum(xs[near], ns[near] - e)
        return xs

    def odd(n0, count):
        """The open mask and depth of odd targets n0 + 2t of x + y: x or y is
        even, and (x, y) settles n when (y, x) does, so the even x settle
        the targets.  The late phase's first hits give the least x of the
        targets it settles.  If the full-width passes reached deeper than
        those, the targets that their last passes settled, the last 1, 2,
        4, ... of them, get their least x, until the passes before reach no
        deeper."""
        opens, _, (full, late, found) = _settle(n0, 2, count, evens, 1, 1, mem, half, True)
        hit = found >= 0
        depth = depth_of(least(n0 + 2 * late[hit], evens[found[hit]]))
        p, w = full, 1
        while p and depth_of(evens[p - 1 : p]) > depth:
            p, w = max(0, full - w), 2 * w
            # the targets whose least even x lies at position p or deeper
            mask = _settle(n0, 2, count, evens[:p], 1, 1, mem, half, True)[0] & ~opens
            ns = n0 + 2 * np.flatnonzero(mask)
            xs = evens[_first_hits(ns, evens, 1, 1, mem, half, True, p)]
            depth = max(depth, depth_of(least(ns, xs)))
        return opens, depth

    def even_y(n0, count):
        """The open mask and depth of even targets n0 + 2t, a even: y is even."""
        wit = np.zeros(count, dtype=np.int64)
        opens, _ = _open(n0, 2, count, yeven, b, a, mem, half, False, wit)
        ts = np.flatnonzero(~opens)
        return opens, depth_of((n0 + 2 * ts - b * wit[ts]) // a)

    def scan(n0, count):
        """The open mask and depth of targets n0 + g*t over the classes."""
        return _open(n0, g, count, classes, ci, m, mem, half, not descending)

    # the class plan: each residue of the targets mod g and its runner; a
    # parity split scans the classes where a + n is odd, as every x meets those
    # targets and y's parity follows, and runs odd or even_y on the other
    plan = [(par, scan if not parity or (a + par) % 2 else odd if a % 2 else even_y)
            for par in range(0, g, step)]

    def run_chunk(span):
        """The counterexamples of one chunk, ascending, and its depth."""
        cex, depth = np.zeros(span[1] - span[0] + 1, dtype=bool), 0
        for par, run in plan:
            t0 = (par - span[0]) % g
            count = len(range(t0, cex.size, g))
            if count:
                cex[t0::g], d = run(span[0] + t0, count)
                depth = max(depth, d)
        return span[0] + np.flatnonzero(cex), depth

    start = max(lo, a + b)  # no target below a + b has x, y >= 1
    width = (CHUNK if descending else CHUNK_ASCENDING) * m
    chunks = [(s, min(s + width - 1, hi)) for s in range(start, hi + 1, width)]
    results = [run_chunk(c) for c in chunks]
    depth = max((d for _, d in results), default=0)
    cex = np.concatenate([c for c, _ in results] or [_NONE])
    del results  # the chunks' own counterexamples, now joined
    first = start + -start % step  # the grid's first target
    # The sample is the first sample_size grid targets below sample_end that
    # are not counterexamples.  With idx_j the grid index of the j-th
    # counterexample, the k-th of them has index k + #{j : idx_j - j <= k};
    # for a k below the sample's end, no counterexample past it counts.
    end = min(sample_end, hi + 1)
    below = len(range(first, end, step))
    ns = np.arange(min(sample_size, below))
    if ns.size:  # else first may lie past int64
        idx = cex[: np.searchsorted(cex, end)] - first
        idx //= step
        idx -= np.arange(idx.size)
        ns += np.searchsorted(idx, ns, "right")
        ns = first + step * ns[ns < below]
    wit = np.empty(ns.size, dtype=np.int64)
    res = ns % m
    for q in np.unique(res).tolist():
        sel = res == q
        group = classes[q]
        wit[sel] = group[_first_hits(ns[sel], group, ci, m, mem, half, not descending)]
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
            "max_search_depth": depth,
        },
    )
    return report, descending, int(cex[-1]) if total else None


def verify_additive(
    lo: int,
    hi: int,
    left: DomainSpec,
    right: DomainSpec,
    *,
    even_only: bool = False,
    max_counterexamples: int = 100,
    sample_size: int = 10,
) -> VerificationReport:
    """Check that every n in [lo, hi] is x + y with x, y in the two domains."""
    lo, hi, max_counterexamples, sample_size = map(
        index, (lo, hi, max_counterexamples, sample_size))
    if not 2 <= lo <= hi:
        raise UsageError("need 2 <= lo <= hi")
    step = 2 if even_only else 1
    report, descending, _ = _verify(
        1, 1, lo, hi, left, right, step, lo + step * sample_size,
        max_counterexamples=max_counterexamples, sample_size=sample_size,
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
    a, b, lo, hi, max_counterexamples, sample_size = map(
        index, (a, b, lo, hi, max_counterexamples, sample_size))
    if a < 1 or b < 1 or gcd(a, b) != 1:
        raise UsageError("need a, b >= 1 with gcd(a, b) = 1")
    if max(a, b, (a - 1) * (b - 1)) > U63_MAX:
        raise ArithmeticGuardError("a, b and (a-1)(b-1) must not exceed 2^63 - 1")
    if not 1 <= lo <= hi:
        raise UsageError("need 1 <= lo <= hi")
    report, _, largest = _verify(
        a, b, lo, hi, domain, domain, 1, hi + 1,
        max_counterexamples=max_counterexamples, sample_size=sample_size,
    )
    threshold = (a - 1) * (b - 1)
    report.stats.update(
        below_floor=max(0, min(hi + 1, a + b) - lo),
        largest_exception=largest,
        threshold=threshold,
        largest_exception_within_threshold=None if largest is None else largest <= threshold,
    )
    return report
