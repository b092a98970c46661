"""Exhaustive solvers for C(p**a, i) - C(q**b, j) = k and catalog reconciliation.

An instance fixes (i, j, k); a solution is a quadruple (p, a, q, b) of a
prime-power pair, reported together with both binomial values.  Completeness
is always relative to a bound on the subtrahend: every solution with
C(q**b, j) <= value_bound is found.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from importlib.resources import files
from math import comb, factorial, isqrt
from operator import index

from .errors import ArithmeticGuardError, UsageError
from .intkernel import (
    U63_MAX,
    PrimeTable,
    build_sieve,
    integer_root,
    is_prime,
    prime_power_decompose,
    prime_powers_upto,
)

#: the i = j = 1 case with even k walks every prime power up to the bound, so
#: it gets a much lower ceiling than the inverted cases; odd k needs none, as
#: one side of p**a - q**b = k is then a power of two
UNIT_INSTANCE_BOUND = 10**8


@dataclass(frozen=True)
class EquationInstance:
    i: int
    j: int
    k: int

    def __post_init__(self) -> None:
        if self.i < 1 or self.j < 1 or self.k < 1:
            raise UsageError("instance needs i, j, k >= 1")

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.i, self.j, self.k)


@dataclass(frozen=True)
class EquationSolution:
    p: int
    a: int
    q: int
    b: int
    left: int   # C(p**a, i)
    right: int  # C(q**b, j)

    @property
    def pqab(self) -> tuple[int, int, int, int]:
        return (self.p, self.q, self.a, self.b)


def _max_binomial_arg(i: int, bound: int) -> int:
    """Largest n with C(n, i) <= bound (n >= i), assuming bound >= 1."""
    if i == 1:
        return bound
    lo, hi = i, i + 1
    while comb(hi, i) <= bound:
        hi *= 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if comb(mid, i) <= bound:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _invert_binomial(target: int, i: int) -> int | None:
    """The unique n >= i with C(n, i) = target, if any (target >= 1).

    C(n, i) is strictly increasing in n for n >= i, and the product form
    i! * C(n, i) = n(n-1)...(n-i+1) pins n into a window of width i around
    the i-th root, so only a handful of candidates need testing.
    """
    if i == 1:
        return target
    if i == 2:
        # n(n-1) = 2t
        n = (1 + isqrt(1 + 8 * target)) // 2
        return n if n >= 2 and comb(n, 2) == target else None
    r, _ = integer_root(target * factorial(i), i)
    for n in range(max(i, r), r + i + 1):
        v = comb(n, i)
        if v == target:
            return n
        if v > target:
            return None
    return None


def _shared_table(table: PrimeTable | None, needed: int) -> PrimeTable:
    if table is not None and table.limit >= needed:
        return table
    return build_sieve(max(needed, 2))


def solve_equation(
    inst: EquationInstance,
    value_bound: int = 10**12,
    table: PrimeTable | None = None,
) -> list[EquationSolution]:
    """All solutions with C(q**b, j) <= value_bound, sorted by (right, left).

    The side with the larger binomial index is enumerated directly over
    prime powers; the opposite value is then inverted, which keeps the walk
    far shorter than scanning the subtrahend when j = 1.

    For i = j = 1 and odd k, exactly one of p**a and q**b is even, so it is a
    power of two 2**e: each e up to the bound costs one decomposition and no
    sieve is built.  Even k enumerates every prime power up to the bound and
    is capped at ``UNIT_INSTANCE_BOUND``.  The minuend never exceeds
    value_bound + k, which must fit in 63 bits.
    """
    value_bound = index(value_bound)
    if value_bound < 1:
        raise UsageError("value_bound must be >= 1")
    if value_bound > 2**62:
        raise UsageError("value_bound above 2^62 is not supported")
    i, j, k = inst.i, inst.j, index(inst.k)
    if value_bound + k > U63_MAX:
        raise ArithmeticGuardError("value_bound + k exceeds 2^63 - 1")
    found: list[EquationSolution] = []

    if i == 1 and j == 1 and k % 2:
        # 2**e - q**b = k with q**b <= value_bound, i.e. 2**e <= value_bound + k ...
        for e in range(1, (value_bound + k).bit_length()):
            d = prime_power_decompose(2**e - k)
            if d is not None:
                found.append(EquationSolution(2, e, d.p, d.a, 2**e, 2**e - k))
        # ... and p**a - 2**e = k with 2**e <= value_bound.
        for e in range(1, value_bound.bit_length()):
            d = prime_power_decompose(2**e + k)
            if d is not None:
                found.append(EquationSolution(d.p, d.a, 2, e, 2**e + k, 2**e))
    elif i == 1 and j == 1:
        # p**a - q**b = k: no binomial to invert on either side.
        if value_bound > UNIT_INSTANCE_BOUND:
            raise UsageError(
                f"instance (1, 1, k) with even k enumerates every prime power "
                f"up to the bound; use value_bound <= {UNIT_INSTANCE_BOUND}"
            )
        table = _shared_table(table, value_bound)
        for v, q, b in zip(*(x.tolist() for x in prime_powers_upto(value_bound, table))):
            d = prime_power_decompose(v + k)
            if d is not None:
                found.append(EquationSolution(d.p, d.a, q, b, v + k, v))
    elif j == 1:
        # Walk the minuend side: C(n, i) <= value_bound + k exactly covers
        # every solution with q**b <= value_bound.
        n_max = _max_binomial_arg(i, value_bound + k)
        table = _shared_table(table, n_max)
        for v, p, a in zip(*(x.tolist() for x in prime_powers_upto(n_max, table))):
            if v < i:
                continue
            m = comb(v, i) - k
            if m < 1:
                continue
            d = prime_power_decompose(m)
            if d is not None:
                found.append(EquationSolution(p, a, d.p, d.a, m + k, m))
    elif i > j:
        # i > j >= 2: the minuend side carries the larger index, so walk it
        # and invert the subtrahend.  left <= value_bound + k covers exactly
        # right <= value_bound.
        n_max = _max_binomial_arg(i, value_bound + k)
        table = _shared_table(table, n_max)
        for v, p, a in zip(*(x.tolist() for x in prime_powers_upto(n_max, table))):
            if v < i:
                continue
            left = comb(v, i)
            if left <= k:
                continue
            m = _invert_binomial(left - k, j)
            if m is None or m < j:
                continue
            d = prime_power_decompose(m)
            if d is not None:
                found.append(EquationSolution(p, a, d.p, d.a, left, left - k))
    else:
        m_max = _max_binomial_arg(j, value_bound)
        table = _shared_table(table, m_max)
        for v, q, b in zip(*(x.tolist() for x in prime_powers_upto(m_max, table))):
            if v < j:
                continue
            right = comb(v, j)
            n = _invert_binomial(right + k, i)
            if n is None or n < i:
                continue
            d = prime_power_decompose(n)
            if d is not None:
                found.append(EquationSolution(d.p, d.a, q, b, right + k, right))

    found.sort(key=lambda s: (s.right, s.left))
    return found


def enumerate_p_minus1_triangular(
    limit: int, table: PrimeTable | None = None
) -> list[tuple[int, int]]:
    """Primes p <= limit with p - 1 = C(q, 2) for prime q, ascending by p."""
    if limit < 2:
        raise UsageError("limit must be >= 2")
    qmax = isqrt(2 * limit) + 2
    table = _shared_table(table, qmax)
    pairs: list[tuple[int, int]] = []
    for q in table.primes.tolist():
        if q > qmax:
            break
        p = q * (q - 1) // 2 + 1
        if p > limit:
            break
        if is_prime(p):
            pairs.append((p, q))
    return pairs


@dataclass
class FamilySection:
    name: str
    solutions: list[tuple[int, ...]]
    expected: list[tuple[int, ...]]

    @property
    def matches(self) -> bool:
        return set(self.solutions) == set(self.expected)


@dataclass
class FamilyReport:
    bound: int
    sections: list[FamilySection]

    @property
    def consistent(self) -> bool:
        return all(s.matches for s in self.sections)


def special_family_checks(bound: int = 10**9, table: PrimeTable | None = None) -> FamilyReport:
    """Search three constrained one-parameter families up to p**a <= bound.

    1. p**a = C(q, 2) + 1 with a even: expected only 2**2 = C(3, 2) + 1.
    2. the same with a in {3, 5, 7}: expected empty.
    3. p**a = C(q**b, 3) + 1: expected exactly three solutions.
    """
    if bound < 10**6:
        raise UsageError("family checks need bound >= 10^6")
    qmax = isqrt(2 * bound) + 2
    table = _shared_table(table, qmax)

    even_hits: list[tuple[int, ...]] = []
    odd_hits: list[tuple[int, ...]] = []
    for q in table.primes.tolist():
        value = q * (q - 1) // 2 + 1
        if value > bound:
            break
        d = prime_power_decompose(value)
        if d is None:
            continue
        if d.a % 2 == 0:
            even_hits.append((d.p, d.a, q))
        elif d.a in (3, 5, 7):
            odd_hits.append((d.p, d.a, q))

    tetra_hits: list[tuple[int, ...]] = []
    m_max = _max_binomial_arg(3, bound - 1)
    for v, q, b in zip(*(x.tolist() for x in prime_powers_upto(m_max, table))):
        if v < 3:
            continue
        value = comb(v, 3) + 1
        if value > bound:
            break
        d = prime_power_decompose(value)
        if d is not None:
            tetra_hits.append((d.p, q, d.a, b))

    return FamilyReport(
        bound=bound,
        sections=[
            FamilySection("square-plus-one-triangular", even_hits, [(2, 2, 3)]),
            FamilySection("odd-exponent-triangular", odd_hits, []),
            FamilySection(
                "power-plus-one-tetrahedral",
                tetra_hits,
                [(2, 3, 1, 1), (5, 2, 1, 2), (11, 5, 1, 1)],
            ),
        ],
    )


_CATALOG_LINE = re.compile(r"^(\d+)\s+(\d+)\s+(\d+)\s*:\s*(.+)$")
_TUPLE = re.compile(r"\((\d+),(\d+),(\d+),(\d+)\)")


def load_published_catalog() -> dict[tuple[int, int, int], list[tuple[int, int, int, int]]]:
    """Instance -> published (p, q, a, b) list, in file order."""
    text = files("figprimes").joinpath("data/published_solutions.txt").read_text("ascii")
    catalog: dict[tuple[int, int, int], list[tuple[int, int, int, int]]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _CATALOG_LINE.match(line)
        if m is None:
            raise UsageError(f"malformed catalog line: {line!r}")
        key = (int(m.group(1)), int(m.group(2)), int(m.group(3)))
        body = m.group(4).strip()
        if body == "none":
            catalog[key] = []
        else:
            catalog[key] = [
                tuple(int(g) for g in t) for t in _TUPLE.findall(body)
            ]
    return catalog


@dataclass
class ErrataEntry:
    instance: tuple[int, int, int]
    published: list[tuple[int, int, int, int]]
    computed: list[tuple[int, int, int, int]]
    status: str  # "MATCH" | "DISCREPANCY"
    notes: list[str]


@dataclass
class ErrataReport:
    bound: int
    entries: list[ErrataEntry]

    @property
    def discrepancies(self) -> list[ErrataEntry]:
        return [e for e in self.entries if e.status != "MATCH"]


def _tuple_note(i: int, j: int, p: int, q: int, a: int, b: int) -> str | None:
    left = comb(p**a, i)
    right = comb(q**b, j)
    return (
        f"published ({p},{q},{a},{b}) evaluates to "
        f"C({p**a},{i}) - C({q**b},{j}) = {left - right}"
    )


def theorem_errata(
    value_bound: int = 10**12, table: PrimeTable | None = None
) -> ErrataReport:
    """Recompute every cataloged instance and reconcile against the catalog.

    Published tuples that do not satisfy their own equation get an explicit
    note carrying the actual difference, so the report is self-contained.
    """
    catalog = load_published_catalog()
    needed = max(
        _max_binomial_arg(i, value_bound + k) if i > j else _max_binomial_arg(j, value_bound)
        for (i, j, k) in catalog
    )
    table = _shared_table(table, needed)
    entries: list[ErrataEntry] = []
    for key, published in catalog.items():
        i, j, k = key
        computed = [s.pqab for s in solve_equation(EquationInstance(i, j, k), value_bound, table)]
        notes = []
        for p, q, a, b in published:
            if comb(p**a, i) - comb(q**b, j) != k:
                notes.append(_tuple_note(i, j, p, q, a, b))
        status = "MATCH" if set(published) == set(computed) else "DISCREPANCY"
        entries.append(
            ErrataEntry(
                instance=key,
                published=list(published),
                computed=computed,
                status=status,
                notes=notes,
            )
        )
    return ErrataReport(bound=value_bound, entries=entries)
