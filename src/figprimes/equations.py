"""Exhaustive solvers for C(p**a, i) - C(q**b, j) = k and catalog reconciliation.

An instance fixes (i, j, k); a solution is a quadruple (p, a, q, b) of a
prime-power pair, reported together with both binomial values.  Completeness
is always relative to a bound on the subtrahend: every solution with
C(q**b, j) <= value_bound is found.  Apart from the closed form for
i = j = 1 with odd k, one walk over the prime powers of one side solves every
instance; the sieve budget is its ceiling, and an i = j >= 2 walk stops at
k.  The triangular predecessors and the special families are instances too:
p = C(q, 2) + 1 is (1, 2, 1) with a = b = 1, p**a = C(q, 2) + 1 is (1, 2, 1)
with b = 1, and p**a = C(q**b, 3) + 1 is (1, 3, 1).  ``reconcile`` compares
a solution set with the published one, for the catalog report and for a
single solve alike.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from importlib.resources import files
from math import comb
from operator import index
from typing import NamedTuple

import numpy as np

from .errors import ArithmeticGuardError, UsageError
from .intkernel import (
    U63_MAX,
    binomial_arg,
    build_sieve,
    prime_power_decompose,
    prime_power_decompose_many,
    prime_powers_upto,
)


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


class EquationSolution(NamedTuple):
    p: int
    a: int
    q: int
    b: int
    left: int   # C(p**a, i)
    right: int  # C(q**b, j)

    @property
    def pqab(self) -> tuple[int, int, int, int]:
        return (self.p, self.q, self.a, self.b)


def _binomials(v: np.ndarray, i: int) -> np.ndarray:
    """C(v, i) over an int64 array, or a uint64 one for i = 2, whose binomials fit its dtype.

    C(v, 1) is v itself.  For i = 2 the even factor of v(v - 1) is halved
    first, so no product exceeds C(v, 2); larger i go through Python integers.
    """
    if i == 1:
        return v
    if i == 2:
        return np.where(v % 2 == 0, (v // 2) * (v - 1), v * ((v - 1) // 2))
    return np.array([comb(x, i) for x in v.tolist()], dtype=np.int64)


def _pair_args(t: np.ndarray) -> np.ndarray:
    """n with C(n, 2) == t over an int64 array of t >= 1, and 0 where no n has.

    Where C(n, 2) == t, n = (1 + sqrt(8t + 1)) / 2 <= 2^32, and the float64
    value of that root is within far less than 1/2 of it, so it rounds to n.
    Every rounded root is below 2^32 + 2, so C(root, 2), with the even factor
    halved first, stays below 2^64: in uint64 the comparison with t decides
    over the whole 63-bit range.
    """
    n = np.rint((1 + np.sqrt(8 * t.astype(np.float64) + 1)) / 2).astype(np.uint64)
    return np.where(_binomials(n, 2) == t.view(np.uint64), n, 0).astype(np.int64)


def solve_equation(inst: EquationInstance, value_bound: int = 10**12) -> list[EquationSolution]:
    """All solutions with C(q**b, j) <= value_bound, sorted by (right, left).

    One walk covers every instance but one: it runs over the prime powers v
    of the side with the larger binomial index (the subtrahend on a tie),
    takes C(v, index) in one array, inverts the opposite value with
    ``binomial_arg`` and decomposes the arguments in one batch.  Walking the
    minuend up to C(n, i) <= value_bound + k covers exactly the subtrahends
    up to value_bound.  Prime powers ascend and C(v, index) strictly
    increases for v >= index, so the walk emits its solutions in order.  It
    starts at the first v >= index, since C(v, index) = 0 below it.  Its
    ceiling is the sieve budget, which a (1, 1, k) walk reaches near 2.7e8;
    the sieve runs from 2 to the top of the walk, so an index past the
    budget stops the walk as well (``solve --i 1000000000``) until a
    windowed prime-power enumerator replaces it.
    For i = j >= 2 the walk covers q**b <= k only: a solution has x = p**a >
    y = q**b >= i, so k = C(x, i) - C(y, i) >= C(x - 1, i - 1) >= x - 1 >= y.

    For i = j = 1 and odd k, exactly one of p**a and q**b is even, so it is a
    power of two 2**e: each e up to the bound costs one decomposition and no
    sieve is built.  The minuend never exceeds value_bound + k, which must
    fit in 63 bits, and so must the indices i and j.
    """
    value_bound = index(value_bound)
    if value_bound < 1:
        raise UsageError("value_bound must be >= 1")
    if value_bound > 2**62:
        raise UsageError("value_bound above 2^62 is not supported")
    i, j, k = inst.i, inst.j, index(inst.k)
    if value_bound + k > U63_MAX:
        raise ArithmeticGuardError("value_bound + k exceeds 2^63 - 1")
    if max(i, j) > U63_MAX:
        raise ArithmeticGuardError("binomial indices i and j must not exceed 2^63 - 1")

    if i == 1 and j == 1 and k % 2:
        found: list[EquationSolution] = []
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
        found.sort(key=lambda s: (s.right, s.left))
        return found

    columns = (c.tolist() for c in _walk(i, j, k, value_bound))
    return list(map(EquationSolution._make, zip(*columns)))


def _walk(i: int, j: int, k: int, value_bound: int) -> tuple[np.ndarray, ...]:
    """The walk of ``solve_equation`` for checked arguments, as aligned int64
    arrays (p, a, q, b, left, right) in the order of its solutions."""
    # walk the side with the larger index; the other side is sides + shift
    walk, other, shift = (i, j, -k) if i > j else (j, i, k)
    limit = binomial_arg(value_bound + k if i > j else value_bound, walk)[0]
    if i == j >= 2:
        limit = min(limit, k)
    values, bases, exponents = prime_powers_upto(limit, build_sieve(max(limit, 2)))
    first = int(np.searchsorted(values, walk))
    values, bases, exponents = values[first:], bases[first:], exponents[first:]
    sides = _binomials(values, walk)
    keep = np.flatnonzero(sides + shift >= 1)
    sides, bases, exponents = sides[keep], bases[keep], exponents[keep]
    targets = sides + shift
    # 0 marks a target with no argument; it is no prime power
    if other == 1:
        args = targets
    elif other == 2:
        args = _pair_args(targets)
    else:
        inverse = (binomial_arg(t, other) for t in targets.tolist())
        args = np.array([n if exact else 0 for n, exact in inverse], dtype=np.int64)
    arg_bases, arg_exponents = prime_power_decompose_many(args)
    hits = np.flatnonzero(arg_exponents)
    walked = (bases[hits], exponents[hits], sides[hits])
    inverted = (arg_bases[hits], arg_exponents[hits], targets[hits])
    (p, a, left), (q, b, right) = (walked, inverted) if i > j else (inverted, walked)
    return p, a, q, b, left, right


def enumerate_p_minus1_triangular(limit: int) -> list[tuple[int, int]]:
    """Primes p <= limit with p - 1 = C(q, 2) for prime q, ascending by p.

    These are the solutions of instance (1, 2, 1) with a = b = 1 and
    C(q, 2) <= limit - 1, selected on the walk's arrays; the walk emits them
    ascending by C(q, 2), so by p.  Its bound C(q, 2) <= 2^62 caps the limit
    at 2^62 + 1.
    """
    if not 2 <= limit <= 2**62 + 1:
        raise UsageError("limit must be in [2, 2^62 + 1]")
    p, a, q, b, _, _ = _walk(1, 2, 1, limit - 1)
    simple = (a == 1) & (b == 1)
    return list(zip(p[simple].tolist(), q[simple].tolist()))


@dataclass
class FamilySection:
    name: str
    solutions: list[tuple[int, ...]]
    expected: list[tuple[int, ...]]

    @property
    def matches(self) -> bool:
        return set(self.solutions) == set(self.expected)


def special_family_checks(bound: int = 10**9) -> list[FamilySection]:
    """Search three constrained one-parameter families up to p**a <= bound.

    1. p**a = C(q, 2) + 1 with a even: expected only 2**2 = C(3, 2) + 1.
    2. the same with a in {3, 5, 7}: expected empty.
    3. p**a = C(q**b, 3) + 1: expected exactly three solutions.

    The first two read the solutions of instance (1, 2, 1) with b = 1, the
    third those of (1, 3, 1); p**a <= bound is C(q**b, j) <= bound - 1.
    """
    if bound < 10**6:
        raise UsageError("family checks need bound >= 10^6")
    triangular = [s for s in solve_equation(EquationInstance(1, 2, 1), bound - 1) if s.b == 1]
    even_hits = [(s.p, s.a, s.q) for s in triangular if s.a % 2 == 0]
    odd_hits = [(s.p, s.a, s.q) for s in triangular if s.a in (3, 5, 7)]
    tetra_hits = [s.pqab for s in solve_equation(EquationInstance(1, 3, 1), bound - 1)]
    return [
        FamilySection("square-plus-one-triangular", even_hits, [(2, 2, 3)]),
        FamilySection("odd-exponent-triangular", odd_hits, []),
        FamilySection(
            "power-plus-one-tetrahedral", tetra_hits, [(2, 3, 1, 1), (5, 2, 1, 2), (11, 5, 1, 1)]
        ),
    ]


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


def reconcile(
    inst: EquationInstance,
    published: list[tuple[int, int, int, int]],
    computed: list[tuple[int, int, int, int]],
) -> ErrataEntry:
    """Compare computed (p, q, a, b) tuples with the published ones.

    The status is MATCH when both sets agree.  A published tuple that does not
    satisfy its own equation gets a note carrying the actual difference, so
    the entry is self-contained.
    """
    i, j, k = inst.key
    notes = []
    for p, q, a, b in published:
        left, right = comb(p**a, i), comb(q**b, j)
        if left - right != k:
            notes.append(
                f"published ({p},{q},{a},{b}) evaluates to "
                f"C({p**a},{i}) - C({q**b},{j}) = {left - right}"
            )
    status = "MATCH" if set(published) == set(computed) else "DISCREPANCY"
    return ErrataEntry(inst.key, list(published), list(computed), status, notes)


def theorem_errata(value_bound: int = 10**12) -> list[ErrataEntry]:
    """Solve every cataloged instance and reconcile it with the catalog."""
    entries = []
    for key, published in load_published_catalog().items():
        inst = EquationInstance(*key)
        computed = [s.pqab for s in solve_equation(inst, value_bound)]
        entries.append(reconcile(inst, published, computed))
    return entries
