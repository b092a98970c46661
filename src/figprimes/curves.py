"""Plane-curve models for the difference equations with index pairs
(2,3), (3,2), (2,4), (4,2).

Clearing denominators in C(y, 2) - C(x, 3) = s*k and C(y, 2) - C(x, 4) = s*k
turns each instance into a curve with integer coefficients:

    cubic:   Y^2 = X^3 - 144*X + (1296 + 10368*s*k)
    quartic: Y^2 = 3*X^4 + 6*X^3 - 3*X^2 - 6*X + (9 + 72*s*k)

under the invertible substitutions

    cubic:   x = (X + 12) / 12,  y = (Y + 36) / 72
    quartic: x = X + 2,          y = (Y + 3) / 6.

Each kind is one row of the private table ``_KINDS`` (coefficients, constant
term base + step*s*k, substitutions X = m*x - t and Y = m*y - t, default
search window, published shift); every function below reads that row.

Throughout, the affine coordinate y is the argument of the index-2 binomial
and x is the argument of the index-3 or index-4 binomial; s = +1 puts the
index-2 binomial on the positive side of the difference.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, isqrt
from operator import index
from typing import NamedTuple

import numpy as np

from .equations import EquationInstance, EquationSolution
from .errors import ArithmeticGuardError, ResourceLimitError, UsageError
from .intkernel import U63_MAX, prime_power_decompose

CUBIC_LINEAR = -144

#: most rows ``emit_samples`` returns for one window
MAX_SAMPLE_ROWS = 1_000_000

#: published constant for the cubic with s = -1, k = 1; inconsistent with the
#: published point list, which lies on the recomputed constant instead
PUBLISHED_CUBIC_NEG_K1 = -3024

CORRECTION_NOTES = {
    ("cubic", -1, 1): (
        "published constant -3024 does not contain the published points "
        "(36,180) and (84,756); this model uses the recomputed -9072"
    ),
    ("quartic", "map"): (
        "published substitution x=(X+3)/6, y=Y+2 is inconsistent with the "
        "published points and solutions; this model uses x=X+2, y=(Y+3)/6"
    ),
    ("quartic", "shift", 2): (
        "published k=2 quartics are written in the shifted variable "
        "X' = X + 2; a published point (X', Y) equals (X' - 2, Y) here"
    ),
}


@dataclass(frozen=True)
class CurvePoint:
    X: int
    Y: int


class _Kind(NamedTuple):
    lead: tuple[int, ...]      # leading coefficients that ``coeffs`` leaves out
    fixed: tuple[int, ...]     # the coefficients that s and k leave alone
    constant: tuple[int, int]  # (base, step): the constant term is base + step*s*k
    maps: tuple[tuple[int, int], tuple[int, int]]  # (m, t) pairs: X = m*x - t, Y = m*y - t
    window: int                # default xmax of a point search
    shifts: dict[int, int]     # k -> published_shift


# quartic coefficients grow faster, hence the narrower window
_KINDS = {
    "cubic": _Kind((1, 0), (CUBIC_LINEAR,), (1296, 10368), ((12, 12), (72, 36)), 10**5, {}),
    "quartic": _Kind((), (3, 6, -3, -6), (9, 72), ((1, 2), (6, 3)), 10**4, {2: 2}),
}


@dataclass(frozen=True)
class CurveModel:
    kind: str                 # "cubic" | "quartic"
    s: int                    # +1 | -1
    k: int
    coeffs: tuple[int, ...]   # cubic: (c1, c0) for X^3 + c1*X + c0
    published_shift: int = 0  # add to model X to recover the published variable
    notes: tuple[str, ...] = ()

    @cached_property
    def _poly(self) -> tuple[int, ...]:
        """The coefficients of X^4, ..., X^0 on the right-hand side."""
        poly = _KINDS[self.kind].lead + self.coeffs
        return (0,) * (5 - len(poly)) + poly

    @property
    def instance(self) -> EquationInstance:
        high = len(_KINDS[self.kind].lead + self.coeffs) - 1
        if self.s > 0:
            return EquationInstance(2, high, self.k)
        return EquationInstance(high, 2, self.k)

    def rhs(self, X: int) -> int:
        c4, c3, c2, c1, c0 = self._poly
        return (((c4 * X + c3) * X + c2) * X + c1) * X + c0

    def contains(self, pt: CurvePoint) -> bool:
        return pt.Y * pt.Y == self.rhs(pt.X)

    def equation_text(self) -> str:
        def term(c: int, d: int) -> str:
            mono = "" if d == 0 else "X" if d == 1 else f"X^{d}"
            coef = str(abs(c)) if d == 0 else "" if c == 1 else f"{abs(c)}*"
            return f" {'+' if c >= 0 else '-'} {coef}{mono}"

        terms = [term(c, d) for d, c in enumerate(reversed(self._poly)) if c]
        return "Y^2 =" + "".join(reversed(terms)).removeprefix(" +")


def _model(kind: str, s: int, k: int) -> CurveModel:
    """The model of one kind, built from its row of ``_KINDS``; its constant
    term must fit in 63 bits."""
    s, k = index(s), index(k)
    if s not in (1, -1) or k < 1:
        raise UsageError(f"{kind}_model needs s in {{1, -1}} and k >= 1")
    spec = _KINDS[kind]
    base, step = spec.constant
    constant = base + step * s * k
    if abs(constant) > U63_MAX:
        raise ArithmeticGuardError(f"constant term {constant} is beyond 2^63 - 1")
    keys = ((kind, s, k), (kind, "map"), (kind, "shift", k))
    return CurveModel(
        kind=kind, s=s, k=k,
        coeffs=spec.fixed + (constant,),
        published_shift=spec.shifts.get(k, 0),
        notes=tuple(CORRECTION_NOTES[key] for key in keys if key in CORRECTION_NOTES),
    )


def cubic_model(s: int, k: int) -> CurveModel:
    """Model for C(y,2) - C(x,3) = s*k (s = +1) or C(x,3) - C(y,2) = k (s = -1)."""
    return _model("cubic", s, k)


def quartic_model(s: int, k: int) -> CurveModel:
    """Model for C(y,2) - C(x,4) = s*k (s = +1) or C(x,4) - C(y,2) = k (s = -1)."""
    return _model("quartic", s, k)


def lift_coordinates(model: CurveModel, pt: CurvePoint) -> tuple[int, int] | None:
    """The divisibility/sign filters and the bare affine inverse; does not
    check curve membership.  The filters accept exactly the image of
    map_solution over integer x and positive y."""
    (mx, tx), (my, ty) = _KINDS[model.kind].maps
    x, rx = divmod(pt.X + tx, mx)
    y, ry = divmod(pt.Y + ty, my)
    return None if pt.Y <= 0 or rx or ry else (x, y)


def lift_point(model: CurveModel, pt: CurvePoint) -> tuple[int, int] | None:
    """Affine (x, y) behind an integral point, or None when the divisibility
    and sign filters rule the point out.  Raises for points off the curve."""
    if not model.contains(pt):
        raise UsageError(f"({pt.X}, {pt.Y}) is not on {model.equation_text()}")
    return lift_coordinates(model, pt)


def map_solution(model: CurveModel, x: int, y: int) -> CurvePoint:
    """Point with coordinates mapped from affine (x, y); y is always the
    index-2 argument.  Pure transform: the result lies on the curve exactly
    when (x, y) solves the model's difference equation."""
    (mx, tx), (my, ty) = _KINDS[model.kind].maps
    return CurvePoint(mx * index(x) - tx, my * index(y) - ty)


#: values of X per array pass of a point search, which bounds its temporaries
_CHUNK = 1 << 18

#: (m, squares): squares[r] tells whether r is a square mod m
_SQUARE_SCREENS = tuple(
    (m, np.isin(np.arange(m), np.arange(m) ** 2 % m)) for m in (64, 63, 65, 11)
)


def _guard_window(model: CurveModel, span: int) -> None:
    # conservative envelope on |rhs| over |X| <= span
    peak = sum(abs(c) * span**d for d, c in enumerate(reversed(model._poly)))
    if peak > U63_MAX:
        raise ArithmeticGuardError(f"|rhs| may reach {peak} within |X| <= {span}, beyond 2^63 - 1")


def search_integral_points(model: CurveModel, xmax: int) -> list[CurvePoint]:
    """All integral points with |X| <= xmax and Y >= 0, ascending by X.

    The right-hand side is evaluated in int64 over chunks of ``_CHUNK``
    values of X at once.  A square is a square modulo every m, so each
    residue table of ``_SQUARE_SCREENS`` drops most non-squares; the
    survivors get an exact ``isqrt``.  ``emit_samples`` walks the same
    window one X at a time.
    """
    xmax = index(xmax)
    if xmax < 1:
        raise UsageError("xmax must be >= 1")
    _guard_window(model, xmax)
    out: list[CurvePoint] = []
    for lo in range(-xmax, xmax + 1, _CHUNK):
        X = np.arange(lo, min(lo + _CHUNK, xmax + 1), dtype=np.int64)
        # Horner: after each step the value is a polynomial in X whose every
        # term c_d * X^e has e <= d, so it stays within the envelope
        # sum |c_d| * xmax^d that _guard_window bounds by 2^63 - 1
        r = np.zeros_like(X)
        for c in model._poly:
            r = r * X + c
        lanes = np.flatnonzero(r >= 0)
        for m, squares in _SQUARE_SCREENS:
            lanes = lanes[squares[r[lanes] % m]]
        for x, v in zip(X[lanes].tolist(), r[lanes].tolist()):
            y = isqrt(v)
            if y * y == v:
                out.append(CurvePoint(x, y))
    return out


def lift_to_solutions(model: CurveModel, points: list[CurvePoint]) -> list[EquationSolution]:
    """Solutions of the model's instance arising from curve points.

    A point contributes iff its lift passes the divisibility filters, both
    affine coordinates are prime powers, and both binomials are positive.
    """
    inst = model.instance
    out: list[EquationSolution] = []
    for pt in points:
        lifted = lift_point(model, pt)
        if lifted is None:
            continue
        x, y = lifted
        left_arg, right_arg = (y, x) if model.s > 0 else (x, y)
        if left_arg < inst.i or right_arg < inst.j:
            continue
        dl = prime_power_decompose(left_arg)
        dr = prime_power_decompose(right_arg)
        if dl is None or dr is None:
            continue
        left = comb(left_arg, inst.i)
        right = comb(right_arg, inst.j)
        if left - right != inst.k:
            continue
        out.append(EquationSolution(dl.p, dl.a, dr.p, dr.a, left, right))
    out.sort(key=lambda sol: (sol.right, sol.left))
    return out


def emit_samples(
    model: CurveModel,
    xlo: int,
    xhi: int,
    step: int = 1,
) -> list[tuple[int, int, bool, int | None]]:
    """Rows (X, rhs, is_square, Y) over an X window, for offline inspection."""
    xlo, xhi, step = index(xlo), index(xhi), index(step)
    if step < 1 or xlo > xhi:
        raise UsageError("need step >= 1 and xlo <= xhi")
    if (xhi - xlo) // step + 1 > MAX_SAMPLE_ROWS:
        raise ResourceLimitError(f"window exceeds {MAX_SAMPLE_ROWS} rows")
    _guard_window(model, max(abs(xlo), abs(xhi)))
    rows: list[tuple[int, int, bool, int | None]] = []
    for X in range(xlo, xhi + 1, step):
        r = model.rhs(X)
        if r >= 0:
            y = isqrt(r)
            ok = y * y == r
            rows.append((X, r, ok, y if ok else None))
        else:
            rows.append((X, r, False, None))
    return rows
