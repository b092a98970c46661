"""Curve models: coefficients, the affine correspondence, point searches,
and agreement between lifted curve solutions and the direct solver."""
from __future__ import annotations

import re
from math import comb, isqrt

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from figprimes import (
    ArithmeticGuardError,
    CurvePoint,
    ResourceLimitError,
    UsageError,
    cubic_model,
    emit_samples,
    lift_coordinates,
    lift_point,
    lift_to_solutions,
    map_solution,
    quartic_model,
    search_integral_points,
    solve_equation,
)
from figprimes import curves
from figprimes.curves import PUBLISHED_CUBIC_NEG_K1, CurveModel
from figprimes.intkernel import U63_MAX, integer_root

ALL_MODELS = [
    cubic_model(1, 1), cubic_model(-1, 1), cubic_model(1, 2), cubic_model(-1, 2),
    quartic_model(1, 1), quartic_model(-1, 1), quartic_model(1, 2), quartic_model(-1, 2),
]


class TestModelShape:
    def test_cubic_coefficients(self):
        assert cubic_model(1, 1).coeffs == (-144, 11664)
        assert cubic_model(-1, 1).coeffs == (-144, -9072)
        assert cubic_model(1, 2).coeffs == (-144, 22032)
        assert cubic_model(-1, 2).coeffs == (-144, -19440)

    def test_quartic_coefficients(self):
        assert quartic_model(1, 1).coeffs == (3, 6, -3, -6, 81)
        assert quartic_model(-1, 1).coeffs == (3, 6, -3, -6, -63)
        assert quartic_model(1, 2).coeffs == (3, 6, -3, -6, 153)
        assert quartic_model(-1, 2).coeffs == (3, 6, -3, -6, -135)

    def test_published_negative_k1_constant_is_retained_but_unused(self):
        assert PUBLISHED_CUBIC_NEG_K1 == -3024
        assert cubic_model(-1, 1).coeffs[1] != PUBLISHED_CUBIC_NEG_K1
        assert cubic_model(-1, 1).notes  # the replacement is documented

    def test_quartic_notes_and_shift(self):
        for s in (1, -1):
            assert quartic_model(s, 1).published_shift == 0
            assert quartic_model(s, 2).published_shift == 2
            assert len(quartic_model(s, 1).notes) == 1
            assert len(quartic_model(s, 2).notes) == 2
        assert cubic_model(1, 1).notes == ()

    def test_instance_mapping(self):
        assert cubic_model(1, 5).instance.key == (2, 3, 5)
        assert cubic_model(-1, 5).instance.key == (3, 2, 5)
        assert quartic_model(1, 5).instance.key == (2, 4, 5)
        assert quartic_model(-1, 5).instance.key == (4, 2, 5)

    def test_constructor_guards(self):
        with pytest.raises(UsageError):
            cubic_model(0, 1)
        with pytest.raises(UsageError):
            cubic_model(2, 1)
        with pytest.raises(UsageError):
            quartic_model(1, 0)

    def test_constant_term_stays_in_63_bits(self):
        # cubic constant 1296 + 10368*s*k, quartic 9 + 72*s*k
        for build, base, step in ((cubic_model, 1296, 10368), (quartic_model, 9, 72)):
            for s in (1, -1):
                k = (U63_MAX - s * base) // step  # the largest k that fits
                assert abs(build(s, k).coeffs[-1]) <= U63_MAX
                with pytest.raises(ArithmeticGuardError):
                    build(s, k + 1)

    def test_equation_text(self):
        cubic, quartic = "Y^2 = X^3 - 144*X", "Y^2 = 3*X^4 + 6*X^3 - 3*X^2 - 6*X"
        assert [m.equation_text() for m in ALL_MODELS] == [
            cubic + " + 11664", cubic + " - 9072", cubic + " + 22032", cubic + " - 19440",
            quartic + " + 81", quartic + " - 63", quartic + " + 153", quartic + " - 135",
        ]


class TestCorrespondence:
    def test_round_trip_on_grid(self):
        for model in (cubic_model(1, 1), quartic_model(1, 1)):
            for x in range(1, 121):
                for y in range(1, 121):
                    assert lift_coordinates(model, map_solution(model, x, y)) == (x, y)

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.integers(min_value=1, max_value=10**6),
        y=st.integers(min_value=1, max_value=10**6),
        s=st.sampled_from([1, -1]),
        k=st.integers(min_value=1, max_value=50),
        kind=st.sampled_from(["cubic", "quartic"]),
    )
    def test_round_trip_property(self, x, y, s, k, kind):
        model = cubic_model(s, k) if kind == "cubic" else quartic_model(s, k)
        assert lift_coordinates(model, map_solution(model, x, y)) == (x, y)

    def test_membership_equivalence_on_grid(self):
        # map_solution lands on the curve exactly when the affine pair solves
        # the difference equation
        for model in ALL_MODELS:
            h = 3 if model.kind == "cubic" else 4
            for x in range(1, 151):
                for y in range(1, 151):
                    on = model.contains(map_solution(model, x, y))
                    solves = comb(y, 2) - comb(x, h) == model.s * model.k
                    assert on == solves, (model.kind, model.s, model.k, x, y)

    def test_filters_reject_non_image_points(self):
        cub, qua = cubic_model(1, 1), quartic_model(1, 1)
        assert lift_coordinates(cub, CurvePoint(5, 36)) is None      # X not 0 mod 12
        assert lift_coordinates(cub, CurvePoint(12, 72)) is None     # Y not 36 mod 72
        assert lift_coordinates(cub, CurvePoint(12, 0)) is None      # Y <= 0
        assert lift_coordinates(cub, CurvePoint(12, -36)) is None
        assert lift_coordinates(qua, CurvePoint(3, 4)) is None       # Y not 3 mod 6
        assert lift_coordinates(qua, CurvePoint(3, -3)) is None
        assert lift_coordinates(cub, CurvePoint(12, 108)) == (2, 2)
        assert lift_coordinates(qua, CurvePoint(3, 51)) == (5, 9)

    def test_lift_point_checks_membership(self):
        model = cubic_model(1, 1)
        assert lift_point(model, CurvePoint(72, 612)) == (7, 9)
        with pytest.raises(UsageError):
            lift_point(model, CurvePoint(1, 1))


class TestPointSearch:
    def test_positive_cubic_k1_points(self):
        pts = search_integral_points(cubic_model(1, 1), 10**4)
        assert [(p.X, p.Y) for p in pts[:5]] == [
            (-24, 36), (-23, 53), (-12, 108), (0, 108), (12, 108),
        ]
        assert CurvePoint(72, 612) in pts
        assert all(p.Y >= 0 and p.Y * p.Y == cubic_model(1, 1).rhs(p.X) for p in pts)

    def test_corrected_negative_cubic_contains_published_points(self):
        pts = search_integral_points(cubic_model(-1, 1), 10**4)
        assert CurvePoint(36, 180) in pts
        assert CurvePoint(84, 756) in pts
        # the published constant misses both
        def published_rhs(X: int) -> int:
            return X**3 - 144 * X + PUBLISHED_CUBIC_NEG_K1

        assert 180 * 180 != published_rhs(36)
        assert 756 * 756 != published_rhs(84)

    @pytest.mark.parametrize(
        "s,k,xset",
        [
            (1, 1, [-92, -11, -6, -4, -2, -1, 0, 1, 3, 5, 10, 91]),
            (-1, 1, [-3, 2]),
            (1, 2, [-3, 2]),
            (-1, 2, [-4, 3]),
        ],
    )
    def test_quartic_x_sets(self, s, k, xset):
        model = quartic_model(s, k)
        pts = search_integral_points(model, 10**4)
        assert sorted({p.X for p in pts}) == xset

    def test_shifted_variable_recovers_published_quartic_sets(self):
        for s, shifted in ((1, [-1, 4]), (-1, [-2, 5])):
            model = quartic_model(s, 2)
            pts = search_integral_points(model, 10**4)
            assert sorted({p.X + model.published_shift for p in pts}) == shifted

    def test_ascending_and_guard(self):
        pts = search_integral_points(quartic_model(1, 1), 100)
        assert [p.X for p in pts] == sorted(p.X for p in pts)
        with pytest.raises(UsageError):
            search_integral_points(cubic_model(1, 1), 0)

    def test_window_overflow_guard(self):
        with pytest.raises(ArithmeticGuardError):
            search_integral_points(cubic_model(1, 1), 2**21)
        with pytest.raises(ArithmeticGuardError):
            search_integral_points(quartic_model(1, 1), 2**16)
        # the guard bounds sum |c| * span^d, with the coefficients read from
        # the module docstring's polynomials; it passes at the largest span
        # whose bound fits 63 bits and trips one past it
        X, s, k = sympy.symbols("X s k")
        docstring = dict(re.findall(r"(cubic|quartic): +Y\^2 = (.+)", curves.__doc__))
        for model in ALL_MODELS:
            rhs = sympy.sympify(docstring[model.kind].replace("^", "**"))
            poly = sympy.Poly(rhs.subs({s: model.s, k: model.k}), X)
            coeffs = [abs(int(c)) for c in poly.all_coeffs()[::-1]]
            lo, hi = 1, 2**32  # the bound fits at lo and not at hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                fits = sum(c * mid**d for d, c in enumerate(coeffs)) <= U63_MAX
                lo, hi = (mid, hi) if fits else (lo, mid)
            emit_samples(model, lo, lo)
            with pytest.raises(ArithmeticGuardError):
                emit_samples(model, hi, hi)

    @pytest.mark.parametrize("make", [cubic_model, quartic_model])
    def test_search_matches_scalar_samples(self, make, monkeypatch):
        # the array search against emit_samples' one-X-at-a-time loop, in one
        # chunk and cut into chunks of an odd size
        for s in (1, -1):
            for k in (1, 5, 12):
                model = make(s, k)
                rows = emit_samples(model, -10**4, 10**4)
                expected = [CurvePoint(X, Y) for X, _, ok, Y in rows if ok]
                assert search_integral_points(model, 10**4) == expected, (s, k)
                with monkeypatch.context() as m:
                    m.setattr(curves, "_CHUNK", 997)
                    assert search_integral_points(model, 10**4) == expected, (s, k)

    def test_chunks_cover_every_x(self, monkeypatch):
        # Y^2 = X^2 has a point at every X
        model = CurveModel("quartic", 1, 1, (0, 0, 1, 0, 0))
        monkeypatch.setattr(curves, "_CHUNK", 997)
        expected = [CurvePoint(X, abs(X)) for X in range(-10**4, 10**4 + 1)]
        assert search_integral_points(model, 10**4) == expected

    def test_search_at_the_guard_edge(self):
        # a cubic with a point at the edge of its window, where rhs(E) = Y^2
        # is within 2^44 of 2^63 and rhs(-E) as near -2^63
        E = integer_root(U63_MAX, 3)[0]
        Y = isqrt(E**3 - 144 * E)
        model = CurveModel("cubic", 1, 1, (-144, Y * Y - E**3 + 144 * E))
        with pytest.raises(ArithmeticGuardError):
            search_integral_points(model, E + 1)
        pts = search_integral_points(model, E)
        assert pts[-1] == CurvePoint(E, Y)
        for lo, hi in ((-E, -E + 3000), (E - 3000, E)):
            expected = [CurvePoint(X, y) for X, _, ok, y in emit_samples(model, lo, hi) if ok]
            assert [p for p in pts if lo <= p.X <= hi] == expected
        # a cubic through (-12, 0), (0, 0) and (12, 0)
        model = CurveModel("cubic", 1, 1, (-144, 0))
        expected = [CurvePoint(X, y) for X, _, ok, y in emit_samples(model, -100, 100) if ok]
        assert CurvePoint(0, 0) in expected
        assert search_integral_points(model, 100) == expected
        # the quartic at the largest window its guard allows, in full
        model = quartic_model(1, 1)
        lo, hi = 1, 2**16
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                curves._guard_window(model, mid)
                lo = mid
            except ArithmeticGuardError:
                hi = mid
        expected = [CurvePoint(X, y) for X, _, ok, y in emit_samples(model, -lo, lo) if ok]
        assert search_integral_points(model, lo) == expected


class TestLifting:
    @pytest.mark.parametrize(
        "model,expected",
        [
            (cubic_model(1, 1), {(3, 7, 2, 1)}),
            (cubic_model(-1, 1), {(2, 3, 2, 1), (2, 11, 3, 1)}),
            (cubic_model(1, 2), {(2, 2, 2, 2), (3, 3, 1, 1)}),
            (cubic_model(-1, 2), set()),
            (quartic_model(1, 1), {(2, 5, 2, 1), (3, 7, 2, 1)}),
            (quartic_model(-1, 1), set()),
            (quartic_model(1, 2), {(3, 2, 1, 2)}),
            (quartic_model(-1, 2), {(5, 3, 1, 1)}),
        ],
    )
    def test_lifted_solution_sets(self, model, expected):
        pts = search_integral_points(model, 10**4)
        sols = lift_to_solutions(model, pts)
        assert {s.pqab for s in sols} == expected
        assert [(s.right, s.left) for s in sols] == sorted(
            (s.right, s.left) for s in sols
        )

    def test_prime_power_filter_discards_composite_arguments(self):
        # (10, 189) lifts to x = 12, y = 32 and solves the equation, but 12
        # is not a prime power
        model = quartic_model(1, 1)
        pt = CurvePoint(10, 189)
        assert model.contains(pt)
        assert lift_point(model, pt) == (12, 32)
        assert comb(32, 2) - comb(12, 4) == 1
        assert lift_to_solutions(model, [pt]) == []

    def test_agrees_with_direct_solver(self):
        # a window search plus lifting must see exactly the solver's output
        # once both are capped at the same largest high-index argument
        xmax = 10**4
        for model in ALL_MODELS:
            inst = model.instance
            h = 3 if model.kind == "cubic" else 4
            arg_cap = (xmax + 12) // 12 if model.kind == "cubic" else xmax + 2
            bound = comb(arg_cap, h) if model.s > 0 else comb(arg_cap, h) - model.k
            pts = search_integral_points(model, xmax)
            lifted = {s.pqab for s in lift_to_solutions(model, pts)}
            direct = {s.pqab for s in solve_equation(inst, bound)}
            assert lifted == direct, (model.kind, model.s, model.k)


class TestSampleEmission:
    def test_rows_around_known_point(self):
        rows = emit_samples(cubic_model(1, 1), -24, -22)
        assert rows[0] == (-24, 1296, True, 36)
        assert rows[1] == (-23, 2809, True, 53)
        assert rows[2] == (-22, 4184, False, None)

    def test_negative_rhs_row(self):
        rows = emit_samples(cubic_model(-1, 1), 0, 0)
        assert rows == [(0, -9072, False, None)]

    def test_step_and_consistency(self):
        model = quartic_model(1, 1)
        rows = emit_samples(model, -50, 50, step=5)
        assert [r[0] for r in rows] == list(range(-50, 51, 5))
        for X, rhs, ok, Y in rows:
            assert rhs == model.rhs(X)
            assert ok == (Y is not None)
            if Y is not None:
                assert Y * Y == rhs

    def test_guards(self):
        model = cubic_model(1, 1)
        with pytest.raises(UsageError):
            emit_samples(model, 5, 1)
        with pytest.raises(UsageError):
            emit_samples(model, 0, 10, step=0)
        with pytest.raises(ResourceLimitError):
            emit_samples(model, 0, 10**7)
        with pytest.raises(ArithmeticGuardError):
            emit_samples(quartic_model(1, 1), 0, 2**16)
