"""``reporting.int_lines`` against ``csv.writer`` and against the per-value
join it replaced, on the edges of its 4-digit groups and of int64, on drawn
integer arrays, and on its peak memory; and ``build_envelope`` against the
per-key builder it replaced."""
from __future__ import annotations

import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figprimes.reporting import (
    Table,
    build_envelope,
    int_lines,
    render_csv,
    render_json,
    render_text,
)


def joined_lines(rows: np.ndarray) -> str:
    """Each row's values through ``str``, joined by commas, one line per row:
    the oracle kept from before the byte buffer."""
    if not len(rows):
        return ""
    columns = rows.reshape(len(rows), -1).T.tolist()
    return "\n".join(map(",".join, zip(*(map(str, c) for c in columns)))) + "\n"


def writer_lines(rows: np.ndarray) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows.reshape(len(rows), -1).tolist())
    return buf.getvalue()


EDGES = (
    [10**k - 1 for k in range(19)]
    + [10**k for k in range(19)]
    + [0, 2**62, 2**63 - 1, -1, -(2**63)]
    + [-(10**k) for k in range(19)]
    + [1 - 10**k for k in range(1, 19)]
)


def shapes(values: list[int]):
    a = np.array(values, dtype=np.int64)
    yield a
    yield a[: a.size // 2 * 2].reshape(-1, 2)
    yield a[: a.size // 3 * 3].reshape(-1, 3)
    yield a.reshape(-1, 1)
    yield a[::-1].copy()
    yield a[:1]


class TestIntLines:
    @pytest.mark.parametrize("rows", list(shapes(EDGES)), ids=lambda r: str(r.shape))
    def test_edges(self, rows):
        assert int_lines(rows) == joined_lines(rows) == writer_lines(rows)

    def test_each_edge_alone_and_in_pairs(self):
        for v in EDGES:
            one = np.array([v], dtype=np.int64)
            assert int_lines(one) == f"{v}\n"
            pair = np.array([[v, -v if v != -(2**63) else 0]], dtype=np.int64)
            assert int_lines(pair) == joined_lines(pair)

    def test_empty(self):
        for rows in (np.zeros(0, dtype=np.int64), np.zeros((0, 2), dtype=np.int64)):
            assert int_lines(rows) == "" == joined_lines(rows)

    @pytest.mark.parametrize("rows", [np.array([1.5, 2.7]), np.array([[True], [False]]),
                                      np.array(["1", "2"]), np.array([1, 2], dtype=object)],
                             ids=["float", "bool", "str", "object"])
    def test_rejects_all_but_integer_dtypes(self, rows):
        """``csv.writer`` writes 1.5 and True, where a digit fill would write 1 and 1."""
        with pytest.raises(TypeError, match="integer array"):
            int_lines(rows)
        with pytest.raises(TypeError, match="integer array"):
            render_csv(Table(["v"], rows))

    def test_rows_with_no_columns_are_empty_lines(self):
        rows = np.zeros((3, 0), dtype=np.int64)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([[]] * 3)
        assert int_lines(rows) == buf.getvalue() == "\n\n\n"
        assert render_csv(Table([], rows)) == b"\n" * 4

    def test_seeded_random(self):
        rng = np.random.default_rng(63)
        for size in (1, 2, 5, 1000):
            for hi in (10, 10**6, 2**63 - 1):
                a = rng.integers(-hi, hi, size=size * 2, dtype=np.int64, endpoint=True)
                for rows in (a, a.reshape(-1, 2)):
                    assert int_lines(rows) == joined_lines(rows) == writer_lines(rows)


def test_int_lines_peak_memory_near_output(fig1e6):
    """The traced peak over the 79,096 members up to 10^6 is at most 8x the
    text: 6.0x with the word fill, 11.3x with the per-digit scatter before it."""
    tracemalloc.start()
    try:
        text = int_lines(fig1e6.values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * len(text)


#: each 4-digit group boundary with both signs, and the int64 and uint64 edges
GROUP_EDGES = sorted(
    {s * v for k in range(5) for v in (10 ** (4 * k) - 1, 10 ** (4 * k)) for s in (1, -1)}
    | {2**63 - 2, 2**63 - 1, -(2**63), 1 - 2**63, 2**63, 2**64 - 1}
)


@st.composite
def int_arrays(draw) -> np.ndarray:
    """An int8, int32, int64 or uint64 array of 1-4 columns (one-dimensional
    or not when it has one), its values drawn from the group edges in range
    or from the whole range."""
    dtype = np.dtype(draw(st.sampled_from(["int8", "int32", "int64", "uint64"])))
    lo, hi = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    value = st.sampled_from([v for v in GROUP_EDGES if lo <= v <= hi]) | st.integers(lo, hi)
    rows, columns = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    values = draw(st.lists(value, min_size=rows * columns, max_size=rows * columns))
    flat = columns == 1 and draw(st.booleans())
    return np.array(values, dtype=dtype).reshape((rows,) if flat else (rows, columns))


@given(int_arrays())
@settings(max_examples=300, deadline=None)
def test_int_lines_matches_csv_writer(rows):
    assert int_lines(rows) == writer_lines(rows)


def reference_envelope(
    task: str,
    params: dict,
    range_: tuple[int, int] | None = None,
    verified: bool | None = None,
    counterexamples: list | None = None,
    counterexample_total: int = 0,
    witness_sample: list | None = None,
    stats: dict | None = None,
    errata: list | None = None,
    elapsed_ms: int = 0,
) -> dict:
    """The envelope builder with one parameter per key: the oracle kept from
    before ``build_envelope`` walked ``ENVELOPE_KEYS``."""
    env = {
        "task": task,
        "params": params,
        "range": list(range_) if range_ is not None else None,
        "verified": verified,
        "counterexamples": counterexamples if counterexamples is not None else [],
        "counterexample_total": counterexample_total,
        "witness_sample": witness_sample if witness_sample is not None else [],
        "stats": stats if stats is not None else {},
    }
    if errata is not None:
        env["errata"] = errata
    env["elapsed_ms"] = elapsed_ms
    return env


_ints = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_names = st.text(alphabet="abcdefgh_", min_size=1, max_size=6)

#: each optional key's values when a report sets it
SET_VALUES = {
    "range": st.lists(_ints, min_size=2, max_size=2),
    "verified": st.booleans(),
    "counterexamples": st.lists(_ints, max_size=12),
    "counterexample_total": st.integers(min_value=0, max_value=10**6),
    "witness_sample": st.lists(st.fixed_dictionaries({"n": _ints, "x": _ints, "y": _ints}),
                               max_size=7),
    "stats": st.dictionaries(_names, _ints | st.booleans() | st.none(), max_size=4),
    "errata": st.lists(st.dictionaries(_names, _ints, max_size=3) | _names, max_size=3),
    "elapsed_ms": st.integers(min_value=0, max_value=10**7),
}


@st.composite
def reports(draw):
    """(task, params, fields): each optional key absent, None or set.  The
    reference keeps a None ``counterexample_total`` as None, where its empty
    value is 0; no report gives it as None, so it is never drawn so."""
    fields = {}
    for key, values in SET_VALUES.items():
        choice = draw(st.sampled_from(("absent", "none", "set")))
        if choice == "set":
            fields[key] = draw(values)
        elif choice == "none" and key != "counterexample_total":
            fields[key] = None
    return draw(_names), draw(st.dictionaries(_names, _ints, max_size=4)), fields


class TestBuildEnvelope:
    @given(reports())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_key_builder(self, report):
        task, params, fields = report
        old = dict(fields)
        if "range" in old:
            value = old.pop("range")
            old["range_"] = None if value is None else tuple(value)
        env = build_envelope(task, params, **fields)
        want = reference_envelope(task, params, **old)
        assert list(env.items()) == list(want.items())
        assert render_json(env) == render_json(want)
        assert render_text(env) == render_text(want)

    @pytest.mark.parametrize("key", ["range_", "verify", "lo"])
    def test_unknown_key_raises(self, key):
        with pytest.raises(TypeError, match=key):
            build_envelope("t", {}, **{key: 1})

    def test_empty_values_are_fresh(self):
        a, b = build_envelope("t", {}), build_envelope("t", {}, stats=None)
        for key in ("stats", "counterexamples", "witness_sample"):
            assert a[key] == b[key] and a[key] is not b[key], key
        a["stats"]["x"] = 1
        a["counterexamples"].append(2)
        assert build_envelope("t", {}) == b
