"""``reporting.int_lines`` against ``csv.writer`` and against the per-value
join it replaced, on the edges of its digit counts and of int64."""
from __future__ import annotations

import csv
import io

import numpy as np
import pytest

from figprimes.reporting import int_lines


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

    def test_seeded_random(self):
        rng = np.random.default_rng(63)
        for size in (1, 2, 5, 1000):
            for hi in (10, 10**6, 2**63 - 1):
                a = rng.integers(-hi, hi, size=size * 2, dtype=np.int64, endpoint=True)
                for rows in (a, a.reshape(-1, 2)):
                    assert int_lines(rows) == joined_lines(rows) == writer_lines(rows)
