"""Report envelope shared by every CLI task, plus json/csv/text renderers.

``ENVELOPE_KEYS`` is the envelope's key order, part of the contract; the json
and text renderers are pure functions of the envelope and the csv renderer of
its ``Table``, so identical inputs always serialize to identical bytes.
"""
from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass

import numpy as np

ENVELOPE_KEYS = (
    "task",
    "params",
    "range",
    "verified",
    "counterexamples",
    "counterexample_total",
    "witness_sample",
    "stats",
    "errata",
    "elapsed_ms",
)
#: the empty value of each key that has one other than None, made fresh per envelope
_EMPTY = {"counterexamples": list, "counterexample_total": int, "witness_sample": list,
          "stats": dict}


@dataclass
class Table:
    """Tabular attachment used by the csv renderer.

    ``rows`` is a list of rows, an integer array with one row per entry
    (one column when it is one-dimensional), or such an array's csv lines
    as ``int_lines`` renders them; ``int_lines`` rejects any other array,
    float or bool, whose text would not be the one ``csv.writer`` gives.
    """

    header: list[str]
    rows: list[list[object]] | np.ndarray | str


@functools.cache
def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """The two 20,000-word lookup tables of ``int_lines``, for the lowest
    4-digit group and for the groups above it, built on first use.  Word k is
    the four digits of k, as little-endian ASCII bytes; word 10**4 + k is k
    as a top group, with its leading zeros as NUL.  The empty top group is
    "0" when it is the lowest, and all NUL above it."""
    k = np.arange(10**4, dtype="<u4")
    upper = np.zeros(2 * 10**4, dtype=k.dtype)
    for i in range(4):  # byte i holds the 10**(3 - i) digit
        char = (k // 10 ** (3 - i) % 10 + ord("0")) << 8 * i
        upper[: 10**4] |= char
        upper[10**4 :] |= char * (k >= 10 ** (3 - i))
    lowest = upper.copy()
    lowest[10**4] = ord("0") << 24
    for table in (lowest, upper):
        table.setflags(write=False)  # the cache hands the same arrays to every call
    return lowest, upper


def int_lines(rows: np.ndarray) -> str:
    """An integer array as csv lines: the text ``csv.writer`` gives for its rows.

    Integers never need quoting, so each line is the row's values joined by
    commas; every line ends in a newline.  The text is first laid out in
    fixed-width little-endian uint32 words, NUL-padded: each value takes g
    digit words (g 4-digit groups cover the largest magnitude), most
    significant first, then one separator word, "," or "\n", whose second
    byte is "-" when the next value is negative; one leading word holds the
    first value's sign.  Group j of every value comes from one uint64
    division by 10**4 and a lookup in a table of 20,000 words, indexed by the
    group's digits plus 10**4 when nothing is above it, where its leading
    zeros are NUL.  Deleting the NULs leaves the text.  Magnitudes are
    uint64, so -2^63 needs no special case.  Any dtype but a signed or
    unsigned integer (bool included) raises TypeError.
    """
    if rows.dtype.kind not in "iu":
        raise TypeError(f"int_lines needs an integer array, not {rows.dtype}")
    if not rows.size:
        return "\n" * len(rows)  # rows with no columns are empty lines
    columns = rows[0].size
    values = rows.ravel()
    negative = values < 0
    q = values.astype(np.uint64)
    np.negative(q, out=q, where=negative)
    groups = -(-len(str(int(q.max()))) // 4)
    words = np.empty(1 + values.size * (groups + 1), dtype="<u4")
    words[0] = ord("-") if negative[0] else 0
    body = words[1:].reshape(len(rows), columns, groups + 1)
    body[:, :-1, groups] = ord(",")
    body[:, -1, groups] = ord("\n")
    body = body.reshape(values.size, groups + 1)
    np.add(body[:-1, groups], ord("-") << 8, out=body[:-1, groups], where=negative[1:])
    lowest, upper = _digit_words()
    above, scaled = np.empty_like(q), np.empty_like(q)
    for j in range(groups):
        np.floor_divide(q, np.uint64(10**4), out=above)
        np.multiply(above, np.uint64(10**4), out=scaled)
        q -= scaled  # q is now this group's digits, and then its table index
        np.add(q, np.uint64(10**4), out=q, where=above == 0)
        # an index below 2 * 10**4 reads the same as int64, which numpy takes uncast
        body[:, groups - 1 - j] = (upper if j else lowest)[q.view(np.int64)]
        q, above = above, q
    del q, above, scaled, body  # freed before the text's two copies are made
    return words.tobytes().translate(None, b"\0").decode("ascii")


def build_envelope(task: str, params: dict, elapsed_ms: int = 0, **fields) -> dict:
    """The envelope in ``ENVELOPE_KEYS`` order.  A key that ``fields`` leaves
    out or gives as None takes its empty value (from ``_EMPTY``, else None),
    but ``errata`` appears only when given; an unknown key raises TypeError."""
    fields.update(task=task, params=params, elapsed_ms=elapsed_ms)
    env = {}
    for key in ENVELOPE_KEYS:
        value = fields.pop(key, None)
        if value is None and key in _EMPTY:
            value = _EMPTY[key]()
        if value is not None or key != "errata":
            env[key] = value
    if fields:
        raise TypeError(f"build_envelope() got unknown envelope keys {sorted(fields)}")
    return env


def render_json(env: dict) -> bytes:
    return (json.dumps(env, indent=2) + "\n").encode("utf-8")


def render_csv(table: Table) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.header)
    rows = table.rows
    if isinstance(rows, np.ndarray):
        rows = int_lines(rows)
    if isinstance(rows, str):
        buf.write(rows)
    else:
        writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def render_text(env: dict) -> bytes:
    lines = [f"task: {env['task']}"]
    if env["params"]:
        pairs = " ".join(f"{k}={v}" for k, v in env["params"].items())
        lines.append(f"params: {pairs}")
    if env["range"] is not None:
        lines.append(f"range: [{env['range'][0]}, {env['range'][1]}]")
    if env["verified"] is not None:
        lines.append(f"verified: {env['verified']}")
    total = env["counterexample_total"]
    lines.append(f"counterexamples: {total}")
    if env["counterexamples"]:
        shown = ", ".join(str(c) for c in env["counterexamples"][:10])
        lines.append(f"  first: {shown}")
    for w in env["witness_sample"][:5]:
        lines.append(f"  witness: {w}")
    for key, value in env["stats"].items():
        lines.append(f"stats.{key}: {value}")
    for e in env.get("errata", []) or []:
        lines.append(f"errata: {e}")
    lines.append(f"elapsed_ms: {env['elapsed_ms']}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def render_report(env: dict, fmt: str, table: Table | None) -> bytes:
    if fmt == "json":
        return render_json(env)
    if fmt == "csv":
        return render_csv(table)
    if fmt == "text":
        return render_text(env)
    raise ValueError(f"unknown format {fmt!r}")
