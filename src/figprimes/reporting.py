"""Report envelope shared by every CLI task, plus json/csv/text renderers.

``ENVELOPE_KEYS`` is the envelope's key order, part of the contract; the json
and text renderers are pure functions of the envelope and the csv renderer of
its ``Table``, so identical inputs always serialize to identical bytes.
"""
from __future__ import annotations

import csv
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
    as ``int_lines`` renders them.
    """

    header: list[str]
    rows: list[list[object]] | np.ndarray | str


#: 10^1 .. 10^19: a magnitude below 2^64 has one digit more than the number of these it reaches
_POWERS_OF_TEN = 10 ** np.arange(1, 20, dtype=np.uint64)


def int_lines(rows: np.ndarray) -> str:
    """An int64 array as csv lines: the text ``csv.writer`` gives for its rows.

    Integers never need quoting, so each line is the row's values joined by
    commas; every line ends in a newline.  The text is filled in one byte
    buffer.  Each value takes its sign, its digits and one separator, so its
    digit count (from ``searchsorted`` on the powers of ten) and a cumulative
    sum place every field.  The digits are then written from the last one
    back, by repeated division by 10 over the values that still have digits
    left: sorted by digit count, those are a suffix.  Magnitudes are uint64,
    so -2^63 needs no special case.
    """
    if not len(rows):
        return ""
    columns = rows[0].size
    values = rows.ravel()
    negative = values < 0
    magnitude = values.astype(np.uint64)
    np.negative(magnitude, out=magnitude, where=negative)
    extra = np.searchsorted(_POWERS_OF_TEN, magnitude, side="right")  # digits beyond the first
    widths = extra + negative + 2
    ends = np.cumsum(widths)  # one past each value's separator
    text = np.empty(ends[-1], dtype=np.uint8)
    text[ends - 1] = np.tile(np.frombuffer(b"," * (columns - 1) + b"\n", np.uint8), len(rows))
    text[(ends - widths)[negative]] = ord("-")
    order = np.argsort(extra.astype(np.uint8), kind="stable")
    magnitude, last = magnitude[order], (ends - 2)[order]  # last: each last digit's offset
    # step k writes the 10^k digit of the values with more than k digits, those
    # from position start on; uint8 arithmetic is mod 256, which holds the digit
    counts = np.bincount(extra)
    for k, start in enumerate((np.cumsum(counts) - counts).tolist()):
        rest = magnitude[start:]
        quotient = rest // np.uint64(10)
        digit = rest.astype(np.uint8) - quotient.astype(np.uint8) * np.uint8(10)
        text[last[start:] - k] = digit + np.uint8(ord("0"))
        rest[:] = quotient
    return text.tobytes().decode("ascii")


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
