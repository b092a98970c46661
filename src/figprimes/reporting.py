"""Report envelope shared by every CLI task, plus json/csv/text renderers.

The envelope key order is part of the contract; the json and text renderers
are pure functions of the envelope and the csv renderer of the tabular
attachment, so identical inputs always serialize to identical bytes.
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


@dataclass
class Table:
    """Tabular attachment used by the csv renderer.

    ``rows`` is a list of rows, or an integer array with one row per entry
    (one column when it is one-dimensional).
    """

    header: list[str]
    rows: list[list[object]] | np.ndarray


def int_lines(rows: np.ndarray) -> str:
    """An integer array as csv lines: the text ``csv.writer`` gives for its rows.

    Integers never need quoting, so each line is the row's values joined by
    commas; every line ends in a newline.
    """
    if not len(rows):
        return ""
    columns = rows.reshape(len(rows), -1).T.tolist()
    return "\n".join(map(",".join, zip(*(map(str, c) for c in columns)))) + "\n"


def build_envelope(
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


def render_json(env: dict) -> bytes:
    return (json.dumps(env, indent=2) + "\n").encode("utf-8")


def render_csv(table: Table) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.header)
    if isinstance(table.rows, np.ndarray):
        buf.write(int_lines(table.rows))
    else:
        writer.writerows(table.rows)
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
