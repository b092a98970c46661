"""Pinned table reports at scale: one sha256 of the csv report of each argv,
compared with a recording in ``data/table_reports.json``.

The argv are the ``table`` listings: ``figurate --format csv``, ``twins
--format csv`` and ``figurate --stats --format csv`` at 10^5, 10^6 and
10^7, with and without ``--exclude-one`` where the command takes it.  At
these limits the values run to eight digits, past the one 4-digit group
that the small cases of ``cli_reports.json`` reach.

The recording was made at commit 7e8a666, before ``int_lines`` filled
fixed-width words and before ``figurate_stats`` counted classes without the
prime mask, and is the oracle for those changes and every later one: it must
never be recorded again from code it is meant to check.  To record (from a
checkout whose reports are trusted): ``python tests/test_table_reports.py``.
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from figprimes.cli import run

DATA = Path(__file__).parent / "data" / "table_reports.json"

LIMITS = ("100000", "1000000", "10000000")

CASES: list[list[str]] = [
    argv
    for limit in LIMITS
    for argv in (
        ["figurate", "--limit", limit, "--format", "csv"],
        ["figurate", "--limit", limit, "--format", "csv", "--exclude-one"],
        ["twins", "--limit", limit, "--format", "csv"],
        ["figurate", "--limit", limit, "--stats", "--format", "csv"],
        ["figurate", "--limit", limit, "--stats", "--format", "csv", "--exclude-one"],
    )
]


def digest(argv: list[str], out: Path) -> str:
    """The sha256 of the report ``argv`` writes to ``out``; it must exit 0."""
    assert run([*argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(DATA.read_text("utf-8"))


def test_cases_are_recorded(recorded):
    assert sorted(recorded) == sorted(" ".join(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids="_".join)
def test_report_matches_recording(argv, recorded, tmp_path):
    assert digest(argv, tmp_path / "report.csv") == recorded[" ".join(argv)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "report.csv"
        digests = {" ".join(argv): digest(argv, out) for argv in CASES}
    DATA.write_text(json.dumps(digests, indent=1) + "\n", "utf-8")
    sys.exit(0)
