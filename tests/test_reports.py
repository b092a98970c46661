"""Pinned CLI reports: exit code, stderr and the json/csv/text bytes of small
argv lists, compared with a recording in ``data/cli_reports.json``.

The recording was made at commit 4032f7b, before the command handlers were
folded into one path, and is the oracle for that refactor: it must never be
recorded again from code it is meant to check.  ``elapsed_ms`` is the only
field left out, since it is the one field that may differ between runs.

Each case runs in a fresh working directory, so that ``--dump`` can name a
relative path that the report quotes verbatim, and with ``COLUMNS=80``, so
that argparse wraps its usage lines the same way on every terminal.  To record (from a checkout
whose reports are trusted): ``python tests/test_reports.py``.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

from figprimes.cli import run

DATA = Path(__file__).parent / "data" / "cli_reports.json"

FORMATS = ("json", "csv", "text")

CURVE = ["--kind", "cubic", "--sign", "1", "--k", "1"]

CASES: list[list[str]] = [
    # figurate: generate, stats and member modes, with and without 1
    ["figurate", "--limit", "100"],
    ["figurate", "--limit", "100", "--exclude-one", "--sample-size", "3"],
    ["figurate", "--limit", "40", "--dump", "values.txt"],
    ["figurate", "--limit", "1000", "--stats"],
    ["figurate", "--limit", "1000", "--stats", "--exclude-one"],
    ["figurate", "--member", "1"],
    ["figurate", "--member", "1", "--exclude-one"],
    ["figurate", "--member", "15"],
    ["figurate", "--member", "17"],
    ["figurate", "--member", "120"],
    ["figurate", "--member", "317750", "--exclude-one"],
    ["twins", "--limit", "100"],
    ["twins", "--limit", "2"],
    # the four scans
    ["sum2", "--from", "2", "--to", "300"],
    ["sum2", "--from", "2", "--to", "300", "--exclude-one", "--max-counterexamples", "1"],
    ["prime-proper", "--from", "6", "--to", "800", "--sample-size", "4"],
    ["prime-proper", "--from", "6", "--to", "800", "--exclude-one", "--jobs", "2"],
    ["goldbach", "--from", "4", "--to", "400"],
    ["goldbach", "--from", "2", "--to", "400"],
    ["linear", "--a", "1", "--b", "2", "--domain", "primes", "--from", "2", "--to", "50"],
    ["linear", "--a", "2", "--b", "3", "--from", "1", "--to", "300"],
    ["linear", "--a", "3", "--b", "4", "--domain", "proper", "--from", "1", "--to", "300",
     "--exclude-one"],
    ["linear", "--a", "4", "--b", "7", "--domain", "prime-powers", "--from", "10", "--to", "300"],
    # equations
    ["solve", "--i", "3", "--j", "2", "--k", "1"],
    ["solve", "--i", "2", "--j", "1", "--k", "1", "--bound", "1000000"],
    ["solve", "--i", "2", "--j", "2", "--k", "3"],
    ["solve", "--i", "1", "--j", "1", "--k", "1", "--bound", "100000"],
    ["solve", "--i", "1", "--j", "1", "--k", "2", "--bound", "1000"],
    ["triangular", "--limit", "10000"],
    ["families", "--bound", "1000000"],
    ["errata", "--bound", "100000"],
    # curves: all four actions
    ["curve", "model", *CURVE],
    ["curve", "model", "--kind", "quartic", "--sign", "-1", "--k", "2"],
    ["curve", "search", *CURVE, "--xmax", "200"],
    ["curve", "search", "--kind", "quartic", "--sign", "1", "--k", "1", "--xmax", "100"],
    ["curve", "lift", *CURVE, "--X", "-24", "--Y", "36"],
    ["curve", "lift", *CURVE, "--X", "0", "--Y", "108"],
    ["curve", "samples", *CURVE, "--xlo", "-24", "--xhi", "-10", "--sample-size", "2"],
    # square-full conjectures
    ["powerful-pairs", "--limit", "10000"],
    ["pell", "--count", "5"],
    ["cubefull-diff", "--d", "7", "--limit", "1000"],
    ["conj41", "--rmax", "4", "--limit", "1000"],
    ["conj42", "--limit", "100000"],
    ["conj42", "--limit", "300", "--nmax", "28"],
    # usage (2) and arithmetic guard (3) exits
    ["twins"],
    ["no-such-command"],
    ["figurate"],
    ["figurate", "--member", "0"],
    ["sum2", "--from", "2", "--to", "10", "--jobs", "0"],
    ["curve", "lift", *CURVE, "--X", "1"],
    ["conj41", "--rmax", "3", "--limit", "100", "--sample-size", "-1"],
    ["curve", "samples", "--kind", "quartic", "--sign", "1", "--k", "1",
     "--xlo", "0", "--xhi", "65536"],
    ["solve", "--i", "2", "--j", "1", "--k", "10000000000000000000000001", "--bound", "100"],
]

_ELAPSED = re.compile(r'^\s*"?elapsed_ms"?(: |,)\d+\n', re.M)


def render(argv: list[str], fmt: str) -> dict:
    """Run one argv in the current directory: exit code, stdout, stderr."""
    out, err = io.BytesIO(), io.StringIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = run([*argv, "--format", fmt])
        stdout.flush()
    return {
        "code": code,
        "stdout": _ELAPSED.sub("", out.getvalue().decode("utf-8")),
        "stderr": err.getvalue(),
    }


def render_case(argv: list[str]) -> dict:
    return {"argv": argv, **{fmt: render(argv, fmt) for fmt in FORMATS}}


@pytest.fixture(scope="module")
def recorded() -> dict:
    return {tuple(c["argv"]): c for c in json.loads(DATA.read_text("utf-8"))}


def test_cases_are_recorded(recorded):
    assert set(recorded) == {tuple(argv) for argv in CASES}


@pytest.mark.parametrize("argv", CASES, ids="_".join)
def test_report_matches_recording(argv, recorded, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    assert render_case(argv) == recorded[tuple(argv)]


if __name__ == "__main__":
    here = os.getcwd()
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        cases = [render_case(argv) for argv in CASES]
        os.chdir(here)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(cases, indent=1) + "\n", "utf-8")
    sys.exit(0)
