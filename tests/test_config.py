"""The repo's pytest settings, checked in a fresh pytest run.

A misspelt ``acceptance`` mark must fail collection on its own, not only
through the "error" warning filter: ``-p no:warnings`` turns that filter off.
A failing hypothesis test must fail alone: to write its patch, hypothesis
imports libcst, whose import warns that ``mypy_extensions.TypedDict`` is
deprecated, and that warning as an error would end the whole run.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

INI = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_marked(tmp_path: Path, mark: str) -> subprocess.CompletedProcess:
    """pytest on one test file whose test carries ``mark``, under the repo's ini."""
    test = tmp_path / "test_marked.py"
    test.write_text(f"import pytest\n\n\n@pytest.mark.{mark}(1, 'demo')\ndef test_demo():\n    pass\n")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(INI), "-p", "no:warnings",
         "-p", "no:cacheprovider", "-q", str(test)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("mark, fails", [("acceptance", False), ("acceptanse", True)])
def test_unregistered_mark_fails_without_the_warning_filter(tmp_path, mark, fails):
    done = run_marked(tmp_path, mark)
    assert (done.returncode != 0) == fails, done.stdout + done.stderr
    if fails:
        assert "'acceptanse' not found in `markers`" in done.stdout, done.stdout


def test_failing_hypothesis_test_fails_alone(tmp_path):
    test = tmp_path / "test_drawn.py"
    test.write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(n):\n    assert n < 10\n\n\n"
        "def test_passes():\n    pass\n"
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(INI), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", str(test)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "1 failed, 1 passed" in done.stdout, out
    assert "INTERNALERROR" not in out, out
