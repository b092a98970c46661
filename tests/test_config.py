"""The repo's pytest settings, checked in a fresh pytest run.

A misspelt ``acceptance`` mark must fail collection on its own, not only
through the "error" warning filter: ``-p no:warnings`` turns that filter off.
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
