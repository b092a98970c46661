"""Shared fixtures and the acceptance-gate summary.

Session-scoped tables are built once; the heavier verification fixtures are
cached so the acceptance module and the unit modules share one computation.
Tests marked ``acceptance(num, title)`` get one PASS/FAIL line each in the
terminal summary.
"""
from __future__ import annotations

import pytest

from figprimes import build_sieve, generate_figurate, theorem_errata

_ACCEPTANCE: dict[int, tuple[str, str]] = {}


@pytest.fixture(scope="session")
def table1e6():
    return build_sieve(10**6)


@pytest.fixture(scope="session")
def fig1e6(table1e6):
    return generate_figurate(10**6, include_one=True, table=table1e6)


@pytest.fixture(scope="session")
def fig2e4():
    return generate_figurate(2 * 10**4, include_one=True)


@pytest.fixture(scope="session")
def errata_report():
    return theorem_errata(10**12)


def pytest_runtest_logreport(report):
    marker = None
    for m in getattr(report, "_acceptance_marker", ()):
        marker = m
    if marker is None:
        return
    num, title = marker
    # setup errors and skips count too; a later call-phase report wins
    if report.when == "call" or num not in _ACCEPTANCE:
        _ACCEPTANCE[num] = (title, report.outcome)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    mark = item.get_closest_marker("acceptance")
    if mark is not None:
        report._acceptance_marker = (mark.args,)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        title, outcome = _ACCEPTANCE[num]
        verdict = {"passed": "PASS", "skipped": "SKIP"}.get(outcome, "FAIL")
        terminalreporter.write_line(f"criterion {num:02d}: {verdict} - {title}")
