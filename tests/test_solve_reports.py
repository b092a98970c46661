"""Pinned solver outputs: one sha256 per configuration of the ``repr`` of
its result, compared with a recording in ``data/solve_reports.json``.

The grid is ``solve_equation`` over (i, j) in [1, 5]^2, k in {1, 2, 3, 4, 6,
7, 30, 31, 100} and value bounds 10^3, 10^6 and 10^9, where (1, 1) takes
10^7 for odd k and 3*10^6 for even k in place of 10^9, as its walk runs over
every prime power up to the bound; plus ``enumerate_p_minus1_triangular``
at 10^12, ``theorem_errata`` at 10^12 and ``special_family_checks`` at 10^9.
Its walks hit higher prime powers on both sides (8, 9, 25, ...).  The
``repr`` of a numpy integer differs from that of a Python int, so a numpy
value that leaks into a solution fails too.

The recording was made at commit 99e8ba2, before ``prime_powers_upto``
returned its values alone, and is the oracle for that refactor and every
later one: it must never be recorded again from code it is meant to check.
To record (from a checkout whose outputs are trusted):
``python tests/test_solve_reports.py``.
"""
from __future__ import annotations

import hashlib
import json
from functools import partial
from pathlib import Path

from figprimes import (
    EquationInstance,
    enumerate_p_minus1_triangular,
    solve_equation,
    special_family_checks,
    theorem_errata,
)

DATA = Path(__file__).parent / "data" / "solve_reports.json"

KS = (1, 2, 3, 4, 6, 7, 30, 31, 100)


def configurations():
    """(name, call) for every configuration of the grid; ``call()`` runs it."""
    for i in range(1, 6):
        for j in range(1, 6):
            for k in KS:
                top = 10**9
                if i == j == 1:
                    top = 3 * 10**6 if k % 2 == 0 else 10**7
                for bound in (10**3, 10**6, top):
                    yield (f"solve ({i},{j},{k}) bound={bound}",
                           partial(solve_equation, EquationInstance(i, j, k), bound))
    yield "triangular 10^12", partial(enumerate_p_minus1_triangular, 10**12)
    yield "errata 10^12", partial(theorem_errata, 10**12)
    yield "families 10^9", partial(special_family_checks, 10**9)


def digest(call) -> str:
    return hashlib.sha256(repr(call()).encode("utf-8")).hexdigest()


def test_solve_reports_match_recording():
    recorded = json.loads(DATA.read_text("utf-8"))
    names = []
    changed = []
    for name, call in configurations():
        names.append(name)
        if digest(call) != recorded.get(name):
            changed.append(name)
    assert sorted(names) == sorted(recorded), "the grid and the recording name different configurations"
    assert not changed, f"{len(changed)} outputs differ from the recording: {changed[:20]}"


if __name__ == "__main__":
    DATA.write_text(
        json.dumps({name: digest(call) for name, call in configurations()}, indent=1) + "\n",
        "utf-8",
    )
