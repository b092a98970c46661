"""Pinned scan reports: one sha256 per configuration of
``json.dumps(vars(report), sort_keys=True)``, compared with a recording in
``data/scan_reports.json``.

The grid is every ordered pair of the eight domains over [2, 3000] and
[5, 41], even-only or not; ``verify_linear`` with (a, b) = (1, 2), (2, 3),
(3, 4) and (2, 151) over [1, 3000] on each domain; and every pair over
[2, 2*10**5], even-only or not, whose descending scans run several chunks
and whose ascending ones reach the late phase.  A report holds no elapsed
time, so every field is pinned, and a report that no longer serializes
fails too.

The additive names end in ``jobs=1``: the scans once took a worker count,
and the grid ran the small ranges at 1 and 2 workers.  Each report at 2 was
the same bytes as its twin at 1, so those entries went with the thread
pool, and the others keep the names they were recorded under.

The recording is the oracle for every refactor of the scan: it must never be
recorded again from code it is meant to check.  Most of it was made at
commit 9dccc26, before the set table lost its own membership bitmap.  The
16 all-target pairs over [2, 2*10**5] whose sides are both primes or prime
powers were added at commit ecfe889, before odd targets met only the even
members; until then they took seconds, as every odd target they leave
unrepresented met every candidate.  The recorder,
``python tests/test_scan_reports.py``, adds the configurations the recording
lacks, from a checkout whose reports are trusted, and prints their names;
it never computes or overwrites a recorded digest.
"""
from __future__ import annotations

import hashlib
import json
from functools import partial
from pathlib import Path

from figprimes import DomainSpec, verify_additive, verify_linear
from figprimes.additive import DOMAIN_KINDS

DATA = Path(__file__).parent / "data" / "scan_reports.json"

SPECS = [DomainSpec(kind, one) for kind in DOMAIN_KINDS for one in (True, False)]


def _name(spec: DomainSpec) -> str:
    return spec.kind if spec.include_one else f"{spec.kind}-no-one"


def configurations():
    """(name, call) for every configuration of the grid; ``call()`` runs it."""
    for left in SPECS:
        for right in SPECS:
            pair = f"{_name(left)}+{_name(right)}"
            for lo, hi in ((2, 3000), (5, 41)):
                for even_only in (False, True):
                    yield (f"{pair} [{lo}, {hi}] even_only={even_only} jobs=1",
                           partial(verify_additive, lo, hi, left, right, even_only=even_only))
            for even_only in (False, True):
                yield (f"{pair} [2, 200000] even_only={even_only} jobs=1",
                       partial(verify_additive, 2, 2 * 10**5, left, right,
                               even_only=even_only))
    for a, b in ((1, 2), (2, 3), (3, 4), (2, 151)):
        for spec in SPECS:
            yield (f"linear ({a},{b}) {_name(spec)} [1, 3000]",
                   partial(verify_linear, a, b, 1, 3000, spec))


def digest(call) -> str:
    text = json.dumps(vars(call()), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_scan_reports_match_recording():
    recorded = json.loads(DATA.read_text("utf-8"))
    names = []
    changed = []
    for name, call in configurations():
        names.append(name)
        if digest(call) != recorded.get(name):
            changed.append(name)
    assert sorted(names) == sorted(recorded), "the grid and the recording name different configurations"
    assert not changed, f"{len(changed)} reports differ from the recording: {changed[:20]}"


if __name__ == "__main__":
    recording = json.loads(DATA.read_text("utf-8"))
    added = [(name, call) for name, call in configurations() if name not in recording]
    for name, call in added:
        recording[name] = digest(call)
        print("added", name)
    DATA.write_text(json.dumps(recording, indent=1) + "\n", "utf-8")
    print(f"{len(added)} added, {len(recording) - len(added)} kept as recorded")
