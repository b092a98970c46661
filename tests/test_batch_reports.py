"""Pinned batch decompositions: one sha256 of ``bases.tobytes() +
exponents.tobytes()`` from ``prime_power_decompose_many`` per seeded input,
compared with a recording in ``data/batch_reports.json``.

The inputs are ascending runs of 2^17 lanes from 0, 10^8, 10^12,
2^50 - 2^16 and 2^62 - 2^16 (the last two cross the float64 quotient bound
and the scalar fallback), each witness-set bound of ``intkernel`` +- 64, and
unsorted seeded random arrays below 2^50 and below 2^62.

The recording was made at commit 93ee3db, before the batch ran its blocks in
input order, and is the oracle for that refactor and every later one: it
must never be recorded again from code it is meant to check.  To record
(from a checkout whose outputs are trusted):
``python tests/test_batch_reports.py``.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from figprimes.intkernel import prime_power_decompose_many

DATA = Path(__file__).parent / "data" / "batch_reports.json"

RUN = 1 << 17

#: the witness-set bounds of the batch Miller-Rabin, copied so that the
#: inputs do not move with the code under test
WITNESS_BOUNDS = (4_759_123_141, 105_936_894_253, 31_858_317_218_647, 3_071_837_692_357_849)


def inputs() -> dict[str, np.ndarray]:
    """Name -> int64 input array, in a fixed order."""
    out = {}
    for name, start in (("0", 0), ("1e8", 10**8), ("1e12", 10**12),
                        ("2^50-2^16", 2**50 - 2**16), ("2^62-2^16", 2**62 - 2**16)):
        out[f"run from {name}"] = np.arange(start, start + RUN, dtype=np.int64)
    for bound in WITNESS_BOUNDS:
        out[f"bound {bound} +- 64"] = np.arange(bound - 64, bound + 65, dtype=np.int64)
    for name, top in (("2^50", 2**50), ("2^62", 2**62)):
        out[f"random below {name}"] = np.random.default_rng(top % 1009).integers(0, top, size=RUN)
    return out


INPUTS = inputs()


def digest(values: np.ndarray) -> str:
    bases, exponents = prime_power_decompose_many(values)
    return hashlib.sha256(bases.tobytes() + exponents.tobytes()).hexdigest()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text("utf-8"))


def test_recording_names_every_input(recorded):
    assert sorted(recorded) == sorted(INPUTS)


@pytest.mark.parametrize("name", list(INPUTS))
def test_batch_matches_recording(recorded, name):
    assert digest(INPUTS[name]) == recorded[name], name


if __name__ == "__main__":
    DATA.write_text(
        json.dumps({name: digest(values) for name, values in INPUTS.items()}, indent=1) + "\n",
        "utf-8",
    )
