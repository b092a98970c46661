"""The benchmark's workloads: seeded lists of figprimes CLI operations.

A workload turns a seed into a fixed list of operations. The seed draws one
factor within +-3% that moves the upper end of every range the workload
states with a "~" (one factor per workload, so per-target rates stay
comparable across seeds), and it picks the free parameters: the odd k of the
unit solve, the cubefull-diff gap and the curve k. figprimes sees only the
generated argv. Every operation pins --jobs.

The size factor stays within +-3%, not +-10%, because the linear scans cost
grows about quadratically with the range (each counterexample of (2, 3)
walks its whole residue group): a +-10% swing alone moved scan-mixed's
targets per second by +-9% from seed to seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

DEFAULT_SEED = 1

#: the seed moves each "~" size within this share of its stated value
SIZE_SPREAD = 0.03

#: stated sizes; ``tiny`` holds the self-test's
SIZES = {
    "scan-dense": {"sum2": 10**6},
    "scan-mixed": {"scan": 2 * 10**6, "linear": 10**5},
    "arith": {
        "setup": 10**7,
        "errata": 10**12,
        "unit": 10**7,
        "inverted": 10**12,
        "families": 10**9,
        "triangular": 10**12,
        "cubic_xmax": 10**5,
        "quartic_xmax": 10**4,
        "cube": 10**6,
    },
    "table": {"table": 10**7},
}
TINY = {
    "scan-dense": {"sum2": 3 * 10**4},
    "scan-mixed": {"scan": 3 * 10**4, "linear": 5 * 10**3},
    "arith": {
        "setup": 10**5,
        "errata": 10**8,
        "unit": 10**5,
        "inverted": 10**8,
        "families": 10**6,
        "triangular": 10**8,
        "cubic_xmax": 2 * 10**3,
        "quartic_xmax": 10**3,
        "cube": 10**4,
    },
    "table": {"table": 10**5},
}

LINEAR_PAIRS = ((1, 2), (2, 3), (3, 4), (4, 7))


@dataclass(frozen=True)
class Op:
    """One CLI operation, what the benchmark expects of it and how to check it."""

    id: str
    argv: tuple[str, ...]
    group: str     # the cli.<group> metric the operation's time feeds
    targets: int   # integers the report settles: a range width, a bound or a limit
    rc: int        # expected exit code
    kind: str      # which independent check applies to the report
    params: dict = field(default_factory=dict)

    @property
    def fmt(self) -> str:
        return "csv" if "csv" in self.argv else "json"


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    setup_limit: int  # stated size at which set-up runs build_sieve and generate_figurate
    ops: tuple[Op, ...]


def _op(id_, argv, group, targets, rc, check, jobs=1, **params) -> Op:
    args = tuple(str(a) for a in argv) + ("--jobs", str(jobs))
    return Op(id_, args, group, int(targets), rc, check, params)


def _scan_dense(size, factor, rng):
    hi = round(size["sum2"] * factor)
    spec = dict(lo=2, hi=hi, left="figurate", right="figurate", even=False)
    argv = ["sum2", "--from", 2, "--to", hi]
    return size["sum2"], [
        _op("sum2-jobs1", argv, "sum2", hi - 1, 0, "scan", jobs=1, **spec),
        _op("sum2-jobs2", argv, "sum2_jobs2", hi - 1, 0, "scan", jobs=2, **spec),
    ]


def _scan_mixed(size, factor, rng):
    hi = round(size["scan"] * factor)
    lhi = round(size["linear"] * factor)
    ops = [
        _op("prime-proper", ["prime-proper", "--from", 6, "--to", hi], "prime_proper",
            hi - 5, 0, "scan", lo=6, hi=hi, left="primes", right="proper", even=False),
        _op("goldbach", ["goldbach", "--from", 4, "--to", hi], "goldbach",
            hi // 2 - 1, 0, "scan", lo=4, hi=hi, left="primes", right="primes", even=True),
    ]
    for a, b in LINEAR_PAIRS:
        ops.append(
            _op(f"linear-{a}-{b}",
                ["linear", "--a", a, "--b", b, "--from", 1, "--to", lhi], "linear",
                lhi, 1, "scan", lo=1, hi=lhi, a=a, b=b, left="figurate",
                right="figurate", even=False)
        )
    return size["scan"], ops


def _arith(size, factor, rng):
    k_unit = rng.randrange(1, 100, 2)
    curve_k = rng.randint(1, 12)
    gap = rng.randint(2, 28)
    cubic_x, quartic_x = size["cubic_xmax"], size["quartic_xmax"]
    ops = [
        _op("errata", ["errata", "--bound", size["errata"]], "solve",
            size["errata"], 1, "errata", bound=size["errata"]),
        _op("solve-unit", ["solve", "--i", 1, "--j", 1, "--k", k_unit,
                           "--bound", size["unit"]], "solve",
            size["unit"], 0, "solve", i=1, j=1, k=k_unit, bound=size["unit"]),
        _op("solve-2-1-1", ["solve", "--i", 2, "--j", 1, "--k", 1,
                            "--bound", size["inverted"]], "solve",
            size["inverted"], 0, "solve", i=2, j=1, k=1, bound=size["inverted"]),
        _op("families", ["families", "--bound", size["families"]], "solve",
            size["families"], 0, "families", bound=size["families"]),
        _op("triangular", ["triangular", "--limit", size["triangular"]], "solve",
            size["triangular"], 0, "triangular", limit=size["triangular"]),
    ]
    for kind, sign, xmax in (("cubic", 1, cubic_x), ("cubic", -1, cubic_x),
                             ("quartic", 1, quartic_x)):
        ops.append(
            _op(f"curve-{kind}{'+' if sign > 0 else '-'}",
                ["curve", "search", "--kind", kind, "--sign", sign, "--k", curve_k,
                 "--xmax", xmax], "curve",
                2 * xmax + 1, 0, "curve", kind=kind, sign=sign, k=curve_k, xmax=xmax)
        )
    cube = size["cube"]
    ops += [
        _op("conj41", ["conj41", "--rmax", 10, "--limit", cube], "powerful",
            cube, 0, "conj41", rmax=10, limit=cube),
        _op("conj42", ["conj42", "--limit", cube], "powerful",
            cube, 0, "conj42", limit=cube),
        _op("cubefull-diff", ["cubefull-diff", "--d", gap, "--limit", cube], "powerful",
            cube, 0, "cubefull", d=gap, limit=cube),
    ]
    return size["setup"], ops


def _table(size, factor, rng):
    hi = round(size["table"] * factor)
    return size["table"], [
        _op("figurate-csv", ["figurate", "--limit", hi, "--format", "csv"], "figurate",
            hi, 0, "members", limit=hi),
        _op("figurate-stats", ["figurate", "--limit", hi, "--stats"], "figurate",
            hi, 0, "figurate-stats", limit=hi),
        _op("twins-csv", ["twins", "--limit", hi, "--format", "csv"], "figurate",
            hi, 0, "twins", limit=hi),
        _op("powerful-pairs", ["powerful-pairs", "--limit", hi], "powerful",
            hi, 0, "powerful-pairs", limit=hi),
    ]


BUILDERS = {
    "scan-dense": _scan_dense,
    "scan-mixed": _scan_mixed,
    "arith": _arith,
    "table": _table,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload ``name`` at ``seed``; ``tiny`` swaps in the self-test sizes."""
    if name not in BUILDERS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(BUILDERS)}")
    rng = random.Random(f"{name}:{seed}")
    factor = 1 + rng.uniform(-SIZE_SPREAD, SIZE_SPREAD)
    size = (TINY if tiny else SIZES)[name]
    setup_limit, ops = BUILDERS[name](size, factor, rng)
    return Workload(name, seed, setup_limit, tuple(ops))
