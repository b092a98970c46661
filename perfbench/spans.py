"""Spans for the traced pass.

While a ``Tracer`` is installed, the public figprimes functions each CLI
handler calls (and the coarse library calls those make in turn) are wrapped,
in every figprimes module that refers to them, so that each call records one
span: name, start, end, parent and operation id. Spans stay in memory and are
written out when the run ends. Per-call helpers such as ``is_prime`` are not
wrapped; the benchmark times them on batches instead.
"""
from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _nbytes(obj) -> int:
    """Bytes held by the numpy arrays an object keeps as attributes."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def _mib(n: int) -> float:
    return n / 2**20


def _scan_name(result, args, kwargs):
    mode = getattr(result, "stats", {}).get("mode", "left-ascending")
    return "additive." + mode.replace("-", "_")


def _solve_name(result, args, kwargs):
    inst = args[0] if args else kwargs["inst"]
    return "equations.solve_unit" if (inst.i, inst.j) == (1, 1) else "equations.solve_inverted"


def _scan_counts(counts, result, args, kwargs):
    counts["additive.targets"] += result.stats["scanned"]
    counts["additive.max_search_depth"] = max(
        counts["additive.max_search_depth"], result.stats["max_search_depth"]
    )


def _search_counts(counts, result, args, kwargs):
    xmax = args[1] if len(args) > 1 else kwargs["xmax"]
    counts["curves.x"] += 2 * xmax + 1


def _sieve_counts(counts, result, args, kwargs):
    counts["intkernel.sieve_mib"] = max(counts["intkernel.sieve_mib"], _mib(_nbytes(result)))


def _table_counts(counts, result, args, kwargs):
    counts["figurate.members"] += result.count
    counts["figurate.table_mib"] = max(counts["figurate.table_mib"], _mib(_nbytes(result)))


def _solve_counts(counts, result, args, kwargs):
    counts["equations.solutions"] += len(result)


def _render_counts(counts, result, args, kwargs):
    counts["reporting.rendered_mib"] += _mib(len(result))


#: (module, function, span name or namer, counter) for every wrapped call
TARGETS = (
    ("intkernel", "build_sieve", None, _sieve_counts),
    ("intkernel", "prime_powers_upto", None, None),
    ("figurate", "generate_figurate", "figurate.generate", _table_counts),
    ("figurate", "figurate_stats", None, None),
    ("figurate", "twin_figurate", None, None),
    ("figurate", "write_values", None, None),
    ("additive", "resolve_domain", None, None),
    ("additive", "verify_additive", _scan_name, _scan_counts),
    ("additive", "verify_linear", "additive.linear", _scan_counts),
    ("equations", "solve_equation", _solve_name, _solve_counts),
    ("equations", "theorem_errata", "equations.errata", None),
    ("equations", "special_family_checks", "equations.families", None),
    ("equations", "enumerate_p_minus1_triangular", "equations.triangular", None),
    ("equations", "load_published_catalog", None, None),
    ("curves", "search_integral_points", "curves.search", _search_counts),
    ("curves", "lift_to_solutions", None, None),
    ("powerful", "squarefull_mask", None, None),
    ("powerful", "consecutive_powerful_pairs", None, None),
    ("powerful", "diff_cubefull_search", "powerful.cubefull_diff", None),
    ("powerful", "power_of_two_gap_report", "powerful.gap_report", None),
    ("powerful", "prime_gap_report", "powerful.gap_report", None),
    ("reporting", "build_envelope", None, None),
    ("reporting", "render_report", "reporting.render", _render_counts),
)


class Tracer:
    """Collects spans and counters; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op: str | None = None
        self._stack = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _parents(self) -> list[int]:
        if not hasattr(self._stack, "ids"):
            self._stack.ids = []
        return self._stack.ids

    def begin(self, name: str) -> int:
        stack = self._parents()
        self.spans.append({
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1] if stack else None,
            "op": self.op,
        })
        stack.append(len(self.spans) - 1)
        return stack[-1]

    def end(self, idx: int, name: str | None = None) -> None:
        span = self.spans[idx]
        span["end"] = time.perf_counter()
        if name is not None:
            span["name"] = name
        self._parents().pop()

    def close_all(self) -> None:
        """End every open span of this thread, innermost first."""
        while self._parents():
            self.end(self._parents()[-1])

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name if isinstance(name, str) else fn.__name__)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(idx)
                raise
            tracer.end(idx, name(result, args, kwargs) if callable(name) else None)
            if counter is not None:
                counter(tracer.counts, result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in each loaded figprimes module that refers to it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "figprimes" or key.startswith("figprimes."))]
        for mod_name, fn_name, name, counter in TARGETS:
            home = sys.modules.get(f"figprimes.{mod_name}")
            fn = getattr(home, fn_name, None)
            if fn is None:
                continue
            label = name if name is not None else f"{mod_name}.{fn_name}"
            wrapped = self._wrap(fn, label, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
