"""Collect result sets from the benchmark and compare two of them.

    python3 perfbench/compare.py collect SET.json [--workloads W,...] [--seeds 1-10]
                                 [--trace 0|1]
    python3 perfbench/compare.py show SET.json
    python3 perfbench/compare.py diff BASE.json NEW.json

Run from the repository root. ``collect`` runs ``run.py`` once per workload
and seed, in fresh processes, and stores every result line together with the
machine (cores, Python, numpy), the git SHA and the line count of ``src/``.
``show`` prints each metric's median, quartiles and spread (interquartile
range over median) per workload. ``diff`` prints, per metric and workload,
both medians with their quartiles and a verdict: better, worse, unchanged,
or unresolved when the spread exceeds the metric's bound.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def benchmark_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def machine() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def git_sha(root: Path) -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def collect(args) -> int:
    root = Path.cwd()
    spec = benchmark_spec(root)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs = []
    for seed in parse_seeds(args.seeds):
        for name in names:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                print(f"{name} seed {seed}: exit {done.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            runs.append({"workload": name, "seed": seed, "trace": args.trace, "result": result})
            print(f"{name} seed {seed}: failed {result['failed']} of {result['attempted']}",
                  file=sys.stderr)
    out = {
        "machine": machine(),
        "git_sha": git_sha(root),
        "src_lines": src_lines(root),
        "seconds": seconds,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


def series(result_set: dict) -> dict[tuple[str, str], list[float]]:
    """Values of each (metric, workload) over the set's runs."""
    out: dict[tuple[str, str], list[float]] = {}
    for run in result_set["runs"]:
        for name, m in run["result"]["metrics"].items():
            out.setdefault((name, run["workload"]), []).append(m["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float | None:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else None


def bounds(root: Path) -> dict[str, tuple[str, float | None]]:
    spec = benchmark_spec(root)
    out = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return out


def header(result_set: dict, label: str) -> str:
    m = result_set["machine"]
    return (f"{label}: git {result_set['git_sha'] or 'unknown'}, src {result_set['src_lines']} "
            f"lines, {m['nproc']} cores, Python {m['python']}, numpy {m['numpy']}, "
            f"{len(result_set['runs'])} runs of {result_set['seconds']} s")


def show(args) -> int:
    result_set = json.loads(Path(args.set).read_text())
    limits = bounds(Path.cwd())
    print(header(result_set, args.set))
    failed = sum(r["result"]["failed"] for r in result_set["runs"])
    attempted = sum(r["result"]["attempted"] for r in result_set["runs"])
    print(f"failed operations: {failed} of {attempted}")
    for (name, workload), values in sorted(series(result_set).items()):
        q1, med, q3 = quartiles(values)
        s = spread(values)
        bound = limits.get(name, (None, None))[1]
        flag = ""
        if bound is not None and s is not None:
            flag = "steady" if s < bound / 3 else ("within bound" if s <= bound else "WIDE")
        s_text = "n/a" if s is None else f"{s:.3f}"
        print(f"{name:34s} {workload:11s} n={len(values):2d} median {med:<12.6g} "
              f"[{q1:.6g}, {q3:.6g}] spread {s_text} {flag}")
    return 0


def verdict(base: list[float], new: list[float], better: str, bound: float | None) -> str:
    _, mb, _ = quartiles(base)
    _, mn, _ = quartiles(new)
    if mb == 0 and mn == 0:
        return "unchanged"
    if mb == 0:
        return "unresolved"
    sign = 1 if better == "higher" else -1
    change = sign * (mn - mb) / abs(mb)
    noise = max(spread(base) or 0.0, spread(new) or 0.0)
    if bound is not None and noise > bound:
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "better"
        return "unresolved"
    if change < -(bound if bound is not None else noise):
        return "worse"
    if change > noise:
        return "better"
    return "unchanged"


def diff(args) -> int:
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    limits = bounds(Path.cwd())
    print(header(base, "base"))
    print(header(new, "new "))
    sb, sn = series(base), series(new)
    for key in sorted(set(sb) & set(sn)):
        name, workload = key
        better, bound = limits.get(name, ("lower", None))
        qb, qn = quartiles(sb[key]), quartiles(sn[key])
        change = (qn[1] - qb[1]) / abs(qb[1]) if qb[1] else 0.0
        print(f"{name:34s} {workload:11s} base {qb[1]:<11.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  "
              f"new {qn[1]:<11.6g} [{qn[0]:.6g}, {qn[2]:.6g}]  {change:+7.1%}  "
              f"{verdict(sb[key], sn[key], better, bound)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect", help="run the benchmark over seeds into a result set")
    p.add_argument("out")
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(fn=collect)
    p = sub.add_parser("show", help="medians, quartiles and spreads of one result set")
    p.add_argument("set")
    p.set_defaults(fn=show)
    p = sub.add_parser("diff", help="compare two result sets")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(fn=diff)
    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
