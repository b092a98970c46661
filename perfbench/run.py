"""figprimes benchmark: one workload, one fresh process, one JSON result line.

    python3 perfbench/run.py --workload scan-dense --seed 1 --seconds 20 --trace 0

Run from the repository root. The run imports figprimes from ``src/``, times
set-up (the import plus ``build_sieve`` and ``generate_figurate`` at the
workload's stated size, several times), then repeats untraced passes over
the workload's CLI operations through ``figprimes.cli.run`` in-process, each
writing its report to a scratch file under ``perfbench/out/``. With
``--trace 1`` part of the time goes to traced passes (see ``spans.py``),
which give the per-layer metrics. Every report is checked (see
``checks.py``). The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json under --trace 0 and its
per-layer metrics under --trace 1. A summary goes to standard error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
EXPECTED_DIR = HERE / "expected"
JOBS_ENV = "FIGPRIMES_JOBS"

SETUP_REPS = 5

#: nominal seconds of one reference loop (REFERENCE_STEPS iterations)
REF_S = 0.025
REFERENCE_STEPS = 250_000
#: at least this many reference samples per pass, spread over the gaps
#: before each operation and after the last
REF_SAMPLES = 12
MIN_PASSES = 2
MAX_PASSES = 100
MICRO_BATCH = 20000
MICRO_REPS = 3

#: cli.<group> metrics given as targets per second; the other groups are seconds
RATE_GROUPS = ("sum2", "sum2_jobs2", "prime_proper", "goldbach", "linear")
TIME_GROUPS = ("solve", "curve", "powerful", "figurate")

#: span names whose self time is reported as <name>_s
SPAN_METRICS = (
    "intkernel.build_sieve", "intkernel.prime_powers_upto", "figurate.generate",
    "additive.resolve_domain", "additive.left_ascending", "additive.right_descending",
    "additive.linear", "equations.solve_unit", "equations.solve_inverted",
    "equations.errata", "equations.triangular", "curves.search", "powerful.gap_report",
    "powerful.cubefull_diff", "powerful.squarefull_mask", "reporting.render",
)
LAYERS = ("intkernel", "figurate", "additive", "equations", "curves", "powerful", "reporting")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Execution:
    op: workloads.Op
    rc: int | str
    seconds: float
    digest: str | None  # None when no report was written
    payload: bytes | None  # kept for an operation's first report only


def digest(op, payload: bytes) -> str:
    """Hash of the report without ``elapsed_ms``; equal digests, equal reports."""
    if op.fmt == "json":
        env = json.loads(payload)
        env.pop("elapsed_ms", None)
        payload = json.dumps(env, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


class Reference:
    """A fixed pure-Python loop, timed next to the work to gauge host speed.

    The host's speed drifts by 20-40% over minutes when neighbours load it.
    Multiplying a time by REF_S / (the loop's median time over samples taken
    around the work) expresses it in seconds at the reference speed, and the
    drift cancels. The median keeps one unusually fast or slow sample out.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_STEPS):
            acc += i * i % 7
        self.samples.append(time.perf_counter() - t0)

    @property
    def scale(self) -> float:
        """Factor from seconds to seconds at the reference speed."""
        return REF_S / statistics.median(self.samples)


@dataclass
class Pass:
    executions: list[Execution]
    reference: Reference  # sampled in the gaps before each operation and after the last


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-expected", action="store_true",
                    help="run one pass at the default seed and record its reports "
                         "as the expected results")
    return ap.parse_args(argv)


def import_figprimes(root: Path):
    """Import figprimes from ``root/src``; returns (package, cli module, seconds)."""
    src = root / "src"
    if not (src / "figprimes" / "__init__.py").is_file():
        raise BenchError(f"no figprimes sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import figprimes
    import figprimes.cli
    seconds = time.perf_counter() - t0
    if Path(figprimes.__file__).resolve().parent != (src / "figprimes").resolve():
        raise BenchError(f"figprimes was imported from {figprimes.__file__}, not {src}")
    return figprimes, figprimes.cli, seconds


def subprocess_import_seconds(root: Path) -> float:
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import figprimes, figprimes.cli; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(root / "src")],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def measure_setup(fp, root: Path, import_s: float, limit: int) -> float:
    """Median import time plus median table build over SETUP_REPS repetitions,
    in seconds at the reference speed."""
    ref = Reference()
    imports, builds = [import_s], []
    for _ in range(SETUP_REPS - 1):
        ref.sample()
        imports.append(subprocess_import_seconds(root))
    for _ in range(SETUP_REPS):
        ref.sample()
        t0 = time.perf_counter()
        fp.generate_figurate(limit, table=fp.build_sieve(limit))
        builds.append(time.perf_counter() - t0)
    ref.sample()
    return (statistics.median(imports) + statistics.median(builds)) * ref.scale


def run_pass(cli, ops, workdir: Path, tracer=None, kept: set | None = None) -> Pass:
    """One pass over ``ops``. Reports are kept only for operations not yet in
    ``kept`` (shared between the passes of a run), so that the harness's
    memory does not grow with the number of passes; later runs keep a digest."""
    kept = set() if kept is None else kept
    out = []
    ref = Reference()
    per_gap = -(-REF_SAMPLES // (len(ops) + 1))
    for op in ops:
        path = workdir / f"{op.id}.out"
        path.unlink(missing_ok=True)
        argv = list(op.argv) + ["--out", str(path)]
        for _ in range(per_gap):
            ref.sample()
        if tracer is not None:
            tracer.op = op.id
            tracer.begin("cli.run")
        t0 = time.perf_counter()
        try:
            rc = cli.run(argv)
        except Exception as exc:  # a crash is a failed operation, not a dead run
            rc = f"raised {exc!r}"
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.close_all()
        payload = path.read_bytes() if path.is_file() else None
        if payload is None:
            out.append(Execution(op, rc, seconds, None, None))
            continue
        out.append(Execution(op, rc, seconds, digest(op, payload),
                             payload if op.id not in kept else None))
        kept.add(op.id)
    for _ in range(per_gap):
        ref.sample()
    return Pass(out, ref)


def repeat(budget: float, fn, min_runs: int = 1) -> list:
    """Call fn until the next call would overrun ``budget`` seconds."""
    results, lengths = [], []
    start = time.perf_counter()
    while len(results) < MAX_PASSES:
        t0 = time.perf_counter()
        results.append(fn())
        lengths.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(results) >= min_runs and elapsed + statistics.median(lengths) > budget:
            break
    return results


def by_op(passes: list[Pass]) -> dict[str, float]:
    """Median seconds of each operation over the passes."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for ex in p.executions:
            times.setdefault(ex.op.id, []).append(ex.seconds)
    return {k: statistics.median(v) for k, v in times.items()}


def end_to_end(passes: list[Pass], setup_s: float, peak_rss_mib: float) -> dict[str, float]:
    """Medians over passes, with times at the reference speed."""
    rates, gmeans = [], []
    for p in passes:
        seconds = [ex.seconds * p.reference.scale for ex in p.executions]
        targets = [ex.op.targets for ex in p.executions]
        rates.append(sum(targets) / sum(seconds))
        logs = [math.log(n / t) for n, t in zip(targets, seconds)]
        gmeans.append(math.exp(sum(logs) / len(logs)))
    return {
        "targets_per_s": statistics.median(rates),
        "op_targets_per_s_gmean": statistics.median(gmeans),
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib,
    }


def traced_metrics(tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    import spans

    own = spans.self_times(tracer.spans)
    out: dict[str, float] = {f"{name}_s": 0.0 for name in SPAN_METRICS}
    out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    out["cli.traced_wall_s"] = out["cli.overhead_s"] = 0.0
    for span, self_s in zip(tracer.spans, own):
        name = span["name"]
        if name == "cli.run":
            # the part of cli.run that no library span covers
            out["cli.traced_wall_s"] += span["end"] - span["start"]
            out["cli.overhead_s"] += self_s
            continue
        if name in SPAN_METRICS:
            out[f"{name}_s"] += self_s
        layer = name.split(".")[0]
        if layer in LAYERS:
            out[f"{layer}.self_s"] += self_s
    out.update(tracer.counts)
    search = out["curves.search_s"]
    out["curves.x_per_s"] = tracer.counts["curves.x"] / search if search > 0 else 0.0
    return out


def micro_us(fn, values) -> float:
    """Median microseconds per call of fn over a batch, over MICRO_REPS runs."""
    runs = []
    for _ in range(MICRO_REPS):
        t0 = time.perf_counter()
        for v in values:
            fn(v)
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs) / len(values) * 1e6


def intkernel_batches(fp, wl, rng) -> dict[str, float]:
    """is_prime and prime_power_decompose on seeded batches of the values the
    arith unit solve (p^a + k) and triangular search (C(q, 2) + 1) feed them."""
    import numpy as np
    from checks import prime_mask

    by_id = {op.id: op for op in wl.ops}
    unit, tri = by_id["solve-unit"].params, by_id["triangular"].params
    primes = np.flatnonzero(prime_mask(unit["bound"]))
    picks = rng.sample(range(primes.size), min(MICRO_BATCH, primes.size))
    decompose = [int(primes[i]) + unit["k"] for i in picks]
    qs = primes[primes <= math.isqrt(2 * tri["limit"]) + 2]
    picks = rng.sample(range(qs.size), min(MICRO_BATCH, qs.size))
    prime_inputs = [int(qs[i]) * (int(qs[i]) - 1) // 2 + 1 for i in picks]
    return {
        "intkernel.prime_power_decompose_us": micro_us(fp.prime_power_decompose, decompose),
        "intkernel.is_prime_us": micro_us(fp.is_prime, prime_inputs),
    }


def per_layer(wl, fp, untraced, traced_runs, rng) -> dict[str, float]:
    times = by_op(untraced)
    ops = {op.id: op for op in wl.ops}
    out: dict[str, float] = {}
    for group in RATE_GROUPS:
        ids = [i for i, op in ops.items() if op.group == group]
        secs = sum(times[i] for i in ids)
        out[f"cli.{group}_targets_per_s"] = (
            sum(ops[i].targets for i in ids) / secs if secs else 0.0)
    for group in TIME_GROUPS:
        out[f"cli.{group}_s"] = sum(t for i, t in times.items() if ops[i].group == group)
    out["cli.wall_s"] = statistics.median(
        sum(ex.seconds for ex in p.executions) for p in untraced)
    out["cli.reference_ms"] = 1000 * statistics.median(
        x for p in untraced for x in p.reference.samples)
    layer = [traced_metrics(t) for t in traced_runs]
    for key in layer[0]:
        out[key] = statistics.median(m.get(key, 0.0) for m in layer)
    out["additive.jobs2_speedup"] = (
        times["sum2-jobs1"] / times["sum2-jobs2"] if "sum2-jobs2" in times else 0.0)
    if wl.name == "arith":
        out.update(intkernel_batches(fp, wl, rng))
    return out


def judge(wl, executions, checker) -> tuple[int, list[str]]:
    """Number of failed executions and the distinct problems found."""
    import checks

    first: dict[str, Execution] = {}
    for ex in executions:
        if ex.payload is not None:
            first.setdefault(ex.op.id, ex)
    reports = {i: checks.parse(ex.op, ex.payload) for i, ex in first.items()}
    digests = {i: ex.digest for i, ex in first.items()}
    problems = {i: checker.report_problems(first[i].op, first[i].payload, reports[i])
                for i in first}
    for i, extra in checks.cross_checks(reports).items():
        problems[i] += extra
    # operations that differ only in --jobs must report the same thing
    seen: dict[tuple, str] = {}
    for op in wl.ops:
        key = tuple(a for k, a in enumerate(op.argv)
                    if a != "--jobs" and (k == 0 or op.argv[k - 1] != "--jobs"))
        if op.id in digests:
            if key in seen and digests[seen[key]] != digests[op.id]:
                problems[op.id].append(f"report differs from {seen[key]} (only --jobs differs)")
            seen.setdefault(key, op.id)
    failed, messages = 0, []
    for ex in executions:
        bad = checker.rc_problems(ex.op, ex.rc)
        if ex.digest is None:
            bad.append("no report written")
        elif ex.digest != digests[ex.op.id]:
            bad.append("report differs from the operation's first run")
        else:
            bad += problems[ex.op.id]
        if bad:
            failed += 1
            messages += [f"{ex.op.id}: {m}" for m in bad]
    return failed, sorted(set(messages))


def load_benchmark(root: Path) -> dict:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    os.environ.pop(JOBS_ENV, None)
    try:
        spec = load_benchmark(root)
        fp, cli, import_s = import_figprimes(root)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    wl = workloads.build(args.workload, args.seed)
    workdir = OUT_DIR / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    expected_path = EXPECTED_DIR / f"{wl.name}.json"

    if args.record_expected:
        if args.seed != workloads.DEFAULT_SEED:
            print("benchmark: record at the default seed only", file=sys.stderr)
            return 2
        import checks

        executions = run_pass(cli, wl.ops, workdir).executions
        recorded = {ex.op.id: checks.record(ex.op, ex.rc, ex.payload) for ex in executions}
        EXPECTED_DIR.mkdir(exist_ok=True)
        expected_path.write_text(json.dumps(
            {"workload": wl.name, "seed": wl.seed, "ops": recorded}, indent=1) + "\n")
        print(f"recorded {len(recorded)} reports in {expected_path}", file=sys.stderr)
        return 0

    setup_s = measure_setup(fp, root, import_s, wl.setup_limit)
    started = time.perf_counter()
    kept: set[str] = set()
    untraced = repeat(args.seconds / 2 if args.trace else args.seconds,
                      lambda: run_pass(cli, wl.ops, workdir, kept=kept),
                      min_runs=1 if args.trace else MIN_PASSES)
    # the program's peak, read before the checks (and the sympy they use) load
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    import checks

    tracers, traced = [], []
    if args.trace:
        import spans

        def traced_pass():
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced.append(run_pass(cli, wl.ops, workdir, tracer, kept).executions)
            finally:
                tracer.uninstall()
            return tracer

        left = args.seconds - (time.perf_counter() - started)
        tracers = repeat(max(left, 0.0), traced_pass)

    recorded = json.loads(expected_path.read_text())["ops"]
    checker = checks.Checker(wl, recorded)
    executions = [ex for p in untraced for ex in p.executions]
    executions += [ex for p in traced for ex in p]
    t0 = time.perf_counter()
    failed, messages = judge(wl, executions, checker)
    print(f"checks took {time.perf_counter() - t0:.2f} s", file=sys.stderr)

    if args.trace:
        rng = random.Random(f"micro:{wl.name}:{wl.seed}")
        values = per_layer(wl, fp, untraced, tracers, rng)
        wanted = spec["per_layer"]
        write_trace(wl, tracers, started)
    else:
        values = end_to_end(untraced, setup_s, peak_rss_mib)
        wanted = spec["end_to_end"]
    summary(wl, untraced, failed, len(executions), messages)
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": len(executions),
                      "failed": failed, "metrics": metrics}))
    return 0


def write_trace(wl, tracers, started: float) -> None:
    path = OUT_DIR / f"trace-{wl.name}-{wl.seed}.json"
    passes = [[{**s, "start": s["start"] - started, "end": s["end"] - started}
               for s in t.spans] for t in tracers]
    path.write_text(json.dumps({"workload": wl.name, "seed": wl.seed, "passes": passes}))


def summary(wl, untraced, failed, attempted, messages) -> None:
    err = sys.stderr
    times = by_op(untraced)
    print(f"workload {wl.name} seed {wl.seed}: {len(untraced)} untraced passes", file=err)
    for op in wl.ops:
        print(f"  {op.id:16s} {times[op.id]:8.3f} s  {' '.join(op.argv)}", file=err)
    print(f"failed_ops_frac {failed / attempted:.4f} ({failed} of {attempted})", file=err)
    for m in messages[:50]:
        print(f"  FAIL {m}", file=err)


if __name__ == "__main__":
    sys.exit(main())
