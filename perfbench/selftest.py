"""Self-test of the benchmark's checks, at tiny sizes.

    python3 perfbench/selftest.py

Run from the repository root. Each workload runs once at the self-test sizes
of ``workloads.TINY`` and must fail no operation. Then reports are tampered
with (a wrong witness, a dropped counterexample, a wrong solution, a changed
csv row) and each tampered report must fail, both under the independent
checks alone and against a recording of the clean reports. Exits 0 when
every expectation holds.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def failed_frac(wl, executions, recorded=None) -> tuple[float, list[str]]:
    import checks

    failed, messages = run.judge(wl, executions, checks.Checker(wl, recorded))
    return failed / len(executions), messages


def tampered(executions, op_id: str, change) -> list:
    """A copy of the executions where ``change`` rewrote one operation's report."""
    out = []
    for ex in executions:
        if ex.op.id == op_id:
            env = json.loads(ex.payload)
            change(env)
            payload = json.dumps(env, indent=2).encode()
            ex = run.Execution(ex.op, ex.rc, ex.seconds, run.digest(ex.op, payload), payload)
        out.append(ex)
    return out


def wrong_witness(env):
    env["witness_sample"][0]["x"] += 1


def dropped_counterexample(env):
    env["counterexamples"].pop()
    env["counterexample_total"] -= 1


def hidden_counterexample(env):
    """Drop a counterexample and adjust every count so the report stays consistent."""
    env["counterexamples"].pop()
    env["counterexample_total"] -= 1
    env["stats"]["witnesses"] += 1
    env["verified"] = env["counterexample_total"] == 0


def wrong_solution(env):
    env["witness_sample"][-1]["left"] += 2


def dropped_solution(env):
    env["witness_sample"].pop()
    env["stats"]["solutions"] -= 1


def changed_csv_row(executions, op_id):
    out = []
    for ex in executions:
        if ex.op.id == op_id:
            lines = ex.payload.split(b"\n")
            lines[5] = str(int(lines[5]) + 1).encode()
            payload = b"\n".join(lines)
            ex = run.Execution(ex.op, ex.rc, ex.seconds, run.digest(ex.op, payload), payload)
        out.append(ex)
    return out


TAMPERS = (
    ("scan-dense", "sum2-jobs1", "wrong witness", wrong_witness),
    ("scan-mixed", "linear-1-2", "dropped counterexample", dropped_counterexample),
    ("scan-mixed", "linear-2-3", "hidden counterexample", hidden_counterexample),
    ("scan-mixed", "goldbach", "wrong witness", wrong_witness),
    ("arith", "solve-unit", "wrong solution", wrong_solution),
    ("arith", "solve-unit", "dropped solution", dropped_solution),
)


SCANS = ("additive.left_ascending_s", "additive.right_descending_s", "additive.linear_s")


def traced_checks(cli) -> list[str]:
    """A traced pass must report what an untraced one does; the additive scan
    spans must be non-zero on the scan workloads and zero on the others."""
    import spans

    problems = []
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        for name in workloads.BUILDERS:
            wl = workloads.build(name, workloads.DEFAULT_SEED, tiny=True)
            tracer = spans.Tracer()
            tracer.install()
            try:
                executions = run.run_pass(cli, wl.ops, Path(tmp), tracer).executions
            finally:
                tracer.uninstall()
            frac, messages = failed_frac(wl, executions)
            scan = sum(run.traced_metrics(tracer)[m] for m in SCANS)
            print(f"{name}: traced run failed_ops_frac {frac:.3f}, additive scans {scan:.4f} s")
            problems += [f"{name} traced: {m}" for m in messages]
            if (scan > 0) != name.startswith("scan-"):
                problems.append(f"{name} traced: additive scan time {scan} s")
    return problems


def main() -> int:
    root = Path.cwd()
    fp, cli, _ = run.import_figprimes(root)
    import checks

    problems = []
    clean = {}
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        workdir = Path(tmp)
        for name in workloads.BUILDERS:
            wl = workloads.build(name, workloads.DEFAULT_SEED, tiny=True)
            executions = run.run_pass(cli, wl.ops, workdir).executions
            frac, messages = failed_frac(wl, executions)
            print(f"{name}: clean run failed_ops_frac {frac:.3f}")
            if frac != 0:
                problems += [f"{name} clean: {m}" for m in messages]
            clean[name] = (wl, executions)
    cases = [(w, op, what, lambda ex, op=op, fn=fn: tampered(ex, op, fn))
             for w, op, what, fn in TAMPERS]
    cases.append(("table", "figurate-csv", "changed csv row",
                  lambda ex: changed_csv_row(ex, "figurate-csv")))
    for name, op_id, what, make in cases:
        wl, executions = clean[name]
        recorded = {ex.op.id: checks.record(ex.op, ex.rc, ex.payload) for ex in executions}
        bad = make(executions)
        for label, rec in (("independent checks", None), ("recorded reports", recorded)):
            frac, _ = failed_frac(wl, bad, rec)
            print(f"{name}/{op_id} {what}, {label}: failed_ops_frac {frac:.3f}")
            if frac == 0:
                problems.append(f"{name}/{op_id} {what} passed the {label}")
    problems += traced_checks(cli)
    for p in problems:
        print(f"SELFTEST FAIL {p}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
