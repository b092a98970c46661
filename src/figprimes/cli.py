"""Command line front end.

Exit codes: 0 = ran and consistent, 1 = ran but found counterexamples or a
catalog discrepancy, 2 = usage or resource error, 3 = arithmetic guard.
Reports are deterministic for fixed inputs; --jobs changes elapsed_ms only.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .additive import DomainSpec, verify_additive, verify_linear
from .curves import (
    CurvePoint,
    cubic_model,
    emit_samples,
    lift_point,
    lift_to_solutions,
    quartic_model,
    search_integral_points,
)
from .equations import (
    EquationInstance,
    enumerate_p_minus1_triangular,
    load_published_catalog,
    solve_equation,
    special_family_checks,
    theorem_errata,
)
from .errors import ArithmeticGuardError, ResourceLimitError, UsageError
from .figurate import (
    figurate_stats,
    figurate_witness,
    generate_figurate,
    twin_figurate,
    write_values,
)
from .intkernel import U63_MAX
from .powerful import (
    consecutive_powerful_pairs,
    diff_cubefull_search,
    pell_family,
    power_of_two_gap_report,
    prime_gap_report,
)
from .reporting import Table, build_envelope, render_report

JOBS_ENV = "FIGPRIMES_JOBS"


def _default_jobs() -> int:
    try:
        return max(1, int(os.environ.get(JOBS_ENV, "1")))
    except ValueError:
        return 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="json")
    common.add_argument("--out", metavar="PATH", default=None)
    common.add_argument("--jobs", type=int, default=None, help=f"default ${JOBS_ENV} or 1")
    common.add_argument("--max-counterexamples", type=int, default=100)
    common.add_argument("--sample-size", type=int, default=10)

    ones = argparse.ArgumentParser(add_help=False)
    grp = ones.add_mutually_exclusive_group()
    grp.add_argument("--include-one", dest="include_one", action="store_true", default=True)
    grp.add_argument("--exclude-one", dest="include_one", action="store_false")

    span = argparse.ArgumentParser(add_help=False)
    span.add_argument("--from", dest="lo", type=int, required=True)
    span.add_argument("--to", dest="hi", type=int, required=True)

    parser = argparse.ArgumentParser(prog="figprimes", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("figurate", parents=[common, ones], help="generate, query or dump the set")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--member", type=int, default=None, metavar="N")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--dump", metavar="PATH", default=None)
    p.set_defaults(handler=_figurate)

    p = sub.add_parser("twins", parents=[common], help="pairs (f, f+2) inside the set")
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(handler=_twins)

    # additive scans: (task, left domain, right domain, even targets only);
    # goldbach takes no --include-one, and its primes never hold 1 anyway
    p = sub.add_parser("sum2", parents=[common, ones, span], help="every n as member + member")
    p.set_defaults(handler=_scan, scan=("sum-of-two", "figurate", "figurate", False))
    p = sub.add_parser(
        "prime-proper", parents=[common, ones, span], help="every n as prime + proper member"
    )
    p.set_defaults(handler=_scan, scan=("prime-plus-proper", "primes", "proper", False))
    p = sub.add_parser("goldbach", parents=[common, span], help="every even n as prime + prime")
    p.set_defaults(handler=_scan, scan=("goldbach-even", "primes", "primes", True), include_one=True)

    p = sub.add_parser("linear", parents=[common, ones, span], help="every n as a*x + b*y")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument(
        "--domain",
        choices=("primes", "figurate", "proper", "prime-powers"),
        default="figurate",
    )
    p.set_defaults(handler=_scan)

    p = sub.add_parser("solve", parents=[common], help="all solutions of one instance")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bound", type=int, default=10**12)
    p.set_defaults(handler=_solve)

    p = sub.add_parser("triangular", parents=[common], help="primes p with p - 1 = C(q, 2)")
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(handler=_triangular)

    p = sub.add_parser("families", parents=[common], help="constrained one-parameter families")
    p.add_argument("--bound", type=int, default=10**9)
    p.set_defaults(handler=_families)

    p = sub.add_parser("errata", parents=[common], help="recompute the published catalog")
    p.add_argument("--bound", type=int, default=10**12)
    p.set_defaults(handler=_errata)

    p = sub.add_parser("curve", parents=[common], help="plane-curve models and point search")
    p.add_argument("action", choices=("model", "search", "lift", "samples"))
    p.add_argument("--kind", choices=("cubic", "quartic"), required=True)
    p.add_argument("--sign", type=int, choices=(1, -1), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--xmax", type=int, default=None)
    p.add_argument("--X", type=int, default=None)
    p.add_argument("--Y", type=int, default=None)
    p.add_argument("--xlo", type=int, default=-50)
    p.add_argument("--xhi", type=int, default=50)
    p.add_argument("--step", type=int, default=1)
    p.set_defaults(handler=_curve)

    p = sub.add_parser("powerful-pairs", parents=[common], help="consecutive square-full pairs")
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(handler=_powerful_pairs)

    p = sub.add_parser("pell", parents=[common], help="the Pell-recurrence pair family")
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(handler=_pell)

    p = sub.add_parser("cubefull-diff", parents=[common], help="pairs A - B = d, A*B cube-full")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(handler=_cubefull_diff)

    p = sub.add_parser("conj41", parents=[common], help="gaps d = 2^r against the expected pairs")
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(handler=_conj41)

    p = sub.add_parser("conj42", parents=[common], help="per-gap pair counts and least empty gap")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--nmax", type=int, default=28)
    p.add_argument("--cap", type=int, default=64)
    p.set_defaults(handler=_conj42)

    return parser


# A handler returns its report's envelope fields (the arguments of
# ``build_envelope`` but ``elapsed_ms``), its csv table and whether it flags a
# counterexample or a discrepancy.  Handlers call the library through this
# module's globals, so wrapping a name here wraps it for every command.

Result = tuple[dict, Table, bool]


def _listing(task: str, params: dict, header: list[str], rows: list, sample_size: int) -> dict:
    """Fields of a report that lists rows: the first few keyed by the header,
    and their count."""
    return dict(
        task=task,
        params=params,
        witness_sample=[dict(zip(header, r)) for r in rows[:sample_size]],
        stats={"count": len(rows)},
    )


def _figurate(args, jobs) -> Result:
    if args.member is not None:
        if not 1 <= args.member <= U63_MAX:
            raise UsageError("--member must be in [1, 2^63 - 1]")
        w = figurate_witness(args.member)
        member = w is not None and (args.include_one or args.member != 1)
        sample = [{"value": w.value, "p": w.p, "a": w.a, "i": w.i}] if member else []
        fields = dict(
            task="figurate-member",
            params={"n": args.member, "include_one": args.include_one},
            witness_sample=sample,
            stats={"member": member},
        )
        return fields, Table(["value", "p", "a", "i"], [list(s.values()) for s in sample]), False
    if args.limit is None:
        raise UsageError("figurate needs --limit unless --member is given")
    params = {"limit": args.limit, "include_one": args.include_one}
    table = generate_figurate(args.limit, include_one=args.include_one)
    if args.stats:
        rows = figurate_stats(table).as_rows()
        fields = dict(task="figurate-stats", params=params, stats=dict(rows))
        return fields, Table(["key", "value"], [list(r) for r in rows]), False
    dumped = write_values(table, args.dump) if args.dump else None
    fields = dict(
        task="figurate-generate",
        params=params,
        witness_sample=[{"value": v} for v in table.values[: args.sample_size].tolist()],
        stats={"count": table.count, "dumped": dumped, "dump_path": args.dump},
    )
    return fields, Table(["value"], table.values), False


def _twins(args, jobs) -> Result:
    pairs = twin_figurate(args.limit)
    params = {"limit": args.limit}
    fields = _listing("twin-members", params, ["f", "g"], pairs, args.sample_size)
    return fields, Table(["f", "g"], np.array(pairs, dtype=np.int64).reshape(-1, 2)), False


def _scan(args, jobs) -> Result:
    """sum2, prime-proper, goldbach and linear.  The set is generated inside
    the timed region, so ``elapsed_ms`` counts it."""
    table = generate_figurate(args.hi, include_one=True)
    counts = dict(
        jobs=jobs, max_counterexamples=args.max_counterexamples, sample_size=args.sample_size
    )
    if args.cmd == "linear":
        domain = DomainSpec(args.domain, args.include_one)
        rep = verify_linear(args.a, args.b, args.lo, args.hi, domain, table, **counts)
    else:
        task, *kinds, even_only = args.scan
        left, right = (DomainSpec(kind, args.include_one) for kind in kinds)
        rep = verify_additive(
            args.lo, args.hi, left, right, table, even_only=even_only, task=task, **counts
        )
    # the report's fields are the envelope's, with the range in two
    fields = dict(vars(rep), range_=(rep.lo, rep.hi))
    del fields["lo"], fields["hi"]
    rows: list[list[object]] = [["witness", w["n"], w["x"], w["y"]] for w in rep.witness_sample]
    rows += [["counterexample", n, "", ""] for n in rep.counterexamples]
    return fields, Table(["kind", "n", "x", "y"], rows), rep.counterexample_total > 0


def _solve(args, jobs) -> Result:
    inst = EquationInstance(args.i, args.j, args.k)
    sols = solve_equation(inst, args.bound)
    fields = dict(
        task="solve",
        params={"i": args.i, "j": args.j, "k": args.k, "bound": args.bound},
        witness_sample=[
            {"p": s.p, "a": s.a, "q": s.q, "b": s.b, "left": s.left, "right": s.right}
            for s in sols
        ],
        stats={"solutions": len(sols)},
    )
    published = load_published_catalog().get(inst.key)
    flagged = False
    if published is not None:
        match = set(published) == {s.pqab for s in sols}
        flagged = not match
        fields["verified"] = match
        fields["errata"] = [
            {
                "instance": list(inst.key),
                "status": "MATCH" if match else "DISCREPANCY",
                "published": [list(t) for t in published],
                "computed": [list(s.pqab) for s in sols],
            }
        ]
    rows = [[s.p, s.q, s.a, s.b, s.left, s.right] for s in sols]
    return fields, Table(["p", "q", "a", "b", "left", "right"], rows), flagged


def _triangular(args, jobs) -> Result:
    rows = [list(p) for p in enumerate_p_minus1_triangular(args.limit)]
    fields = _listing(
        "triangular-predecessors", {"limit": args.limit}, ["p", "q"], rows, args.sample_size
    )
    return fields, Table(["p", "q"], rows), False


def _families(args, jobs) -> Result:
    rep = special_family_checks(args.bound)
    bad = [s.name for s in rep.sections if not s.matches]
    fields = dict(
        task="special-families",
        params={"bound": args.bound},
        verified=rep.consistent,
        counterexamples=bad,
        counterexample_total=len(bad),
        stats={
            s.name: {
                "solutions": [list(t) for t in s.solutions],
                "expected": [list(t) for t in s.expected],
                "matches": s.matches,
            }
            for s in rep.sections
        },
    )
    rows = [[s.name, str(tuple(t))] for s in rep.sections for t in s.solutions]
    return fields, Table(["family", "solution"], rows), not rep.consistent


def _curve_corrections() -> list[dict]:
    neg = cubic_model(-1, 1)
    qua = quartic_model(1, 1)
    shifted = quartic_model(1, 2)
    return [
        {"kind": "curve-constant", "curve": neg.equation_text(), "note": neg.notes[0]},
        {"kind": "curve-map", "curve": qua.equation_text(), "note": qua.notes[0]},
        {"kind": "curve-variable", "curve": shifted.equation_text(), "note": shifted.notes[1]},
    ]


def _errata(args, jobs) -> Result:
    rep = theorem_errata(args.bound)
    entries = [
        {
            "instance": list(e.instance),
            "status": e.status,
            "published": [list(t) for t in e.published],
            "computed": [list(t) for t in e.computed],
            "notes": e.notes,
        }
        for e in rep.entries
    ]
    bad = [list(e.instance) for e in rep.discrepancies]
    fields = dict(
        task="catalog-reconciliation",
        params={"bound": args.bound},
        verified=not rep.discrepancies,
        counterexamples=bad,
        counterexample_total=len(bad),
        stats={"instances": len(rep.entries), "discrepancies": len(rep.discrepancies)},
        errata=entries + _curve_corrections(),
    )
    rows = [
        [
            "/".join(str(v) for v in e.instance),
            e.status,
            " ".join(str(tuple(t)) for t in e.published) or "none",
            " ".join(str(tuple(t)) for t in e.computed) or "none",
        ]
        for e in rep.entries
    ]
    return fields, Table(["instance", "status", "published", "computed"], rows), bool(bad)


def _curve(args, jobs) -> Result:
    model = (cubic_model if args.kind == "cubic" else quartic_model)(args.sign, args.k)
    params = {
        "kind": model.kind,
        "sign": model.s,
        "k": model.k,
        "instance": list(model.instance.key),
    }
    if args.action == "model":
        fields = dict(
            task="curve-model",
            params=params,
            stats={
                "equation": model.equation_text(),
                "coeffs": list(model.coeffs),
                "published_shift": model.published_shift,
                "notes": list(model.notes),
            },
        )
        rows = [["equation", model.equation_text()], ["coeffs", list(model.coeffs)]]
        return fields, Table(["key", "value"], rows), False
    if args.action == "search":
        # cubics enjoy the wider default window; quartic coefficients grow faster
        xmax = args.xmax
        if xmax is None:
            xmax = 10**5 if model.kind == "cubic" else 10**4
        points = search_integral_points(model, xmax)
        sols = lift_to_solutions(model, points, model.instance)
        fields = dict(
            task="curve-search",
            params={**params, "xmax": xmax},
            witness_sample=[{"X": pt.X, "Y": pt.Y} for pt in points],
            stats={"points": len(points), "solutions": [list(s.pqab) for s in sols]},
        )
        return fields, Table(["X", "Y"], [[pt.X, pt.Y] for pt in points]), False
    if args.action == "lift":
        if args.X is None or args.Y is None:
            raise UsageError("curve lift needs --X and --Y")
        pt = CurvePoint(args.X, args.Y)
        lifted = lift_point(model, pt)
        sols = lift_to_solutions(model, [pt], model.instance)
        fields = dict(
            task="curve-lift",
            params={**params, "X": args.X, "Y": args.Y},
            witness_sample=[] if lifted is None else [{"x": lifted[0], "y": lifted[1]}],
            stats={"lifted": lifted is not None, "solutions": [list(s.pqab) for s in sols]},
        )
        rows = [[lifted[0], lifted[1]]] if lifted else []
        return fields, Table(["x", "y"], rows), False
    rows = emit_samples(model, args.xlo, args.xhi, args.step)
    fields = dict(
        task="curve-samples",
        params={**params, "xlo": args.xlo, "xhi": args.xhi, "step": args.step},
        witness_sample=[
            {"X": r[0], "rhs": r[1], "is_square": r[2], "Y": r[3]}
            for r in rows[: args.sample_size]
        ],
        stats={"rows": len(rows), "squares": sum(1 for r in rows if r[2])},
    )
    table = Table(
        ["X", "rhs", "is_square", "Y"],
        [[r[0], r[1], str(r[2]).lower(), "" if r[3] is None else r[3]] for r in rows],
    )
    return fields, table, False


def _gap_pairs(task: str, params: dict, pairs: list, sample_size: int) -> Result:
    """Report on pairs A - B = d: powerful-pairs and cubefull-diff."""
    header = ["d", "A", "B"]
    rows = [[p.d, p.A, p.B] for p in pairs]
    return _listing(task, params, header, rows, sample_size), Table(header, rows), False


def _powerful_pairs(args, jobs) -> Result:
    pairs = consecutive_powerful_pairs(args.limit)
    return _gap_pairs("consecutive-powerful", {"limit": args.limit}, pairs, args.sample_size)


def _cubefull_diff(args, jobs) -> Result:
    pairs = diff_cubefull_search(args.d, args.limit)
    params = {"d": args.d, "limit": args.limit}
    return _gap_pairs("cubefull-gap", params, pairs, args.sample_size)


def _pell(args, jobs) -> Result:
    fam = pell_family(args.count)
    rows = [[p.u, p.v, p.A, p.B] for p in fam.pairs]
    fields = _listing("pell-family", {"count": args.count}, ["u", "v", "A", "B"], rows,
                      args.sample_size)
    fields["stats"] = {"returned": len(fam.pairs), "truncated": fam.truncated}
    return fields, Table(["u", "v", "A", "B"], rows), False


def _conj41(args, jobs) -> Result:
    rep = power_of_two_gap_report(args.rmax, args.limit)
    bad = [row.r for row in rep.rows if not row.matches]
    found = [
        {"r": row.r, "d": row.d, "pairs": [[p.A, p.B] for p in row.pairs]} for row in rep.rows
    ]
    fields = dict(
        task="power-of-two-gaps",
        params={"rmax": args.rmax, "limit": args.limit},
        verified=rep.consistent,
        counterexamples=bad,
        counterexample_total=len(bad),
        witness_sample=found[: args.sample_size],
        stats={
            "rows": [
                {**f, "expected": [list(e) for e in row.expected], "matches": row.matches}
                for f, row in zip(found, rep.rows)
            ]
        },
    )
    rows = [[p.d, p.A, p.B] for row in rep.rows for p in row.pairs]
    return fields, Table(["d", "A", "B"], rows), not rep.consistent


def _conj42(args, jobs) -> Result:
    rep = prime_gap_report(args.limit, nmax=args.nmax, search_cap=args.cap)
    bad = [row.d for row in rep.rows if row.count == 0]
    found = [
        {"d": row.d, "count": row.count, "first": list(row.first) if row.first else None}
        for row in rep.rows
    ]
    fields = dict(
        task="prime-gaps",
        params={"limit": args.limit, "nmax": args.nmax, "cap": args.cap},
        verified=rep.all_nonempty,
        counterexamples=bad,
        counterexample_total=len(bad),
        witness_sample=found[: args.sample_size],
        stats={
            "rows": found,
            "least_empty": rep.least_empty,
            "least_empty_prime": rep.least_empty_prime,
        },
    )
    rows = [[row.d, row.first[0], row.first[1]] for row in rep.rows if row.first]
    return fields, Table(["d", "A", "B"], rows), not rep.all_nonempty


def _execute(args) -> Result:
    """Run the subcommand's handler and wrap its fields in the envelope,
    with the handler's wall time as ``elapsed_ms``."""
    if args.max_counterexamples < 0 or args.sample_size < 0:
        raise UsageError("--max-counterexamples and --sample-size must be >= 0")
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    t0 = time.perf_counter()
    fields, table, flagged = args.handler(args, jobs)
    env = build_envelope(**fields, elapsed_ms=int((time.perf_counter() - t0) * 1000))
    return env, table, flagged


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        env, table, flagged = _execute(args)
        payload = render_report(env, args.format, table)
        if args.out:
            with open(args.out, "wb") as fh:
                fh.write(payload)
        else:
            sys.stdout.buffer.write(payload)
    except (UsageError, OSError) as exc:  # OSError: an unwritable --out or --dump path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticGuardError as exc:
        print(f"arithmetic guard: {exc}", file=sys.stderr)
        return 3
    return 1 if flagged else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
