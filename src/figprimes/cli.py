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

from .additive import DomainSpec, VerificationReport, verify_additive, verify_linear
from .curves import (
    CurvePoint,
    cubic_model,
    emit_samples,
    lift_point,
    lift_to_solutions,
    map_solution,
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

    p = sub.add_parser("twins", parents=[common], help="pairs (f, f+2) inside the set")
    p.add_argument("--limit", type=int, required=True)

    sub.add_parser("sum2", parents=[common, ones, span], help="every n as member + member")
    sub.add_parser(
        "prime-proper", parents=[common, ones, span], help="every n as prime + proper member"
    )
    sub.add_parser("goldbach", parents=[common, span], help="every even n as prime + prime")

    p = sub.add_parser("linear", parents=[common, ones, span], help="every n as a*x + b*y")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument(
        "--domain",
        choices=("primes", "figurate", "proper", "prime-powers"),
        default="figurate",
    )

    p = sub.add_parser("solve", parents=[common], help="all solutions of one instance")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bound", type=int, default=10**12)

    p = sub.add_parser("triangular", parents=[common], help="primes p with p - 1 = C(q, 2)")
    p.add_argument("--limit", type=int, required=True)

    p = sub.add_parser("families", parents=[common], help="constrained one-parameter families")
    p.add_argument("--bound", type=int, default=10**9)

    p = sub.add_parser("errata", parents=[common], help="recompute the published catalog")
    p.add_argument("--bound", type=int, default=10**12)

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

    p = sub.add_parser("powerful-pairs", parents=[common], help="consecutive square-full pairs")
    p.add_argument("--limit", type=int, required=True)

    p = sub.add_parser("pell", parents=[common], help="the Pell-recurrence pair family")
    p.add_argument("--count", type=int, required=True)

    p = sub.add_parser("cubefull-diff", parents=[common], help="pairs A - B = d, A*B cube-full")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)

    p = sub.add_parser("conj41", parents=[common], help="gaps d = 2^r against the expected pairs")
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)

    p = sub.add_parser("conj42", parents=[common], help="per-gap pair counts and least empty gap")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--nmax", type=int, default=28)
    p.add_argument("--cap", type=int, default=64)

    return parser


def _verification_env(rep: VerificationReport) -> tuple[dict, Table, bool]:
    env = build_envelope(
        task=rep.task,
        params=rep.params,
        range_=(rep.lo, rep.hi),
        verified=rep.verified,
        counterexamples=rep.counterexamples,
        counterexample_total=rep.counterexample_total,
        witness_sample=rep.witness_sample,
        stats=rep.stats,
        elapsed_ms=rep.elapsed_ms,
    )
    rows: list[list[object]] = [
        ["witness", w["n"], w["x"], w["y"]] for w in rep.witness_sample
    ]
    rows += [["counterexample", n, "", ""] for n in rep.counterexamples]
    return env, Table(["kind", "n", "x", "y"], rows), rep.counterexample_total > 0


def _cmd_figurate(args) -> tuple[dict, Table, bool]:
    t0 = time.perf_counter()
    if args.member is not None:
        if not 1 <= args.member <= U63_MAX:
            raise UsageError("--member must be in [1, 2^63 - 1]")
        w = figurate_witness(args.member)
        member = w is not None and (args.include_one or args.member != 1)
        sample = []
        if member:
            sample.append({"value": w.value, "p": w.p, "a": w.a, "i": w.i})
        env = build_envelope(
            task="figurate-member",
            params={"n": args.member, "include_one": args.include_one},
            verified=None,
            witness_sample=sample,
            stats={"member": member},
            elapsed_ms=int((time.perf_counter() - t0) * 1000),
        )
        rows = [[w.value, w.p, w.a, w.i]] if member else []
        return env, Table(["value", "p", "a", "i"], rows), False
    if args.limit is None:
        raise UsageError("figurate needs --limit unless --member is given")
    table = generate_figurate(args.limit, include_one=args.include_one)
    if args.stats:
        rec = figurate_stats(table)
        env = build_envelope(
            task="figurate-stats",
            params={"limit": args.limit, "include_one": args.include_one},
            verified=None,
            stats=dict(rec.as_rows()),
            elapsed_ms=int((time.perf_counter() - t0) * 1000),
        )
        return env, Table(["key", "value"], [list(r) for r in rec.as_rows()]), False
    dumped = write_values(table, args.dump) if args.dump else None
    head = table.values[: args.sample_size].tolist()
    env = build_envelope(
        task="figurate-generate",
        params={"limit": args.limit, "include_one": args.include_one},
        verified=None,
        witness_sample=[{"value": v} for v in head],
        stats={"count": table.count, "dumped": dumped, "dump_path": args.dump},
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
    )
    return env, Table(["value"], [[v] for v in table.values.tolist()]), False


def _cmd_twins(args) -> tuple[dict, Table, bool]:
    t0 = time.perf_counter()
    pairs = twin_figurate(args.limit)
    env = build_envelope(
        task="twin-members",
        params={"limit": args.limit},
        verified=None,
        witness_sample=[{"f": f, "g": g} for f, g in pairs[: args.sample_size]],
        stats={"count": len(pairs)},
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
    )
    return env, Table(["f", "g"], [list(p) for p in pairs]), False


def _cmd_solve(args) -> tuple[dict, Table, bool]:
    t0 = time.perf_counter()
    inst = EquationInstance(args.i, args.j, args.k)
    sols = solve_equation(inst, args.bound)
    catalog = load_published_catalog()
    errata = None
    verified = None
    flagged = False
    if inst.key in catalog:
        published = catalog[inst.key]
        match = set(published) == {s.pqab for s in sols}
        verified = match
        flagged = not match
        errata = [
            {
                "instance": list(inst.key),
                "status": "MATCH" if match else "DISCREPANCY",
                "published": [list(t) for t in published],
                "computed": [list(s.pqab) for s in sols],
            }
        ]
    env = build_envelope(
        task="solve",
        params={"i": args.i, "j": args.j, "k": args.k, "bound": args.bound},
        verified=verified,
        witness_sample=[
            {"p": s.p, "a": s.a, "q": s.q, "b": s.b, "left": s.left, "right": s.right}
            for s in sols
        ],
        stats={"solutions": len(sols)},
        errata=errata,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
    )
    rows = [[s.p, s.q, s.a, s.b, s.left, s.right] for s in sols]
    return env, Table(["p", "q", "a", "b", "left", "right"], rows), flagged


def _cmd_triangular(args) -> tuple[dict, Table, bool]:
    t0 = time.perf_counter()
    pairs = enumerate_p_minus1_triangular(args.limit)
    env = build_envelope(
        task="triangular-predecessors",
        params={"limit": args.limit},
        verified=None,
        witness_sample=[{"p": p, "q": q} for p, q in pairs[: args.sample_size]],
        stats={"count": len(pairs)},
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
    )
    return env, Table(["p", "q"], [list(p) for p in pairs]), False


def _cmd_families(args) -> tuple[dict, Table, bool]:
    t0 = time.perf_counter()
    rep = special_family_checks(args.bound)
    bad = [s.name for s in rep.sections if not s.matches]
    env = build_envelope(
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
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
    )
    rows = [[s.name, str(tuple(t))] for s in rep.sections for t in s.solutions]
    return env, Table(["family", "solution"], rows), not rep.consistent


def _curve_corrections() -> list[dict]:
    neg = cubic_model(-1, 1)
    qua = quartic_model(1, 1)
    shifted = quartic_model(1, 2)
    return [
        {"kind": "curve-constant", "curve": neg.equation_text(), "note": neg.notes[0]},
        {"kind": "curve-map", "curve": qua.equation_text(), "note": qua.notes[0]},
        {"kind": "curve-variable", "curve": shifted.equation_text(), "note": shifted.notes[1]},
    ]


def _cmd_errata(args) -> tuple[dict, Table, bool]:
    t0 = time.perf_counter()
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
    entries += _curve_corrections()
    bad = [list(e.instance) for e in rep.discrepancies]
    env = build_envelope(
        task="catalog-reconciliation",
        params={"bound": args.bound},
        verified=not rep.discrepancies,
        counterexamples=bad,
        counterexample_total=len(bad),
        stats={"instances": len(rep.entries), "discrepancies": len(rep.discrepancies)},
        errata=entries,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
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
    return env, Table(["instance", "status", "published", "computed"], rows), bool(rep.discrepancies)


def _cmd_curve(args) -> tuple[dict, Table, bool]:
    t0 = time.perf_counter()
    model = (cubic_model if args.kind == "cubic" else quartic_model)(args.sign, args.k)
    params = {
        "kind": model.kind,
        "sign": model.s,
        "k": model.k,
        "instance": list(model.instance.key),
    }
    if args.action == "model":
        env = build_envelope(
            task="curve-model",
            params=params,
            verified=None,
            stats={
                "equation": model.equation_text(),
                "coeffs": list(model.coeffs),
                "published_shift": model.published_shift,
                "notes": list(model.notes),
            },
            elapsed_ms=int((time.perf_counter() - t0) * 1000),
        )
        rows = [["equation", model.equation_text()], ["coeffs", list(model.coeffs)]]
        return env, Table(["key", "value"], rows), False
    if args.action == "search":
        # cubics enjoy the wider default window; quartic coefficients grow faster
        xmax = args.xmax
        if xmax is None:
            xmax = 10**5 if model.kind == "cubic" else 10**4
        points = search_integral_points(model, xmax)
        sols = lift_to_solutions(model, points, model.instance)
        env = build_envelope(
            task="curve-search",
            params={**params, "xmax": xmax},
            verified=None,
            witness_sample=[{"X": pt.X, "Y": pt.Y} for pt in points],
            stats={
                "points": len(points),
                "solutions": [list(s.pqab) for s in sols],
            },
            elapsed_ms=int((time.perf_counter() - t0) * 1000),
        )
        return env, Table(["X", "Y"], [[pt.X, pt.Y] for pt in points]), False
    if args.action == "lift":
        if args.X is None or args.Y is None:
            raise UsageError("curve lift needs --X and --Y")
        pt = CurvePoint(args.X, args.Y)
        lifted = lift_point(model, pt)
        sols = lift_to_solutions(model, [pt], model.instance)
        sample = []
        if lifted is not None:
            sample.append({"x": lifted[0], "y": lifted[1]})
        env = build_envelope(
            task="curve-lift",
            params={**params, "X": args.X, "Y": args.Y},
            verified=None,
            witness_sample=sample,
            stats={
                "lifted": lifted is not None,
                "solutions": [list(s.pqab) for s in sols],
            },
            elapsed_ms=int((time.perf_counter() - t0) * 1000),
        )
        rows = [[lifted[0], lifted[1]]] if lifted else []
        return env, Table(["x", "y"], rows), False
    rows = emit_samples(model, args.xlo, args.xhi, args.step)
    env = build_envelope(
        task="curve-samples",
        params={**params, "xlo": args.xlo, "xhi": args.xhi, "step": args.step},
        verified=None,
        witness_sample=[
            {"X": r[0], "rhs": r[1], "is_square": r[2], "Y": r[3]}
            for r in rows[: args.sample_size]
        ],
        stats={"rows": len(rows), "squares": sum(1 for r in rows if r[2])},
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
    )
    table = Table(
        ["X", "rhs", "is_square", "Y"],
        [[r[0], r[1], str(r[2]).lower(), "" if r[3] is None else r[3]] for r in rows],
    )
    return env, table, False


def _cmd_powerful_pairs(args) -> tuple[dict, Table, bool]:
    t0 = time.perf_counter()
    pairs = consecutive_powerful_pairs(args.limit)
    env = build_envelope(
        task="consecutive-powerful",
        params={"limit": args.limit},
        verified=None,
        witness_sample=[{"d": p.d, "A": p.A, "B": p.B} for p in pairs[: args.sample_size]],
        stats={"count": len(pairs)},
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
    )
    return env, Table(["d", "A", "B"], [[p.d, p.A, p.B] for p in pairs]), False


def _cmd_pell(args) -> tuple[dict, Table, bool]:
    t0 = time.perf_counter()
    fam = pell_family(args.count)
    env = build_envelope(
        task="pell-family",
        params={"count": args.count},
        verified=None,
        witness_sample=[
            {"u": p.u, "v": p.v, "A": p.A, "B": p.B} for p in fam.pairs[: args.sample_size]
        ],
        stats={"returned": len(fam.pairs), "truncated": fam.truncated},
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
    )
    return env, Table(["u", "v", "A", "B"], [[p.u, p.v, p.A, p.B] for p in fam.pairs]), False


def _cmd_cubefull_diff(args) -> tuple[dict, Table, bool]:
    t0 = time.perf_counter()
    pairs = diff_cubefull_search(args.d, args.limit)
    env = build_envelope(
        task="cubefull-gap",
        params={"d": args.d, "limit": args.limit},
        verified=None,
        witness_sample=[{"d": p.d, "A": p.A, "B": p.B} for p in pairs[: args.sample_size]],
        stats={"count": len(pairs)},
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
    )
    return env, Table(["d", "A", "B"], [[p.d, p.A, p.B] for p in pairs]), False


def _cmd_conj41(args) -> tuple[dict, Table, bool]:
    t0 = time.perf_counter()
    rep = power_of_two_gap_report(args.rmax, args.limit)
    bad = [row.r for row in rep.rows if not row.matches]
    env = build_envelope(
        task="power-of-two-gaps",
        params={"rmax": args.rmax, "limit": args.limit},
        verified=rep.consistent,
        counterexamples=bad,
        counterexample_total=len(bad),
        witness_sample=[
            {"r": row.r, "d": row.d, "pairs": [[p.A, p.B] for p in row.pairs]}
            for row in rep.rows[: args.sample_size]
        ],
        stats={
            "rows": [
                {
                    "r": row.r,
                    "d": row.d,
                    "pairs": [[p.A, p.B] for p in row.pairs],
                    "expected": [list(e) for e in row.expected],
                    "matches": row.matches,
                }
                for row in rep.rows
            ]
        },
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
    )
    rows = [[p.d, p.A, p.B] for row in rep.rows for p in row.pairs]
    return env, Table(["d", "A", "B"], rows), not rep.consistent


def _cmd_conj42(args) -> tuple[dict, Table, bool]:
    t0 = time.perf_counter()
    rep = prime_gap_report(args.limit, nmax=args.nmax, search_cap=args.cap)
    bad = [row.d for row in rep.rows if row.count == 0]
    env = build_envelope(
        task="prime-gaps",
        params={"limit": args.limit, "nmax": args.nmax, "cap": args.cap},
        verified=rep.all_nonempty,
        counterexamples=bad,
        counterexample_total=len(bad),
        witness_sample=[
            {"d": row.d, "count": row.count, "first": list(row.first) if row.first else None}
            for row in rep.rows[: args.sample_size]
        ],
        stats={
            "rows": [
                {"d": row.d, "count": row.count, "first": list(row.first) if row.first else None}
                for row in rep.rows
            ],
            "least_empty": rep.least_empty,
            "least_empty_prime": rep.least_empty_prime,
        },
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
    )
    rows = [[row.d, row.first[0], row.first[1]] for row in rep.rows if row.first]
    return env, Table(["d", "A", "B"], rows), not rep.all_nonempty


def _dispatch(args) -> tuple[dict, Table | None, bool]:
    if args.max_counterexamples < 0 or args.sample_size < 0:
        raise UsageError("--max-counterexamples and --sample-size must be >= 0")
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    if args.cmd == "figurate":
        return _cmd_figurate(args)
    if args.cmd == "twins":
        return _cmd_twins(args)
    if args.cmd in ("sum2", "prime-proper", "goldbach"):
        hi = args.hi
        table = generate_figurate(hi, include_one=True)
        if args.cmd == "sum2":
            left = DomainSpec("figurate", args.include_one)
            right = DomainSpec("figurate", args.include_one)
            even_only, task = False, "sum-of-two"
        elif args.cmd == "prime-proper":
            left = DomainSpec("primes")
            right = DomainSpec("proper", args.include_one)
            even_only, task = False, "prime-plus-proper"
        else:
            left = DomainSpec("primes")
            right = DomainSpec("primes")
            even_only, task = True, "goldbach-even"
        rep = verify_additive(
            args.lo,
            args.hi,
            left,
            right,
            table,
            jobs=jobs,
            even_only=even_only,
            max_counterexamples=args.max_counterexamples,
            sample_size=args.sample_size,
            task=task,
        )
        return _verification_env(rep)
    if args.cmd == "linear":
        table = generate_figurate(args.hi, include_one=True)
        rep = verify_linear(
            args.a,
            args.b,
            args.lo,
            args.hi,
            DomainSpec(args.domain, args.include_one),
            table,
            jobs=jobs,
            max_counterexamples=args.max_counterexamples,
            sample_size=args.sample_size,
        )
        return _verification_env(rep)
    if args.cmd == "solve":
        return _cmd_solve(args)
    if args.cmd == "triangular":
        return _cmd_triangular(args)
    if args.cmd == "families":
        return _cmd_families(args)
    if args.cmd == "errata":
        return _cmd_errata(args)
    if args.cmd == "curve":
        return _cmd_curve(args)
    if args.cmd == "powerful-pairs":
        return _cmd_powerful_pairs(args)
    if args.cmd == "pell":
        return _cmd_pell(args)
    if args.cmd == "cubefull-diff":
        return _cmd_cubefull_diff(args)
    if args.cmd == "conj41":
        return _cmd_conj41(args)
    if args.cmd == "conj42":
        return _cmd_conj42(args)
    raise UsageError(f"unknown command {args.cmd!r}")


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        env, table, flagged = _dispatch(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticGuardError as exc:
        print(f"arithmetic guard: {exc}", file=sys.stderr)
        return 3
    payload = render_report(env, args.format, table)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
    return 1 if flagged else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
