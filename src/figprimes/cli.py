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

from .additive import DOMAIN_KINDS, DomainSpec, verify_additive, verify_linear
from .curves import (
    _KINDS,
    CORRECTION_NOTES,
    CurvePoint,
    _model,
    cubic_model,
    emit_samples,
    lift_point,
    lift_to_solutions,
    quartic_model,
    search_integral_points,
)
from .equations import (
    EquationInstance,
    ErrataEntry,
    enumerate_p_minus1_triangular,
    load_published_catalog,
    reconcile,
    solve_equation,
    special_family_checks,
    theorem_errata,
)
from .errors import ArithmeticGuardError, ResourceLimitError, UsageError
from .figurate import figurate_stats, figurate_witness, generate_figurate, twin_figurate
from .intkernel import U63_MAX
from .powerful import (
    consecutive_powerful_pairs,
    diff_cubefull_search,
    pell_family,
    power_of_two_gap_report,
    prime_gap_report,
)
from .reporting import Table, build_envelope, int_lines, render_report

JOBS_ENV = "FIGPRIMES_JOBS"


def _default_jobs() -> int:
    """The setting unclamped, so that ``_execute`` checks it as it checks
    ``--jobs``; 1 if it is unset or not an integer."""
    try:
        return int(os.environ.get(JOBS_ENV, "1"))
    except ValueError:
        return 1


def _int(flag: str, **kw) -> tuple[str, dict]:
    """An integer option, required unless it has a default."""
    return flag, dict(type=int, required="default" not in kw, **kw)


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The command line parser.  Every subcommand is declared, but when
    ``only`` names one, only its subparser is added, with a usage line that
    still lists them all: ``run`` parses one command, and building all
    sixteen costs more than some of them take to run.  Any other ``only``
    adds them all."""
    # option groups: each adds its options to a subparser
    def common(p):
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--out", metavar="PATH", default=None)
        p.add_argument("--jobs", type=int, default=_default_jobs(),
                       help=f"default ${JOBS_ENV} or 1")
        p.add_argument("--max-counterexamples", type=int, default=100)
        p.add_argument("--sample-size", type=int, default=10)

    def ones(p):
        grp = p.add_mutually_exclusive_group()
        grp.add_argument("--include-one", dest="include_one", action="store_true", default=True)
        grp.add_argument("--exclude-one", dest="include_one", action="store_false")

    def span(p):
        p.add_argument("--from", dest="lo", type=int, required=True)
        p.add_argument("--to", dest="hi", type=int, required=True)

    commands = {}

    def command(name, summary, handler, *options, groups=(), **fixed):
        """Declare one subcommand: its own options are (flag, ``add_argument``
        keywords) pairs, and ``fixed`` holds argument values it does not take."""
        commands[name] = summary, handler, options, groups, fixed

    command("figurate", "generate, query or dump the set", _figurate,
            _int("--limit", default=None), _int("--member", default=None, metavar="N"),
            ("--stats", dict(action="store_true")), ("--dump", dict(metavar="PATH", default=None)),
            groups=(ones,))
    command("twins", "pairs (f, f+2) inside the set", _twins, _int("--limit"))
    # additive scans: the task and, but for linear, (left domain, right domain,
    # even targets only); goldbach takes no --include-one, its primes never hold 1
    command("sum2", "every n as member + member", _scan, groups=(ones, span),
            task="sum-of-two", scan=("figurate", "figurate", False))
    command("prime-proper", "every n as prime + proper member", _scan, groups=(ones, span),
            task="prime-plus-proper", scan=("primes", "proper", False))
    command("goldbach", "every even n as prime + prime", _scan, groups=(span,),
            task="goldbach-even", scan=("primes", "primes", True), include_one=True)
    command("linear", "every n as a*x + b*y", _scan, _int("--a"), _int("--b"),
            ("--domain", dict(choices=DOMAIN_KINDS, default="figurate")), groups=(ones, span),
            task="linear-combination")
    command("solve", "all solutions of one instance", _solve,
            _int("--i"), _int("--j"), _int("--k"), _int("--bound", default=10**12))
    command("triangular", "primes p with p - 1 = C(q, 2)", _triangular, _int("--limit"))
    command("families", "constrained one-parameter families", _families,
            _int("--bound", default=10**9))
    command("errata", "recompute the published catalog", _errata, _int("--bound", default=10**12))
    command("curve", "plane-curve models and point search", _curve,
            ("action", dict(choices=("model", "search", "lift", "samples"))),
            ("--kind", dict(choices=tuple(_KINDS), required=True)),
            _int("--sign", choices=(1, -1)), _int("--k"),
            _int("--xmax", default=None), _int("--X", default=None), _int("--Y", default=None),
            _int("--xlo", default=-50), _int("--xhi", default=50), _int("--step", default=1))
    command("powerful-pairs", "consecutive square-full pairs", _powerful_pairs, _int("--limit"))
    command("pell", "the Pell-recurrence pair family", _pell, _int("--count"))
    command("cubefull-diff", "pairs A - B = d, A*B cube-full", _cubefull_diff,
            _int("--d"), _int("--limit"))
    command("conj41", "gaps d = 2^r against the expected pairs", _conj41,
            _int("--rmax"), _int("--limit"))
    command("conj42", "per-gap pair counts and least empty gap", _conj42,
            _int("--limit"), _int("--nmax", default=28), _int("--cap", default=64))

    parser = argparse.ArgumentParser(prog="figprimes", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    if only in commands:
        # the metavar argparse would derive from all the choices
        sub.metavar = "{" + ",".join(commands) + "}"
        commands = {only: commands[only]}
    for name, (summary, handler, options, groups, fixed) in commands.items():
        p = sub.add_parser(name, help=summary)
        for add in (common, *groups):
            add(p)
        own = [p.add_argument(flag, **kw).dest for flag, kw in options]
        p.set_defaults(handler=handler, own=own, **fixed)
    return parser


# A handler takes the parsed arguments, their --jobs checked, and returns its
# report's envelope fields but ``elapsed_ms`` (those it leaves out take their
# empty values) and its csv table.  ``args.params`` holds the options its
# ``command`` call declares, not those of its option groups, with their values
# in declaration order; ``_execute`` makes it the report's ``params`` unless the
# handler builds its own, as figurate, curve and the four scans do.  The
# library returns numbers and arrays; naming a report and rendering it happen
# here.  A check report takes its verdict fields from ``_verdict``: the failing
# items are its counterexamples, and it is verified iff there are none.
# ``verified`` False makes the exit code 1.  Handlers call the library through
# this module's globals, so wrapping a name here wraps it for every command.

Result = tuple[dict, Table]


def _listing(args, task: str, header: list[str], rows: list | np.ndarray) -> Result:
    """A report that lists rows, a list or an integer array: its fields key
    the first few by the header and count them, and its table is the rows."""
    sample = rows[: args.sample_size]
    if isinstance(sample, np.ndarray):
        sample = sample.tolist()
    fields = dict(
        task=task,
        witness_sample=[dict(zip(header, r)) for r in sample],
        stats={"count": len(rows)},
    )
    return fields, Table(header, rows)


def _verdict(failing: list) -> dict:
    """Verdict fields of a check report: the failing items are the
    counterexamples, and the report is verified iff there are none."""
    return dict(verified=not failing, counterexamples=failing, counterexample_total=len(failing))


def _figurate(args) -> Result:
    if args.member is not None and (args.limit is not None or args.stats or args.dump is not None):
        raise UsageError("--member takes none of --limit, --stats and --dump")
    if args.stats and args.dump is not None:
        raise UsageError("--stats and --dump cannot be combined")
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
        return fields, Table(["value", "p", "a", "i"], [list(s.values()) for s in sample])
    if args.limit is None:
        raise UsageError("figurate needs --limit unless --member is given")
    params = {"limit": args.limit, "include_one": args.include_one}
    table = generate_figurate(args.limit, include_one=args.include_one)
    if args.stats:
        stats = vars(figurate_stats(table))
        fields = dict(task="figurate-stats", params=params, stats=stats)
        return fields, Table(["key", "value"], [list(r) for r in stats.items()])
    rows = table.values
    if args.dump is not None:
        rows = int_lines(rows)  # the dump is the csv body: render it once for both
        with open(args.dump, "w", encoding="ascii") as fh:
            fh.write(rows)
    dumped = table.count if args.dump is not None else None
    fields = dict(
        task="figurate-generate",
        params=params,
        witness_sample=[{"value": v} for v in table.values[: args.sample_size].tolist()],
        stats={"count": table.count, "dumped": dumped, "dump_path": args.dump},
    )
    return fields, Table(["value"], rows)


def _twins(args) -> Result:
    return _listing(args, "twin-members", ["f", "g"], twin_figurate(args.limit))


def _label(spec: DomainSpec) -> str:
    """A scan domain as its report's params name it."""
    return f"{spec.kind}-no-one" if spec.drops_one else spec.kind


def _scan(args) -> Result:
    """sum2, prime-proper, goldbach and linear.  The scan generates its set
    inside the timed region, so ``elapsed_ms`` counts it."""
    counts = dict(
        jobs=args.jobs, max_counterexamples=args.max_counterexamples, sample_size=args.sample_size
    )
    if args.cmd == "linear":
        domain = DomainSpec(args.domain, args.include_one)
        params = {**args.params, "domain": _label(domain)}
        rep = verify_linear(args.a, args.b, args.lo, args.hi, domain, **counts)
    else:
        *kinds, even_only = args.scan
        left, right = (DomainSpec(kind, args.include_one) for kind in kinds)
        params = {"left": _label(left), "right": _label(right), "even_only": even_only}
        rep = verify_additive(args.lo, args.hi, left, right, even_only=even_only, **counts)
    # the report's fields are the envelope's, with the range in two
    fields = dict(vars(rep), task=args.task, params=params, range=[rep.lo, rep.hi])
    del fields["lo"], fields["hi"]
    rows: list[list[object]] = [["witness", w["n"], w["x"], w["y"]] for w in rep.witness_sample]
    rows += [["counterexample", n, "", ""] for n in rep.counterexamples]
    return fields, Table(["kind", "n", "x", "y"], rows)


def _errata_fields(entry: ErrataEntry) -> dict:
    """An errata entry as a report lists it, less its notes."""
    return {
        "instance": list(entry.instance),
        "status": entry.status,
        "published": [list(t) for t in entry.published],
        "computed": [list(t) for t in entry.computed],
    }


def _solve(args) -> Result:
    inst = EquationInstance(args.i, args.j, args.k)
    sols = solve_equation(inst, args.bound)
    fields = dict(
        task="solve",
        witness_sample=[
            {"p": s.p, "a": s.a, "q": s.q, "b": s.b, "left": s.left, "right": s.right}
            for s in sols
        ],
        stats={"solutions": len(sols)},
    )
    published = load_published_catalog().get(inst.key)
    if published is not None:
        entry = reconcile(inst, published, [s.pqab for s in sols])
        fields["verified"] = entry.status == "MATCH"
        fields["errata"] = [_errata_fields(entry)]
    rows = [[s.p, s.q, s.a, s.b, s.left, s.right] for s in sols]
    return fields, Table(["p", "q", "a", "b", "left", "right"], rows)


def _triangular(args) -> Result:
    rows = enumerate_p_minus1_triangular(args.limit)
    return _listing(args, "triangular-predecessors", ["p", "q"], rows)


def _families(args) -> Result:
    sections = special_family_checks(args.bound)
    fields = dict(
        task="special-families",
        **_verdict([s.name for s in sections if not s.matches]),
        stats={
            s.name: {
                "solutions": [list(t) for t in s.solutions],
                "expected": [list(t) for t in s.expected],
                "matches": s.matches,
            }
            for s in sections
        },
    )
    rows = [[s.name, str(tuple(t))] for s in sections for t in s.solutions]
    return fields, Table(["family", "solution"], rows)


def _curve_corrections() -> list[dict]:
    shown = (("curve-constant", cubic_model(-1, 1), ("cubic", -1, 1)),
             ("curve-map", quartic_model(1, 1), ("quartic", "map")),
             ("curve-variable", quartic_model(1, 2), ("quartic", "shift", 2)))
    return [{"kind": kind, "curve": model.equation_text(), "note": CORRECTION_NOTES[key]}
            for kind, model, key in shown]


def _errata(args) -> Result:
    entries = theorem_errata(args.bound)
    bad = [list(e.instance) for e in entries if e.status != "MATCH"]
    fields = dict(
        task="catalog-reconciliation",
        **_verdict(bad),
        stats={"instances": len(entries), "discrepancies": len(bad)},
        errata=[{**_errata_fields(e), "notes": e.notes} for e in entries] + _curve_corrections(),
    )
    rows = [
        [
            "/".join(str(v) for v in e.instance),
            e.status,
            " ".join(str(tuple(t)) for t in e.published) or "none",
            " ".join(str(tuple(t)) for t in e.computed) or "none",
        ]
        for e in entries
    ]
    return fields, Table(["instance", "status", "published", "computed"], rows)


def _curve(args) -> Result:
    model = _model(args.kind, args.sign, args.k)
    params = {"kind": model.kind, "sign": model.s, "k": model.k,
              "instance": list(model.instance.key)}
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
        return fields, Table(["key", "value"], rows)
    if args.action == "search":
        xmax = args.xmax if args.xmax is not None else _KINDS[model.kind].window
        points = search_integral_points(model, xmax)
        sols = lift_to_solutions(model, points)
        fields = dict(
            task="curve-search",
            params={**params, "xmax": xmax},
            witness_sample=[{"X": pt.X, "Y": pt.Y} for pt in points],
            stats={"points": len(points), "solutions": [list(s.pqab) for s in sols]},
        )
        return fields, Table(["X", "Y"], [[pt.X, pt.Y] for pt in points])
    if args.action == "lift":
        if args.X is None or args.Y is None:
            raise UsageError("curve lift needs --X and --Y")
        pt = CurvePoint(args.X, args.Y)
        lifted = lift_point(model, pt)
        sols = lift_to_solutions(model, [pt])
        fields = dict(
            task="curve-lift",
            params={**params, "X": args.X, "Y": args.Y},
            witness_sample=[] if lifted is None else [{"x": lifted[0], "y": lifted[1]}],
            stats={"lifted": lifted is not None, "solutions": [list(s.pqab) for s in sols]},
        )
        return fields, Table(["x", "y"], [list(lifted)] if lifted else [])
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
    return fields, Table(
        ["X", "rhs", "is_square", "Y"],
        [[r[0], r[1], str(r[2]).lower(), "" if r[3] is None else r[3]] for r in rows],
    )


def _powerful_pairs(args) -> Result:
    rows = [[p.d, p.A, p.B] for p in consecutive_powerful_pairs(args.limit)]
    return _listing(args, "consecutive-powerful", ["d", "A", "B"], rows)


def _cubefull_diff(args) -> Result:
    rows = [[p.d, p.A, p.B] for p in diff_cubefull_search(args.d, args.limit)]
    return _listing(args, "cubefull-gap", ["d", "A", "B"], rows)


def _pell(args) -> Result:
    fam = pell_family(args.count)
    rows = [[p.u, p.v, p.A, p.B] for p in fam.pairs]
    fields, table = _listing(args, "pell-family", ["u", "v", "A", "B"], rows)
    fields["stats"] = {"returned": len(fam.pairs), "truncated": fam.truncated}
    return fields, table


def _conj41(args) -> Result:
    gaps = power_of_two_gap_report(args.rmax, args.limit)
    found = [
        {"r": row.r, "d": row.d, "pairs": [[p.A, p.B] for p in row.pairs]} for row in gaps
    ]
    fields = dict(
        task="power-of-two-gaps",
        **_verdict([row.r for row in gaps if not row.matches]),
        witness_sample=found[: args.sample_size],
        stats={
            "rows": [
                {**f, "expected": [list(e) for e in row.expected], "matches": row.matches}
                for f, row in zip(found, gaps)
            ]
        },
    )
    rows = [[p.d, p.A, p.B] for row in gaps for p in row.pairs]
    return fields, Table(["d", "A", "B"], rows)


def _conj42(args) -> Result:
    rep = prime_gap_report(args.limit, nmax=args.nmax, search_cap=args.cap)
    found = [
        {"d": row.d, "count": row.count, "first": list(row.first) if row.first else None}
        for row in rep.rows
    ]
    fields = dict(
        task="prime-gaps",
        **_verdict([row.d for row in rep.rows if row.count == 0]),
        witness_sample=found[: args.sample_size],
        stats={
            "rows": found,
            "least_empty": rep.least_empty,
            "least_empty_prime": rep.least_empty_prime,
        },
    )
    rows = [[row.d, row.first[0], row.first[1]] for row in rep.rows if row.first]
    return fields, Table(["d", "A", "B"], rows)


def _execute(args) -> Result:
    """Run the subcommand's handler and wrap its fields in the envelope, with
    ``args.params`` as their default ``params`` and its wall time as ``elapsed_ms``."""
    if args.max_counterexamples < 0 or args.sample_size < 0:
        raise UsageError("--max-counterexamples and --sample-size must be >= 0")
    if args.jobs < 1:
        raise UsageError("jobs must be >= 1")
    args.params = {name: getattr(args, name) for name in args.own}
    t0 = time.perf_counter()
    fields, table = args.handler(args)
    fields.setdefault("params", args.params)
    env = build_envelope(**fields, elapsed_ms=int((time.perf_counter() - t0) * 1000))
    return env, table


def run(argv: list[str]) -> int:
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        env, table = _execute(args)
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
    return 1 if env["verified"] is False else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
