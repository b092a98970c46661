"""End-to-end command line checks: exit codes, envelope shape, csv payloads,
byte-level determinism across worker counts, and random argv over every
subcommand's options."""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from figprimes import (
    DomainSpec,
    generate_figurate,
    theorem_errata,
    twin_figurate,
    verify_additive,
)
from figprimes.cli import build_parser, run
from figprimes.reporting import ENVELOPE_KEYS, Table, build_envelope, render_report

KEYS_NO_ERRATA = [k for k in ENVELOPE_KEYS if k != "errata"]
DATA = Path(__file__).parent / "data"
#: integers past each ceiling: the sieve budget, the solver's 2^62 bound, 63 and 64 bits
GUARDS = (2**28 + 1, 2**62 + 1, 2**63 - 1, 2**63, 10**19, -(2**63))
#: an option's integer: small, or one time in eight a guard, so that most
#: draws of a command's several integers still run it
INTS = st.integers(0, 7).flatmap(
    lambda k: st.sampled_from(GUARDS) if k == 0 else st.integers(-3, 2000)
)


def run_cli(argv, tmp_path, name="out"):
    path = tmp_path / f"{name}"
    code = run(argv + ["--out", str(path)])
    return code, path


def run_json(argv, tmp_path, name="out.json"):
    code, path = run_cli(argv, tmp_path, name)
    return code, json.loads(path.read_text())


def run_csv(argv, tmp_path, name="out.csv"):
    code, path = run_cli(argv + ["--format", "csv"], tmp_path, name)
    return code, path.read_text().splitlines()


def csv_writer_bytes(header, rows) -> bytes:
    """What ``csv.writer`` writes for a header and a list of rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


def normalized(path) -> str:
    env = json.loads(path.read_text())
    env["elapsed_ms"] = 0
    return json.dumps(env, indent=2)


class TestExitCodes:
    def test_clean_run_is_zero(self, tmp_path):
        code, env = run_json(["figurate", "--limit", "100", "--stats"], tmp_path)
        assert code == 0
        assert env["task"] == "figurate-stats"

    def test_counterexamples_flip_to_one(self, tmp_path):
        code, env = run_json(
            ["linear", "--a", "1", "--b", "2", "--domain", "primes",
             "--from", "2", "--to", "50"],
            tmp_path,
        )
        assert code == 1
        assert env["verified"] is False
        assert 20 in env["counterexamples"]

    def test_catalog_discrepancy_flips_to_one(self, tmp_path):
        code, env = run_json(["solve", "--i", "3", "--j", "2", "--k", "1"], tmp_path)
        assert code == 1
        assert env["verified"] is False
        assert env["errata"][0]["status"] == "DISCREPANCY"

    def test_catalog_match_is_zero(self, tmp_path):
        code, env = run_json(
            ["solve", "--i", "2", "--j", "1", "--k", "1", "--bound", "1000000"],
            tmp_path,
        )
        assert code == 0
        assert env["verified"] is True
        assert env["errata"][0]["status"] == "MATCH"

    def test_usage_problems_are_two(self, tmp_path, capsys):
        assert run(["twins"]) == 2                      # missing --limit
        assert run(["no-such-command"]) == 2
        assert run(["figurate"]) == 2                   # neither --limit nor --member
        assert run(["sum2", "--from", "2", "--to", "10", "--jobs", "0"]) == 2
        # every command checks --jobs, not only the scans that use it
        assert run(["pell", "--count", "2", "--jobs", "-3"]) == 2
        assert run(["solve", "--i", "2", "--j", "1", "--k", "1", "--bound", "100",
                    "--jobs", "0"]) == 2
        assert run(["figurate", "--member", "0"]) == 2
        # an even-k unit solve past the sieve budget
        assert run(["solve", "--i", "1", "--j", "1", "--k", "2", "--bound", "300000000"]) == 2
        # families and errata past the solver's value_bound <= 2^62 check
        for cmd in ("errata", "families"):
            assert run([cmd, "--bound", "5000000000000000000"]) == 2, cmd
        # triangular names its own limit, the solver's bound plus one
        capsys.readouterr()
        assert run(["triangular", "--limit", "4611686018427387906"]) == 2
        assert capsys.readouterr().err == "error: limit must be in [2, 2^62 + 1]\n"
        # negative counts would slice from the end of a list
        assert run(["curve", "samples", "--kind", "cubic", "--sign", "1", "--k", "1",
                    "--xlo", "-2", "--xhi", "1", "--sample-size", "-1"]) == 2
        assert run(["sum2", "--from", "2", "--to", "100", "--exclude-one",
                    "--max-counterexamples", "-1"]) == 2
        assert run(["linear", "--a", "2", "--b", "3", "--from", "1", "--to", "100",
                    "--sample-size", "-3"]) == 2
        # figurate options its mode would ignore; no dump file is written
        dump = tmp_path / "ignored.txt"
        for argv in (["figurate", "--member", "17", "--limit", "100"],
                     ["figurate", "--member", "17", "--stats"],
                     ["figurate", "--member", "17", "--dump", str(dump)],
                     ["figurate", "--member", "17", "--limit", "5", "--dump", str(dump)],
                     ["figurate", "--limit", "100", "--stats", "--dump", str(dump)]):
            assert run(argv) == 2, argv
            assert not dump.exists(), argv
        # an empty --dump path is a path like any other, and no file opens under it
        for argv in (["figurate", "--limit", "10", "--dump", ""],
                     ["figurate", "--limit", "10", "--stats", "--dump", ""],
                     ["figurate", "--member", "17", "--dump", ""]):
            assert run(argv) == 2, argv
        # an --out or --dump path in a missing directory: one line on stderr
        missing = str(tmp_path / "missing" / "x")
        capsys.readouterr()
        for argv in (["figurate", "--limit", "100", "--dump", missing],
                     ["sum2", "--from", "2", "--to", "100", "--out", missing]):
            assert run(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_large_binomial_index_finishes(self, tmp_path):
        # binomial_arg starts at n = i for a target <= i, with no i! * target
        for i in ("100000", "10000000"):
            code, env = run_json(["solve", "--i", i, "--j", "1", "--k", "1",
                                  "--bound", "100"], tmp_path)
            assert code == 0 and env["stats"] == {"solutions": 0}, i
        # the walk to C(n, 10^9) <= 101 still needs a sieve of 10^9 + 1 entries
        assert run(["solve", "--i", "1000000000", "--j", "1", "--k", "1",
                    "--bound", "100"]) == 2

    def test_equal_indices_need_no_sieve_past_k(self, tmp_path):
        # i = j >= 2 walks only the subtrahends up to k, so a bound of 2^62
        # needs no sieve of 3,037,000,501 entries
        code, env = run_json(["solve", "--i", "2", "--j", "2", "--k", "1",
                              "--bound", str(2**62)], tmp_path)
        assert code == 0 and env["stats"] == {"solutions": 0}

    def test_powerful_searches_keep_the_sieve_ceiling(self, tmp_path):
        # no powerful search sieves up to its limit, yet each stops where the
        # 2^28-entry sieve budget does
        for argv in (["powerful-pairs"], ["cubefull-diff", "--d", "7"],
                     ["conj41", "--rmax", "3"], ["conj42"]):
            for limit in (300000000, 1 << 28):
                assert run(argv + ["--limit", str(limit)]) == 2, (argv, limit)
            code, _ = run_json(argv + ["--limit", str((1 << 28) - 1)], tmp_path)
            assert code == 0, argv

    def test_arithmetic_guard_is_three(self, capsys):
        code = run(
            ["curve", "samples", "--kind", "quartic", "--sign", "1", "--k", "1",
             "--xlo", "0", "--xhi", "65536"]
        )
        assert code == 3
        # k beyond 63 bits would take primality tests past 2^64
        for i in ("1", "2"):
            assert run(["solve", "--i", i, "--j", "1",
                        "--k", "10000000000000000000000001", "--bound", "100"]) == 3
        # so must the binomial indices, before any sieve is sized
        for i, j in (("9223372036854775808", "1"), ("1", "9223372036854775808")):
            assert run(["solve", "--i", i, "--j", j, "--k", "1", "--bound", "100"]) == 3
        # so must the constant term of a curve model
        assert run(["curve", "model", "--kind", "cubic", "--sign", "1",
                    "--k", "10000000000000000000000"]) == 3
        capsys.readouterr()
        # linear coefficients and their threshold must fit in 63 bits too
        for a, b in ((10**30, 10**30 + 1), (1, 2**63)):
            argv = ["linear", "--a", str(a), "--b", str(b), "--from", "1", "--to", "100"]
            assert run(argv) == 3
            assert capsys.readouterr().err == (
                "arithmetic guard: a, b and (a-1)(b-1) must not exceed 2^63 - 1\n"
            )

    def test_help_exits_zero(self, capsys, monkeypatch):
        # argparse wraps help to $COLUMNS - 2
        monkeypatch.setenv("COLUMNS", "80")
        assert run(["--help"]) == 0
        assert capsys.readouterr().out == (DATA / "cli_help.txt").read_text()


class TestParser:
    """``run`` adds only the subparser of the command it runs, and prints
    every usage and error text as the full parser does."""

    @pytest.fixture
    def added(self, monkeypatch):
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def spy(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        return names

    def test_run_adds_one_subparser(self, tmp_path, added):
        code, env = run_json(["pell", "--count", "1"], tmp_path)
        assert code == 0 and env["task"] == "pell-family"
        assert added == ["pell"]
        added.clear()
        build_parser()
        assert len(added) == 16

    def test_run_constructs_two_parsers(self, tmp_path, monkeypatch):
        # the top parser and the one subparser: option groups add their
        # options to the subparser, with no parent parser of their own
        made = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            made.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        code, env = run_json(["solve", "--i", "1", "--j", "1", "--k", "2", "--bound", "100"],
                             tmp_path)
        assert code == 0 and env["task"] == "solve"
        assert len(made) == 2

    @pytest.mark.parametrize("argv", [
        [],
        ["bogus"],
        ["sum2", "--from", "2", "--to", "9", "extra"],
        ["linear", "--a", "x"],
        ["curve", "bogus", "--kind", "cubic"],
    ])
    def test_errors_match_the_full_parser(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        full = capsys.readouterr()
        assert run(argv) == exc.value.code == 2
        assert capsys.readouterr() == full
        assert full.err.startswith("usage: figprimes ")


class TestEnvelope:
    def test_key_order_without_errata(self, tmp_path):
        _, path = run_cli(["twins", "--limit", "100"], tmp_path)
        env = json.loads(path.read_text())
        assert list(env) == KEYS_NO_ERRATA

    def test_key_order_with_errata(self, tmp_path):
        _, path = run_cli(["solve", "--i", "2", "--j", "3", "--k", "2"], tmp_path)
        env = json.loads(path.read_text())
        assert list(env) == list(ENVELOPE_KEYS)

    def test_catalog_free_instance_has_no_errata(self, tmp_path):
        code, env = run_json(["solve", "--i", "2", "--j", "2", "--k", "3"], tmp_path)
        assert code == 0
        assert env["verified"] is None
        assert "errata" not in env

    def test_params_never_leak_jobs(self, tmp_path):
        _, env = run_json(
            ["sum2", "--from", "2", "--to", "100", "--jobs", "4"], tmp_path
        )
        assert "jobs" not in env["params"]
        assert env["range"] == [2, 100]
        assert env["verified"] is True

    def test_domain_labels(self, tmp_path):
        # primes and prime powers never hold 1, so only the other domains
        # name its exclusion
        excluded = {"primes": "primes", "prime-powers": "prime-powers",
                    "figurate": "figurate-no-one", "proper": "proper-no-one"}
        for kind, label in excluded.items():
            argv = ["linear", "--a", "1", "--b", "2", "--from", "1", "--to", "50", "--domain", kind]
            for flag, name in (("--include-one", kind), ("--exclude-one", label)):
                _, env = run_json(argv + [flag], tmp_path)
                assert env["task"] == "linear-combination"
                assert env["params"] == {"a": 1, "b": 2, "domain": name}, (kind, flag)

    def test_scan_elapsed_counts_generation(self, tmp_path, monkeypatch):
        def slow_generate(*args, **kwargs):
            time.sleep(0.05)
            return generate_figurate(*args, **kwargs)

        monkeypatch.setattr("figprimes.additive.generate_figurate", slow_generate)
        span = ["--from", "4", "--to", "100"]
        for argv in (["sum2"], ["prime-proper"], ["goldbach"], ["linear", "--a", "1", "--b", "2"]):
            _, env = run_json(argv + span, tmp_path)
            assert env["elapsed_ms"] >= 50, argv

    def test_one_target_linear_range(self, tmp_path):
        # the one target lies below the floor a + b = 3
        argv = ["linear", "--a", "1", "--b", "2", "--from", "1", "--to", "1"]
        code, env = run_json(argv, tmp_path)
        assert code == 0 and env["verified"] is True
        assert (env["stats"]["scanned"], env["stats"]["below_floor"]) == (1, 1)

    def test_scan_report_matches_library(self, tmp_path):
        _, env = run_json(["prime-proper", "--from", "6", "--to", "1000"], tmp_path)
        rep = verify_additive(6, 1000, DomainSpec("primes"), DomainSpec("proper"))
        assert env["stats"] == rep.stats

    def test_verification_witnesses(self, tmp_path):
        _, env = run_json(["sum2", "--from", "2", "--to", "50"], tmp_path)
        first = env["witness_sample"][0]
        assert (first["n"], first["x"], first["y"]) == (2, 1, 1)
        assert first["x_cert"] == {"kind": "binomial", "p": 2, "a": 1, "i": 2}


class TestErrataCommand:
    def test_errata_reports_and_flags(self, tmp_path):
        code, env = run_json(["errata", "--bound", "100000"], tmp_path)
        assert code == 1
        assert env["verified"] is False
        assert env["counterexamples"] == [[3, 2, 1]]
        assert env["stats"] == {"instances": 11, "discrepancies": 1}
        statuses = {
            tuple(e["instance"]): e["status"]
            for e in env["errata"]
            if e.get("instance")
        }
        assert statuses[(3, 2, 1)] == "DISCREPANCY"
        assert sum(1 for s in statuses.values() if s == "MATCH") == 10
        kinds = [e["kind"] for e in env["errata"] if "kind" in e]
        assert kinds == ["curve-constant", "curve-map", "curve-variable"]

    def test_solve_prints_the_errata_entry(self, tmp_path):
        # one reconciliation rule: solve prints the catalog entry less its notes
        for e in theorem_errata(10**6):
            i, j, k = (str(v) for v in e.instance)
            _, env = run_json(["solve", "--i", i, "--j", j, "--k", k, "--bound", "1000000"],
                              tmp_path)
            assert env["errata"] == [{
                "instance": list(e.instance),
                "status": e.status,
                "published": [list(t) for t in e.published],
                "computed": [list(t) for t in e.computed],
            }]
            assert env["verified"] is (e.status == "MATCH")


class TestCsvPayloads:
    def test_twins(self, tmp_path):
        code, lines = run_csv(["twins", "--limit", "10"], tmp_path)
        assert code == 0
        assert lines[0] == "f,g"
        assert {"2,4", "3,5", "5,7", "7,9"} <= set(lines[1:])

    def test_powerful_pairs(self, tmp_path):
        _, lines = run_csv(["powerful-pairs", "--limit", "10000"], tmp_path)
        assert lines[0] == "d,A,B"
        assert lines[1] == "1,9,8"
        assert lines[-1] == "1,9801,9800"

    def test_cubefull_diff_and_conj_headers(self, tmp_path):
        _, lines = run_csv(["cubefull-diff", "--d", "7", "--limit", "100"], tmp_path)
        assert lines[0] == "d,A,B"
        assert lines[1] == "7,8,1"
        _, lines = run_csv(["conj41", "--rmax", "3", "--limit", "100"], tmp_path)
        assert lines[0] == "d,A,B"
        assert lines[1:] == ["2,4,2", "4,8,4", "8,16,8"]
        _, lines = run_csv(["conj42", "--limit", "100000"], tmp_path)
        assert lines[0] == "d,A,B"
        assert lines[1] == "2,4,2"

    def test_curve_samples(self, tmp_path):
        _, lines = run_csv(
            ["curve", "samples", "--kind", "cubic", "--sign", "1", "--k", "1",
             "--xlo", "-24", "--xhi", "-22"],
            tmp_path,
        )
        assert lines == ["X,rhs,is_square,Y", "-24,1296,true,36",
                         "-23,2809,true,53", "-22,4184,false,"]

    def test_triangular(self, tmp_path):
        code, lines = run_csv(["triangular", "--limit", "10000"], tmp_path)
        assert code == 0
        assert lines[0] == "p,q"
        assert lines[1] == "2,2"
        assert lines[-1] == "6329,113"
        assert len(lines) == 11

    def test_pell_and_solve_headers(self, tmp_path):
        _, lines = run_csv(["pell", "--count", "3"], tmp_path)
        assert lines[0] == "u,v,A,B"
        assert lines[1] == "3,2,9,8"
        _, lines = run_csv(
            ["solve", "--i", "2", "--j", "1", "--k", "1", "--bound", "1000"],
            tmp_path,
        )
        assert lines[0] == "p,q,a,b,left,right"
        assert lines[1] == "3,2,1,1,3,2"

    def test_integer_arrays_match_csv_writer(self, tmp_path):
        values = generate_figurate(10**5).values.tolist()
        _, path = run_cli(["figurate", "--limit", "100000", "--format", "csv"], tmp_path)
        assert path.read_bytes() == csv_writer_bytes(["value"], [[v] for v in values])
        # limit 3 has the one pair (1, 3); limit 2 has none, so header only
        members = set(values)
        for limit in (10**5, 3, 2):
            pairs = twin_figurate(limit)
            assert pairs.dtype == np.int64 and pairs.shape == (len(pairs), 2)
            naive = [[f, f + 2] for f in sorted(members) if f + 2 <= limit and f + 2 in members]
            assert pairs.tolist() == naive
            _, path = run_cli(["twins", "--limit", str(limit), "--format", "csv"], tmp_path)
            assert path.read_bytes() == csv_writer_bytes(["f", "g"], naive)
        assert len(pairs) == 0

    def test_stats_key_value_table(self, tmp_path):
        _, lines = run_csv(["figurate", "--limit", "40", "--stats"], tmp_path)
        assert lines[0] == "key,value"
        assert "total,26" in lines
        assert "primes,12" in lines


class TestMemberQueries:
    def test_one_included_by_default(self, tmp_path):
        code, env = run_json(["figurate", "--member", "1"], tmp_path)
        assert code == 0
        assert env["stats"]["member"] is True
        assert env["witness_sample"] == [{"value": 1, "p": 2, "a": 1, "i": 2}]

    def test_one_excluded_on_request(self, tmp_path):
        _, env = run_json(["figurate", "--member", "1", "--exclude-one"], tmp_path)
        assert env["stats"]["member"] is False
        assert env["witness_sample"] == []

    def test_non_member(self, tmp_path):
        _, env = run_json(["figurate", "--member", "15"], tmp_path)
        assert env["stats"]["member"] is False

    def test_member_with_witness(self, tmp_path):
        _, env = run_json(["figurate", "--member", "17"], tmp_path)
        assert env["stats"]["member"] is True
        w = env["witness_sample"][0]
        assert (w["p"], w["a"], w["i"]) == (17, 1, 1)


class TestDumpAndStdout:
    def test_dump_writes_values(self, tmp_path):
        dump = tmp_path / "values.txt"
        code, env = run_json(
            ["figurate", "--limit", "40", "--dump", str(dump)], tmp_path
        )
        assert code == 0
        lines = dump.read_text().split()
        assert [int(v) for v in lines[:5]] == [1, 2, 3, 4, 5]
        assert len(lines) == env["stats"]["count"] == 26

    def test_dump_round_trip(self, tmp_path):
        # the dump is the csv body, and reads back as the member values
        for limit, flag in ((2, "--include-one"), (40, "--exclude-one"), (10**5, "--include-one")):
            dump = tmp_path / f"dump-{limit}.txt"
            argv = ["figurate", "--limit", str(limit), flag]
            code, env = run_json(argv + ["--dump", str(dump)], tmp_path)
            assert code == 0
            values = generate_figurate(limit, include_one=flag == "--include-one").values
            assert [int(v) for v in dump.read_text("ascii").split()] == values.tolist()
            assert env["stats"]["dumped"] == env["stats"]["count"] == values.size
            _, path = run_cli(argv + ["--format", "csv"], tmp_path, "body.csv")
            assert b"value\n" + dump.read_bytes() == path.read_bytes()

    def test_stdout_fallback(self, capfdbinary):
        assert run(["twins", "--limit", "10", "--format", "csv"]) == 0
        out = capfdbinary.readouterr().out
        assert out.startswith(b"f,g\n")

    def test_module_entry_point(self, capsys, monkeypatch):
        # ``python -m figprimes.cli`` from a checkout that is not installed
        src = Path(__file__).resolve().parents[1] / "src"
        monkeypatch.setenv("COLUMNS", "80")

        def fresh(*argv):
            return subprocess.run(
                [sys.executable, "-m", "figprimes.cli", *argv],
                env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, timeout=120,
            )

        done = fresh("pell", "--count", "1")
        assert done.returncode == 0, done.stderr
        env = json.loads(done.stdout)
        assert env["task"] == "pell-family"
        assert env["witness_sample"] == [{"u": 3, "v": 2, "A": 9, "B": 8}]
        # a top-level option and an unknown command build the full parser,
        # in a fresh process as in this one
        names = next(a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)).choices
        assert len(names) == 16
        listings = {"--help": "{" + ",".join(names) + "}",
                    "bogus": "(choose from " + ", ".join(map(repr, names)) + ")"}
        for arg, listing in listings.items():
            done = fresh(arg)
            capsys.readouterr()
            assert run([arg]) == done.returncode == (0 if arg == "--help" else 2)
            here = capsys.readouterr()
            assert (done.stdout.decode(), done.stderr.decode()) == (here.out, here.err)
            assert listing in here.out + here.err, arg


    def test_module_entry_point_exit_codes(self):
        """``PYTHONPATH=src python -m figprimes.cli`` exits 0 with a json
        envelope, 1 where a check finds counterexamples and 2 for an
        unknown subcommand."""
        src = Path(__file__).resolve().parents[1] / "src"

        def fresh(*argv):
            return subprocess.run(
                [sys.executable, "-m", "figprimes.cli", *argv],
                env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, timeout=120,
            )

        done = fresh("sum2", "--from", "2", "--to", "100")
        assert done.returncode == 0, done.stderr
        env = json.loads(done.stdout)
        assert (env["task"], env["verified"], env["range"]) == ("sum-of-two", True, [2, 100])
        done = fresh("linear", "--a", "1", "--b", "2", "--domain", "primes",
                     "--from", "2", "--to", "50")
        assert done.returncode == 1, done.stderr
        assert 20 in json.loads(done.stdout)["counterexamples"]
        done = fresh("no-such-command")
        assert done.returncode == 2 and done.stdout == b""
        assert b"invalid choice: 'no-such-command'" in done.stderr


class TestDeterminism:
    def test_jobs_change_elapsed_only(self, tmp_path):
        base = ["sum2", "--from", "2", "--to", "20000"]
        _, one = run_cli(base + ["--jobs", "1"], tmp_path, "one.json")
        _, four = run_cli(base + ["--jobs", "4"], tmp_path, "four.json")
        assert normalized(one) == normalized(four)

    def test_jobs_env_default(self, tmp_path, monkeypatch):
        base = ["prime-proper", "--from", "6", "--to", "5000"]
        monkeypatch.setenv("FIGPRIMES_JOBS", "4")
        _, enved = run_cli(base, tmp_path, "env.json")
        monkeypatch.delenv("FIGPRIMES_JOBS")
        _, flagged = run_cli(base + ["--jobs", "4"], tmp_path, "flag.json")
        assert normalized(enved) == normalized(flagged)

    def test_bad_jobs_env_falls_back(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FIGPRIMES_JOBS", "zero")
        code, env = run_json(["sum2", "--from", "2", "--to", "100"], tmp_path)
        assert code == 0
        assert env["verified"] is True

    def test_negative_jobs_env_rejected(self, tmp_path, monkeypatch, capsys):
        # the setting meets the same check as --jobs
        monkeypatch.setenv("FIGPRIMES_JOBS", "-5")
        code, _ = run_cli(["sum2", "--from", "2", "--to", "100"], tmp_path)
        assert code == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_repeat_runs_identical(self, tmp_path):
        args = ["conj42", "--limit", "50000"]
        _, a = run_cli(args, tmp_path, "a.json")
        _, b = run_cli(args, tmp_path, "b.json")
        assert normalized(a) == normalized(b)


class TestRenderers:
    def test_text_format(self, tmp_path):
        code, path = run_cli(
            ["goldbach", "--from", "4", "--to", "1000", "--format", "text"],
            tmp_path,
        )
        assert code == 0
        text = path.read_text()
        assert text.startswith("task: goldbach-even\n")
        assert "verified: True" in text
        assert text.rstrip().splitlines()[-1].startswith("elapsed_ms:")

    def test_csv_integer_array_rows(self):
        env = build_envelope("demo", {})
        rows = [[2**63 - 1, 0], [-(2**63), -5], [1, 10]]
        for array, expected in (
            (np.array(rows, dtype=np.int64), rows),
            (np.array([2**63 - 1, 7], dtype=np.int64), [[2**63 - 1], [7]]),
            (np.zeros((0, 2), dtype=np.int64), []),
        ):
            payload = render_report(env, "csv", Table(["x", "y"], array))
            assert payload == csv_writer_bytes(["x", "y"], expected)

    def test_unknown_format_rejected(self):
        env = build_envelope("demo", {})
        with pytest.raises(ValueError):
            render_report(env, "yaml", None)


def subparsers(cmd: str | None = None) -> dict[str, argparse.ArgumentParser]:
    """The subparsers ``build_parser(cmd)`` adds, by command."""
    parser = build_parser(cmd)
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@st.composite
def argvs(draw, dump: Path) -> list[str]:
    """One subcommand's argv: its required options and a draw of the others
    but help and the output options, each with a value from its choices, a
    small integer or a guard value; ``--dump`` names ``dump``."""
    cmd = draw(st.sampled_from(sorted(subparsers())))
    argv = [cmd]
    for action in subparsers(cmd)[cmd]._actions:
        if action.dest in ("help", "format", "out"):
            continue
        if action.option_strings and not action.required and not draw(st.booleans()):
            continue
        flag = action.option_strings[:1]
        if action.nargs == 0:  # a switch
            argv += flag
            continue
        if action.choices:
            value = draw(st.sampled_from(list(action.choices)))
        elif action.type is int:
            value = draw(INTS)
        else:
            value = dump
        argv += [*flag, str(value)]
    return argv


class TestFuzz:
    """Random argv over every subcommand's declared options, in-process."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_code_in_range_and_same_in_every_format(self, tmp_path, data):
        # an exception escaping run is a traceback, and fails the test
        argv = data.draw(argvs(tmp_path / "dump.txt"), label="argv")
        codes = {fmt: run(argv + ["--format", fmt, "--out", str(tmp_path / fmt)])
                 for fmt in ("json", "csv", "text")}
        assert codes["json"] in (0, 1, 2, 3)
        assert codes["csv"] == codes["text"] == codes["json"]
