import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from grasscoh import cli, expr, freepoly, obstruction, partitions, ring
from grasscoh.cli import run_cli
from grasscoh.expr import eval_expr, parse
from grasscoh.partitions import betti_numbers
from grasscoh.ring import RingContext, SchurClass, reduce_free

SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv):
    out = io.StringIO()
    code = run_cli(argv, out=out)
    return code, out.getvalue()


class TestEval:
    def test_simple(self):
        code, out = run(["eval", "--k", "2", "--n", "2", "cbar(2)"])
        assert code == 0
        assert out == "1*c1^2 - 1*c2\n= 1*sigma[2]\n"

    def test_json(self):
        code, out = run(["--format", "json", "eval", "--k", "2", "--n", "2",
                         "cbar(2)"])
        assert code == 0
        assert json.loads(out)["schur"] == [{"partition": [2], "coeff": "1/1"}]

    def test_parse_error_exit_1(self):
        code, _ = run(["eval", "--k", "2", "--n", "2", "c1^"])
        assert code == 1

    def test_eval_error_exit_2(self):
        code, _ = run(["eval", "--k", "2", "--n", "5", "c3"])
        assert code == 2

    def test_unit_output_evaluates(self):
        unit = run(["eval", "--k", "2", "--n", "3", "sigma[2,1]^0"])
        assert unit == (0, "1\n= 1*sigma[]\n")
        assert run(["eval", "--k", "2", "--n", "3", "1*sigma[]"]) == unit

    # a token that does not start with `--` is EXPR, even with a leading minus
    @pytest.mark.parametrize("expression, out", [
        ("-c1", "- 1*c1\n= - 1*sigma[1]\n"),
        ("-1/2", "- 1/2\n= - 1/2*sigma[]\n"),
        ("-sigma[1]", "- 1*c1\n= - 1*sigma[1]\n"),
    ])
    def test_leading_minus(self, expression, out):
        assert run(["eval", "--k", "2", "--n", "3", expression]) == (0, out)


class TestDual:
    def test_both_match(self):
        code, out = run(["dual", "--k", "4", "--i", "2", "--method", "both"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].endswith("1*c1^2 - 1*c2")
        assert lines[1].endswith("1*c1^2 - 1*c2")
        assert lines[2] == "MATCH"

    def test_default_closed(self):
        code, out = run(["dual", "--k", "2", "--i", "3"])
        assert code == 0
        assert out.strip() == "- 1*c1^3 + 2*c1*c2"

    @pytest.mark.parametrize("method, skipped", [
        ("recursive", "dual_class_closed"), ("closed", "dual_class_recursive")])
    def test_computes_only_the_chosen_class(self, monkeypatch, method, skipped):
        argv = ["dual", "--k", "4", "--i", "9", "--method", method]
        expected = run(argv)

        def refuse(i, k):
            raise AssertionError(f"{skipped} was called")

        monkeypatch.setattr(cli, skipped, refuse)
        assert run(argv) == expected
        assert expected[0] == 0


class TestBetti:
    def test_text(self):
        code, out = run(["betti", "--k", "2", "--n", "2"])
        assert code == 0
        assert "b_2 = 2" in out
        assert "total = 6" in out

    def test_csv(self):
        code, out = run(["--format", "csv", "betti", "--k", "1", "--n", "1"])
        assert code == 0
        assert out == "i,betti\n0,1\n1,1\n"


class TestLefschetz:
    def test_cp1_antipodal(self):
        code, out = run(["lefschetz", "--k", "1", "--n", "1", "--m", "-1"])
        assert code == 0
        assert out.strip() == "0"

    def test_euler(self):
        code, out = run(["lefschetz", "--k", "2", "--n", "2", "--m", "1"])
        assert code == 0
        assert out.strip() == "6"


class TestFpp:
    def test_csv_sweep(self):
        code, out = run(["fpp", "--k-max", "2", "--n-max", "2",
                         "--m-range", "-1:1"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("k,n,m,lefschetz")
        assert len(lines) == 1 + 2 * 2 * 3

    def test_bad_range_exit_1(self):
        code, _ = run(["fpp", "--k-max", "2", "--n-max", "2",
                       "--m-range", "oops"])
        assert code == 1


class TestObstruct:
    def test_case2iv_json(self):
        code, out = run(["--format", "json", "obstruct", "--k", "4",
                         "--n", "7"])
        assert code == 0
        obj = json.loads(out)
        assert obj["case"] == "Case2iv"
        assert obj["search_log"]["solutions"] == []

    def test_hypothesis_violation_exit_2(self):
        code, _ = run(["obstruct", "--k", "1", "--n", "5"])
        assert code == 2

    def test_text_format(self):
        code, out = run(["obstruct", "--k", "2", "--n", "3"])
        assert code == 0
        assert "case: Case1" in out
        assert "witness: [3, 0] coefficient -1" in out


class TestUsage:
    def test_unknown_command(self):
        code, _ = run(["frobnicate"])
        assert code == 1

    def test_missing_args(self):
        code, _ = run(["eval"])
        assert code == 1


class TestDeterminism:
    def test_byte_identical_runs(self):
        for argv in (["eval", "--k", "3", "--n", "4", "cbar(4)*c2 - sigma[2,1]"],
                     ["--format", "json", "obstruct", "--k", "6", "--n", "14"],
                     ["fpp", "--k-max", "3", "--n-max", "3"]):
            assert run(argv) == run(argv)


def test_selftest_passes():
    code, out = run(["selftest"])
    assert code == 0
    assert "FAIL" not in out


def reduce_to_the_unit(monkeypatch):
    # a reduction that keeps only the unit term sends every class of
    # positive degree to 0, so every relation still "holds"
    reduce_free = ring.reduce_free

    def unit_only(p, ctx):
        image = reduce_free(p, ctx)
        return SchurClass._of(ctx, {(): image.coeff(())})

    monkeypatch.setattr(ring, "reduce_free", unit_only)


def zero(*args):
    return 0


# (mutant, its patch, the suites that must fail on it).  The suite imports
# `partitions` names when it runs; freepoly keeps its own `multinomial`, so
# the multinomial patched in `partitions` alone reaches only x-beta-identity
SELFTEST_MUTANTS = {
    # and c_1 no longer reduces to sigma[1]
    "reduction-to-zero": (reduce_to_the_unit, ("ideal-relations", "whitney")),
    "dropped-assumption": (
        lambda mp: mp.setitem(obstruction._ASSUMPTIONS, obstruction.CASE2II,
                              (obstruction.ASSUME_ADAMS,)),
        ("certificates",)),
    "identity-conjugate": (lambda mp: mp.setattr(partitions, "conjugate", tuple),
                           ("conjugate-involution",)),
    "zero-multinomial-in-the-suite": (
        lambda mp: mp.setattr(partitions, "multinomial", zero),
        ("x-beta-identity",)),
    # certificates raises out of _witness_coefficient: its suite fails and
    # the others still run
    "zero-multinomial-everywhere": (
        lambda mp: (mp.setattr(partitions, "multinomial", zero),
                    mp.setattr(freepoly, "multinomial", zero)),
        ("lemma-equivalence", "x-beta-identity", "whitney", "certificates")),
}


@pytest.mark.parametrize("mutant", SELFTEST_MUTANTS)
def test_selftest_fails_on_its_mutant(monkeypatch, mutant):
    patch, failing = SELFTEST_MUTANTS[mutant]
    patch(monkeypatch)
    code, out, err = run_with_stderr(["selftest"])
    assert code == cli.EXIT_CHECK
    names = [name for name, _ in cli._selftest_suites()]
    verdicts = dict(line.split(": ") for line in out.splitlines()[1:])
    assert list(verdicts) == names
    assert [name for name in names if verdicts[name] == "FAIL"] == list(failing)
    # a suite that raised leaves its error on stderr, before the summary
    *raised, summary = err.splitlines()
    assert all(line.split(": ")[0] in failing for line in raised)
    assert summary == \
        f"certificate failure: selftest suites failed: {', '.join(failing)}"


def run_checked(argv):
    """Exit code and stdout of an in-process run; no traceback allowed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv, out=out)
    assert "Traceback" not in err.getvalue() + out.getvalue()
    return code, out.getvalue()


def run_capped(argv):
    """Exit code, stdout and stderr of a CLI run in a `python -I -S`
    subprocess under a 2 GB address-space cap, so a probe whose guard is
    lost fails instead of allocating what it asks for."""
    probe = ("import resource, sys; "
             "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
             "sys.path.insert(0, sys.argv[1]); "
             "from grasscoh.cli import run_cli; sys.exit(run_cli(sys.argv[2:]))")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", probe, str(SRC),
                           *argv], capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


class TestTotality:
    def test_deep_recursive_dual(self):
        code, out = run_checked(["dual", "--k", "1", "--i", "1500",
                                 "--method", "both"])
        assert code == 0
        assert out.endswith("MATCH\n")

    def test_long_sigma_row(self):
        code, out = run_checked(["eval", "--k", "1", "--n", "1500",
                                 "sigma[1500]"])
        assert code == 0
        assert out.endswith("\n= 1*sigma[1500]\n")

    def test_sigma_not_partition(self):
        with pytest.raises(ValueError):
            SchurClass(RingContext(2, 3), {(1, 2): 1})
        for expression in ("sigma[1,2]", "sigma[1,0,1]", "sigma[4]",
                           "sigma[1,1,1]", "sigma[4,1]", "sigma[2,3,1]"):
            code, out = run_checked(["eval", "--k", "2", "--n", "3", expression])
            assert (code, out) == (2, "")

    def test_deep_nesting_is_a_parse_error(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli(["eval", "--k", "2", "--n", "3",
                            "(" * 400 + "c1" + ")" * 400], out=out)
        assert (code, out.getvalue()) == (1, "")
        assert err.getvalue().startswith("parse error at offset 100:")

    def test_long_flat_sum(self):
        code, out = run_checked(["eval", "--k", "2", "--n", "3",
                                 "+".join(["1"] * 2000)])
        assert (code, out) == (0, "2000\n= 2000*sigma[]\n")

    def test_large_case1_obstruct(self):
        # the image count comes from a partition-count DP, not from listing
        # the ~n^2/12 exponent vectors
        code, out = run_checked(["obstruct", "--k", "3", "--n", "20000"])
        assert code == 0
        assert '"image_monomials_checked": 33333333' in out

    def test_obstruct_at_the_bound(self):
        # the Case 1 witness c1^n has coefficient (-1)^n n!/n!, read as a
        # product of binomials without forming n!
        code, out = run_checked(["obstruct", "--k", "2", "--n", "1000000"])
        assert code == 0
        assert "witness: [1000000, 0] coefficient 1\n" in out
        assert '"image_monomials_checked": 500000' in out

    # past n = 10^6 obstruct refuses before any work: these would fill a
    # recursion table of about n cells, and a partition count over n
    @pytest.mark.parametrize("k, n", [(4, 300000004), (2, 100000000)])
    def test_obstruct_past_the_bound(self, k, n):
        code, out, err = run_with_stderr(["obstruct", "--k", str(k), "--n", str(n)])
        assert (code, out) == (cli.EXIT_EVAL, "")
        assert err == f"evaluation error: need n <= 1000000, got n={n}\n"

    # past their work budgets dual, eval's cbar, betti, lefschetz and fpp
    # refuse before any work: these ran out of memory or did not answer
    # within 15 s, and the first two ended in a MemoryError traceback
    @pytest.mark.parametrize("argv", [
        ["dual", "--k", "30", "--i", "150"],
        ["eval", "--k", "3", "--n", "3", "cbar(100000)"],
        ["betti", "--k", "1000", "--n", "1000"],
        ["lefschetz", "--k", "5000", "--n", "5000", "--m", "7"],
        ["fpp", "--k-max", "200", "--n-max", "200"],
        # one exponent vector alone holds k ints
        ["dual", "--k", "1000000000", "--i", "1"],
        ["eval", "--k", "1000000000", "--n", "1", "c1"],
    ], ids=" ".join)
    def test_refused_past_the_budget(self, argv):
        code, out, err = run_capped(argv)
        assert (code, out) == (cli.EXIT_EVAL, "")
        assert err.startswith("evaluation error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    # each budget at its edge: the first input of a pair is accepted, the
    # second refused (the sweep of 1 x 3000 boxes passes the cell budget
    # and not the digit budget)
    @pytest.mark.parametrize("accepted, refused", [
        (["dual", "--k", "2", "--i", "1999"], ["dual", "--k", "2", "--i", "2000"]),
        (["eval", "--k", "2000000", "--n", "1", "c1"],
         ["eval", "--k", "2000001", "--n", "1", "c1"]),
        (["betti", "--k", "1", "--n", "90000"], ["betti", "--k", "1", "--n", "90001"]),
        (["lefschetz", "--k", "1", "--n", "125000", "--m", "10"],
         ["lefschetz", "--k", "1", "--n", "125001", "--m", "10"]),
        (["fpp", "--k-max", "1", "--n-max", "4", "--m-range", "1:10000"],
         ["fpp", "--k-max", "1", "--n-max", "4", "--m-range", "0:10000"]),
        (["fpp", "--k-max", "1", "--n-max", "2600"],
         ["fpp", "--k-max", "1", "--n-max", "3000"]),
    ], ids=lambda argv: " ".join(argv))
    def test_at_the_budget(self, accepted, refused):
        assert run_checked(accepted)[0] == cli.EXIT_OK
        code, out, err = run_capped(refused)
        assert (code, out, err.count("\n")) == (cli.EXIT_EVAL, "", 1)

    def test_both_methods_at_the_dual_budget(self):
        code, out = run_checked(["dual", "--k", "2", "--i", "1999",
                                 "--method", "both"])
        assert code == cli.EXIT_OK
        assert out.endswith("\nMATCH\n")

    # integers past the interpreter's default 4,300-digit str limit
    def test_lefschetz_past_str_digit_limit(self):
        code, out = run_checked(["lefschetz", "--k", "40", "--n", "40",
                                 "--m", "1000"])
        assert code == 0
        lef = sum(1000 ** i * b for i, b in enumerate(betti_numbers(40, 40)))
        assert out == f"{lef}\n"

    def test_lefschetz_large_box(self):
        code, out = run_checked(["lefschetz", "--k", "500", "--n", "500",
                                 "--m", "3"])
        assert code == 0
        lef = int(out)
        # b_0 = b_250000 = 1 and every term is positive
        assert lef >= 3 ** 250000
        # b_i = p(i), the partition numbers, for i <= min(k, n)
        partition_numbers = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30)
        assert lef % 3 ** 10 == \
            sum(p * 3 ** i for i, p in enumerate(partition_numbers)) % 3 ** 10

    def test_fpp_large_sweep(self):
        code, out = run_checked(["fpp", "--k-max", "60", "--n-max", "60"])
        assert code == 0
        assert out.count("\n") == 1 + 60 * 60 * 11

    def test_fpp_json_huge_degree(self):
        m = "1" + "0" * 4400
        code, out = run_checked(["--format", "json", "fpp", "--k-max", "1",
                                 "--n-max", "1", "--m-range", f"{m}:{m}"])
        assert code == 0
        assert json.loads(out) == [{"k": 1, "n": 1,
                                    "status": "OutsideClassifiedRange",
                                    "lefschetz": {m: 10 ** 4400 + 1}}]

    @pytest.mark.parametrize("expression, out", [
        # one step for the power, and the reduction stops once the strip
        # chain has left the box
        ("c1^10000000", "1*c1^10000000\n= 0\n"),
        ("0^10000000", "0\n= 0\n"),
    ])
    def test_huge_power_of_a_monomial(self, expression, out):
        assert run_checked(["eval", "--k", "1", "--n", "1", expression]) == (0, out)

    def test_eval_literal_power(self):
        code, out = run_checked(["eval", "--k", "2", "--n", "3",
                                 "(" + "9" * 100 + ")^100"])
        assert code == 0
        value = (10 ** 100 - 1) ** 100
        assert out == f"{value}\n= {value}*sigma[]\n"

    # boxes with more rows than the interpreter's default recursion limit:
    # enumeration keeps no stack frame per row
    @pytest.mark.parametrize("argv, out", [
        (["eval", "--k", "1200", "--n", "3", "c1"], "1*c1\n= 1*sigma[1]\n"),
        (["dual", "--k", "1200", "--i", "1"], "- 1*c1\n"),
        (["eval", "--k", "1200", "--n", "1", "cbar(1)"],
         "- 1*c1\n= - 1*sigma[1]\n"),
        (["eval", "--k", "100000", "--n", "3", "c1"], "1*c1\n= 1*sigma[1]\n"),
    ])
    def test_tall_box(self, argv, out):
        assert run_checked(argv) == (0, out)

    @pytest.mark.parametrize("argv", [["--help"], ["eval", "-h"]])
    def test_help_returns_zero(self, argv):
        code, out = run_checked(argv)
        assert code == 0
        assert out.startswith("usage: grasscoh")


# -- the argv contract: (argv, exit code, stdout) --

BETTI_1_1 = "b_0 = 1\nb_1 = 1\ntotal = 2\n"
SIGMA_3 = "1*c1^3 - 2*c1*c2\n= 1*sigma[3]\n"
C2 = "1*c2\n= 1*sigma[1,1]\n"
FPP_1_1 = ("k,n,m,lefschetz,kn_parity,in_classified_range,verdict\n"
           + "".join(f"1,1,{m},{m + 1},odd,false,OutsideClassifiedRange\n"
                     for m in (-1, 0, 1)))
FPP = ["fpp", "--k-max", "1", "--n-max", "1"]

# forms that read as they did when argparse parsed argv
KEPT_ARGV = [
    (["betti", "--k", "1", "--n", "1"], 0, BETTI_1_1),
    (["betti", "--k=1", "--n=1"], 0, BETTI_1_1),
    # options in any order, EXPR before, between or after them
    (["eval", "--n", "3", "--k", "2", "sigma[3]"], 0, SIGMA_3),
    (["eval", "sigma[3]", "--k", "2", "--n", "3"], 0, SIGMA_3),
    (["eval", "--k", "2", "sigma[3]", "--n=3"], 0, SIGMA_3),
    # the last of a repeated option wins
    (["eval", "--k", "1", "--n", "3", "--k", "2", "c2"], 0, C2),
    (["--format", "json", "--format", "text", "betti", "--k", "1", "--n", "1"],
     0, BETTI_1_1),
    # negative values, with and without `=`
    (["lefschetz", "--k", "1", "--n", "2", "--m", "-2"], 0, "3\n"),
    (["lefschetz", "--k", "1", "--n", "2", "--m=-2"], 0, "3\n"),
    (FPP + ["--m-range", "-1:1"], 0, FPP_1_1),
    (FPP + ["--m-range=-1:1"], 0, FPP_1_1),
    # `--` ends the options
    (["eval", "--k", "2", "--n", "3", "--", "-c1"], 0, "- 1*c1\n= - 1*sigma[1]\n"),
    (["eval", "--k", "2", "--", "--n", "3", "c1"], 1, ""),
    # --format only before the subcommand
    (["--format", "json", "betti", "--k", "1", "--n", "1"], 0,
     '{"k": 1, "n": 1, "betti": [1, 1], "total": 2}\n'),
    (["betti", "--format", "json", "--k", "1", "--n", "1"], 1, ""),
    (["eval", "--format", "json", "--k", "2", "--n", "3", "c1"], 1, ""),
    # ints as int() reads them
    (["betti", "--k", " 1", "--n", "+1"], 0, BETTI_1_1),
    (["betti", "--k", "0_1", "--n", "1"], 0, BETTI_1_1),
    (["betti", "--k", "x", "--n", "1"], 1, ""),
    # a missing value, option or EXPR
    (["betti", "--k", "1", "--n"], 1, ""),
    (["--format"], 1, ""),
    (["betti", "--k", "1"], 1, ""),
    (["eval", "--k", "2", "--n", "3"], 1, ""),
    # an extra argument
    (["betti", "--k", "1", "--n", "1", "x"], 1, ""),
    (["eval", "--k", "2", "--n", "3", "c1", "c2"], 1, ""),
    (["selftest", "x"], 1, ""),
    # an unknown option, or a single-dash one
    (["betti", "--k", "1", "--n", "1", "--m", "2"], 1, ""),
    (["--bogus", "betti", "--k", "1", "--n", "1"], 1, ""),
    (["betti", "-k", "1", "--n", "1"], 1, ""),
    (["eval", "-k", "2", "--n", "3", "c1"], 1, ""),
    # no or an unknown subcommand
    ([], 1, ""),
    (["--format", "json"], 1, ""),
    (["frobnicate"], 1, ""),
    # bad --format, --method and --m-range values, before any other check
    (["--format", "xml", "betti", "--k", "1", "--n", "1"], 1, ""),
    (["dual", "--k", "0", "--i", "1", "--method", "fast"], 1, ""),
    (FPP + ["--m-range", "1:0"], 1, ""),
    (FPP + ["--m-range", "1:2:3"], 1, ""),
    (["fpp", "--k-max", "0", "--n-max", "1", "--m-range", "x"], 1, ""),
]

# forms that changed when the table-driven parser replaced argparse; the
# leading-minus EXPR is TestEval.test_leading_minus
CHANGED_ARGV = [
    # -h or --help anywhere prints USAGE
    (["-h"], 0, cli.USAGE + "\n"),
    (["betti", "--k", "1", "--help"], 0, cli.USAGE + "\n"),
    (["frobnicate", "-h"], 0, cli.USAGE + "\n"),
    # no abbreviated options
    (["--form", "json", "betti", "--k", "1", "--n", "1"], 1, ""),
    (["dual", "--k", "2", "--i", "1", "--meth", "both"], 1, ""),
    (["fpp", "--k-m", "1", "--n-max", "1"], 1, ""),
    (["fpp", "--k", "1", "--n", "1"], 1, ""),
    # a `--` with nothing after it, also where there is no EXPR
    (["betti", "--k", "1", "--n", "1", "--"], 0, BETTI_1_1),
    # int() reads every value, also a negative one with an underscore
    (["lefschetz", "--k", "1", "--n", "2", "--m", "-0_2"], 0, "3\n"),
]


@pytest.mark.parametrize("argv, code, out", KEPT_ARGV)
def test_argv_contract_kept(argv, code, out):
    assert run_checked(argv) == (code, out)


@pytest.mark.parametrize("argv, code, out", CHANGED_ARGV)
def test_argv_contract_changed(argv, code, out):
    assert run_checked(argv) == (code, out)


def test_module_entry_point():
    # main() and its sys.exit, through a fresh interpreter
    def grasscoh(*argv):
        done = subprocess.run([sys.executable, "-m", "grasscoh.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=120)
        return done.returncode, done.stdout

    assert grasscoh("--help") == (0, cli.USAGE + "\n")
    assert grasscoh() == (1, "")
    assert grasscoh("betti", "--k", "1", "--n", "1") == (0, BETTI_1_1)


def test_usage_is_the_readme_cli_block():
    readme = (SRC.parent / "README.md").read_text()
    assert f"```text\n{cli.USAGE}\n```" in readme
    assert all(f"\n  {name} " in cli.USAGE for name in cli._COMMANDS)


def test_closed_stdout_exits_0(tmp_path):
    # the reader stops after one line of a 363,781-byte sweep; stdout is
    # buffered as in a shell pipeline, so PYTHONUNBUFFERED must not be set
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    with open(tmp_path / "stderr", "w") as err:
        child = subprocess.Popen([sys.executable, "-m", "grasscoh.cli", "fpp",
                                  "--k-max", "20", "--n-max", "20"],
                                 stdout=subprocess.PIPE, stderr=err, env=env)
        assert child.stdout.readline().startswith(b"k,n,m,lefschetz,")
        child.stdout.close()
        code = child.wait(timeout=120)
    # no traceback, nor any other line
    assert (code, (tmp_path / "stderr").read_text()) == (0, "")


# -- the error map: the exception a handler raises picks the exit code --

def run_with_stderr(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(argv, out=out)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, code, prefix", [
    (["betti", "--k", "1", "--n", "1", "--m", "2"], 1, "usage error: "),
    (["--format", "csv", "obstruct", "--k", "3", "--n", "5"], 1,
     "usage error: obstruct has no --format csv"),
    (["eval", "--k", "2", "--n", "3", "1+"], 1, "parse error at offset "),
    # RingContext makes the (k, n) check of betti and lefschetz
    (["betti", "--k", "0", "--n", "3"], 2,
     "evaluation error: k and n must be positive"),
    (["lefschetz", "--k", "2", "--n", "0", "--m", "2"], 2,
     "evaluation error: k and n must be positive"),
    (["obstruct", "--k", "1", "--n", "4"], 2, "evaluation error: "),
    (["dual", "--k", "0", "--i", "1"], 2,
     "evaluation error: need k >= 1 and i >= 0"),
    (["fpp", "--k-max", "0", "--n-max", "2"], 2,
     "evaluation error: need positive bounds"),
    (["eval", "--k", "2", "--n", "3", "2^3^4"], 1,
     "parse error at offset 3: a second '^': a factor takes one exponent, "
     "write (x^m)^n\n"),
    (["eval", "--k", "2", "--n", "3", "c1^2 c2"], 1,
     "parse error at offset 5: expected '+', '-', '*' or end of input\n"),
])
def test_error_map(argv, code, prefix):
    got_code, out, err = run_with_stderr(argv)
    assert (got_code, out) == (code, "")
    assert err.startswith(prefix)
    assert err.count("\n") == 1


def test_assertion_is_a_certificate_failure(monkeypatch):
    def broken(k, n):
        raise AssertionError("forced")

    monkeypatch.setattr(cli.obstruction, "nontrivial_intersection_report", broken)
    assert run_with_stderr(["obstruct", "--k", "3", "--n", "5"]) == (
        3, "", "certificate failure: forced\n")


def test_out_of_memory_is_an_evaluation_error(monkeypatch):
    def exhausted(*args):
        raise MemoryError

    # _cmd_eval's first evaluation call: the walk that builds both lines
    monkeypatch.setattr(cli, "eval_lines", exhausted)
    code, out, err = run_with_stderr(["eval", "--k", "2", "--n", "2", "c1"])
    assert (code, out, err) == (2, "", "evaluation error: out of memory\n")
    assert "Traceback" not in err


def test_schur_atoms_are_not_reduced(monkeypatch):
    # cbar and sigma atoms are Schur classes at once: neither the 38,047
    # monomials of cbar(46) nor the free square of sigma[24] is reduced
    small = ["eval", "--k", "3", "--n", "4", "cbar(4)*sigma[2,1]"]
    before = run(small)

    def refused(p, ctx):
        raise AssertionError("reduce_free called")

    monkeypatch.setattr(expr, "reduce_free", refused)
    code, out = run(["eval", "--k", "10", "--n", "10", "cbar(46)"])
    assert code == 0 and out.endswith("\n= 0\n")
    code, out = run(["eval", "--k", "8", "--n", "24", "sigma[24]*sigma[24]"])
    assert code == 0 and out.endswith("\n= 1*sigma[24,24]\n")
    assert run(small) == before


# -- formats: a subcommand prints the --format values its _COMMANDS entry
# lists, with the bytes it printed before the table listed them --

FORMAT_ARGV = {
    "eval": ["eval", "--k", "2", "--n", "3", "cbar(2)*c1"],
    "dual": ["dual", "--k", "2", "--i", "3"],
    "betti": ["betti", "--k", "2", "--n", "3"],
    "lefschetz": ["lefschetz", "--k", "2", "--n", "3", "--m", "2"],
    "fpp": ["fpp", "--k-max", "2", "--n-max", "2", "--m-range", "-1:1"],
    "obstruct": ["obstruct", "--k", "3", "--n", "5"],
    "selftest": ["selftest"],
}
# sha256[:16] of stdout
FORMAT_DIGESTS = {
    ("eval", "text"): "702a947f8d513e6b",
    ("eval", "json"): "e8340c06500b5ca4",
    ("eval", "csv"): "d1a7961b855f68b8",
    ("dual", "text"): "80ff870a5b363e87",
    ("betti", "text"): "36b3926ad504319d",
    ("betti", "json"): "1b1f35376683e0af",
    ("betti", "csv"): "6cd17489a12e5eed",
    ("lefschetz", "text"): "8f35c5749fd690a5",
    ("lefschetz", "json"): "73a909d20b12deb6",
    ("fpp", "text"): "cc885f600bca7d44",
    ("fpp", "json"): "437334beb609fabc",
    ("fpp", "csv"): "cc885f600bca7d44",
    ("obstruct", "text"): "95c2674e22d52a75",
    ("obstruct", "json"): "1a8522f4424d7f0f",
    ("selftest", "text"): "1567f5174d05d601",
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("command", list(FORMAT_ARGV))
def test_format_matrix(command, fmt):
    code, out = run_checked(["--format", fmt] + FORMAT_ARGV[command])
    if (command, fmt) in FORMAT_DIGESTS:
        digest = hashlib.sha256(out.encode()).hexdigest()[:16]
        assert (code, digest) == (0, FORMAT_DIGESTS[command, fmt])
    else:
        assert (code, out) == (1, "")
    assert set(FORMAT_ARGV) == set(cli._COMMANDS)


# -- argv fuzz: a bounded token alphabet, k and n <= 4, exponents <= 3 --

SIZES = st.sampled_from(["1", "2", "3", "4"])
# eval and dual also draw a tall box: more rows than the 1,000 frames of
# the default recursion limit and than the 2,000 hypothesis adds in a test
TALL = "2500"
K_SIZES = st.sampled_from(["1", "2", "3", "4", TALL])
_ATOMS = st.sampled_from(["0", "2", "1/2", "c1", "c2", "c4", "cbar(0)",
                          "cbar(3)", "cbar(5)", "sigma[]", "sigma[1]",
                          "sigma[2,1]", "sigma[4,4]", "-c1"])
_BASES = _ATOMS | st.builds(lambda a, op, b: f"({a}{op}{b})",
                            _ATOMS, st.sampled_from("+-*"), _ATOMS)
_FACTORS = st.builds(lambda b, e: b if e is None else f"{b}^{e}",
                     _BASES, st.none() | st.integers(0, 3))
# a chain of one to three factors; the leading operator is dropped
EXPRESSIONS = st.lists(st.tuples(st.sampled_from("+-*"), _FACTORS),
                       min_size=1, max_size=3).map(
    lambda pairs: "".join(op + f for op, f in pairs)[1:])
# edits bring in bad values, malformed expressions and stray options
_WORDS = st.sampled_from([
    "eval", "dual", "betti", "lefschetz", "fpp", "obstruct", "--format",
    "text", "json", "csv", "--k", "--n", "--i", "--m", "--k-max", "--n-max",
    "--m-range", "--method", "closed", "recursive", "both", "-1:1", "2:0",
    "0:3", "x", "", "-h", "--help", "-1", "0", "c5", "sigma[1,2]", "c1^",
    "(c1", "1/0"])
TOKENS = _WORDS | SIZES | EXPRESSIONS


@st.composite
def shaped_argv(draw):
    """A well-formed command line, then, half of the time, one or two
    token edits."""
    fmt = draw(st.sampled_from([[], ["--format", "text"], ["--format", "json"],
                                ["--format", "csv"]]))
    # eval, whose two output lines have a contract of their own, half of the time
    cmd = draw(st.just("eval") | st.sampled_from(["dual", "betti", "lefschetz",
                                                  "fpp", "obstruct"]))
    argv = fmt + [cmd]
    # in the tall box an expression has one operation at most: a chain of
    # powers there has millions of free terms in 2,500 variables
    if cmd == "eval":
        k = draw(K_SIZES)
        argv += ["--k", k, "--n", draw(SIZES),
                 draw(_BASES if k == TALL else EXPRESSIONS)]
    elif cmd == "dual":
        argv += ["--k", draw(K_SIZES), "--i", draw(SIZES), "--method",
                 draw(st.sampled_from(["closed", "recursive", "both"]))]
    elif cmd == "fpp":
        argv += ["--k-max", draw(SIZES), "--n-max", draw(SIZES), "--m-range",
                 draw(st.sampled_from(["-1:1", "0:3"]))]
    else:
        argv += ["--k", draw(SIZES), "--n", draw(SIZES)]
        if cmd == "lefschetz":
            argv += ["--m", draw(SIZES)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        pos = draw(st.integers(0, len(argv) - 1))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "delete":
            del argv[pos]
        else:
            tokens = (_WORDS | SIZES | _BASES) if TALL in argv else TOKENS
            argv[pos:pos + (edit == "replace")] = [draw(tokens)]
    return argv


@settings(max_examples=400, deadline=None)
@given(shaped_argv() | st.lists(TOKENS, max_size=8))
def test_cli_argv_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv, out=out)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue() + out.getvalue()
    text = out.getvalue()
    if code != 0 or "eval" not in argv or text.startswith("usage:"):
        return
    command, kwargs = cli._parse(argv)
    if command != "eval" or kwargs["fmt"] != "text":
        return
    # both eval lines are expressions for the same Schur class
    ctx = RingContext(kwargs["k"], kwargs["n"])
    free_line, schur_line = text.split("\n")[:2]
    assert schur_line.startswith("= ")
    classes = [reduce_free(eval_expr(parse(line), ctx), ctx)
               for line in (free_line, schur_line[2:])]
    assert classes[0] == classes[1]


def test_c_only_factor_acts(monkeypatch):
    # a c-only factor acts on the Schur value it multiplies: the total
    # class's square is never reduced, and cbar(2)*cbar(3) is the one
    # product solved on the table
    argv = ["eval", "--k", "3", "--n", "4", "cbar(2)*cbar(3)*(1+c1+c2+c3)^2"]
    before = run(argv)
    products = []
    schur_mul = ring.schur_mul

    def refused(p, ctx):
        raise AssertionError("reduce_free called")

    def counted(a, b):
        products.append((a, b))
        return schur_mul(a, b)

    monkeypatch.setattr(expr, "reduce_free", refused)
    monkeypatch.setattr(ring, "reduce_free", refused)
    monkeypatch.setattr(ring, "schur_mul", counted)
    assert run(argv) == before
    assert len(products) == 1
