import io
import json

from grasscoh.cli import run_cli


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
