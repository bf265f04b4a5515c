"""Byte-identity gate: replay recorded CLI invocations in-process.

`perfbench/golden.tsv` holds the exit code and the stdout digest of every
benchmark job; the rows under MAX_COST_MS of recorded cost are replayed
here.  `cli_cases.tsv` next to this file adds what that table lacks:
error exits, `selftest`, and the json and csv formats.  Both files are
read, never written.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from grasscoh import cli, obstruction
from grasscoh.freepoly import FreeClass

HERE = Path(__file__).resolve().parent
GOLDEN = HERE.parent / "perfbench" / "golden.tsv"
CASES = HERE / "cli_cases.tsv"
MAX_COST_MS = 10.0


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run_cli(argv, out=out)
    assert "Traceback" not in err.getvalue()
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]


def golden_rows():
    rows = []
    for line in GOLDEN.read_text().splitlines():
        fields = line.split("\t")
        if fields[0] == "cold" and float(fields[4]) < MAX_COST_MS:
            rows.append((int(fields[2]), fields[3], fields[5].split(" ")))
    return rows


def case_rows():
    rows = []
    for line in CASES.read_text().splitlines():
        if not line.startswith("#"):
            code, dig, argv = line.split("\t")
            rows.append((int(code), dig, json.loads(argv)))
    return rows


def assert_replay(rows):
    mismatches = [(argv, (code, dig), got) for code, dig, argv in rows
                  if (got := run(argv)) != (code, dig)]
    assert not mismatches, f"{len(mismatches)} of {len(rows)}: {mismatches[:5]}"


def test_golden_cold_rows():
    rows = golden_rows()
    assert len(rows) == 1393
    assert_replay(rows)


def test_extra_cases():
    rows = case_rows()
    assert {code for code, _, _ in rows} == {0, 1, 2}
    assert_replay(rows)


# No argv reaches exit 3 on correct code, so each check is broken on purpose.
@pytest.mark.parametrize("target, attr, fake, argv", [
    (cli, "dual_class_recursive", lambda i, k: FreeClass.one(k),
     ["dual", "--k", "2", "--i", "3", "--method", "both"]),
    (obstruction, "_lemma_coefficient", lambda alpha: 0,
     ["obstruct", "--k", "5", "--n", "10"]),
    (cli, "_selftest_suites", lambda: [("broken", lambda: False)],
     ["selftest"]),
])
def test_failed_check_exits_3(monkeypatch, target, attr, fake, argv):
    monkeypatch.setattr(target, attr, fake)
    assert run(argv)[0] == cli.EXIT_CHECK
