"""Byte-identity gate: replay recorded CLI invocations in-process.

`perfbench/golden.tsv` holds the exit code and the stdout digest of every
benchmark job; every cold row of both workloads is replayed here, the
heavy reduce-cold rows with the largest coefficients included.  Its
`product` rows, the digests of every `schur_mul` product of basis classes
in the session rings, are all replayed, through `schur_mul` and through
`SchurClass.__mul__`.  `cli_cases.tsv` next to this file adds what
that table lacks: error exits, `selftest`, and the json and csv formats.
Both files are read, never written.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from grasscoh import cli, obstruction
from grasscoh.freepoly import FreeClass
from grasscoh.lefschetz import apply_adams
from grasscoh.ring import RingContext, SchurClass, pairing, schur_mul

HERE = Path(__file__).resolve().parent
GOLDEN = HERE.parent / "perfbench" / "golden.tsv"
CASES = HERE / "cli_cases.tsv"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run_cli(argv, out=out)
    assert "Traceback" not in err.getvalue()
    return code, digest(out.getvalue())


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def complement(lam, k, n):
    """The Poincare-dual partition of lam in the k x n box."""
    padded = tuple(lam) + (0,) * (k - len(lam))
    return tuple(n - p for p in reversed(padded) if n - p > 0)


def golden_rows():
    rows = []
    for line in GOLDEN.read_text().splitlines():
        fields = line.split("\t")
        if fields[0] == "cold":
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
    assert len(rows) == 2433
    assert_replay(rows)


def box_basis(k, n):
    """The k x n box partitions by size, then lexicographically descending:
    the order of the digests in a product row."""
    out = []

    def rec(rem, rows, cap, prefix):
        if rem == 0:
            out.append(prefix)
        elif rows:
            for p in range(min(cap, rem), 0, -1):
                rec(rem - p, rows - 1, p, prefix + (p,))

    for size in range(k * n + 1):
        rec(size, k, n, ())
    return out


def product_rows():
    """(k, n, a, [(b, digest of str(schur_mul(a, b)))]) per product row."""
    rows = []
    for line in GOLDEN.read_text().splitlines():
        fields = line.split("\t")
        if fields[0] == "product":
            k, n = (int(x) for x in fields[1].strip("G()").split(","))
            inner = fields[2][len("sigma["):-1]
            a = tuple(int(x) for x in inner.split(",")) if inner else ()
            basis = box_basis(k, n)
            rest = basis[basis.index(a):]
            digs = fields[3].split(" ")
            assert len(digs) == len(rest)
            rows.append((k, n, a, list(zip(rest, digs))))
    return rows


ADAMS_DEGREES = (-3, -2, -1, 2, 3)


def test_golden_products():
    # every pair twice, through schur_mul and the product operator, plus
    # pairing against Poincare duality and Adams against m^|a| sigma_a
    rows = product_rows()
    assert len(rows) == 171
    assert sum(len(pairs) for *_, pairs in rows) == 5116
    mismatches = []
    for k, n, a, pairs in rows:
        ctx = RingContext(k, n)
        sa = SchurClass(ctx, {a: 1})
        for m in ADAMS_DEGREES:
            if apply_adams(sa, m) != sa.scale(m ** sum(a)):
                mismatches.append(("adams", k, n, a, m))
        for b, dig in pairs:
            sb = SchurClass(ctx, {b: 1})
            for how, got in (("schur_mul", str(schur_mul(sa, sb))),
                             ("*", str(sa * sb))):
                if digest(got) != dig:
                    mismatches.append((how, k, n, a, b, got))
            if pairing(sa, sb) != int(b == complement(a, k, n)):
                mismatches.append(("pairing", k, n, a, b))
    assert not mismatches, f"{len(mismatches)} mismatches: {mismatches[:5]}"


def test_extra_cases():
    rows = case_rows()
    assert {code for code, _, _ in rows} == {0, 1, 2}
    assert_replay(rows)


# No argv reaches exit 3 on correct code, so each check is broken on purpose.
@pytest.mark.parametrize("target, attr, fake, argv", [
    (cli, "dual_class_recursive", lambda i, k: FreeClass.one(k),
     ["dual", "--k", "2", "--i", "3", "--method", "both"]),
    (obstruction, "closed_coefficient", lambda alpha: 0,
     ["obstruct", "--k", "5", "--n", "10"]),
    (cli, "_selftest_suites", lambda: [("broken", lambda: False)],
     ["selftest"]),
])
def test_failed_check_exits_3(monkeypatch, target, attr, fake, argv):
    monkeypatch.setattr(target, attr, fake)
    assert run(argv)[0] == cli.EXIT_CHECK
