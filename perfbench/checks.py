"""Output checks: golden digests and invariants computed without grasscoh."""

from __future__ import annotations

import hashlib
import json
import os
import re
from functools import lru_cache
from math import comb, factorial

from jobs import box_partitions

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.tsv")
DIGEST_HEX = 16  # leading hex digits of sha256 kept in the golden table


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_HEX]


class Golden:
    """Expected exit codes, stdout digests and recorded costs of cold
    jobs, plus digests of every session product."""

    def __init__(self, path=GOLDEN):
        self.cold = {}      # workload -> {key: (exit, digest)}
        self.costs = {}     # workload -> {key: recorded ms}
        self.products = {}  # (ring, a, b) with a before b in basis order -> digest
        index = {}
        with open(path) as fh:
            for line in fh:
                if line.startswith("#") or not line.strip():
                    continue
                row = line.rstrip("\n").split("\t")
                if row[0] == "cold":
                    _, workload, code, dig, ms, key = row
                    self.cold.setdefault(workload, {})[key] = (int(code), dig)
                    self.costs.setdefault(workload, {})[key] = float(ms)
                elif row[0] == "product":
                    _, ring_txt, a_txt, digs = row
                    ring = tuple(int(x) for x in ring_txt.strip("G()").split(","))
                    if ring not in index:
                        index[ring] = box_partitions(*ring)
                    basis = index[ring]
                    a = _parse_sigma(a_txt)
                    start = basis.index(a)
                    for b, dig in zip(basis[start:], digs.split()):
                        self.products[(ring, a, b)] = dig
                else:
                    raise ValueError(f"bad golden row {row[0]!r}")

    def product(self, ring, a, b):
        return self.products.get((ring, a, b)) or self.products.get((ring, b, a))


def _parse_sigma(text: str):
    inner = text[len("sigma["):-1]
    return tuple(int(x) for x in inner.split(",")) if inner else ()


# -- invariants --------------------------------------------------------

@lru_cache(maxsize=None)
def gaussian_binomial(k: int, n: int):
    """Coefficients of [k+n choose k]_q, by the product formula
    prod_{i=1..k} (1 - q^(n+i)) / (1 - q^i)."""
    poly = [1] + [0] * (k * n + k)
    for i in range(1, k + 1):
        for d in range(len(poly) - 1, n + i - 1, -1):
            poly[d] -= poly[d - n - i]
        for d in range(i, len(poly)):
            poly[d] += poly[d - i]
    if any(poly[k * n + 1:]):
        raise AssertionError("Gaussian binomial division was not exact")
    return poly[:k * n + 1]


def lefschetz_expected(m: int, k: int, n: int) -> int:
    return sum(m ** i * b for i, b in enumerate(gaussian_binomial(k, n)))


def _opt(argv, name):
    return int(argv[argv.index(name) + 1])


def _check_betti(argv, out):
    k, n = _opt(argv, "--k"), _opt(argv, "--n")
    lines = out.splitlines()
    betti = [int(line.split(" = ")[1]) for line in lines[:-1]]
    total = int(lines[-1].split(" = ")[1])
    if betti != gaussian_binomial(k, n):
        return "Betti numbers differ from the Gaussian binomial"
    if betti != betti[::-1]:
        return "Betti numbers are not palindromic"
    if not sum(betti) == total == comb(k + n, k):
        return "Betti numbers do not sum to C(k+n, k)"
    return None


def _check_lefschetz(argv, out):
    k, n, m = _opt(argv, "--k"), _opt(argv, "--n"), _opt(argv, "--m")
    if int(out.strip()) != lefschetz_expected(m, k, n):
        return "Lefschetz number differs from sum m^i b_i"
    return None


def _lemma_coefficient(alpha) -> int:
    c = factorial(sum(alpha))
    for a in alpha:
        c //= factorial(a)
    return -c if sum(alpha) % 2 else c


def _solution_lists(obj):
    if isinstance(obj, dict):
        for key, val in obj.items():
            if key == "solutions":
                yield val
            else:
                yield from _solution_lists(val)
    elif isinstance(obj, list):
        for val in obj:
            yield from _solution_lists(val)


def _check_obstruct(argv, out):
    k, n = _opt(argv, "--k"), _opt(argv, "--n")
    lines = out.splitlines()
    if not lines[0].endswith(f"(k={k}, n={n})"):
        return "certificate names another (k, n)"
    for line in lines[1:]:
        if line.startswith("witness: "):
            m = re.fullmatch(r"witness: (\[[0-9, ]*\]) coefficient (-?\d+)", line)
            if not m:
                return "unreadable witness line"
            alpha = json.loads(m.group(1))
            if sum((i + 1) * a for i, a in enumerate(alpha)) != n:
                return "witness weight differs from n"
            if int(m.group(2)) != _lemma_coefficient(alpha):
                return "witness coefficient differs from (-1)^|a| |a|!/a!"
        elif line.startswith("search_log: "):
            log = json.loads(line[len("search_log: "):])
            if any(sols for sols in _solution_lists(log)):
                return "search log lists a solution"
            for key, mag in log.get("coefficient_magnitudes_verified", {}).items():
                alpha = json.loads(key[len("c^"):])
                if int(mag) != abs(_lemma_coefficient(alpha)):
                    return "verified magnitude differs from |a|!/a!"
    return None


def _check_dual(argv, out):
    return None if out.splitlines()[-1] == "MATCH" else "dual methods do not MATCH"


def _check_fpp(argv, out):
    if argv[1] == "json":
        for row in json.loads(out):
            for m, lef in row["lefschetz"].items():
                if lef != lefschetz_expected(int(m), row["k"], row["n"]):
                    return "fpp Lefschetz entry differs from sum m^i b_i"
    else:
        for line in out.splitlines()[1:]:
            k, n, m, lef = (int(x) for x in line.split(",")[:4])
            if lef != lefschetz_expected(m, k, n):
                return "fpp Lefschetz entry differs from sum m^i b_i"
    return None


_INVARIANTS = {"betti": _check_betti, "lefschetz": _check_lefschetz,
               "obstruct": _check_obstruct, "dual": _check_dual, "fpp": _check_fpp}


def check_cold(golden_entry, argv, code, out):
    """None when a cold job's exit code, digest and invariants hold, else
    the reason it failed."""
    want_code, want_digest = golden_entry
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    if digest(out) != want_digest:
        return "stdout digest differs from the golden table"
    command = argv[2] if argv[0] == "--format" else argv[0]
    check = _INVARIANTS.get(command)
    try:
        return check(argv, out) if check else None
    except (ValueError, IndexError, KeyError) as exc:
        return f"unreadable output: {exc}"
