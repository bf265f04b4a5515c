"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Each test prints a single pass/fail line; run with `pytest -s
tests/test_acceptance.py` to see them as they go.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb

import pytest

from grasscoh.expr import ParseError, parse
from grasscoh.freepoly import FreeClass, dual_class_closed, dual_class_recursive
from grasscoh.lefschetz import lefschetz_number
from grasscoh.obstruction import _case2iii_single, _case2iv_single, \
    nontrivial_intersection_report
from grasscoh.partitions import partitions_in_box
from grasscoh.ring import RingContext, SchurClass, pairing, reduce_free


def _report(num, name, elapsed=None):
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {num} ({name}): PASS{timing}")


def test_criterion_1_lemma_equivalence():
    start = time.monotonic()
    for k in range(1, 7):
        for i in range(0, 13):
            assert dual_class_closed(i, k) == dual_class_recursive(i, k)
    elapsed = time.monotonic() - start
    assert elapsed < 10
    _report(1, "dual class closed == recursive, k<=6, i<=12", elapsed)


def test_criterion_2_base_cases():
    for k in (1, 2, 3, 4):
        c1 = FreeClass.generator(k, 1)
        assert dual_class_closed(1, k) == -c1
        if k >= 2:
            c2 = FreeClass.generator(k, 2)
            assert dual_class_closed(2, k) == c1 * c1 - c2
        else:
            assert dual_class_closed(2, 1) == c1 * c1
    _report(2, "cbar_1 = -c1, cbar_2 = c1^2 - c2")


def test_criterion_3_ideal_relations():
    start = time.monotonic()
    for k in range(1, 6):
        for n in range(k + 1, 9):
            ctx = RingContext(k, n)
            for j in range(1, k + 1):
                assert reduce_free(dual_class_closed(n + j, k), ctx).is_zero()
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _report(3, "reduce(cbar_(n+j)) = 0, k<=5, n<=8", elapsed)


def test_criterion_4_root_oracle():
    def e_sym(roots, j):
        total = Fraction(0)
        for combo in itertools.combinations(roots, j):
            prod = Fraction(1)
            for r in combo:
                prod *= r
            total += prod
        return total

    def h_sym(roots, i):
        if i == 0:
            return Fraction(1)
        total = Fraction(0)
        for combo in itertools.combinations_with_replacement(roots, i):
            prod = Fraction(1)
            for r in combo:
                prod *= r
            total += prod
        return total

    from test_freepoly import evaluate
    rng = random.Random(5150)
    for k in range(1, 6):
        for i in range(0, 9):
            for _ in range(20):
                roots = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                         for _ in range(k)]
                evals = [e_sym(roots, j) for j in range(1, k + 1)]
                assert evaluate(dual_class_closed(i, k), evals) == \
                    (-1) ** i * h_sym(roots, i)
    _report(4, "root oracle: cbar_i(e(x)) = (-1)^i h_i(x)")


def test_criterion_5_lefschetz_criterion():
    # the second path, a sum over listed box partitions, is built untimed
    from test_lefschetz import enumerated_betti, enumerated_lefschetz
    for k in range(1, 13):
        for n in range(1, 13):
            enumerated_betti(k, n)
    start = time.monotonic()
    for k in range(1, 13):
        for n in range(1, 13):
            ctx = RingContext(k, n)
            for m in range(-5, 6):
                lef = lefschetz_number(m, ctx)
                zero = lef == 0
                assert zero == (m == -1 and (k * n) % 2 == 1)
                assert lef == enumerated_lefschetz(m, k, n)
    elapsed = time.monotonic() - start
    assert elapsed < 5
    _report(5, "L = 0 iff m = -1 and kn odd, k,n<=12, |m|<=5", elapsed)


def test_criterion_6_euler_characteristic():
    from test_lefschetz import enumerated_lefschetz
    for k in range(1, 13):
        for n in range(1, 13):
            ctx = RingContext(k, n)
            assert lefschetz_number(1, ctx) == comb(k + n, k)
            assert lefschetz_number(0, ctx) == 1
            for m in (0, 1):
                assert lefschetz_number(m, ctx) == enumerated_lefschetz(m, k, n)
    _report(6, "L(1) = C(k+n,k) and L(0) = 1")


def test_criterion_7_case4_coefficient_magnitudes():
    for l in range(1, 10):
        n = 3 * l + 4
        cbar = dual_class_closed(n, 4)
        if l % 2 == 0:
            j = l // 2
            assert abs(cbar.coeff((0, 3 * j + 2, 0, 0))) == 1
        assert abs(cbar.coeff((0, 2, l, 0))) == (l + 2) * (l + 1) // 2
        assert abs(cbar.coeff((0, 0, l, 1))) == l + 1
        assert abs(cbar.coeff((1, 0, l + 1, 0))) == l + 2
    _report(7, "k=4 witness coefficient magnitudes, l<=9")


def test_criterion_8_diophantine_infeasibility():
    start = time.monotonic()
    for l in range(1, 51):
        entry = _case2iii_single(l) if l % 2 == 0 else _case2iv_single(l)
        assert entry["solutions"] == []
    elapsed = time.monotonic() - start
    assert elapsed < 5
    _report(8, "Case 2(iii)/(iv) systems infeasible for 1<=l<=50", elapsed)


def test_criterion_9_certificate_coverage():
    start = time.monotonic()
    count = 0
    for k in range(2, 8):
        for n in range(k + 1, 21):
            cert = nontrivial_intersection_report(k, n)
            witness_ok = (cert.witness_coefficient is not None
                          and cert.witness_coefficient != 0)
            search_ok = (cert.search_log is not None
                         and cert.search_log.get("solutions") == [])
            assert witness_ok or search_ok, (k, n)
            count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(9, f"certificates for all {count} pairs, 1<k<n<=20, k<=7", elapsed)


def test_criterion_10_structural_ring_checks():
    from grasscoh.partitions import betti_numbers
    for k in range(1, 5):
        for n in range(1, 5):
            counts = [len(partitions_in_box(i, k, n))
                      for i in range(k * n + 1)]
            assert counts == betti_numbers(k, n)
            assert sum(counts) == comb(k + n, k)
            ctx = RingContext(k, n)
            top = k * n
            for d in range(top + 1):
                rows = partitions_in_box(d, k, n)
                cols = partitions_in_box(top - d, k, n)
                mat = [[pairing(SchurClass(ctx, {a: 1}), SchurClass(ctx, {b: 1}))
                        for b in cols] for a in rows]
                assert len(rows) == len(cols)
                for row in mat:
                    assert sorted(row) == [0] * (len(cols) - 1) + [1]
                for j in range(len(cols)):
                    col = [mat[i][j] for i in range(len(rows))]
                    assert sorted(col) == [0] * (len(rows) - 1) + [1]
    _report(10, "Betti dimensions and permutation pairing matrices, k,n<=4")


def test_criterion_11_parser_fuzz_and_round_trip():
    start = time.monotonic()
    rng = random.Random(987654321)
    alphabet = "c bar sigma()[]^*+-/0123456789 \t\n\x00é季"
    for _ in range(100_000):
        bucket = rng.random()
        if bucket < 0.9:
            length = rng.randint(0, 24)
        elif bucket < 0.98:
            length = rng.randint(0, 200)
        else:
            length = rng.randint(0, 4096)
        src = "".join(rng.choices(alphabet, k=length))
        try:
            parse(src)
        except ParseError as exc:
            assert 0 <= exc.offset <= len(src)

    from test_expr import _random_ast, render_as_source
    for _ in range(500):
        tree = _random_ast(rng, rng.randint(0, 4))
        assert parse(render_as_source(tree)) == tree
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _report(11, "parser totality (1e5 inputs) and 500 round trips", elapsed)
