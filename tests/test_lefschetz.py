import io
import random
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from grasscoh import lefschetz
from grasscoh.cli import run_cli
from grasscoh.freepoly import FreeClass
from grasscoh.lefschetz import (apply_adams, fpp_classification,
                                in_classified_range, lefschetz_number,
                                proposition_check)
from grasscoh.partitions import betti_numbers, partitions_in_box
from grasscoh.ring import RingContext, SchurClass, reduce_free


@lru_cache(maxsize=None)
def enumerated_betti(k, n):
    """dim H^{2i}(G(k,n)) for i = 0..kn, by listing the partitions in the
    k x n box: shares no code with the Gaussian binomial row or with the
    closed form in `lefschetz_number`."""
    return tuple(len(partitions_in_box(i, k, n)) for i in range(k * n + 1))


def enumerated_lefschetz(m, k, n):
    return sum(m ** i * b for i, b in enumerate(enumerated_betti(k, n)))


class TestApplyAdams:
    def test_degree_one_scaling(self):
        ctx = RingContext(3, 4)
        c1 = reduce_free(FreeClass.generator(3, 1), ctx)
        for m in range(-3, 4):
            assert apply_adams(c1, m) == c1.scale(m)

    def test_identity(self):
        ctx = RingContext(2, 3)
        x = reduce_free(FreeClass(2, {(2, 1): 3, (0, 1): -1}), ctx)
        assert apply_adams(x, 1) == x

    def test_weight_three_scales_by_cube(self):
        ctx = RingContext(3, 4)
        x = reduce_free(FreeClass(3, {(1, 1, 0): 1}), ctx)
        assert apply_adams(x, 2) == x.scale(8)

    def test_coefficients_stay_exact(self):
        ctx = RingContext(2, 3)
        x = reduce_free(FreeClass(2, {(2, 1): 3, (0, 1): -1, (0, 0): 5}), ctx)
        assert all(type(c) is int for c in apply_adams(x, 3).terms.values())
        # degree 0 keeps the constant term only: the zeros are dropped
        assert apply_adams(x, 0) == SchurClass(ctx, {(): 5})
        half = apply_adams(x, 0.5)
        assert half == apply_adams(x, Fraction(1, 2))
        assert all(type(c) is Fraction for c in half.terms.values())
        with pytest.raises(ValueError):
            apply_adams(x, float("nan"))

    def test_ring_endomorphism(self):
        rng = random.Random(99)
        for k in range(1, 5):
            for n in range(1, 5):
                ctx = RingContext(k, n)
                for _ in range(4):
                    x = _random_elt(rng, ctx)
                    y = _random_elt(rng, ctx)
                    m = rng.randint(-3, 3)
                    lhs = apply_adams(x.cup(y), m)
                    rhs = apply_adams(x, m).cup(apply_adams(y, m))
                    assert lhs == rhs

    def test_antipodal_on_g22(self):
        ctx = RingContext(2, 2)
        c1 = reduce_free(FreeClass.generator(2, 1), ctx)
        assert apply_adams(c1, -1) == c1.scale(-1)
        # b = 1, 1, 2, 1, 1, so the degree -1 trace is 1 - 1 + 2 - 1 + 1
        assert lefschetz_number(-1, ctx) == 2


def _random_elt(rng, ctx):
    from grasscoh.partitions import exponent_vectors_of_weight
    terms = {}
    for _ in range(3):
        w = rng.randint(0, 4)
        vecs = exponent_vectors_of_weight(w, ctx.k)
        terms[vecs[rng.randrange(len(vecs))]] = rng.randint(-3, 3)
    return reduce_free(FreeClass(ctx.k, terms), ctx)


class TestLefschetzNumber:
    def test_cp1_antipodal(self):
        assert lefschetz_number(-1, RingContext(1, 1)) == 0

    def test_cp2(self):
        assert lefschetz_number(-1, RingContext(1, 2)) == 1

    def test_euler_characteristic(self):
        for k in range(1, 13):
            for n in range(1, 13):
                ctx = RingContext(k, n)
                assert lefschetz_number(1, ctx) == comb(k + n, k)
                assert lefschetz_number(0, ctx) == 1
                for m in (0, 1):
                    assert lefschetz_number(m, ctx) == \
                        enumerated_lefschetz(m, k, n)

    def test_minus_one_closed_form(self):
        # when kn is even, L(-1) = C(floor((k+n)/2), floor(k/2)); the package
        # uses this closed form, so the enumerated sum is the second path
        for k in range(1, 13):
            for n in range(1, 13):
                lef = lefschetz_number(-1, RingContext(k, n))
                if (k * n) % 2 == 1:
                    assert lef == 0
                else:
                    assert lef == comb((k + n) // 2, k // 2)
                assert lef == enumerated_lefschetz(-1, k, n)

    def test_agrees_with_enumerated_partitions(self):
        for k in range(1, 13):
            for n in range(1, 13):
                ctx = RingContext(k, n)
                for m in range(-6, 7):
                    assert lefschetz_number(m, ctx) == \
                        enumerated_lefschetz(m, k, n), (k, n, m)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 20),
           st.one_of(st.integers(-10, 10),
                     st.integers(-10 ** 50, 10 ** 50)))
    @example(20, 20, 10 ** 50)
    @example(19, 20, -10 ** 50)
    @example(20, 19, -1)
    def test_agrees_with_betti_row(self, k, n, m):
        lef = lefschetz_number(m, RingContext(k, n))
        assert lef == sum(m ** i * b for i, b in enumerate(betti_numbers(k, n)))


class TestProposition:
    def test_exhaustive_desk_scale(self):
        report = proposition_check(12, 12, range(-5, 6))
        assert report.passed
        assert report.cells_checked == 12 * 12 * 11

    def test_catches_a_closed_form_one_factor_short(self, monkeypatch):
        # L(2) of G(3,4) reads 651 instead of 11,811, and no value becomes
        # 0, so only the Betti-row trace sum tells the two apart
        def one_factor_short(m, ctx):
            k, n = sorted(ctx)
            if m in (1, -1):
                return lefschetz_number(m, ctx)
            lef, m_j, m_nj = 1, 1, m ** n
            for _ in range(k - 1):
                m_j *= m
                m_nj *= m
                lef = lef * (m_nj - 1) // (m_j - 1)
            return lef

        assert one_factor_short(2, RingContext(3, 4)) == 651
        monkeypatch.setattr(lefschetz, "lefschetz_number", one_factor_short)
        report = proposition_check(6, 6, range(-3, 4))
        assert not report.passed
        # every m but 0, 1 and -1, in each of the 36 boxes
        assert len(report.counterexamples) == 4 * 36

    def test_g33_degree_minus_one(self):
        assert lefschetz_number(-1, RingContext(3, 3)) == 0

    def test_g23_degree_minus_one(self):
        assert lefschetz_number(-1, RingContext(2, 3)) != 0


class TestFppVerdict:
    def test_classified_examples(self):
        assert fpp_classification(2, 3).status == "FPP"
        assert fpp_classification(1, 2).status == "FPP"
        assert fpp_classification(3, 5).status == "NoFPP"

    def test_outside_range(self):
        # k=4 needs n >= 2*16-4-1 = 27
        assert not in_classified_range(4, 6)
        assert fpp_classification(4, 6).status == "OutsideClassifiedRange"
        assert in_classified_range(4, 27)

    def test_table_populated(self):
        verdict = fpp_classification(2, 2, range(-2, 3))
        assert set(verdict.lefschetz_table) == {-2, -1, 0, 1, 2}
        assert verdict.lefschetz_table[1] == 6


def sweep_csv(k_max, n_max, m_range="-5:5"):
    """The fpp CSV sweep, as the CLI writes it."""
    out = io.StringIO()
    assert run_cli(["--format", "csv", "fpp", "--k-max", str(k_max),
                    "--n-max", str(n_max), "--m-range", m_range], out=out) == 0
    return out.getvalue()


class TestSweep:
    def test_header_and_shape(self):
        out = sweep_csv(2, 2, "-1:1")
        lines = out.strip().split("\n")
        assert lines[0] == "k,n,m,lefschetz,kn_parity,in_classified_range,verdict"
        assert len(lines) == 1 + 2 * 2 * 3

    def test_deterministic(self):
        assert sweep_csv(3, 3) == sweep_csv(3, 3)

    def test_row_content(self):
        out = sweep_csv(1, 1, "-1:-1")
        assert out.strip().split("\n")[1] == \
            "1,1,-1,0,odd,false,OutsideClassifiedRange"
