import random
from math import comb

from grasscoh.freepoly import FreeClass
from grasscoh.lefschetz import (apply_adams, fpp_classification,
                                in_classified_range, lefschetz_number,
                                proposition_check, sweep_csv)
from grasscoh.ring import GrassElement, RingContext


class TestApplyAdams:
    def test_degree_one_scaling(self):
        ctx = RingContext(3, 4)
        c1 = GrassElement.generator(ctx, 1)
        for m in range(-3, 4):
            assert apply_adams(c1, m) == c1.scale(m)

    def test_identity(self):
        ctx = RingContext(2, 3)
        x = GrassElement(ctx, FreeClass(2, {(2, 1): 3, (0, 1): -1}))
        assert apply_adams(x, 1) == x

    def test_weight_three_scales_by_cube(self):
        ctx = RingContext(3, 4)
        x = GrassElement(ctx, FreeClass.monomial(3, (1, 1, 0)))
        assert apply_adams(x, 2) == x.scale(8)

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
        c1 = GrassElement.generator(ctx, 1)
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
    return GrassElement(ctx, FreeClass(ctx.k, terms))


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

    def test_minus_one_closed_form(self):
        # when kn is even, L(-1) = C(floor((k+n)/2), floor(k/2)); the closed
        # form is a check against the direct summation, not an input
        for k in range(1, 13):
            for n in range(1, 13):
                lef = lefschetz_number(-1, RingContext(k, n))
                if (k * n) % 2 == 1:
                    assert lef == 0
                else:
                    assert lef == comb((k + n) // 2, k // 2)


class TestProposition:
    def test_exhaustive_desk_scale(self):
        report = proposition_check(12, 12, range(-5, 6))
        assert report.passed
        assert report.cells_checked == 12 * 12 * 11

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


class TestSweep:
    def test_header_and_shape(self):
        out = sweep_csv(2, 2, range(-1, 2))
        lines = out.strip().split("\n")
        assert lines[0] == "k,n,m,lefschetz,kn_parity,in_classified_range,verdict"
        assert len(lines) == 1 + 2 * 2 * 3

    def test_deterministic(self):
        assert sweep_csv(3, 3) == sweep_csv(3, 3)

    def test_row_content(self):
        out = sweep_csv(1, 1, range(-1, 0))
        assert out.strip().split("\n")[1] == \
            "1,1,-1,0,odd,false,OutsideClassifiedRange"
