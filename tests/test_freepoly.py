import copy
import itertools
import pickle
import random
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from grasscoh.freepoly import (AmbientMismatch, FreeClass, closed_coefficient,
                               dual_class_closed, dual_class_recursive,
                               dual_coefficient, render_free, total_chern)
from grasscoh.partitions import exponent_vectors_of_weight, weight
from grasscoh.ring import RingContext, SchurClass


def c(k, i):
    return FreeClass.generator(k, i)


class TestArithmetic:
    def test_add_identity(self):
        p = c(3, 1) * c(3, 2)
        assert p + FreeClass.zero(3) == p

    def test_cancellation_prunes(self):
        p = c(2, 1) + c(2, 1).scale(-1)
        assert p.is_zero()
        assert p.terms == {}

    def test_add_terms(self):
        p = c(2, 1) * c(2, 1) - c(2, 2)
        assert p + c(2, 2) == c(2, 1) * c(2, 1)

    def test_mul_weights_add(self):
        p = c(3, 1) * c(3, 2)
        assert {weight(a) for a in p.terms} == {3}
        assert p.coeff((1, 1, 0)) == 1

    def test_mul_hand_expansion(self):
        one = FreeClass.one(1)
        p = (one + c(1, 1)) * (one - c(1, 1))
        assert p == one - c(1, 1) * c(1, 1)

    def test_monomial_power_matches_repeated_product(self):
        for base in (c(3, 2), c(3, 1) * c(3, 3).scale(-2),
                     FreeClass(2, {(1, 1): Fraction(-3, 2)}),
                     FreeClass.one(2).scale(5), FreeClass.zero(2),
                     c(2, 1) + c(2, 2)):
            acc = FreeClass.one(base.k)
            for e in range(6):
                assert base.power(e) == acc, (base, e)
                acc = acc * base

    def test_binomial_power_matches_repeated_product(self):
        # one multinomial expansion for every base: seeded bases of 0-5
        # monomials, one of them possibly the unit, with signed and rational
        # coefficients, plus bases whose products collide and the total class
        rng = random.Random(34)
        coeffs = (1, -1, 3, -7, Fraction(1, 2), Fraction(-5, 3))
        bases = [c(1, 1) + c(1, 1).power(2) + c(1, 1).power(3),
                 FreeClass.one(2) - c(2, 1) + c(2, 1) * c(2, 1) - c(2, 2),
                 total_chern(3)]
        for _ in range(60):
            k = rng.randint(1, 3)
            vecs = [v for w in range(5) for v in exponent_vectors_of_weight(w, k)]
            bases.append(FreeClass(k, {alpha: rng.choice(coeffs) for alpha
                                       in rng.sample(vecs, rng.randint(0, 5))}))
        for base in bases:
            acc = FreeClass.one(base.k)
            for e in range(13):
                power = base.power(e)
                assert power == acc, (base, e)
                if all(type(x) is int for x in base.terms.values()):
                    assert all(type(x) is int for x in power.terms.values())
                acc = acc * base

    def test_power_forms_no_product(self, monkeypatch):
        # the expansion builds every coefficient itself: with products
        # disabled, powers of the total class still equal repeated products
        expected = []
        for k, e in ((3, 12), (2, 60)):
            acc = FreeClass.one(k)
            for _ in range(e):
                acc = acc * total_chern(k)
            expected.append((total_chern(k), e, acc))

        def refuse(self, other):
            raise AssertionError("power formed a product")

        monkeypatch.setattr(FreeClass, "__mul__", refuse)
        for base, e, power in expected:
            assert base.power(e) == power

    def test_power_takes_only_int_exponents(self):
        # one-term and many-term bases alike: an inexact exponent would
        # give inexact exponents and coefficients
        for base in (c(2, 1).scale(3), c(2, 1) + c(2, 2)):
            for e in (2.5, 2.0, Fraction(2), "2"):
                with pytest.raises(TypeError):
                    base.power(e)
            assert base.power(True) == base
            assert base.power(False) == FreeClass.one(2)

    def test_immutable(self):
        f = c(2, 1) - c(2, 2)
        h, text = hash(f), str(f)
        for name, value in (("k", 9), ("terms", {(0, 1): 1}), ("space", 3)):
            with pytest.raises(AttributeError):
                setattr(f, name, value)
        for key, coeff in (((0, 1), 7), ((2, 0), 1), ((1, 0), 0)):
            with pytest.raises(TypeError):
                f.terms[key] = coeff
        with pytest.raises(AttributeError):
            del f.terms
        assert (f.k, hash(f), str(f), f.is_zero()) == (2, h, text, False)
        # copies rebuild through the checking constructor
        assert pickle.loads(pickle.dumps(f)) == f == copy.deepcopy(f)
        zero = FreeClass.zero(2)
        with pytest.raises(TypeError):
            zero.terms[(0, 0)] = 0
        assert zero.is_zero() and str(zero) == "0"

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            c(2, 1) + c(3, 1)
        with pytest.raises(AmbientMismatch):
            c(2, 1) * c(3, 1)

    def test_coeff_checks_the_length(self):
        # the constructor's own key check, with its message
        with pytest.raises(AmbientMismatch, match="has length 3, expected 2"):
            c(2, 1).coeff((1, 0, 0))
        assert c(2, 1).coeff([1, 0]) == 1 and c(2, 1).coeff((0, 1)) == 0

    @pytest.mark.parametrize("left, right", [
        (c(2, 1), 2),
        (c(2, 1), "x"),
        (c(2, 1), SchurClass(RingContext(2, 2), {(1,): 1})),
        (SchurClass(RingContext(2, 2), {(1,): 1}), c(2, 1)),
    ], ids=["FreeClass-int", "FreeClass-str", "FreeClass-SchurClass",
            "SchurClass-FreeClass"])
    def test_sub_refuses_a_foreign_operand(self, left, right):
        # as `+` does: the TypeError names the operator the caller used
        with pytest.raises(TypeError, match="for -:"):
            left - right


class TestDualClasses:
    def test_base_cases_verbatim(self):
        assert dual_class_recursive(1, 4) == -c(4, 1)
        assert dual_class_recursive(2, 4) == c(4, 1) * c(4, 1) - c(4, 2)
        assert dual_class_closed(1, 4) == -c(4, 1)
        assert dual_class_closed(2, 4) == c(4, 1) * c(4, 1) - c(4, 2)

    def test_degree_three_k2(self):
        expected = (c(2, 1).power(3)).scale(-1) + (c(2, 1) * c(2, 2)).scale(2)
        assert dual_class_recursive(3, 2) == expected
        assert dual_class_closed(3, 2) == expected

    def test_closed_equals_recursive(self):
        for k in range(1, 7):
            for i in range(0, 13):
                assert dual_class_closed(i, k) == dual_class_recursive(i, k)

    def test_recursive_keeps_only_the_last_k_degrees(self):
        # cbar_600 with k = 2 has 301 terms; every degree below it holds
        # 14.6 MB together, the last two about 0.2 MB
        tracemalloc.start()
        try:
            got = dual_class_recursive(600, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6
        assert got == dual_class_closed(600, 2)

    def test_pure_c1_coefficient(self):
        for k in range(1, 5):
            for n in range(1, 8):
                alpha = (n,) + (0,) * (k - 1)
                assert dual_class_closed(n, k).coeff(alpha) == (-1) ** n

    def test_case2iii_iv_coefficients(self):
        for l in range(0, 6):
            cbar = dual_class_closed(3 * l + 4, 4)
            assert abs(cbar.coeff((0, 0, l, 1))) == l + 1
            assert abs(cbar.coeff((1, 0, l + 1, 0))) == l + 2

    def test_formal_inverse_property(self):
        for k in range(1, 7):
            total = total_chern(k)
            acc = FreeClass.one(k)
            for i in range(1, 13):
                acc = acc + dual_class_closed(i, k)
            prod = total * acc
            for j in range(1, 13):
                assert prod.homogeneous_component(j).is_zero()

    def test_single_coefficient_against_two_paths(self):
        # the recursion on one coefficient, the full class by the closed
        # sum, and the multinomial formula, on every alpha of weight <= 12
        for k in range(1, 6):
            for w in range(13):
                cbar = dual_class_closed(w, k)
                for alpha in exponent_vectors_of_weight(w, k):
                    got = dual_coefficient(alpha)
                    assert got == cbar.coeff(alpha), alpha
                    assert got == closed_coefficient(alpha), alpha

    def test_single_coefficient_large(self):
        # constant stack depth and an int result far past any recursion limit
        assert dual_coefficient((3000,)) == 1
        assert dual_coefficient((0, 40, 0, 41)) == -comb(81, 40)
        with pytest.raises(ValueError):
            dual_coefficient((1, -1))

    def test_whitney_weight_components(self):
        # (1 + c1 + c2)(1 + cbar1 + cbar2) has no weight-1 or weight-2 part
        k = 2
        lhs = total_chern(k)
        rhs = (FreeClass.one(k) + dual_class_closed(1, k)
               + dual_class_closed(2, k))
        prod = lhs * rhs
        assert prod.homogeneous_component(1).is_zero()
        assert prod.homogeneous_component(2).is_zero()


def elementary(roots, j):
    if j == 0:
        return Fraction(1)
    total = Fraction(0)
    for combo in itertools.combinations(roots, j):
        prod = Fraction(1)
        for r in combo:
            prod *= r
        total += prod
    return total


def complete_homogeneous(roots, i):
    # brute-force monomial enumeration, independent of the polynomial code
    if i == 0:
        return Fraction(1)
    total = Fraction(0)
    for combo in itertools.combinations_with_replacement(roots, i):
        prod = Fraction(1)
        for r in combo:
            prod *= r
        total += prod
    return total


def evaluate(p, values):
    """p with c_i := values[i-1], in exact rationals."""
    assert len(values) == p.k
    total = Fraction(0)
    for alpha, coeff in p.terms.items():
        prod = Fraction(coeff)
        for v, a in zip(values, alpha):
            prod *= Fraction(v) ** a
        total += prod
    return total


class TestRootOracle:
    def test_evaluate_simple(self):
        p = c(2, 1) * c(2, 1) - c(2, 2)
        assert evaluate(p, [2, 1]) == 3

    def test_evaluate_zero(self):
        assert evaluate(FreeClass.zero(3), [5, 7, 9]) == 0

    def test_dual_is_signed_complete_homogeneous(self):
        rng = random.Random(20230817)
        for k in range(1, 6):
            for i in range(0, 9):
                for _ in range(20):
                    roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                             for _ in range(k)]
                    evals = [elementary(roots, j) for j in range(1, k + 1)]
                    got = evaluate(dual_class_closed(i, k), evals)
                    want = (-1) ** i * complete_homogeneous(roots, i)
                    assert got == want


class TestRendering:
    def test_zero(self):
        assert render_free(FreeClass.zero(2)) == "0"

    def test_dual_two(self):
        assert render_free(dual_class_closed(2, 4)) == "1*c1^2 - 1*c2"

    def test_fraction_and_order(self):
        p = (c(2, 2).scale(Fraction(1, 3))
             + c(2, 1).scale(-2) + FreeClass.one(2))
        assert render_free(p) == "1 - 2*c1 + 1/3*c2"

    def test_grevlex_within_weight(self):
        p = c(3, 3) + c(3, 1) * c(3, 2) + c(3, 1).power(3)
        assert render_free(p) == "1*c1^3 + 1*c1*c2 + 1*c3"
