import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grasscoh.expr import (Add, ChernGen, DualGen, EvalError, Mul, Neg, Paren,
                           ParseError, Pow, RationalLiteral, SchurGen, Sub,
                           eval_expr, parse, render, render_as_source)
from grasscoh.freepoly import FreeClass, dual_class_closed
from grasscoh.ring import GrassElement, RingContext


class TestParse:
    def test_grammar_basic(self):
        assert parse("c1^2 - c2") == Sub(Pow(ChernGen(1), 2), ChernGen(2))

    def test_dual_generator(self):
        assert parse("cbar(2)") == DualGen(2)

    def test_sigma(self):
        assert parse("sigma[3,1]") == SchurGen((3, 1))

    def test_empty_sigma(self):
        assert parse("sigma[ ]") == SchurGen(())
        assert render_as_source(SchurGen(())) == "sigma[]"

    def test_rational(self):
        assert parse("2/3") == RationalLiteral(Fraction(2, 3))
        assert parse("7") == RationalLiteral(Fraction(7))

    def test_precedence(self):
        assert parse("1 + 2*c1") == Add(RationalLiteral(Fraction(1)),
                                        Mul(RationalLiteral(Fraction(2)),
                                            ChernGen(1)))

    def test_left_associativity(self):
        got = parse("c1 - c2 + c1")
        assert got == Add(Sub(ChernGen(1), ChernGen(2)), ChernGen(1))

    def test_parens_preserved(self):
        assert parse("(c1)") == Paren(ChernGen(1))

    def test_unary_minus_binds_tight(self):
        assert parse("-c1^2") == Pow(Neg(ChernGen(1)), 2)

    def test_whitespace_insensitive(self):
        assert parse(" c 1 + c2 ") == parse("c1+c2")

    def test_error_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("c1^")
        assert exc.value.offset == 3
        assert "natural number" in exc.value.message

    def test_error_trailing_garbage(self):
        with pytest.raises(ParseError) as exc:
            parse("c1 c2")
        assert exc.value.offset == 3

    def test_error_zero_denominator(self):
        with pytest.raises(ParseError):
            parse("1/0")


class TestEval:
    def test_dual_base_case(self):
        ctx = RingContext(3, 4)
        got = eval_expr(parse("cbar(2)"), ctx)
        assert got.free == dual_class_closed(2, 3)

    def test_reduce_through_eval(self):
        ctx = RingContext(1, 2)
        got = eval_expr(parse("c1*c1"), ctx)
        assert got.reduced.coeff((2,)) == 1

    def test_index_out_of_range(self):
        with pytest.raises(EvalError):
            eval_expr(parse("c3"), RingContext(2, 5))

    def test_sigma_outside_box(self):
        with pytest.raises(EvalError):
            eval_expr(parse("sigma[4]"), RingContext(2, 3))

    def test_sigma_not_partition(self):
        with pytest.raises(EvalError):
            eval_expr(parse("sigma[1,2]"), RingContext(3, 3))

    def test_arithmetic(self):
        ctx = RingContext(2, 2)
        got = eval_expr(parse("(c1 - c1)^3 + 1/2*sigma[1]"), ctx)
        assert got == GrassElement.generator(ctx, 1).scale(Fraction(1, 2))


class TestRender:
    def test_zero(self):
        ctx = RingContext(2, 2)
        assert render(GrassElement.zero(ctx), "text") == "0\n= 0"

    def test_dual_two_in_g22(self):
        ctx = RingContext(2, 2)
        x = GrassElement(ctx, dual_class_closed(2, 2))
        obj = json.loads(render(x, "json"))
        assert obj["schur"] == [{"partition": [2], "coeff": "1/1"}]
        assert {"alpha": [2, 0], "coeff": "1/1"} in obj["free"]

    def test_csv(self):
        ctx = RingContext(2, 2)
        x = GrassElement(ctx, dual_class_closed(2, 2))
        assert render(x, "csv") == 'partition,coeff\n"2",1/1\n'

    def test_text_lines_parse_back(self):
        ctx = RingContext(2, 3)
        x = eval_expr(parse("cbar(3) + 1/2*c2"), ctx)
        free_line, schur_line = render(x, "text").split("\n")
        assert eval_expr(parse(free_line), ctx) == x
        assert eval_expr(parse(schur_line.lstrip("= ")), ctx) == x

    def test_unit_lines_parse_back(self):
        ctx = RingContext(2, 3)
        x = eval_expr(parse("sigma[2,1]^0"), ctx)
        text = render(x, "text")
        assert text == "1\n= 1*sigma[]"
        free_line, schur_line = text.split("\n")
        for line in (free_line, schur_line.removeprefix("= ")):
            assert eval_expr(parse(line), ctx).reduced == x.reduced


# random well-formed ASTs; compound children are always parenthesized so
# printing then parsing is the identity on trees
def _random_ast(rng, depth):
    def wrap(node):
        return node if isinstance(
            node, (RationalLiteral, ChernGen, DualGen, SchurGen, Paren)) \
            else Paren(node)

    if depth == 0:
        kind = rng.randrange(4)
        if kind == 0:
            den = rng.randint(1, 9)
            return RationalLiteral(Fraction(rng.randint(0, 99), den))
        if kind == 1:
            return ChernGen(rng.randint(1, 4))
        if kind == 2:
            return DualGen(rng.randint(0, 6))
        parts = sorted((rng.randint(1, 4)
                        for _ in range(rng.randint(1, 3))), reverse=True)
        return SchurGen(tuple(parts))
    kind = rng.randrange(5)
    a = _random_ast(rng, depth - 1)
    if kind == 4:
        return Pow(wrap(a), rng.randint(0, 3))
    if kind == 3:
        return Neg(wrap(a))
    b = _random_ast(rng, depth - 1)
    op = (Add, Sub, Mul)[kind]
    return op(wrap(a), wrap(b))


def test_round_trip_500_random_trees():
    rng = random.Random(424242)
    for _ in range(500):
        tree = _random_ast(rng, rng.randint(0, 4))
        src = render_as_source(tree)
        assert parse(src) == tree


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=256))
def test_parser_totality_text(src):
    try:
        parse(src)
    except ParseError as exc:
        assert 0 <= exc.offset <= len(src)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=512))
def test_parser_totality_bytes(data):
    src = data.decode("latin-1")
    try:
        parse(src)
    except ParseError as exc:
        assert 0 <= exc.offset <= len(src)
