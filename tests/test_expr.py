import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grasscoh.expr import (EvalError, ParseError, eval_expr, eval_lines, parse,
                           render)
from grasscoh.freepoly import FreeClass, dual_class_closed
from grasscoh.ring import RingContext, reduce_free


class TestParse:
    def test_grammar_basic(self):
        assert parse("c1^2 - c2") == ("-", ("^", ("c", 1), 2), ("c", 2))

    def test_dual_generator(self):
        assert parse("cbar(2)") == ("cbar", 2)

    def test_sigma(self):
        assert parse("sigma[3,1]") == ("sigma", (3, 1))

    def test_empty_sigma(self):
        assert parse("sigma[ ]") == ("sigma", ())
        assert render_as_source(("sigma", ())) == "sigma[]"

    def test_rational(self):
        assert parse("2/3") == ("num", Fraction(2, 3))
        assert parse("7") == ("num", Fraction(7))

    def test_precedence(self):
        assert parse("1 + 2*c1") == ("+", ("num", Fraction(1)),
                                     ("*", ("num", Fraction(2)), ("c", 1)))

    def test_left_associativity(self):
        got = parse("c1 - c2 + c1")
        assert got == ("+", ("-", ("c", 1), ("c", 2)), ("c", 1))

    def test_parens_group(self):
        # a parenthesis leaves no node of its own
        assert parse("(c1)") == ("c", 1)
        assert parse("(c1+c2)*c3") == ("*", ("+", ("c", 1), ("c", 2)), ("c", 3))

    def test_unary_minus_binds_tight(self):
        assert parse("-c1^2") == ("^", ("neg", ("c", 1)), 2)

    def test_whitespace_insensitive(self):
        assert parse(" c 1 + c2 ") == parse("c1+c2")

    def test_error_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("c1^")
        assert exc.value.offset == 3
        assert "natural number" in exc.value.message

    @pytest.mark.parametrize("src, offset", [("2^3^4", 3), ("(c1^2^3)", 5)])
    def test_error_second_exponent(self, src, offset):
        # a factor takes one exponent: the second '^' is named, not
        # expected, and the message points to the parenthesised power
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert exc.value.offset == offset
        assert exc.value.message == ("a second '^': a factor takes one "
                                     "exponent, write (x^m)^n")
        assert parse("(2^3)^4") == ("^", ("^", ("num", 2), 3), 4)

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
        assert got == dual_class_closed(2, 3)

    def test_reduce_through_eval(self):
        ctx = RingContext(1, 2)
        got = eval_expr(parse("c1*c1"), ctx)
        assert reduce_free(got, ctx).coeff((2,)) == 1

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
        assert got == FreeClass.generator(2, 1).scale(Fraction(1, 2))


class TestRender:
    def test_zero(self):
        ctx = RingContext(2, 2)
        assert render(FreeClass.zero(2), ctx, "text") == "0\n= 0"

    def test_dual_two_in_g22(self):
        ctx = RingContext(2, 2)
        obj = json.loads(render(dual_class_closed(2, 2), ctx, "json"))
        assert obj["schur"] == [{"partition": [2], "coeff": "1/1"}]
        assert {"alpha": [2, 0], "coeff": "1/1"} in obj["free"]

    def test_csv(self):
        ctx = RingContext(2, 2)
        assert render(dual_class_closed(2, 2), ctx, "csv") == \
            'partition,coeff\n"2",1/1\n'

    def test_text_lines_parse_back(self):
        ctx = RingContext(2, 3)
        x = eval_expr(parse("cbar(3) + 1/2*c2"), ctx)
        free_line, schur_line = render(x, ctx, "text").split("\n")
        assert eval_expr(parse(free_line), ctx) == x
        assert reduce_free(eval_expr(parse(schur_line.lstrip("= ")), ctx),
                           ctx) == reduce_free(x, ctx)

    def test_unit_lines_parse_back(self):
        ctx = RingContext(2, 3)
        x = eval_expr(parse("sigma[2,1]^0"), ctx)
        text = render(x, ctx, "text")
        assert text == "1\n= 1*sigma[]"
        free_line, schur_line = text.split("\n")
        for line in (free_line, schur_line.removeprefix("= ")):
            assert reduce_free(eval_expr(parse(line), ctx), ctx) == \
                reduce_free(x, ctx)


_INFIX_TEXT = {"+": " + ", "-": " - ", "*": "*"}
# how tightly each node binds: sums, products, powers, then atoms and "neg"
_PREC = {"+": 1, "-": 1, "*": 2, "^": 3}


def render_as_source(node, floor=1) -> str:
    """Print an AST back to source text that parses to the same tree,
    with a parenthesis only around a node that binds looser than `floor`.
    Like eval_expr, it walks the left spine of a binary chain in a loop."""
    if _PREC.get(node[0], 4) < floor:
        return f"({render_as_source(node)})"
    spine = []
    while node[0] in _INFIX_TEXT and _PREC[node[0]] >= floor:
        spine.append(node)
        floor = _PREC[node[0]]
        node = node[1]
    pieces = [render_as_source(node, floor) if node[0] in _INFIX_TEXT
              else _render_operand(node)]
    for tag, _, right in reversed(spine):
        # infix operators associate to the left: a right operand at the
        # same level needs parentheses
        pieces += (_INFIX_TEXT[tag], render_as_source(right, _PREC[tag] + 1))
    return "".join(pieces)


def _render_operand(node) -> str:
    tag, arg = node[0], node[1]
    if tag == "num":
        return str(arg)
    if tag == "c":
        return f"c{arg}"
    if tag == "cbar":
        return f"cbar({arg})"
    if tag == "sigma":
        return f"sigma[{','.join(map(str, arg))}]"
    # the base of "^" and the operand of "-" are atoms in the grammar
    if tag == "^":
        return f"{render_as_source(arg, 4)}^{node[2]}"
    if tag == "neg":
        return f"-{render_as_source(arg, 4)}"
    raise TypeError(f"unknown node {node!r}")


# random well-formed ASTs of any shape; render_as_source puts in the
# parentheses that printing then parsing needs to be the identity on trees
def _random_ast(rng, depth):
    if depth == 0:
        kind = rng.randrange(4)
        if kind == 0:
            den = rng.randint(1, 9)
            return ("num", Fraction(rng.randint(0, 99), den))
        if kind == 1:
            return ("c", rng.randint(1, 4))
        if kind == 2:
            return ("cbar", rng.randint(0, 6))
        parts = sorted((rng.randint(1, 4)
                        for _ in range(rng.randint(1, 3))), reverse=True)
        return ("sigma", tuple(parts))
    kind = rng.randrange(5)
    a = _random_ast(rng, depth - 1)
    if kind == 4:
        return ("^", a, rng.randint(0, 3))
    if kind == 3:
        return ("neg", a)
    b = _random_ast(rng, depth - 1)
    return ("+-*"[kind], a, b)


@st.composite
def boxed_trees(draw):
    """(ctx, tree): a random AST over G(k,n), k, n <= 4, whose atoms reach
    just past the box: c_0 and c_(k+1), cbar(i) for i <= n + 2, and sigma
    keys with too many rows, too large a part or a rise."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    parts = st.lists(st.integers(0, n + 1), max_size=k + 1)
    atoms = st.one_of(
        st.tuples(st.just("num"), st.integers(0, 9)
                  | st.fractions(0, 9, max_denominator=9)),
        st.tuples(st.just("c"), st.integers(0, k + 1)),
        st.tuples(st.just("cbar"), st.integers(0, n + 2)),
        st.tuples(st.just("sigma"),
                  parts.map(lambda p: tuple(sorted(p, reverse=True)))
                  | parts.map(tuple)))
    tree = st.recursive(atoms, lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*"), sub, sub),
        st.tuples(st.just("neg"), sub),
        st.tuples(st.just("^"), sub, st.integers(0, 3))), max_leaves=6)
    return RingContext(k, n), draw(tree)


def _c_only(node) -> bool:
    tag = node[0]
    if tag in ("cbar", "sigma"):
        return False
    if tag in ("num", "c"):
        return True
    return all(_c_only(arg) for arg in node[1:] if isinstance(arg, tuple))


@settings(max_examples=300, deadline=None)
@given(boxed_trees())
def test_schur_line_is_the_reduction_of_the_free_line(case):
    ctx, tree = case
    try:
        free, schur = eval_lines(tree, ctx)
    except EvalError as exc:
        with pytest.raises(EvalError) as again:
            eval_expr(tree, ctx)
        assert str(again.value) == str(exc)
        return
    assert free == eval_expr(tree, ctx)
    # a Schur value exactly where a cbar or sigma atom is below
    assert (schur is None) == _c_only(tree)
    reduced = reduce_free(free, ctx)
    assert (reduced if schur is None else schur) == reduced


def test_round_trip_500_random_trees():
    rng = random.Random(424242)
    for _ in range(500):
        tree = _random_ast(rng, rng.randint(0, 4))
        src = render_as_source(tree)
        assert parse(src) == tree


@pytest.mark.parametrize("op", [" + ", "*", " - "])
def test_render_long_flat_chain(op):
    # far past the recursion limit; strings are compared, since tuple ==
    # recurses down a nested tree and fails on one this deep
    src = op.join(f"c{1 + i % 3}" for i in range(2000))
    assert render_as_source(parse(src)) == src


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
