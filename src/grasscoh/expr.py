"""Expression language over the ring: lexer, recursive-descent parser,
evaluator, renderers.  The evaluator walks the tree once and builds both
lines of `eval`: the value in the free ring Q[c1..ck], and the Schur
value in H*(G(k,n)), where cbar and sigma atoms are Schur classes at
once and only subtrees of numbers and c_i atoms are reduced, or act on
the Schur value they multiply.

Grammar (LL(1), whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := rational | 'c' nat | 'cbar' '(' nat ')'
            | 'sigma' '[' (nat (',' nat)*)? ']' | '(' expr ')' | '-' atom
    rational := nat ('/' nat)?

`sigma[]` is the empty partition, the unit class, so every line that
`eval` prints parses again.  At most MAX_NESTING levels of '(' and unary
'-' may be open at once; deeper input is a ParseError at the offset of
the token that goes too deep.  Sums and products of any length parse and
evaluate without recursion along the chain.  Generator indices are
validated at evaluation time, not parse time, so a parsed expression can
be evaluated in several contexts.
"""

from .freepoly import FreeClass, dual_class_closed, render_free
from .ring import RingContext, SchurClass, act, lift, reduce_free


# -- AST ---------------------------------------------------------------
#
# Nodes are tuples led by a tag:
#   ("num", value)        an int, or a Fraction for `a/b`
#   ("c", i)              the Chern generator c_i
#   ("cbar", i)           the inverse-class component cbar(i)
#   ("sigma", parts)      the Schur class of a tuple of parts
#   ("+" | "-" | "*", left, right)
#   ("^", base, exponent)
#   ("neg", operand)
# A parenthesis leaves no node: "(x)" parses to the tree of x.


class ParseError(ValueError):
    def __init__(self, offset: int, message: str):
        super().__init__(f"parse error at offset {offset}: {message}")
        self.offset = offset
        self.message = message


class EvalError(ValueError):
    pass


# -- lexer -------------------------------------------------------------

_SYMBOLS = set("+-*^()[],/")
_DIGITS = set("0123456789")
_LETTERS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


def _tokenize(src: str):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and src[j] in _DIGITS:
                j += 1
            tokens.append(("NAT", int(src[i:j]), i))
            i = j
        elif ch in _LETTERS:
            j = i
            while j < n and src[j] in _LETTERS:
                j += 1
            word = src[i:j]
            if word not in ("c", "cbar", "sigma"):
                raise ParseError(i, f"unknown word {word!r}, "
                                    "expected 'c', 'cbar' or 'sigma'")
            tokens.append(("WORD", word, i))
            i = j
        elif ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(i, f"unexpected character {ch!r}")
    tokens.append(("EOF", None, n))
    return tokens


# -- parser ------------------------------------------------------------

MAX_NESTING = 100


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0

    def nest(self, tok):
        # each level costs a few stack frames here and one in eval_lines
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(tok[2], f"more than {MAX_NESTING} nested "
                                     "levels of '(' and unary '-'")

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(tok[2], f"expected {what}")
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "EOF":
            # after an exponent a '^' is refused, so it is not named: the
            # token before an exponent's nat is its '^'
            caret = "" if self.tokens[self.pos - 2][0] == "^" else ", '^'"
            raise ParseError(tok[2], f"expected '+', '-', '*'{caret} or end "
                                     "of input")
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            node = (op, node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            node = ("*", node, self.factor())
        return node

    def factor(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            node = ("^", node, self.expect("NAT", "natural number")[1])
            if self.peek()[0] == "^":
                raise ParseError(self.peek()[2], "a second '^': a factor takes "
                                 "one exponent, write (x^m)^n")
        return node

    def atom(self):
        tok = self.peek()
        kind = tok[0]
        if kind == "NAT":
            num = self.advance()[1]
            if self.peek()[0] == "/":
                self.advance()
                den_tok = self.expect("NAT", "natural number")
                if den_tok[1] == 0:
                    raise ParseError(den_tok[2], "denominator must be nonzero")
                from fractions import Fraction
                return ("num", Fraction(num, den_tok[1]))
            return ("num", num)
        if kind == "WORD":
            word = self.advance()[1]
            if word == "c":
                idx = self.expect("NAT", "natural number")[1]
                return ("c", idx)
            if word == "cbar":
                self.expect("(", "'('")
                idx = self.expect("NAT", "natural number")[1]
                self.expect(")", "')'")
                return ("cbar", idx)
            # sigma
            self.expect("[", "'['")
            parts = []
            if self.peek()[0] != "]":
                parts.append(self.expect("NAT", "natural number")[1])
                while self.peek()[0] == ",":
                    self.advance()
                    parts.append(self.expect("NAT", "natural number")[1])
            self.expect("]", "']'")
            return ("sigma", tuple(parts))
        if kind == "(":
            self.nest(self.advance())
            inner = self.expr()
            self.expect(")", "')'")
            self.depth -= 1
            return inner
        if kind == "-":
            self.nest(self.advance())
            node = ("neg", self.atom())
            self.depth -= 1
            return node
        raise ParseError(tok[2], "expected rational, 'c', 'cbar', 'sigma', "
                                 "'(' or '-'")


def parse(src: str):
    """Parse a source string to an AST; raises ParseError with a 0-based
    offset on malformed input."""
    return _Parser(src).parse()


# -- evaluation --------------------------------------------------------

_INFIX = ("+", "-", "*")


def eval_lines(node, ctx: RingContext):
    """Both lines of `eval` in one walk: the free value of node, and its
    Schur value, or None on a subtree of only numbers and c_i atoms
    ("c-only").  Reduction is a ring map, so the Schur value is built on
    the tree: cbar and sigma atoms go to their Schur class at once, a
    c-only factor acts on the other factor's Schur value by its free
    value (`act`), a c-only side of + or - meets the other by
    `reduce_free` of its free value, and +, -, * and ^ act on
    SchurClass.  Each node is evaluated once, its free value first, so
    every EvalError reads as the free line's."""
    # walk the left spine of a binary chain in a loop, so a flat sum or
    # product of any length recurses only into its right operands
    spine = []
    while node[0] in _INFIX:
        spine.append(node)
        node = node[1]
    acc, acc_schur = _eval_operand(node, ctx)
    for tag, _, right in reversed(spine):
        rhs, rhs_schur = eval_lines(right, ctx)
        if tag == "*" and (acc_schur is None) != (rhs_schur is None):
            # the c-only side acts on the other side's Schur value
            acc_schur = (act(acc, rhs_schur) if acc_schur is None
                         else act(rhs, acc_schur))
        elif acc_schur is not None or rhs_schur is not None:
            if acc_schur is None:
                acc_schur = reduce_free(acc, ctx)
            elif rhs_schur is None:
                rhs_schur = reduce_free(rhs, ctx)
            acc_schur = _combine(tag, acc_schur, rhs_schur)
        acc = _combine(tag, acc, rhs)
    return acc, acc_schur


def eval_expr(node, ctx: RingContext) -> FreeClass:
    """The free value of node: the first line of `eval_lines`."""
    return eval_lines(node, ctx)[0]


def _combine(tag, a, b):
    if tag == "+":
        return a + b
    if tag == "-":
        return a - b
    return a * b


def _eval_operand(node, ctx: RingContext):
    tag, arg = node[0], node[1]
    k = ctx.k
    if tag == "num":
        return FreeClass.one(k).scale(arg), None
    if tag == "cbar":
        # cbar(i) is (-1)^i sigma_(i), and 0 past n (Fulton, Young
        # Tableaux, 9.4)
        free = dual_class_closed(arg, k)
        terms = {(arg,) if arg else (): (-1) ** arg} if arg <= ctx.n else {}
        return free, SchurClass._of(ctx, terms)
    if tag == "^" or tag == "neg":
        free, schur = eval_lines(arg, ctx)
        if tag == "neg":
            return -free, None if schur is None else -schur
        return (free.power(node[2]),
                None if schur is None else schur.power(node[2]))
    # the constructors' range and partition checks, as evaluation errors
    try:
        if tag == "c":
            return FreeClass.generator(k, arg), None
        if tag == "sigma":
            parts = arg
            while parts and parts[-1] == 0:
                parts = parts[:-1]
            schur = SchurClass(ctx, {parts: 1})
            return lift(schur), schur
    except ValueError as exc:
        raise EvalError(str(exc)) from None
    raise EvalError(f"unknown node {node!r}")


# -- rendering ---------------------------------------------------------

def wire_coeff(c) -> str:
    """An exact coefficient as its JSON and CSV text: reduced `num/den`,
    so an int c reads `c/1`."""
    return f"{c.numerator}/{c.denominator}"


def render(x: FreeClass, ctx: RingContext, fmt: str = "text",
           reduced: SchurClass = None) -> str:
    """Render a free polynomial and its Schur expansion in ctx: `reduced`
    when given (`eval_lines`' Schur value), else the reduction of x."""
    if reduced is None:
        reduced = reduce_free(x, ctx)
    if fmt == "text":
        return f"{render_free(x)}\n= {reduced}"
    if fmt == "json":
        import json
        free = [{"alpha": list(a), "coeff": wire_coeff(c)}
                for a, c in x.sorted_terms()]
        schur = [{"partition": list(lam), "coeff": wire_coeff(c)}
                 for lam, c in reduced.sorted_terms()]
        return json.dumps({"free": free, "schur": schur})
    if fmt == "csv":
        lines = ["partition,coeff"]
        for lam, c in reduced.sorted_terms():
            lines.append(f"\"{' '.join(map(str, lam))}\",{wire_coeff(c)}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
