"""Expression language over the ring: lexer, recursive-descent parser,
evaluator, renderers.

Grammar (LL(1), whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := rational | 'c' nat | 'cbar' '(' nat ')'
            | 'sigma' '[' (nat (',' nat)*)? ']' | '(' expr ')' | '-' atom
    rational := nat ('/' nat)?

`sigma[]` is the empty partition, the unit class, so every line that
`eval` prints parses again.  Generator indices are validated at
evaluation time, not parse time, so a parsed expression can be
evaluated in several contexts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .freepoly import dual_class_closed, render_free
from .ring import GrassElement, RingContext, SchurClass


# -- AST ---------------------------------------------------------------

@dataclass(frozen=True)
class RationalLiteral:
    value: Fraction


@dataclass(frozen=True)
class ChernGen:
    index: int


@dataclass(frozen=True)
class DualGen:
    index: int


@dataclass(frozen=True)
class SchurGen:
    partition: tuple


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Paren:
    inner: object


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

class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0

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
            raise ParseError(tok[2], "expected '+', '-', '*', '^' or end of input")
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            node = Mul(node, self.factor())
        return node

    def factor(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            exp = self.expect("NAT", "natural number")[1]
            node = Pow(node, exp)
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
                return RationalLiteral(Fraction(num, den_tok[1]))
            return RationalLiteral(Fraction(num))
        if kind == "WORD":
            word = self.advance()[1]
            if word == "c":
                idx = self.expect("NAT", "natural number")[1]
                return ChernGen(idx)
            if word == "cbar":
                self.expect("(", "'('")
                idx = self.expect("NAT", "natural number")[1]
                self.expect(")", "')'")
                return DualGen(idx)
            # sigma
            self.expect("[", "'['")
            parts = []
            if self.peek()[0] != "]":
                parts.append(self.expect("NAT", "natural number")[1])
                while self.peek()[0] == ",":
                    self.advance()
                    parts.append(self.expect("NAT", "natural number")[1])
            self.expect("]", "']'")
            return SchurGen(tuple(parts))
        if kind == "(":
            self.advance()
            inner = self.expr()
            self.expect(")", "')'")
            return Paren(inner)
        if kind == "-":
            self.advance()
            return Neg(self.atom())
        raise ParseError(tok[2], "expected rational, 'c', 'cbar', 'sigma', "
                                 "'(' or '-'")


def parse(src: str):
    """Parse a source string to an AST; raises ParseError with a 0-based
    offset on malformed input."""
    return _Parser(src).parse()


# -- evaluation --------------------------------------------------------

def eval_expr(node, ctx: RingContext) -> GrassElement:
    k = ctx.k
    if isinstance(node, RationalLiteral):
        return GrassElement.one(ctx).scale(node.value)
    if isinstance(node, ChernGen):
        if not 1 <= node.index <= k:
            raise EvalError(f"generator index {node.index} out of range "
                            f"[1, {k}]")
        return GrassElement.generator(ctx, node.index)
    if isinstance(node, DualGen):
        return GrassElement(ctx, dual_class_closed(node.index, k))
    if isinstance(node, SchurGen):
        parts = node.partition
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)) or \
                any(p < 1 for p in parts):
            raise EvalError(f"sigma index {list(node.partition)} is not a "
                            "partition")
        if len(parts) > k or (parts and parts[0] > ctx.n):
            raise EvalError(f"partition {list(parts)} outside the "
                            f"{k}x{ctx.n} box")
        return GrassElement.from_schur(ctx, SchurClass(ctx, {parts: 1}))
    if isinstance(node, Add):
        return eval_expr(node.left, ctx) + eval_expr(node.right, ctx)
    if isinstance(node, Sub):
        return eval_expr(node.left, ctx) - eval_expr(node.right, ctx)
    if isinstance(node, Mul):
        return eval_expr(node.left, ctx).cup(eval_expr(node.right, ctx))
    if isinstance(node, Pow):
        return eval_expr(node.base, ctx).power(node.exponent)
    if isinstance(node, Neg):
        return -eval_expr(node.operand, ctx)
    if isinstance(node, Paren):
        return eval_expr(node.inner, ctx)
    raise EvalError(f"unknown node {node!r}")


# -- rendering ---------------------------------------------------------

def render_as_source(node) -> str:
    """Print an AST back to source text, one-to-one on the token level."""
    if isinstance(node, RationalLiteral):
        v = node.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(node, ChernGen):
        return f"c{node.index}"
    if isinstance(node, DualGen):
        return f"cbar({node.index})"
    if isinstance(node, SchurGen):
        return f"sigma[{','.join(map(str, node.partition))}]"
    if isinstance(node, Add):
        return f"{render_as_source(node.left)} + {render_as_source(node.right)}"
    if isinstance(node, Sub):
        return f"{render_as_source(node.left)} - {render_as_source(node.right)}"
    if isinstance(node, Mul):
        return f"{render_as_source(node.left)}*{render_as_source(node.right)}"
    if isinstance(node, Pow):
        return f"{render_as_source(node.base)}^{node.exponent}"
    if isinstance(node, Neg):
        return f"-{render_as_source(node.operand)}"
    if isinstance(node, Paren):
        return f"({render_as_source(node.inner)})"
    raise TypeError(f"unknown node {node!r}")


def render(x: GrassElement, fmt: str = "text") -> str:
    """Render a ring element: free polynomial plus Schur expansion."""
    if fmt == "text":
        return f"{render_free(x.free)}\n= {x.reduced}"
    if fmt == "json":
        import json as _json
        free = [{"alpha": list(a),
                 "coeff": f"{c.numerator}/{c.denominator}"}
                for a, c in x.free.sorted_terms()]
        return _json.dumps({"free": free, "schur": x.reduced.to_obj()})
    if fmt == "csv":
        lines = ["partition,coeff"]
        for lam, c in x.reduced.sorted_terms():
            lines.append(f"\"{' '.join(map(str, lam))}\","
                         f"{c.numerator}/{c.denominator}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
