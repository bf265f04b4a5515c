"""The quotient ring H*(G(k,n); Q) in its Schur basis.

Reduction from the free polynomial ring is by iterated Pieri expansion
from the empty partition, with two separate prunes: partitions with more
than k rows vanish already in k variables, partitions with a part larger
than n vanish in the quotient.  The ideal relations are then a testable
consequence, not an implementation input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import _backend
from .freepoly import AmbientMismatch, FreeClass
from .partitions import conjugate, weight


@dataclass(frozen=True)
class RingContext:
    """Ambient Grassmannian G(k,n): k-planes in C^(k+n)."""
    k: int
    n: int

    def __post_init__(self):
        if self.k < 1 or self.n < 1:
            raise ValueError("k and n must be positive")

    @property
    def top_degree(self) -> int:
        return self.k * self.n

    @property
    def top_partition(self):
        return (self.n,) * self.k


class ContextMismatch(ValueError):
    pass


class SchurClass:
    """Finitely supported map from box partitions to Fraction coefficients."""

    __slots__ = ("context", "terms")

    def __init__(self, context: RingContext, terms=None):
        self.context = context
        clean = {}
        if terms:
            for lam, c in terms.items():
                lam = tuple(lam)
                if len(lam) > context.k or (lam and lam[0] > context.n):
                    raise ValueError(f"partition {lam} outside the "
                                     f"{context.k}x{context.n} box")
                c = Fraction(c)
                if c:
                    clean[lam] = c
        self.terms = clean

    def is_zero(self):
        return not self.terms

    def coeff(self, lam) -> Fraction:
        return self.terms.get(tuple(lam), Fraction(0))

    def _check(self, other):
        if self.context != other.context:
            raise ContextMismatch(f"{self.context} != {other.context}")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for lam, c in other.terms.items():
            s = terms.get(lam, Fraction(0)) + c
            if s:
                terms[lam] = s
            elif lam in terms:
                del terms[lam]
        return SchurClass(self.context, terms)

    def __neg__(self):
        return SchurClass(self.context, {l: -c for l, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        factor = Fraction(factor)
        if not factor:
            return SchurClass(self.context)
        return SchurClass(self.context,
                          {l: c * factor for l, c in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, SchurClass) and self.context == other.context
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.context, frozenset(self.terms.items())))

    def sorted_terms(self):
        # lexicographic-descending partition order, per the wire format
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def to_obj(self):
        return [{"partition": list(lam), "coeff": f"{c.numerator}/{c.denominator}"}
                for lam, c in self.sorted_terms()]

    def to_json(self) -> str:
        return json.dumps(self.to_obj())

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for lam, c in self.sorted_terms():
            mag = abs(c)
            num = (str(mag.numerator) if mag.denominator == 1
                   else f"{mag.numerator}/{mag.denominator}")
            body = f"{num}*sigma[{','.join(map(str, lam))}]"
            if not pieces:
                pieces.append(body if c > 0 else f"- {body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"SchurClass({self.context}, {str(self)!r})"


def pieri_e(s: SchurClass, i: int) -> SchurClass:
    """Multiply by c_i = sigma_{1^i}: add vertical strips of size i.

    Two prunes happen here with different standing: partitions with more
    than k rows vanish as symmetric functions in k variables, partitions
    with a part exceeding n vanish by the quotient relation.  The
    row-only variant lives in `pieri_strips` for tests.
    """
    ctx = s.context
    if not 1 <= i <= ctx.k:
        raise ValueError(f"Pieri index {i} out of range [1, {ctx.k}]")
    terms = {}
    for lam, c in s.terms.items():
        for mu in _backend.kernel.vertical_strips(lam, i, ctx.k, ctx.n):
            s2 = terms.get(mu, Fraction(0)) + c
            if s2:
                terms[mu] = s2
            elif mu in terms:
                del terms[mu]
    return SchurClass(ctx, terms)


def pieri_strips(lam, i: int, max_rows: int, max_part=None):
    """Vertical strips of size i on one partition; max_part=None disables
    the quotient prune (work in Lambda_k)."""
    if max_part is None:
        max_part = (lam[0] if lam else 0) + 1
    return _backend.kernel.vertical_strips(tuple(lam), i, max_rows, max_part)


@_backend.register_cache
def _clear_reduce_cache():
    _reduce_monomial.cache_clear()


@lru_cache(maxsize=None)
def _reduce_monomial(alpha, k, n):
    """Schur expansion of c^alpha in the k x n box, as a tuple of
    (partition, integer multiplicity) pairs."""
    strips = _backend.kernel.vertical_strips
    current = {(): 1}
    # process e_i factors in decreasing i: fewer intermediate terms
    for i in range(k, 0, -1):
        for _ in range(alpha[i - 1]):
            nxt = {}
            for lam, c in current.items():
                for mu in strips(lam, i, k, n):
                    nxt[mu] = nxt.get(mu, 0) + c
            current = nxt
    return tuple(sorted(current.items()))


def reduce_free(p: FreeClass, ctx: RingContext) -> SchurClass:
    """Image of a free polynomial in the quotient ring."""
    if p.k != ctx.k:
        raise AmbientMismatch(f"polynomial ambient {p.k} != context k {ctx.k}")
    terms = {}
    for alpha, coeff in p.terms.items():
        for lam, mult in _reduce_monomial(alpha, ctx.k, ctx.n):
            s = terms.get(lam, Fraction(0)) + coeff * mult
            if s:
                terms[lam] = s
            elif lam in terms:
                del terms[lam]
    return SchurClass(ctx, terms)


class GrassElement:
    """Ring element carrying a free representative and, lazily, its
    canonical Schur form.  Equality is equality of canonical forms."""

    __slots__ = ("context", "free", "_reduced")

    def __init__(self, context: RingContext, free: FreeClass, reduced=None):
        if free.k != context.k:
            raise AmbientMismatch(
                f"free representative ambient {free.k} != context k {context.k}")
        self.context = context
        self.free = free
        self._reduced = reduced

    @classmethod
    def from_schur(cls, context, schur: SchurClass):
        free = FreeClass.zero(context.k)
        for lam, c in schur.terms.items():
            free = free + giambelli(lam, context.k).scale(c)
        return cls(context, free, reduced=schur)

    @classmethod
    def zero(cls, context):
        return cls(context, FreeClass.zero(context.k))

    @classmethod
    def one(cls, context):
        return cls(context, FreeClass.one(context.k))

    @classmethod
    def generator(cls, context, i):
        return cls(context, FreeClass.generator(context.k, i))

    @property
    def reduced(self) -> SchurClass:
        if self._reduced is None:
            self._reduced = reduce_free(self.free, self.context)
        return self._reduced

    def _check(self, other):
        if self.context != other.context:
            raise ContextMismatch(f"{self.context} != {other.context}")

    def __add__(self, other):
        self._check(other)
        return GrassElement(self.context, self.free + other.free)

    def __neg__(self):
        return GrassElement(self.context, -self.free)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        return GrassElement(self.context, self.free.scale(factor))

    def cup(self, other) -> "GrassElement":
        self._check(other)
        return GrassElement(self.context, self.free * other.free)

    __mul__ = cup

    def power(self, exponent: int):
        return GrassElement(self.context, self.free.power(exponent))

    def __eq__(self, other):
        return (isinstance(other, GrassElement)
                and self.context == other.context
                and self.reduced == other.reduced)

    def __hash__(self):
        return hash(self.reduced)

    def is_zero(self):
        return self.reduced.is_zero()

    def __repr__(self):
        return f"GrassElement({self.context}, {str(self.free)!r})"


def giambelli(lam, k: int) -> FreeClass:
    """Free-ring lift of sigma_lam by the dual Jacobi-Trudi determinant
    det(c_{lam'_i - i + j}) over the conjugate partition."""
    lam = tuple(lam)
    conj = conjugate(lam)
    if any(p > k for p in conj):
        raise ValueError(f"partition {lam} needs more than {k} rows")
    m = len(conj)
    if m == 0:
        return FreeClass.one(k)

    def entry(i, j):  # 0-based
        d = conj[i] - (i + 1) + (j + 1)
        if d < 0 or d > k:
            return FreeClass.zero(k)
        if d == 0:
            return FreeClass.one(k)
        return FreeClass.generator(k, d)

    return _det([[entry(i, j) for j in range(m)] for i in range(m)], k)


def _det(mat, k):
    m = len(mat)
    if m == 1:
        return mat[0][0]
    acc = FreeClass.zero(k)
    for j in range(m):
        if mat[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * _det(minor, k)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def integrate(x: GrassElement) -> Fraction:
    """Coefficient of the box partition (n,...,n): evaluation against the
    fundamental class."""
    return x.reduced.coeff(x.context.top_partition)


def pairing(x: GrassElement, y: GrassElement) -> Fraction:
    return integrate(x.cup(y))


def schur_mul(a: SchurClass, b: SchurClass) -> SchurClass:
    """Product on canonical forms via Giambelli lift of one factor."""
    if a.context != b.context:
        raise ContextMismatch(f"{a.context} != {b.context}")
    k = a.context.k
    free = FreeClass.zero(k)
    for lam, c in a.terms.items():
        free = free + giambelli(lam, k).scale(c)
    out = SchurClass(a.context)
    for lam, c in b.terms.items():
        out = out + reduce_free(free * giambelli(lam, k), a.context).scale(c)
    return out


def complement(lam, k: int, n: int):
    """The Poincare-dual partition in the k x n box."""
    padded = tuple(lam) + (0,) * (k - len(lam))
    out = tuple(n - p for p in reversed(padded))
    while out and out[-1] == 0:
        out = out[:-1]
    return tuple(p for p in out if p > 0)
