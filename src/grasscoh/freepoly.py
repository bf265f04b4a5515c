"""Exact polynomial arithmetic in Q[c1..ck], graded by weight.

A FreeClass is a finitely supported map from exponent vectors to
Fraction coefficients.  The inverse classes cbar_i of the total class
1 + c1 + ... + ck are provided both by the defining recursion and by the
closed multinomial formula; the two must agree (tested, not assumed).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import _backend
from .partitions import exponent_vectors_of_weight, multinomial, size, weight


class AmbientMismatch(ValueError):
    """Operands live in polynomial rings with different numbers of generators."""


def term_sort_key(alpha):
    # ascending weight, graded reverse-lexicographic (descending) within a weight
    return (weight(alpha), tuple(reversed(alpha)))


class FreeClass:
    """Element of Q[c1..ck].  Immutable by convention; operations return
    new instances and never store zero coefficients."""

    __slots__ = ("k", "terms")

    def __init__(self, k, terms=None):
        self.k = k
        clean = {}
        if terms:
            for alpha, c in terms.items():
                if len(alpha) != k:
                    raise AmbientMismatch(
                        f"exponent vector {alpha} has length {len(alpha)}, expected {k}")
                c = Fraction(c)
                if c:
                    clean[tuple(alpha)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, k):
        return cls(k)

    @classmethod
    def one(cls, k):
        return cls(k, {(0,) * k: Fraction(1)})

    @classmethod
    def generator(cls, k, i):
        """The generator c_i."""
        if not 1 <= i <= k:
            raise ValueError(f"generator index {i} out of range [1, {k}]")
        alpha = [0] * k
        alpha[i - 1] = 1
        return cls(k, {tuple(alpha): Fraction(1)})

    @classmethod
    def monomial(cls, k, alpha, coeff=1):
        return cls(k, {tuple(alpha): Fraction(coeff)})

    # -- basic queries ------------------------------------------------

    def is_zero(self):
        return not self.terms

    def coeff(self, alpha) -> Fraction:
        if len(alpha) != self.k:
            raise AmbientMismatch(
                f"exponent vector length {len(alpha)} != ambient {self.k}")
        return self.terms.get(tuple(alpha), Fraction(0))

    def weights(self):
        return sorted({weight(a) for a in self.terms})

    def homogeneous_component(self, q):
        return FreeClass(self.k, {a: c for a, c in self.terms.items()
                                  if weight(a) == q})

    def _check(self, other):
        if self.k != other.k:
            raise AmbientMismatch(f"ambient k mismatch: {self.k} != {other.k}")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for a, c in other.terms.items():
            s = terms.get(a, Fraction(0)) + c
            if s:
                terms[a] = s
            elif a in terms:
                del terms[a]
        return FreeClass(self.k, terms)

    def __neg__(self):
        return FreeClass(self.k, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        terms = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                s = terms.get(key, Fraction(0)) + ca * cb
                if s:
                    terms[key] = s
                elif key in terms:
                    del terms[key]
        return FreeClass(self.k, terms)

    def scale(self, factor):
        factor = Fraction(factor)
        if not factor:
            return FreeClass.zero(self.k)
        return FreeClass(self.k, {a: c * factor for a, c in self.terms.items()})

    def power(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative exponent")
        out = FreeClass.one(self.k)
        for _ in range(exponent):
            out = out * self
        return out

    def evaluate(self, values) -> Fraction:
        """Substitute c_i := values[i-1] (exact rationals)."""
        if len(values) != self.k:
            raise AmbientMismatch(
                f"value vector length {len(values)} != ambient {self.k}")
        vals = [Fraction(v) for v in values]
        total = Fraction(0)
        for alpha, c in self.terms.items():
            prod = c
            for v, a in zip(vals, alpha):
                if a:
                    prod *= v ** a
            total += prod
        return total

    # -- equality, rendering ------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FreeClass) and self.k == other.k
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.k, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: term_sort_key(kv[0]))

    def __str__(self):
        return render_free(self)

    def __repr__(self):
        return f"FreeClass(k={self.k}, {render_free(self)!r})"


def _monomial_str(alpha):
    factors = []
    for i, a in enumerate(alpha, start=1):
        if a == 1:
            factors.append(f"c{i}")
        elif a > 1:
            factors.append(f"c{i}^{a}")
    return "*".join(factors)


def render_free(p: FreeClass) -> str:
    """Canonical text form, documented in the README: terms in canonical
    order as `<sign> <num>[/<den>][*c1^a1*...]`, unit denominators and
    unit exponents omitted."""
    if p.is_zero():
        return "0"
    pieces = []
    for alpha, c in p.sorted_terms():
        mag = abs(c)
        num = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        mono = _monomial_str(alpha)
        body = f"{num}*{mono}" if mono else num
        if not pieces:
            pieces.append(body if c > 0 else f"- {body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


@_backend.register_cache
def _clear_dual_caches():
    _dual_recursive.cache_clear()
    _dual_closed.cache_clear()


@lru_cache(maxsize=None)
def _dual_recursive(j: int, k: int) -> FreeClass:
    if j < 0:
        return FreeClass.zero(k)
    if j == 0:
        return FreeClass.one(k)
    acc = FreeClass.zero(k)
    for i in range(1, min(j, k) + 1):
        acc = acc + FreeClass.generator(k, i) * _dual_recursive(j - i, k)
    return -acc


def dual_class_recursive(j: int, k: int) -> FreeClass:
    """Degree-j part of the formal inverse of 1 + c1 + ... + ck, by the
    recursion cbar_j = -sum_i c_i * cbar_{j-i}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _dual_recursive(j, k)


@lru_cache(maxsize=None)
def _dual_closed(i: int, k: int) -> FreeClass:
    terms = {}
    for alpha in exponent_vectors_of_weight(i, k):
        coeff = Fraction(multinomial(alpha))
        if size(alpha) % 2:
            coeff = -coeff
        terms[alpha] = coeff
    return FreeClass(k, terms)


def dual_class_closed(i: int, k: int) -> FreeClass:
    """The same class by the closed multinomial sum over exponent vectors
    of weight i: sum (-1)^|alpha| (|alpha|!/alpha!) c^alpha."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if i < 0:
        return FreeClass.zero(k)
    return _dual_closed(i, k)


def total_chern(k: int) -> FreeClass:
    """1 + c1 + ... + ck."""
    acc = FreeClass.one(k)
    for i in range(1, k + 1):
        acc = acc + FreeClass.generator(k, i)
    return acc
