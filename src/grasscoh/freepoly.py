"""Exact polynomial arithmetic in Q[c1..ck], graded by weight.

A FreeClass is a finitely supported map from exponent vectors to exact
coefficients: ints, unless a rational input brings in Fractions (`exact`).
The inverse classes cbar_i of the total class 1 + c1 + ... + ck are
provided both by the defining recursion and by the closed multinomial
formula; the two must agree (tested, not assumed).
`dual_coefficient` runs the recursion on a single coefficient, and
`closed_coefficient` evaluates the formula on one.
"""

from __future__ import annotations

from .partitions import exponent_vectors_of_weight, multinomial, size, weight


class AmbientMismatch(ValueError):
    """Operands live in polynomial rings with different numbers of generators."""


def term_sort_key(alpha):
    # ascending weight, graded reverse-lexicographic (descending) within a weight
    return (weight(alpha), tuple(reversed(alpha)))


def exact(c):
    """An exact coefficient: an int stays an int, anything else becomes a
    Fraction (ValueError or TypeError if it cannot)."""
    if type(c) is int:
        return c
    from fractions import Fraction
    return Fraction(c)


def add_terms(a, b):
    """The sum of two term dicts, without zero coefficients."""
    terms = dict(a)
    for key, c in b.items():
        s = terms.get(key, 0) + c
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)
    return terms


def render_terms(pairs):
    """Signed sum of (monomial text, coefficient) pairs in order: terms
    `<sign> <|c|>[*<monomial>]`, a positive first one unsigned; else "0"."""
    pieces = []
    for mono, c in pairs:
        body = f"{abs(c)}*{mono}" if mono else str(abs(c))
        sign = ("" if not pieces else "+ ") if c > 0 else "- "
        pieces.append(sign + body)
    return " ".join(pieces) or "0"


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
                c = exact(c)
                if c:
                    clean[tuple(alpha)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, k):
        return cls(k)

    @classmethod
    def one(cls, k):
        return cls(k, {(0,) * k: 1})

    @classmethod
    def generator(cls, k, i):
        """The generator c_i."""
        if not 1 <= i <= k:
            raise ValueError(f"generator index {i} out of range [1, {k}]")
        alpha = [0] * k
        alpha[i - 1] = 1
        return cls(k, {tuple(alpha): 1})

    # -- basic queries ------------------------------------------------

    def is_zero(self):
        return not self.terms

    def coeff(self, alpha):
        if len(alpha) != self.k:
            raise AmbientMismatch(
                f"exponent vector length {len(alpha)} != ambient {self.k}")
        return self.terms.get(tuple(alpha), 0)

    def homogeneous_component(self, q):
        return FreeClass(self.k, {a: c for a, c in self.terms.items()
                                  if weight(a) == q})

    def _check(self, other):
        if self.k != other.k:
            raise AmbientMismatch(f"ambient k mismatch: {self.k} != {other.k}")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FreeClass):
            return NotImplemented
        self._check(other)
        return FreeClass(self.k, add_terms(self.terms, other.terms))

    def __neg__(self):
        return FreeClass(self.k, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        # scalars go through scale(); any other operand is a TypeError
        if not isinstance(other, FreeClass):
            return NotImplemented
        self._check(other)
        terms = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                s = terms.get(key, 0) + ca * cb
                if s:
                    terms[key] = s
                elif key in terms:
                    del terms[key]
        return FreeClass(self.k, terms)

    def scale(self, factor):
        factor = exact(factor)
        if not factor:
            return FreeClass.zero(self.k)
        return FreeClass(self.k, {a: c * factor for a, c in self.terms.items()})

    def power(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative exponent")
        if len(self.terms) == 1:
            # (c * x^alpha)^e = c^e * x^(e*alpha), in one step for any e
            (alpha, c), = self.terms.items()
            return FreeClass(self.k, {tuple(exponent * a for a in alpha): c ** exponent})
        if not self.terms and exponent:    # zero stays zero, at once
            return self
        out = FreeClass.one(self.k)
        for _ in range(exponent):
            out = out * self
        return out

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
    return render_terms((_monomial_str(a), c) for a, c in p.sorted_terms())


def dual_class_recursive(j: int, k: int) -> FreeClass:
    """Degree-j part of the formal inverse of 1 + c1 + ... + ck, by the
    recursion cbar_d = -sum_i c_i * cbar_{d-i}, filled bottom-up on term
    dicts: c_i times a term raises its i-th exponent by one."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if j < 0:
        return FreeClass.zero(k)
    cbar = [{(0,) * k: 1}]
    for d in range(1, j + 1):
        acc = {}
        for i in range(1, min(d, k) + 1):
            for alpha, c in cbar[d - i].items():
                key = alpha[:i - 1] + (alpha[i - 1] + 1,) + alpha[i:]
                acc[key] = acc.get(key, 0) - c
        cbar.append(acc)
    return FreeClass(k, cbar[j])


def closed_coefficient(alpha) -> int:
    """Coefficient of c^alpha in cbar_{weight(alpha)} by the closed
    multinomial formula (-1)^|alpha| |alpha|!/alpha!."""
    c = multinomial(alpha)
    return -c if size(alpha) % 2 else c


def dual_class_closed(i: int, k: int) -> FreeClass:
    """The same class by the closed multinomial sum over exponent vectors
    of weight i: sum (-1)^|alpha| (|alpha|!/alpha!) c^alpha."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return FreeClass(k, {alpha: closed_coefficient(alpha)
                         for alpha in exponent_vectors_of_weight(i, k)})


def dual_coefficient(alpha) -> int:
    """Coefficient of c^alpha in cbar_{weight(alpha)}, by the defining
    recursion [c^a] = delta_{a,0} - sum_{i: a_i > 0} [c^(a - e_i)].

    The recursion is filled over the sub-box {beta <= alpha} in increasing
    mixed-radix order, so each beta - e_i is known before beta; zero
    exponents span no axis.  Cost prod(a_i + 1) times the number of
    nonzero a_i, constant stack depth."""
    if any(a < 0 for a in alpha):
        raise ValueError(f"negative exponent in {tuple(alpha)}")
    radices = [a + 1 for a in alpha if a]
    strides = []
    cells = 1
    for r in radices:
        strides.append(cells)
        cells *= r
    table = [1] + [0] * (cells - 1)
    digits = [0] * len(radices)
    for pos in range(1, cells):
        i = 0
        while digits[i] == radices[i] - 1:
            digits[i] = 0
            i += 1
        digits[i] += 1
        table[pos] = -sum(table[pos - s] for s, d in zip(strides, digits) if d)
    return table[-1]


def total_chern(k: int) -> FreeClass:
    """1 + c1 + ... + ck."""
    acc = FreeClass.one(k)
    for i in range(1, k + 1):
        acc = acc + FreeClass.generator(k, i)
    return acc
