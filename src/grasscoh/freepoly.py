"""Exact polynomial arithmetic in Q[c1..ck], graded by weight.

A FreeClass is a finitely supported map from exponent vectors to exact
coefficients: ints, unless a rational input brings in Fractions (`exact`).
It and ring.SchurClass derive from `Combination`, which defines their
checked constructor, arithmetic, equality, hash and immutability once.
The inverse classes cbar_i of the total class 1 + c1 + ... + ck are
provided both by the defining recursion and by the closed multinomial
formula; the two must agree (tested, not assumed).
`dual_coefficient` runs the recursion on a single coefficient, and
`closed_coefficient` evaluates the formula on one.
"""

from .partitions import (count_exponent_vectors, exponent_vectors_of_weight,
                         multinomial, size, weight)


# the read-only view of a dict, types.MappingProxyType, without importing types
MappingProxyType = type(type.__dict__)


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


def render_terms(pairs):
    """Signed sum of (monomial text, coefficient) pairs in order: terms
    `<sign> <|c|>[*<monomial>]`, a positive first one unsigned; else "0"."""
    pieces = []
    for mono, c in pairs:
        body = f"{abs(c)}*{mono}" if mono else str(abs(c))
        sign = ("" if not pieces else "+ ") if c > 0 else "- "
        pieces.append(sign + body)
    return " ".join(pieces) or "0"


class Combination:
    """A finitely supported map `terms` from keys to nonzero exact
    coefficients, over one `space`: the shared core of FreeClass and
    SchurClass.  Immutable: attributes cannot be assigned and `terms` is a
    read-only mapping.  Operations return new instances of the same class;
    operands over different spaces raise the subclass's `_mismatch`, and
    the constructor checks keys with the subclass's `_key`."""

    __slots__ = ("space", "terms")

    def __init__(self, space, terms=None):
        # the one checked path: `_key(space, key)` raises or returns the key
        # as a tuple, each coefficient goes through `exact`, zeros are dropped
        clean = {}
        if terms:
            for key, c in terms.items():
                key, c = self._key(space, key), exact(c)
                if c:
                    clean[key] = c
        _set_space(self, space)
        _set_terms(self, MappingProxyType(clean))

    @classmethod
    def _of(cls, space, terms):
        """An instance that takes over `terms`, a fresh dict whose keys are
        valid for `space` and whose coefficients are exact, without its
        zero coefficients.  No key is checked: the results of ring
        operations come through here."""
        if 0 in terms.values():
            terms = {key: c for key, c in terms.items() if c}
        self = object.__new__(cls)
        _set_space(self, space)
        _set_terms(self, MappingProxyType(terms))
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copy and pickle rebuild through the checking constructor
        return type(self), (self.space, dict(self.terms))

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.space != other.space:
            raise self._mismatch(f"{self.space} != {other.space}")

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        terms = self.terms.copy()
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) + c
        return self._of(self.space, terms)

    def __neg__(self):
        return self._of(self.space, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, factor):
        factor = exact(factor)
        return self._of(self.space,
                        {key: c * factor for key, c in self.terms.items()})

    def __eq__(self, other):
        return (type(other) is type(self) and self.space == other.space
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.space, frozenset(self.terms.items())))


# the slots' own setters, which bypass the guard in __setattr__
_set_space, _set_terms = Combination.space.__set__, Combination.terms.__set__


class FreeClass(Combination):
    """Element of Q[c1..ck]: a Combination over exponent vectors of
    length k.  Its `space` is k, also read as `k`."""

    __slots__ = ()
    _mismatch = AmbientMismatch
    k = Combination.space

    @staticmethod
    def _key(k, alpha):
        if len(alpha) != k:
            raise AmbientMismatch(
                f"exponent vector {alpha} has length {len(alpha)}, expected {k}")
        return tuple(alpha)

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

    # -- queries ------------------------------------------------------

    def coeff(self, alpha):
        return self.terms.get(self._key(self.k, alpha), 0)

    def homogeneous_component(self, q):
        return FreeClass._of(self.k, {a: c for a, c in self.terms.items()
                                      if weight(a) == q})

    # -- products -----------------------------------------------------

    def __mul__(self, other):
        # scalars go through scale(); any other operand is a TypeError
        if not isinstance(other, FreeClass):
            return NotImplemented
        self._check(other)
        terms = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                terms[key] = terms.get(key, 0) + ca * cb
        return FreeClass._of(self.k, terms)

    def power(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError(f"exponent must be an int, not "
                            f"{type(exponent).__name__}")
        if exponent < 0:
            raise ValueError("negative exponent")
        # the multinomial theorem, one base term c x^alpha at a time:
        # `partial` maps factors used to {monomial: coefficient}; the term
        # takes t of the `left` factors with weight C(left, t) c^t, and the
        # last term all of them (a zero base leaves the unit only at e = 0).
        # Most factors used first: that fixes the order of the result's
        # terms, which `schur_mul`'s table work depends on once the power is
        # reduced (eval's products of reduced powers step about 5 % more
        # strips with the buckets in insertion order)
        partial = {0: {(0,) * self.k: 1}}
        todo = len(self.terms)
        for alpha, c in self.terms.items():
            todo -= 1
            grown = {}
            for used in sorted(partial, reverse=True):
                monos, left = partial[used], exponent - used
                t = 0 if todo else left
                binomial, power = 1, c ** t
                shift = tuple(map(t.__mul__, alpha))
                while True:
                    into = grown.setdefault(used + t, {})
                    scale = binomial * power
                    for mono, coef in monos.items():
                        key = tuple(map(int.__add__, mono, shift))
                        into[key] = into.get(key, 0) + coef * scale
                    if t == left:
                        break
                    binomial = binomial * (left - t) // (t + 1)
                    power *= c
                    shift = tuple(map(int.__add__, shift, alpha))
                    t += 1
            partial = grown
        return FreeClass._of(self.k, partial.get(exponent, {}))

    # -- rendering ----------------------------------------------------

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


# the largest cbar_i built, as its number of terms times max(i, k): each
# coefficient is at most k^i, so this bounds the digits as well as the
# terms, and each term's exponent vector holds k ints
MAX_DUAL_SIZE = 2 * 10 ** 6


def _check_dual_size(i: int, k: int) -> None:
    """Refuse, before building it, a cbar_i whose terms, one per exponent
    vector of weight i, times max(i, k) exceed MAX_DUAL_SIZE."""
    if k < 1:
        raise ValueError("k must be >= 1")
    cap = MAX_DUAL_SIZE // max(i, k)
    if count_exponent_vectors(i, k, cap=cap) > cap:
        raise ValueError(f"cbar_{i} with k={k} is past the budget: its "
                         f"terms times max(i, k) exceed {MAX_DUAL_SIZE}")


def dual_class_recursive(j: int, k: int) -> FreeClass:
    """Degree-j part of the formal inverse of 1 + c1 + ... + ck, by the
    recursion cbar_d = -sum_i c_i * cbar_{d-i}, filled bottom-up on term
    dicts, of which it keeps the last k, the ones it reads: c_i times a
    term raises its i-th exponent by one."""
    _check_dual_size(j, k)
    if j < 0:
        return FreeClass.zero(k)
    cbar = [{(0,) * k: 1}]             # cbar[-i] is cbar_{d-i}
    for d in range(1, j + 1):
        acc = {}
        for i in range(1, min(d, k) + 1):
            for alpha, c in cbar[-i].items():
                key = alpha[:i - 1] + (alpha[i - 1] + 1,) + alpha[i:]
                acc[key] = acc.get(key, 0) - c
        cbar.append(acc)
        del cbar[:-k]
    return FreeClass(k, cbar[-1])


def closed_coefficient(alpha) -> int:
    """Coefficient of c^alpha in cbar_{weight(alpha)} by the closed
    multinomial formula (-1)^|alpha| |alpha|!/alpha!."""
    c = multinomial(alpha)
    return -c if size(alpha) % 2 else c


def dual_class_closed(i: int, k: int) -> FreeClass:
    """The same class by the closed multinomial sum over exponent vectors
    of weight i: sum (-1)^|alpha| (|alpha|!/alpha!) c^alpha."""
    _check_dual_size(i, k)
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
