"""Integer partitions, exponent vectors and the combinatorics they carry.

Exponent vectors are plain tuples of nonnegative ints of length k; the
monomial they encode is c1^a1 * ... * ck^ak.  Partitions are tuples of
weakly decreasing positive ints (no trailing zeros).  Everything here is
exact integer arithmetic.

The package's records (`record`) and unbounded memos (`memo`) are also
built here, on the C helpers `_operator` and `_functools`, so importing
the package loads neither `collections` nor `functools`.
"""

import _functools
import _operator
from math import comb


def record(cls):
    """Make `cls` a record: a tuple subclass with `__slots__ = ()` whose
    `__new__` takes the fields, in order, and calls `tuple.__new__`.  Each
    field becomes a read-only property (a C item getter, as on a
    namedtuple), and the class gets `_fields`, `_asdict()`, a repr by
    field name and `__getnewargs__`, which copy and pickle call.  Equality
    and hash stay the plain tuple's."""
    code = cls.__new__.__code__
    cls._fields = code.co_varnames[1:code.co_argcount]
    for i, name in enumerate(cls._fields):
        setattr(cls, name, property(_operator.itemgetter(i)))
    cls._asdict, cls.__repr__, cls.__getnewargs__ = _asdict, _repr, _getnewargs
    return cls


def _asdict(self):
    return dict(zip(self._fields, self))


def _repr(self):
    fields = ", ".join(f"{name}={value!r}"
                       for name, value in zip(self._fields, self))
    return f"{type(self).__name__}({fields})"


def _getnewargs(self):
    return tuple(self)


@record
class CacheInfo(tuple):
    """A memo's statistics, with the fields of functools.lru_cache's."""
    __slots__ = ()

    def __new__(cls, hits, misses, maxsize, currsize):
        return tuple.__new__(cls, (hits, misses, maxsize, currsize))


def memo(fn):
    """`fn` memoised without bound: the C cache object that
    `functools.lru_cache(maxsize=None)` returns, with its `cache_info()`
    and `cache_clear()`, built without importing functools."""
    wrapper = _functools._lru_cache_wrapper(fn, None, False, CacheInfo)
    for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
        setattr(wrapper, attr, getattr(fn, attr))
    wrapper.__wrapped__ = fn
    return wrapper


def weight(alpha) -> int:
    """Graded degree of the monomial: sum of i * a_i."""
    return sum(map(_operator.mul, alpha, range(1, len(alpha) + 1)))


def size(alpha) -> int:
    """Total number of factors: sum of a_i."""
    return sum(alpha)


def multinomial(alpha) -> int:
    """|alpha|! / (a_1! ... a_k!), exact, as the product of the binomials
    C(a_1 + ... + a_i, a_i), so no factorial is formed."""
    out, total = 1, 0
    for a in alpha:
        total += a
        out *= comb(total, a)
    return out


def exponent_vectors_of_weight(w: int, k: int):
    """All length-k tuples (a_1..a_k) with sum i*a_i == w, in descending
    lexicographic order of (a_k, ..., a_1); none for w < 0.  a_i counts
    the parts i of a partition of w: the walk fills `rest` greedily with
    parts <= cap, then drops one smallest part cap + 1 > 1 and refills
    its weight and that of the 1s under the cap.  O(k) per vector."""
    if k < 1 or w < 0:
        return [()] if w == 0 else []
    vec = [0] * k
    out, cap, rest = [], k, w
    while True:
        full, rem = divmod(rest, cap)
        vec[cap - 1] += full
        if rem:
            vec[rem - 1] += 1
        out.append(tuple(vec))
        cap = 1
        while cap < k and not vec[cap]:
            cap += 1
        if cap == k:
            return out
        vec[cap] -= 1
        rest, vec[0] = cap + 1 + vec[0], 0


def count_exponent_vectors(w: int, k: int, cap=None) -> int:
    """len(exponent_vectors_of_weight(w, k)) without listing them: the
    partitions of w into parts <= k, counted part by part, O(k w)
    additions.  Given `cap`, it may return any lower bound above cap
    instead: past k = 1 there are w // 2 + 1 vectors with a_3 = ... = 0,
    and the count stops after the first part that takes it over cap."""
    if w < 0 or (k < 1 and w):
        return 0
    if k < 2 or w < 2:
        return 1
    if cap is not None and w // 2 >= cap:
        return w // 2 + 1
    ways = [1] * (w + 1)                       # parts <= 1
    for part in range(2, min(k, w) + 1):
        for total in range(part, w + 1):
            ways[total] += ways[total - part]
        if cap is not None and ways[w] > cap:
            break
    return ways[w]


def conjugate(parts):
    """Transpose of the Young diagram."""
    if not parts:
        return ()
    out = [0] * parts[0]
    for p in parts:
        for c in range(p):
            out[c] += 1
    return tuple(out)


def partitions_in_box(i: int, k: int, n: int):
    """All partitions of i with at most k parts, each part at most n.

    Output order is lexicographic descending, so enumeration is
    byte-for-byte reproducible.  The walk fills rows greedily (parts
    equal to the cap n, then the remainder); each step then lowers by one
    the last part j that can drop while the parts from j on still fit in
    rows j.. under the lowered cap, and refills those rows greedily.  A
    step costs the length of the partition it writes, so the cost is
    linear in the output.
    """
    if k < 1 or n < 1:
        raise ValueError("box dimensions must be positive")
    if not 0 <= i <= k * n:
        return []
    out = []
    lam, j, rest, cap = [], 0, i, n
    while True:
        del lam[j:]
        full, rem = divmod(rest, cap)
        lam += [cap] * full
        if rem:
            lam.append(rem)
        out.append(tuple(lam))
        rest = 0
        for j in range(len(lam) - 1, -1, -1):
            rest += lam[j]
            cap = lam[j] - 1
            if rest <= (k - j) * cap:
                break
        else:
            return out


@memo
def count_in_box(i: int, k: int, n: int) -> int:
    """Number of partitions of i fitting in the k x n box.

    This is the q^i coefficient of the Gaussian binomial [k+n, k]_q, read
    from the row `betti_numbers(k, n)`.  It is the public lookup of one
    degree; no package path calls it.
    """
    row = betti_numbers(k, n)
    return row[i] if 0 <= i < len(row) else 0


def betti_numbers(k: int, n: int):
    """Box partition counts for every degree 0..k*n: the coefficients of
    the Gaussian binomial [k+n, k]_q, lowest degree first, as a new list.
    The row is prod_{j=1..k} (1 - q^(n+j)) / (1 - q^j), one exact integer
    multiplication and one exact division per factor."""
    if k < 0 or n < 0:
        raise ValueError("box dimensions must be nonnegative")
    poly = [1]
    for j in range(1, k + 1):
        shift = n + j
        poly += [0] * shift
        for d in range(len(poly) - 1, shift - 1, -1):    # times (1 - q^shift)
            poly[d] -= poly[d - shift]
        for d in range(j, len(poly)):                    # over (1 - q^j)
            poly[d] += poly[d - j]
        del poly[len(poly) - j:]
    return poly
