"""Integer partitions, exponent vectors and the combinatorics they carry.

Exponent vectors are plain tuples of nonnegative ints of length k; the
monomial they encode is c1^a1 * ... * ck^ak.  Partitions are tuples of
weakly decreasing positive ints (no trailing zeros).  Everything here is
exact integer arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from . import _backend


def weight(alpha) -> int:
    """Graded degree of the monomial: sum of i * a_i."""
    return sum((i + 1) * a for i, a in enumerate(alpha))


def size(alpha) -> int:
    """Total number of factors: sum of a_i."""
    return sum(alpha)


def multinomial(alpha) -> int:
    """|alpha|! / (a_1! ... a_k!), exact."""
    num = factorial(sum(alpha))
    for a in alpha:
        num //= factorial(a)
    return num


def exponent_vectors_of_weight(w: int, k: int):
    """All length-k exponent vectors of weight w, deterministic order."""
    if w < 0:
        return []
    return _backend.kernel.expvecs_of_weight(w, k)


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
    byte-for-byte reproducible.
    """
    if k < 1 or n < 1:
        raise ValueError("box dimensions must be positive")
    out = []

    def rec(rem, rows_left, cap, prefix):
        if rem == 0:
            out.append(tuple(prefix))
            return
        if rows_left == 0:
            return
        for p in range(min(cap, rem), 0, -1):
            prefix.append(p)
            rec(rem - p, rows_left - 1, p, prefix)
            prefix.pop()

    rec(i, k, n, [])
    return out


@lru_cache(maxsize=None)
def count_in_box(i: int, k: int, n: int) -> int:
    """Number of partitions of i fitting in the k x n box.

    This is the q^i coefficient of the Gaussian binomial [k+n, k]_q,
    computed by the partition recursion (peel off the first part).
    """
    if i == 0:
        return 1
    if i < 0 or k == 0:
        return 0
    return sum(count_in_box(i - p, k - 1, p) for p in range(1, min(n, i) + 1))


_backend.register_cache(count_in_box.cache_clear)


def betti_numbers(k: int, n: int):
    """Box partition counts for every degree 0..k*n."""
    return [count_in_box(i, k, n) for i in range(k * n + 1)]


def total_boxes_count(k: int, n: int) -> int:
    return comb(k + n, k)
