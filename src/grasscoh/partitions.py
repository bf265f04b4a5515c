"""Integer partitions, exponent vectors and the combinatorics they carry.

Exponent vectors are plain tuples of nonnegative ints of length k; the
monomial they encode is c1^a1 * ... * ck^ak.  Partitions are tuples of
weakly decreasing positive ints (no trailing zeros).  Everything here is
exact integer arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial


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
    """All length-k tuples (a_1..a_k) with sum i*a_i == w, deterministic
    order; none for w < 0."""
    out = []
    vec = [0] * k

    def rec(rem, i):
        if i == 1:
            vec[0] = rem
            out.append(tuple(vec))
            vec[0] = 0
            return
        for a in range(rem // i, -1, -1):
            vec[i - 1] = a
            rec(rem - a * i, i - 1)
        vec[i - 1] = 0

    if k >= 1 and w >= 0:
        rec(w, k)
    elif w == 0:
        out.append(())
    return out


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
    byte-for-byte reproducible.  Every branch taken ends in a partition,
    so the cost is linear in the output.
    """
    if k < 1 or n < 1:
        raise ValueError("box dimensions must be positive")
    out = []

    def rec(rem, rows_left, cap, prefix):
        if rem == 0:
            out.append(tuple(prefix))
            return
        # a part below ceil(rem / rows_left) leaves too much for the rows below
        for p in range(min(cap, rem), -(-rem // rows_left) - 1, -1):
            prefix.append(p)
            rec(rem - p, rows_left - 1, p, prefix)
            prefix.pop()

    if 0 <= i <= k * n:
        rec(i, k, n, [])
    return out


@lru_cache(maxsize=None)
def _gaussian_binomial(k: int, n: int):
    """Coefficients of the Gaussian binomial [k+n, k]_q, lowest degree
    first: prod_{j=1..k} (1 - q^(n+j)) / (1 - q^j), one exact integer
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
    return tuple(poly)


@lru_cache(maxsize=None)
def count_in_box(i: int, k: int, n: int) -> int:
    """Number of partitions of i fitting in the k x n box.

    This is the q^i coefficient of the Gaussian binomial [k+n, k]_q, read
    from the memoised row `_gaussian_binomial(k, n)`, so a whole Betti
    vector costs one polynomial per (k, n).
    """
    row = _gaussian_binomial(k, n)
    return row[i] if 0 <= i < len(row) else 0


def betti_numbers(k: int, n: int):
    """Box partition counts for every degree 0..k*n."""
    return [count_in_box(i, k, n) for i in range(k * n + 1)]


def total_boxes_count(k: int, n: int) -> int:
    return comb(k + n, k)
