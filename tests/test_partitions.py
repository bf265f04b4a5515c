import itertools
from math import comb

import pytest
from hypothesis import given, strategies as st

from grasscoh.partitions import (betti_numbers, conjugate,
                                 count_exponent_vectors, count_in_box,
                                 exponent_vectors_of_weight,
                                 multinomial, partitions_in_box, size, weight)


def test_weight_zero_vector():
    assert weight((0, 0, 0, 0)) == 0


def test_weight_mixed():
    assert weight((0, 2, 2, 0)) == 10


def test_weight_pure_first():
    for n in (1, 5, 9):
        assert weight((n, 0, 0)) == n


def test_multinomial_basic():
    assert multinomial((1, 1)) == 2
    assert multinomial((3, 0)) == 1


@pytest.mark.parametrize("l", range(0, 8))
def test_multinomial_case_value(l):
    # (0,2,l,0) -> (l+2)!/(l! 2!)
    assert multinomial((0, 2, l, 0)) == (l + 2) * (l + 1) // 2


def test_box_weight_zero():
    assert partitions_in_box(0, 3, 3) == [()]


def test_box_2_2_2():
    assert partitions_in_box(2, 2, 2) == [(2,), (1, 1)]


def test_box_degrees_outside_the_box_are_empty():
    for i in (-2, -1, 10, 13):
        assert partitions_in_box(i, 3, 3) == []


def test_box_order_lex_descending():
    out = partitions_in_box(4, 3, 4)
    assert out == sorted(out, reverse=True)


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("n", range(1, 9))
def test_box_total_is_binomial(k, n):
    total = sum(len(partitions_in_box(i, k, n)) for i in range(k * n + 1))
    assert total == comb(k + n, k)


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("n", range(1, 6))
def test_box_matches_brute_force(k, n):
    # every row vector with parts <= n, kept when weakly decreasing, then
    # sorted descending: sets and order both
    by_size = {}
    for rows in itertools.product(range(n + 1), repeat=k):
        if all(a >= b for a, b in zip(rows, rows[1:])):
            by_size.setdefault(sum(rows), []).append(
                tuple(p for p in rows if p))
    for i in range(-1, k * n + 2):
        assert partitions_in_box(i, k, n) == \
            sorted(by_size.get(i, []), reverse=True), i


def test_counts_match_enumeration():
    for k in range(1, 6):
        for n in range(1, 6):
            for i in range(k * n + 1):
                assert count_in_box(i, k, n) == len(partitions_in_box(i, k, n))


def test_gaussian_binomial_rows():
    for k in range(31):
        for n in range(31):
            row = betti_numbers(k, n)
            assert len(row) == k * n + 1
            assert row == row[::-1]
            assert sum(row) == comb(k + n, k)
            assert row == betti_numbers(n, k)


def test_count_outside_box_is_zero():
    for i in (-3, -1, 7, 20):
        assert count_in_box(i, 2, 3) == 0
    assert count_in_box(0, 0, 5) == count_in_box(0, 4, 0) == 1


def test_count_symmetry_box_complement():
    for k in range(1, 7):
        for n in range(1, 7):
            b = betti_numbers(k, n)
            assert b == b[::-1]


def test_conjugate_examples():
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((3,)) == (1, 1, 1)
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)


@st.composite
def partitions(draw):
    length = draw(st.integers(0, 6))
    parts = sorted(
        (draw(st.integers(1, 9)) for _ in range(length)), reverse=True)
    return tuple(parts)


@given(partitions())
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)


@st.composite
def expvecs(draw):
    k = draw(st.integers(1, 6))
    vec = tuple(draw(st.integers(0, 4)) for _ in range(k))
    return vec


@given(expvecs())
def test_x_beta_identity(beta):
    # sum over removable slots of multinomial(beta - e_i) == multinomial(beta)
    if size(beta) == 0 or size(beta) > 12:
        return
    total = 0
    for i, b in enumerate(beta):
        if b:
            shifted = list(beta)
            shifted[i] -= 1
            total += multinomial(shifted)
    assert total == multinomial(beta)


def test_expvec_enumeration_matches_weight():
    for k in range(1, 6):
        for w in range(0, 9):
            vecs = exponent_vectors_of_weight(w, k)
            assert len(set(vecs)) == len(vecs)
            for v in vecs:
                assert len(v) == k and weight(v) == w


def test_expvecs_match_brute_force():
    # every vector with a_i <= w // i, kept at weight w, then sorted
    # descending by (a_k, ..., a_1): sets and order both
    for k in range(1, 6):
        for w in range(11):
            vecs = [v for v in itertools.product(
                        *(range(w // i + 1) for i in range(1, k + 1)))
                    if weight(v) == w]
            vecs.sort(key=lambda v: v[::-1], reverse=True)
            assert exponent_vectors_of_weight(w, k) == vecs, (w, k)
    assert exponent_vectors_of_weight(-1, 3) == []
    assert exponent_vectors_of_weight(0, 0) == [()]
    assert exponent_vectors_of_weight(2, 0) == []


def test_expvecs_of_two_slots_in_closed_form():
    # k = 2: (w - 2j, j) for j from w // 2 down, far past the brute force
    w = 3000
    assert exponent_vectors_of_weight(w, 2) == \
        [(w - 2 * j, j) for j in range(w // 2, -1, -1)]


def test_expvec_count_is_bounded_part_partitions():
    # vectors of weight w with k slots <-> partitions of w into parts <= k
    def p_bounded(w, m):
        if w == 0:
            return 1
        if w < 0 or m == 0:
            return 0
        return p_bounded(w - m, m) + p_bounded(w, m - 1)

    for k in range(1, 6):
        for w in range(0, 10):
            assert len(exponent_vectors_of_weight(w, k)) == p_bounded(w, k)


def test_expvec_count_without_listing():
    for k in range(0, 7):
        for w in range(-2, 26):
            count = len(exponent_vectors_of_weight(w, k))
            assert count_exponent_vectors(w, k) == count, (w, k)
            # a capped count is exact up to the cap and above it past it
            for cap in (1, 2, 10, 100, 1000):
                capped = count_exponent_vectors(w, k, cap=cap)
                assert (capped == count) if count <= cap else (capped > cap)
    # far past any listing: the cap stops the count early
    assert count_exponent_vectors(10 ** 9, 2, cap=100) > 100
    assert count_exponent_vectors(10 ** 5, 10 ** 5, cap=100) > 100
    assert count_exponent_vectors(10 ** 9, 1) == 1
