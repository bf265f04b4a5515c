"""An independent oracle for the Schur product in H*(G(k,n)).

It shares no code with `grasscoh.ring`: each s_lam(x_1..x_k) is expanded
as a polynomial in k variables by enumerating semistandard tableaux, two
such polynomials are multiplied monomial by monomial, and the product is
read back in the Schur basis by peeling off its largest partition
exponent (s_lam = m_lam + terms lower in dominance order).  Partitions
with a part larger than n vanish in the quotient and are dropped.
"""

from itertools import product

import pytest

from grasscoh.ring import RingContext, SchurClass, schur_mul


def box(k, n):
    """Every partition in the k x n box."""
    out = []
    for parts in product(range(n + 1), repeat=k):
        if all(a >= b for a, b in zip(parts, parts[1:])):
            out.append(tuple(p for p in parts if p))
    return out


def schur_poly(lam, k):
    """s_lam(x_1..x_k) as {exponent tuple: count}, one monomial per
    semistandard tableau of shape lam with entries in 1..k."""
    cells = [(r, c) for r, length in enumerate(lam) for c in range(length)]
    poly = {}
    filling = {}

    def fill(idx, content):
        if idx == len(cells):
            key = tuple(content)
            poly[key] = poly.get(key, 0) + 1
            return
        r, c = cells[idx]
        lo = max(filling.get((r, c - 1), 1), filling.get((r - 1, c), 0) + 1)
        for v in range(lo, k + 1):
            filling[r, c] = v
            content[v - 1] += 1
            fill(idx + 1, content)
            content[v - 1] -= 1
        filling.pop((r, c), None)

    fill(0, [0] * k)
    return poly


def poly_mul(p, q):
    out = {}
    for a, x in p.items():
        for b, y in q.items():
            key = tuple(i + j for i, j in zip(a, b))
            out[key] = out.get(key, 0) + x * y
    return out


def to_schur(poly, k, n):
    """Schur coefficients of a symmetric polynomial, cut to the box."""
    poly = dict(poly)
    out = {}
    while poly:
        top = max(poly)  # lex-largest exponent: a partition, dominance-maximal
        coeff = poly[top]
        lam = tuple(p for p in top if p)
        if not lam or lam[0] <= n:
            out[lam] = coeff
        for mono, c in schur_poly(lam, k).items():
            left = poly.get(mono, 0) - coeff * c
            if left:
                poly[mono] = left
            else:
                poly.pop(mono, None)
    return out


def test_schur_poly_small_cases():
    assert schur_poly((1,), 2) == {(1, 0): 1, (0, 1): 1}
    assert schur_poly((1, 1), 2) == {(1, 1): 1}
    assert schur_poly((2, 1), 2) == {(2, 1): 1, (1, 2): 1}
    assert schur_poly((1, 1, 1), 2) == {}
    assert sum(schur_poly((2, 1), 3).values()) == 8


@pytest.mark.parametrize("k, n", [(2, 3), (3, 3), (3, 4), (4, 2)])
def test_schur_mul_matches_tableau_oracle(k, n):
    ctx = RingContext(k, n)
    basis = box(k, n)
    polys = {lam: schur_poly(lam, k) for lam in basis}
    mismatches = []
    for i, a in enumerate(basis):
        for b in basis[i:]:
            expected = to_schur(poly_mul(polys[a], polys[b]), k, n)
            for x, y in {(a, b), (b, a)}:
                got = schur_mul(SchurClass(ctx, {x: 1}), SchurClass(ctx, {y: 1}))
                if got.terms != expected:
                    mismatches.append((x, y, got.terms, expected))
    assert not mismatches, f"{len(mismatches)} mismatches: {mismatches[:3]}"
