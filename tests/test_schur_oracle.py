"""An independent oracle for the Schur product in H*(G(k,n)).

It shares no code with `grasscoh.ring`: each s_lam(x_1..x_k) is expanded
as a polynomial in k variables by enumerating semistandard tableaux, two
such polynomials are multiplied monomial by monomial, and the product is
read back in the Schur basis by peeling off its largest partition
exponent (s_lam = m_lam + terms lower in dominance order).  Partitions
with a part larger than n vanish in the quotient and are dropped.

The same polynomials evaluate whole `eval` expressions: c_i is
e_i(x) = s_(1^i), cbar(i) is (-1)^i h_i(x) = (-1)^i s_(i), and sigma[lam]
is s_lam(x).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from grasscoh.expr import eval_expr, parse
from grasscoh.ring import RingContext, SchurClass, reduce_free, schur_mul


def box(k, n):
    """Every partition in the k x n box."""
    out = []
    for parts in product(range(n + 1), repeat=k):
        if all(a >= b for a, b in zip(parts, parts[1:])):
            out.append(tuple(p for p in parts if p))
    return out


@lru_cache(maxsize=None)
def schur_poly(lam, k):
    """s_lam(x_1..x_k) as {exponent tuple: count}, one monomial per
    semistandard tableau of shape lam with entries in 1..k.  Memoised:
    the result is shared, and no caller mutates it."""
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


# -- whole expressions -------------------------------------------------
#
# A random expression is a tree of tuples: ("num", q), ("c", i),
# ("cbar", i), ("sigma", lam), ("neg", x), ("^", x, e) and (op, x, y) for
# op in "+-*".  `source` prints it fully parenthesised for the package's
# parser; `oracle` evaluates it on tableau polynomials.


def source(tree):
    tag = tree[0]
    if tag == "num":
        return str(tree[1])     # `a/b`, or `a` for a unit denominator
    if tag == "c":
        return f"c{tree[1]}"
    if tag == "cbar":
        return f"cbar({tree[1]})"
    if tag == "sigma":
        return f"sigma[{','.join(map(str, tree[1]))}]"
    if tag == "neg":
        return f"(-{source(tree[1])})"
    if tag == "^":
        return f"({source(tree[1])}^{tree[2]})"
    return f"({source(tree[1])} {tag} {source(tree[2])})"


def truncated(poly, top_degree):
    """poly without zero coefficients and without monomials of degree
    above top_degree: those lie in the ideal, as the quotient is zero
    beyond degree kn, so cutting them at every step is a ring map."""
    return {mono: c for mono, c in poly.items() if c and sum(mono) <= top_degree}


def oracle(tree, k, n):
    """The tree's value in H*(G(k,n)) as {partition: coefficient}."""
    def value(node):
        tag = node[0]
        if tag == "num":
            return {(0,) * k: node[1]}
        if tag == "c":
            return schur_poly((1,) * node[1], k)
        if tag == "cbar":
            i = node[1]
            return {m: (-1) ** i * c for m, c in schur_poly((i,), k).items()}
        if tag == "sigma":
            return schur_poly(node[1], k)
        if tag == "neg":
            return {m: -c for m, c in value(node[1]).items()}
        if tag == "^":
            base, out = value(node[1]), {(0,) * k: 1}
            for _ in range(node[2]):
                out = truncated(poly_mul(out, base), k * n)
            return out
        left, right = value(node[1]), value(node[2])
        if tag == "*":
            return truncated(poly_mul(left, right), k * n)
        sign = 1 if tag == "+" else -1
        out = dict(left)
        for m, c in right.items():
            out[m] = out.get(m, 0) + sign * c
        return truncated(out, k * n)

    return {lam: c for lam, c in to_schur(value(tree), k, n).items() if c}


@st.composite
def rings_and_trees(draw):
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rationals = st.builds(Fraction, st.integers(0, 5), st.integers(1, 3))
    leaves = st.one_of(
        st.tuples(st.just("num"), rationals),
        st.tuples(st.just("c"), st.integers(1, k)),
        st.tuples(st.just("cbar"), st.integers(0, 4)),
        st.tuples(st.just("sigma"), st.sampled_from(box(k, n))))

    def grow(depth):
        if depth == 0:
            return leaves
        sub = grow(depth - 1)
        return st.one_of(
            leaves,
            st.tuples(st.just("neg"), sub),
            st.tuples(st.just("^"), sub, st.integers(0, 3)),
            st.tuples(st.sampled_from("+-*"), sub, sub))

    return k, n, draw(grow(3))


def test_expression_oracle_small_cases():
    # c1^2 = sigma[2] + sigma[1,1]; cbar(2) = h_2 = sigma[2]; in G(2,1)
    # sigma[2] leaves the box
    assert oracle(("^", ("c", 1), 2), 2, 2) == {(2,): 1, (1, 1): 1}
    assert oracle(("cbar", 2), 2, 2) == {(2,): 1}
    assert oracle(("cbar", 2), 2, 1) == {}
    assert oracle(("*", ("num", Fraction(1, 2)), ("c", 2)), 2, 2) == \
        {(1, 1): Fraction(1, 2)}


@settings(max_examples=150, deadline=None)
@given(rings_and_trees())
def test_eval_matches_tableau_oracle(case):
    k, n, tree = case
    ctx = RingContext(k, n)
    got = reduce_free(eval_expr(parse(source(tree)), ctx), ctx)
    assert got.terms == oracle(tree, k, n), source(tree)
