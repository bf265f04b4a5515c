import copy
import io
import itertools
import json
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import grasscoh
from grasscoh import cli, ring
from grasscoh.expr import render
from grasscoh.freepoly import (AmbientMismatch, FreeClass, dual_class_closed,
                               total_chern)
from grasscoh.lefschetz import FppVerdict, PropositionReport, apply_adams
from grasscoh.obstruction import Certificate, nontrivial_intersection_report
from grasscoh.partitions import CacheInfo, partitions_in_box, weight
from grasscoh.ring import (ContextMismatch, RingContext, SchurClass,
                           giambelli, integrate, lift, pairing, reduce_free,
                           schur_mul, vertical_strips)


def sigma(ctx, lam):
    return SchurClass(ctx, {tuple(lam): 1})


def complement(lam, k, n):
    """The Poincare-dual partition of lam in the k x n box."""
    padded = tuple(lam) + (0,) * (k - len(lam))
    return tuple(n - p for p in reversed(padded) if n - p > 0)


def jacobi_trudi(lam, k):
    """det(c_{lam'_i - i + j}) by the Leibniz sum over permutations, on a
    plain dict of exponent vectors: a lift that never reads a strip."""
    conj = [sum(p > c for p in lam) for c in range(lam[0] if lam else 0)]
    out = {}
    for perm in itertools.permutations(range(len(conj))):
        alpha = [0] * k
        for i, j in enumerate(perm):
            d = conj[i] - i + j
            if not 0 <= d <= k:
                break
            if d:
                alpha[d - 1] += 1
        else:
            sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
            out[tuple(alpha)] = out.get(tuple(alpha), 0) + sign
    return {alpha: c for alpha, c in out.items() if c}


def reordered(s, order):
    """s with its terms inserted in the order `order` puts its partitions
    in."""
    return SchurClass(s.context, {lam: s.terms[lam]
                                  for lam in order(list(s.terms))})


def product_work(a, b):
    """A cold a * b: the product, the keys it leaves in the product table,
    and the number of strip lookups it makes."""
    grasscoh.clear_caches()
    product = schur_mul(a, b)
    info = vertical_strips.cache_info()
    return product, set(ring._products[a.context]), info.hits + info.misses


def pieri(s, i):
    """Multiply by c_i = sigma_{1^i}."""
    ctx = s.context
    return reduce_free(FreeClass.generator(ctx.k, i) * lift(s), ctx)


class TestPieri:
    def test_on_empty(self):
        ctx = RingContext(2, 2)
        assert pieri(sigma(ctx, ()), 1) == sigma(ctx, (1,))

    def test_vertical_strips_of_one(self):
        ctx = RingContext(2, 2)
        out = pieri(sigma(ctx, (1,)), 1)
        assert out == SchurClass(ctx, {(2,): 1, (1, 1): 1})

    def test_row_prune(self):
        ctx = RingContext(1, 2)
        assert pieri(sigma(ctx, (1,)), 1) == sigma(ctx, (2,))

    def test_index_out_of_range(self):
        ctx = RingContext(2, 3)
        with pytest.raises(ValueError):
            pieri(sigma(ctx, ()), 3)

    def test_against_monomial_symmetric_expansion(self):
        # multiply Schur polynomials in 2 variables by e_i and compare
        # with brute-force polynomial arithmetic on monomials
        def schur_poly2(lam, x, y):
            # s_lam(x,y) for at most 2 rows: (x^(a+1) y^b - x^b y^(a+1))/(x-y)
            lam = tuple(lam) + (0,) * (2 - len(lam))
            a, b = lam
            num = Fraction(0)
            for t in range(b, a + 1):
                num += x ** t * y ** (a + b - t)
            return num

        vals = [(Fraction(2), Fraction(3)), (Fraction(1, 2), Fraction(5)),
                (Fraction(-3), Fraction(7, 3))]
        for lam in [(), (1,), (2, 1), (3, 2)]:
            for i in (1, 2):
                # no quotient prune: the widest row may grow by one
                strips = vertical_strips(lam, i, 2, (lam[0] if lam else 0) + 1)
                for x, y in vals:
                    e_i = x + y if i == 1 else x * y
                    lhs = schur_poly2(lam, x, y) * e_i
                    rhs = sum(schur_poly2(mu, x, y) for mu in strips)
                    assert lhs == rhs


def brute_force_strips(lam, size, max_rows, max_part):
    """Every choice of one box or none per row, boxing first, kept when
    it adds `size` boxes and leaves a partition in the box."""
    padded = tuple(lam) + (0,) * (max_rows - len(lam))
    out = []
    for boxes in itertools.product((1, 0), repeat=max_rows):
        mu = [p + b for p, b in zip(padded, boxes)]
        if sum(boxes) == size and (not mu or mu[0] <= max_part) and \
                all(a >= b for a, b in zip(mu, mu[1:])):
            out.append(tuple(p for p in mu if p))
    return out


def test_vertical_strips_match_brute_force():
    # every partition in boxes up to 5 x 5, with the row and part bounds
    # at the box edge and one beyond it; sets and order both
    cases = {(lam, rows, cols)
             for k in range(1, 6) for n in range(1, 6)
             for i in range(k * n + 1) for lam in partitions_in_box(i, k, n)
             for rows in (k, k + 1) for cols in (n, n + 1)}
    for lam, rows, cols in cases:
        for size in range(rows + 2):
            assert list(vertical_strips(lam, size, rows, cols)) == \
                brute_force_strips(lam, size, rows, cols), (lam, size, rows, cols)


class TestReduce:
    def test_cp2_top_class(self):
        ctx = RingContext(1, 2)
        p = FreeClass.generator(1, 1).power(2)
        assert reduce_free(p, ctx) == sigma(ctx, (2,))

    def test_zero(self):
        ctx = RingContext(2, 3)
        assert reduce_free(FreeClass.zero(2), ctx).is_zero()

    def test_ambient_mismatch(self):
        # c_3 has no chain in two rows, so unchecked it would reduce to 0
        with pytest.raises(AmbientMismatch):
            reduce_free(FreeClass.generator(3, 3), RingContext(2, 3))

    def test_ideal_relations(self):
        for k in range(1, 6):
            for n in range(k + 1, 9):
                ctx = RingContext(k, n)
                for j in range(1, k + 1):
                    assert reduce_free(dual_class_closed(n + j, k), ctx).is_zero()

    def test_order_independence(self):
        # iterated Pieri in increasing i must give the same monomial image
        ctx = RingContext(3, 3)
        for alpha in [(2, 1, 0), (1, 1, 1), (0, 2, 1), (3, 0, 1)]:
            expected = reduce_free(FreeClass(3, {alpha: 1}), ctx)
            acc = sigma(ctx, ())
            for i in range(1, 4):
                for _ in range(alpha[i - 1]):
                    acc = pieri(acc, i)
            assert acc == expected

    def test_whitney_identity(self):
        for k in range(1, 6):
            for n in range(k + 1, 9):
                ctx = RingContext(k, n)
                acc = FreeClass.one(k)
                for i in range(1, n + 1):
                    acc = acc + dual_class_closed(i, k)
                prod = total_chern(k) * acc
                for j in range(1, n + k + 1):
                    comp = prod.homogeneous_component(j)
                    assert reduce_free(comp, ctx).is_zero()

    def test_free_range_injectivity(self):
        # monomials of weight q <= n stay linearly independent after reduction
        def rank(rows):
            rows = [list(r) for r in rows]
            r = 0
            cols = len(rows[0]) if rows else 0
            for col in range(cols):
                piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
                if piv is None:
                    continue
                rows[r], rows[piv] = rows[piv], rows[r]
                for i in range(len(rows)):
                    if i != r and rows[i][col]:
                        f = rows[i][col] / rows[r][col]
                        rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
                r += 1
            return r

        from grasscoh.partitions import exponent_vectors_of_weight
        for k in range(1, 5):
            for n in range(k, 7):
                ctx = RingContext(k, n)
                for q in range(0, n + 1):
                    vecs = exponent_vectors_of_weight(q, k)
                    basis = partitions_in_box(q, k, n)
                    index = {lam: i for i, lam in enumerate(basis)}
                    rows = []
                    for v in vecs:
                        red = reduce_free(FreeClass(k, {v: 1}), ctx)
                        row = [Fraction(0)] * len(basis)
                        for lam, c in red.terms.items():
                            row[index[lam]] = c
                        rows.append(row)
                    assert rank(rows) == len(vecs)


def naive_chain(alpha, k, n, start):
    """c^alpha * sigma_start as the loop it replaced: from start, c_k
    first and c_1 last, one strip step per factor on a dict."""
    current = {start: 1}
    for i in range(k, 0, -1):
        for _ in range(alpha[i - 1]):
            nxt = {}
            for lam, c in current.items():
                for mu in vertical_strips(lam, i, k, n):
                    nxt[mu] = nxt.get(mu, 0) + c
            current = nxt
    return tuple(current.items())


@st.composite
def chains(draw):
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    factors = draw(st.lists(st.integers(1, k), max_size=12))
    alpha = tuple(factors.count(i) for i in range(1, k + 1))
    return alpha, k, n


class TestChains:
    """`_reduce_monomial` steps from its own memoised prefix."""

    @settings(max_examples=200, deadline=None)
    @given(chains(), st.booleans())
    def test_matches_naive_chain(self, case, cold):
        alpha, k, n = case
        if cold:
            grasscoh.clear_caches()
        assert ring._reduce_monomial(alpha, k, n) == \
            naive_chain(alpha, k, n, ())

    def test_chain_past_the_stride(self):
        # 700 factors: more than the recursion `reduce_free` lets one call
        # run
        out = io.StringIO()
        assert cli.run_cli(["eval", "--k", "2", "--n", "700", "c2^700"],
                           out=out) == 0
        assert out.getvalue() == "1*c2^700\n= 1*sigma[700,700]\n"

    def test_monomials_share_their_prefixes(self):
        # walked from sigma_() once per monomial, this reduction makes
        # 1,643 strip lookups; sharing prefixes brings it to 354
        p = total_chern(3).power(8)
        grasscoh.clear_caches()
        reduce_free(p, RingContext(3, 5))
        info = vertical_strips.cache_info()
        assert info.hits + info.misses <= 400


class TestGiambelli:
    def test_column_is_generator(self):
        assert giambelli((1, 1), 3) == FreeClass.generator(3, 2)

    def test_row_two(self):
        k = 3
        c1 = FreeClass.generator(k, 1)
        c2 = FreeClass.generator(k, 2)
        assert giambelli((2,), k) == c1 * c1 - c2

    def test_hook(self):
        k = 3
        c1 = FreeClass.generator(k, 1)
        c2 = FreeClass.generator(k, 2)
        c3 = FreeClass.generator(k, 3)
        assert giambelli((2, 1), k) == c1 * c2 - c3

    def test_hook_k2(self):
        k = 2
        c1 = FreeClass.generator(k, 1)
        c2 = FreeClass.generator(k, 2)
        assert giambelli((2, 1), k) == c1 * c2

    def test_too_wide(self):
        with pytest.raises(ValueError):
            giambelli((1, 1, 1), 2)

    def test_not_a_partition(self):
        for lam in [(2, 0), (1, 2), (0,), (-1,)]:
            with pytest.raises(ValueError):
                giambelli(lam, 3)

    def test_long_row(self):
        ctx = RingContext(5, 15)
        assert reduce_free(giambelli((15,), 5), ctx) == sigma(ctx, (15,))

    def test_list_argument(self):
        assert giambelli([2, 1], 3) == giambelli((2, 1), 3)

    # the solvers solve in plain tuple order, so a step's inputs, rest and
    # the others, must sort below its partition
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.integers(1, 8), min_size=1, max_size=k))))
    def test_step_inputs_sort_below_it(self, drawn):
        k, parts = drawn
        nu = tuple(sorted(parts, reverse=True))
        rest, others = ring._giambelli_step(nu, k)
        assert rest < nu
        for o in others:
            assert sum(o) == sum(nu) and o < nu

    def test_lifts_leave_no_table(self):
        # each lift is solved on its own, so no module-level dict grows
        grasscoh.clear_caches()
        sizes = {name: len(v) for name, v in vars(ring).items()
                 if isinstance(v, dict)}
        giambelli((5, 3, 1), 4)
        ctx = RingContext(4, 6)
        lift(SchurClass(ctx, {(5, 3, 1): 1, (2,): -3}))
        out = io.StringIO()
        assert cli.run_cli(["eval", "--k", "4", "--n", "6", "sigma[5,3,1]"],
                           out=out) == 0
        assert out.getvalue().endswith("\n= 1*sigma[5,3,1]\n")
        assert {name: len(v) for name, v in vars(ring).items()
                if isinstance(v, dict)} == sizes

    def test_lift_steps_each_partition_once(self, monkeypatch):
        # the four terms share most of their closure in G(8,24): one walk
        # steps each partition once
        stepped, step = [], ring._giambelli_step

        def recorder(nu, k):
            stepped.append(nu)
            return step(nu, k)

        monkeypatch.setattr(ring, "_giambelli_step", recorder)
        s = SchurClass(RingContext(8, 24), {(24,): 1, (23, 1): 1, (22, 2): 1,
                                            (22, 1, 1): 1})
        lift(s)
        assert stepped and len(stepped) == len(set(stepped))
        assert set(s.terms) <= set(stepped)

    def test_long_row_in_eight_rows(self):
        ctx = RingContext(8, 24)
        assert reduce_free(giambelli((24,), 8), ctx) == sigma(ctx, (24,))

    def test_matches_leibniz_determinant(self):
        # every lambda in the k x 5 box holds every k x n box with n <= 5
        for k in range(1, 6):
            for i in range(5 * k + 1):
                for lam in partitions_in_box(i, k, 5):
                    assert dict(giambelli(lam, k).terms) == \
                        jacobi_trudi(lam, k), (lam, k)

    def test_round_trip(self):
        for k in range(1, 6):
            for n in range(1, 6):
                ctx = RingContext(k, n)
                for i in range(k * n + 1):
                    for lam in partitions_in_box(i, k, n):
                        red = reduce_free(giambelli(lam, k), ctx)
                        assert red == sigma(ctx, lam)


class TestRingStructure:
    def test_cup_unit(self):
        ctx = RingContext(2, 3)
        x = reduce_free(dual_class_closed(2, 2), ctx)
        assert x.cup(reduce_free(FreeClass.one(2), ctx)) == x

    def test_cup_vanishes_above_top(self):
        ctx = RingContext(1, 1)
        c1 = reduce_free(FreeClass.generator(1, 1), ctx)
        assert c1.cup(c1).is_zero()

    def test_context_mismatch(self):
        x = reduce_free(FreeClass.one(2), RingContext(2, 2))
        y = reduce_free(FreeClass.one(2), RingContext(2, 3))
        with pytest.raises(ContextMismatch):
            x.cup(y)
        with pytest.raises(ContextMismatch):
            x * y

    def test_product_with_a_non_class_is_a_type_error(self):
        s = reduce_free(FreeClass.generator(2, 1), RingContext(2, 3))
        for product in (lambda: s * 2, lambda: 2 * s,
                        lambda: s * FreeClass.one(2)):
            with pytest.raises(TypeError):
                product()
        assert s.scale(2) == s + s

    def test_mixed_free_and_schur_operands_are_type_errors(self):
        f = FreeClass.one(2)
        s = reduce_free(FreeClass.generator(2, 1), RingContext(2, 3))
        for expression in (lambda: f * 2, lambda: f * s, lambda: f + 1,
                           lambda: f + s, lambda: s + 1, lambda: s - f):
            with pytest.raises(TypeError):
                expression()
        assert f.scale(2) == f + f

    def test_integrate_top(self):
        for k, n in [(1, 2), (2, 2), (2, 3)]:
            ctx = RingContext(k, n)
            top = sigma(ctx, ctx.top_partition)
            assert integrate(top) == 1

    def test_integrate_wrong_degree(self):
        ctx = RingContext(2, 2)
        assert integrate(reduce_free(FreeClass.generator(2, 1), ctx)) == 0

    def test_cp2_self_intersection(self):
        ctx = RingContext(1, 2)
        c1 = reduce_free(FreeClass.generator(1, 1), ctx)
        assert integrate(c1.cup(c1)) == 1

    def test_schubert_duality_g22(self):
        ctx = RingContext(2, 2)
        for i in range(5):
            for lam in partitions_in_box(i, 2, 2):
                x = sigma(ctx, lam)
                y = sigma(ctx, complement(lam, 2, 2))
                assert pairing(x, y) == 1

    def test_pairing_degree_mismatch(self):
        ctx = RingContext(2, 2)
        x = sigma(ctx, (1,))
        assert pairing(x, x) == 0

    def test_pairing_matrix_is_permutation(self):
        for k in range(1, 5):
            for n in range(1, 5):
                ctx = RingContext(k, n)
                top = k * n
                for d in range(top + 1):
                    rows = partitions_in_box(d, k, n)
                    cols = partitions_in_box(top - d, k, n)
                    mat = [[pairing(sigma(ctx, a), sigma(ctx, b))
                            for b in cols] for a in rows]
                    for row in mat:
                        assert sorted(row) == [0] * (len(cols) - 1) + [1]
                    for j in range(len(cols)):
                        col = [mat[i][j] for i in range(len(rows))]
                        assert sorted(col) == [0] * (len(rows) - 1) + [1]

    def test_pairing_equals_integrated_product(self):
        # pairing reads the dual coefficient; the product is the second path
        rng = random.Random(34)
        for k, n in [(2, 3), (3, 3), (2, 5), (3, 4)]:
            ctx = RingContext(k, n)
            basis = box_basis(k, n)
            for a in basis:
                for b in basis:
                    x, y = sigma(ctx, a), sigma(ctx, b)
                    assert pairing(x, y) == integrate(schur_mul(x, y)), (a, b)
            for _ in range(50):
                x, y = (SchurClass(ctx, {lam: rng.choice([-3, -1, 2, 5,
                                                          Fraction(1, 3)])
                                         for lam in rng.sample(basis, 4)})
                        for _ in range(2))
                assert pairing(x, y) == integrate(schur_mul(x, y))
        with pytest.raises(ContextMismatch):
            pairing(sigma(RingContext(2, 3), ()), sigma(RingContext(3, 2), ()))

    def test_reduce_is_ring_hom(self):
        rng = random.Random(7)
        for k in range(1, 5):
            for n in range(1, 5):
                ctx = RingContext(k, n)
                for _ in range(5):
                    p = _random_poly(rng, k)
                    q = _random_poly(rng, k)
                    lhs = reduce_free(p * q, ctx)
                    rhs = schur_mul(reduce_free(p, ctx), reduce_free(q, ctx))
                    assert lhs == rhs


def _random_poly(rng, k, max_weight=6, nterms=4):
    from grasscoh.partitions import exponent_vectors_of_weight
    terms = {}
    for _ in range(nterms):
        w = rng.randint(0, max_weight)
        vecs = exponent_vectors_of_weight(w, k)
        alpha = vecs[rng.randrange(len(vecs))]
        terms[alpha] = Fraction(rng.randint(-4, 4))
    return FreeClass(k, terms)


def schur_json(x, ctx):
    """The `schur` list of eval's JSON for the free class x."""
    return json.loads(render(x, ctx, "json"))["schur"]


class TestSerialization:
    def test_schur_json(self):
        ctx = RingContext(2, 2)
        obj = schur_json(dual_class_closed(2, 2), ctx)
        assert json.dumps(obj) == '[{"partition": [2], "coeff": "1/1"}]'

    def test_json_order_lex_descending(self):
        ctx = RingContext(2, 3)
        s = SchurClass(ctx, {(1, 1): 1, (2,): 1, (3, 1): Fraction(1, 2)})
        obj = schur_json(lift(s), ctx)
        assert [t["partition"] for t in obj] == [[3, 1], [2], [1, 1]]


@pytest.mark.parametrize("box, lam, message", [
    ((2, 2), (3, 1), "partition [3, 1] outside the 2x2 box"),
    ((2, 3), (1, 1, 1), "partition [1, 1, 1] outside the 2x3 box"),
    ((3, 3), (3, 3, 3, 1), "partition [3, 3, 3, 1] outside the 3x3 box"),
    ((4, 4), (5, 5, 1), "partition [5, 5, 1] outside the 4x4 box"),
    ((2, 3), (4,), "partition [4] outside the 2x3 box"),
    ((3, 3), (2, 3, 1), "[2, 3, 1] is not a partition"),
    ((4, 4), (1, 1, 2, 1), "[1, 1, 2, 1] is not a partition"),
    ((3, 4), (2, 1, 0), "[2, 1, 0] is not a partition"),
    ((3, 4), (4, 0), "[4, 0] is not a partition"),
    ((2, 3), (1, 2), "[1, 2] is not a partition"),
    ((2, 2), (-1,), "[-1] is not a partition"),
    # the partition check comes first
    ((2, 2), (1, 3, 3), "[1, 3, 3] is not a partition"),
])
def test_keys_are_checked(box, lam, message):
    ctx = RingContext(*box)
    with pytest.raises(ValueError) as info:
        SchurClass(ctx, {(): 1, lam: 1})
    assert type(info.value) is ValueError and str(info.value) == message
    # the keys at the edges of the box pass
    k, n = box
    for key in ((n,) * k, (n,), (1,) * k, ()):
        assert SchurClass(ctx, {key: 2}).coeff(key) == 2


# coeff checks its key as the constructor does, and finds the term it holds
@pytest.mark.parametrize("lam, message", [
    ([2, 0], "[2, 0] is not a partition"),
    ((0, 2), "[0, 2] is not a partition"),
    ((4,), "partition [4] outside the 2x3 box"),
])
def test_coeff_checks_its_key(lam, message):
    x = SchurClass(RingContext(2, 3), {(2,): 5})
    with pytest.raises(ValueError) as info:
        x.coeff(lam)
    assert str(info.value) == message
    assert x.coeff([2]) == 5 and x.coeff((2,)) == 5


def test_value_type_contracts():
    ctx = RingContext(2, 3)
    assert repr(ctx) == "RingContext(k=2, n=3)"
    assert ctx == RingContext(k=2, n=3) and hash(ctx) == hash((2, 3))
    with pytest.raises(AttributeError):
        ctx.k = 5
    with pytest.raises(ValueError):
        RingContext(0, 3)

    x, y = sigma(ctx, (1,)), SchurClass(ctx, {(1,): 1})
    assert x == y and hash(x) == hash(y)
    assert x != sigma(ctx, (2,))
    with pytest.raises(AttributeError):
        x.terms = {(2,): 1}
    with pytest.raises(AttributeError):
        x.context = RingContext(2, 4)
    assert x.terms == {(1,): 1} and x.context == ctx
    # `terms` is read-only: neither a new key nor a zero gets in, so the
    # hash, the text and is_zero() stay as they were
    h, text = hash(x), str(x)
    for key, c in (((2,), 1), ((1,), 5), ((1,), 0)):
        with pytest.raises(TypeError):
            x.terms[key] = c
    with pytest.raises(AttributeError):
        del x.context
    assert (hash(x), str(x), x.is_zero()) == (h, text, False)
    assert pickle.loads(pickle.dumps(x)) == x == copy.copy(x)
    zero = SchurClass(ctx)
    with pytest.raises(TypeError):
        zero.terms[(1,)] = 0
    assert zero.is_zero() and str(zero) == "0"
    with pytest.raises(TypeError):
        len(x)
    assert ring.GrassElement is SchurClass

    cert = Certificate(case_tag="Case1", k=2, n=3, witness_monomial=(3, 0))
    assert (cert.witness_coefficient, cert.search_log) == (None, None)
    # a plain tuple subclass: the fields are all there is, and cli writes them
    assert Certificate.__bases__ == (tuple,)
    assert cert._asdict() == {"case_tag": "Case1", "k": 2, "n": 3,
                              "witness_monomial": (3, 0),
                              "witness_coefficient": None, "search_log": None,
                              "assumptions": ()}

    # every record: built by position or by name with its defaults, shown
    # by field name, read-only, and equal and hashed as the plain tuple
    records = [
        (RingContext(2, 3), RingContext(n=3, k=2), (2, 3),
         "RingContext(k=2, n=3)"),
        (Certificate("Case1", 2, 3, (3, 0)), cert, ("Case1", 2, 3, (3, 0),
                                                   None, None, ()),
         "Certificate(case_tag='Case1', k=2, n=3, witness_monomial=(3, 0), "
         "witness_coefficient=None, search_log=None, assumptions=())"),
        (PropositionReport(4), PropositionReport(cells_checked=4), (4, ()),
         "PropositionReport(cells_checked=4, counterexamples=())"),
        (FppVerdict("FPP", {1: 3}), FppVerdict(lefschetz_table={1: 3},
                                               status="FPP"),
         ("FPP", {1: 3}), "FppVerdict(status='FPP', lefschetz_table={1: 3})"),
        (CacheInfo(1, 2, None, 2),
         CacheInfo(hits=1, misses=2, maxsize=None, currsize=2),
         (1, 2, None, 2),
         "CacheInfo(hits=1, misses=2, maxsize=None, currsize=2)"),
    ]
    for by_position, by_name, plain, text in records:
        cls = type(by_position)
        assert cls.__bases__ == (tuple,) and type(by_name) is cls
        assert by_position == by_name == plain and tuple(by_name) == plain
        assert repr(by_position) == repr(by_name) == text
        assert by_name._asdict() == dict(zip(cls._fields, plain))
        assert [getattr(by_name, name) for name in cls._fields] == list(plain)
        for name in cls._fields + ("other",):
            with pytest.raises(AttributeError):
                setattr(by_name, name, 0)
        if cls is not FppVerdict:          # its table is a dict
            assert hash(by_name) == hash(plain)
    assert PropositionReport(4).passed and not PropositionReport(4, [1]).passed
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(ctx, protocol))
        assert type(back) is RingContext and back == ctx
    for back in (copy.copy(ctx), copy.deepcopy(ctx)):
        assert type(back) is RingContext and back == ctx
        assert back.top_partition == (3, 3)


PROPERTY_RINGS = [(1, 3), (2, 2), (2, 3), (3, 3), (3, 4), (4, 2)]


def box_basis(k, n):
    return [lam for i in range(k * n + 1) for lam in partitions_in_box(i, k, n)]


@st.composite
def ring_triples(draw):
    ctx = RingContext(*draw(st.sampled_from(PROPERTY_RINGS)))
    coeffs = st.one_of(
        st.integers(-6, 6),
        st.fractions(min_value=-3, max_value=3, max_denominator=5))
    terms = st.dictionaries(st.sampled_from(box_basis(ctx.k, ctx.n)), coeffs,
                            max_size=3)
    return tuple(SchurClass(ctx, draw(terms)) for _ in range(3))


@st.composite
def basis_pairs(draw):
    ctx = RingContext(*draw(st.sampled_from(PROPERTY_RINGS)))
    basis = st.sampled_from(box_basis(ctx.k, ctx.n))
    return draw(basis), draw(basis), ctx


class TestMixedCoefficients:
    @settings(max_examples=60, deadline=None)
    @given(ring_triples())
    def test_ring_axioms(self, triple):
        a, b, c = triple
        one = sigma(a.context, ())
        assert schur_mul(a, b) == schur_mul(b, a)
        assert schur_mul(schur_mul(a, b), c) == schur_mul(a, schur_mul(b, c))
        assert schur_mul(a, b + c) == schur_mul(a, b) + schur_mul(a, c)
        assert schur_mul(one, a) == a
        assert reduce_free(lift(a), a.context) == a

    @settings(max_examples=60, deadline=None)
    @given(ring_triples())
    def test_lift_is_the_sum_of_basis_lifts(self, triple):
        # giambelli lifts each term in its own narrowest box
        a = triple[0]
        k = a.context.k
        want = FreeClass.zero(k)
        for lam, c in a.terms.items():
            want = want + giambelli(lam, k).scale(c)
        assert lift(a) == want

    @settings(max_examples=100, deadline=None)
    @given(basis_pairs())
    def test_degree_additivity(self, case):
        a, b, ctx = case
        degree = sum(a) + sum(b)
        prod = sigma(ctx, a) * sigma(ctx, b)
        assert all(sum(mu) == degree for mu in prod.terms)
        if degree != ctx.k * ctx.n:
            assert integrate(prod) == 0

    @settings(max_examples=60, deadline=None)
    @given(ring_triples(), st.integers(0, 5))
    def test_power_is_the_repeated_product(self, triple, e):
        # past k*n the binomial split stops; the oracles do not
        a = triple[0]
        want = sigma(a.context, ())
        for _ in range(e):
            want = want * a
        assert a.power(e) == want == reduce_free(lift(a).power(e), a.context)
        with pytest.raises(ValueError):
            a.power(-1)
        # an inexact exponent is refused, as FreeClass.power refuses it
        for bad in (2.5, 2.0, Fraction(2), "2"):
            with pytest.raises(TypeError):
                a.power(bad)

    @pytest.mark.parametrize("make", [
        lambda c: FreeClass(2, {(1, 0): c}),
        lambda c: FreeClass.generator(2, 1).scale(c),
        lambda c: SchurClass(RingContext(2, 2), {(1,): c}),
        lambda c: sigma(RingContext(2, 2), (1,)).scale(c),
    ])
    def test_coefficient_boundary(self, make):
        for raw, want in [(3, 3), (0.5, Fraction(1, 2)), ("2/3", Fraction(2, 3))]:
            (got,) = make(raw).terms.values()
            assert (got, type(got)) == (want, type(want))
        with pytest.raises(ValueError):
            make("x")

    def test_integer_classes_stay_int(self):
        def all_int(terms):
            return all(type(c) is int for c in terms.values())

        for k in range(1, 5):
            for i in range(10):
                assert all_int(dual_class_closed(i, k).terms)
        for k, n in PROPERTY_RINGS:
            ctx = RingContext(k, n)
            for m in range(5):
                assert all_int(reduce_free(total_chern(k).power(m), ctx).terms)
            basis = box_basis(k, n)
            for a in basis:
                assert all_int(sigma(ctx, a).scale(-2).power(3).terms)
                for b in basis:
                    assert all_int(schur_mul(sigma(ctx, a), sigma(ctx, b)).terms)
        for k in range(2, 7):
            for n in range(k + 1, 30):
                coeff = nontrivial_intersection_report(k, n).witness_coefficient
                assert coeff is None or type(coeff) is int

    @settings(max_examples=60, deadline=None)
    @given(ring_triples(), st.sampled_from([0, -2, Fraction(1, 3)]),
           st.integers(0, 2))
    def test_unchecked_results_are_valid(self, triple, factor, e):
        # ring operations build their results without checking a key
        # (Combination._of): each must be what the checking constructor
        # makes of its own terms, with no zero, and with exact coefficients
        a, b, _ = triple
        fa, fb = lift(a), lift(b)
        for r in (a + b, a - b, a - a, -a, a.scale(factor), schur_mul(a, b),
                  a.power(e), fa, fa + fb, fa - fa, -fa, fa.scale(factor),
                  fa * fb, fa.power(e), reduce_free(fa * fb, a.context)):
            assert type(r)(r.space, dict(r.terms)) == r
            assert all(c != 0 and type(c) in (int, Fraction)
                       for c in r.terms.values())


class TestSchurFirstElements:
    """The free-ring paths that `cup` and `apply_adams` replaced, kept as
    oracles, and the closed form of the dual classes in the quotient."""

    @settings(max_examples=60, deadline=None)
    @given(ring_triples())
    def test_cup_is_reduced_free_product(self, triple):
        a, b, _ = triple
        ctx = a.context
        assert a * b == a.cup(b) == reduce_free(lift(a) * lift(b), ctx)

    @settings(max_examples=60, deadline=None)
    @given(ring_triples())
    def test_product_table_is_the_lift_of_the_left_operand(self, triple):
        # the reduced free product of the lifts as the oracle: cold, and
        # then warm with b * a asked for first, so that a * b reads the
        # entries that b * a left in the table
        a, b, _ = triple
        ctx = a.context
        grasscoh.clear_caches()
        assert schur_mul(a, b) == reduce_free(lift(a) * lift(b), ctx)
        grasscoh.clear_caches()
        assert schur_mul(b, a) == reduce_free(lift(b) * lift(a), ctx)
        assert schur_mul(a, b) == reduce_free(lift(a) * lift(b), ctx)

    def test_product_lifts_nothing(self, monkeypatch):
        # sigma_(24) lifts to 919 free terms in G(8,24); a product is
        # solved on the table alone, and the second order reads the first
        grasscoh.clear_caches()
        ctx = RingContext(8, 24)
        wide, narrow = sigma(ctx, (24,)), sigma(ctx, (1,))

        def refused(*args):
            raise AssertionError("a product lifted or reduced")

        monkeypatch.setattr(ring, "giambelli", refused)
        monkeypatch.setattr(ring, "lift", refused)
        monkeypatch.setattr(ring, "reduce_free", refused)
        want = SchurClass(ctx, {(24, 1): 1})
        assert schur_mul(wide, narrow) == want
        assert schur_mul(narrow, wide) == want
        assert str(schur_mul(narrow, wide)) == "1*sigma[24,1]"

    def test_product_solve_runs_no_recursion(self):
        # sigma_(30) * sigma_(30) in G(10,30) walks the hooks of sigma_(30)'s
        # closure on one explicit stack, so 25 frames above this one are
        # enough (acting with the lift of sigma_(30) took 17-21 s)
        grasscoh.clear_caches()
        ctx = RingContext(10, 30)
        row = sigma(ctx, (30,))
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 25)
        try:
            product = schur_mul(row, row)
        finally:
            sys.setrecursionlimit(limit)
        assert str(product) == "1*sigma[30,30]"

    @settings(max_examples=200, deadline=None)
    @given(basis_pairs())
    def test_product_vanishes_off_the_complement(self, case):
        # sigma_lam * sigma_mu is zero exactly when mu does not fit the
        # complement of lam in the box (Fulton, Young Tableaux, 9.4), and
        # reduce_free(lift(a) * lift(b), ctx) is the oracle
        lam, mu, ctx = case
        k, n = ctx
        a, b = sigma(ctx, lam), sigma(ctx, mu)
        rows_l = tuple(lam) + (0,) * (k - len(lam))
        rows_m = tuple(mu) + (0,) * (k - len(mu))
        outside = any(p + q > n for p, q in zip(rows_l, reversed(rows_m)))
        grasscoh.clear_caches()
        product = schur_mul(a, b)
        assert product == reduce_free(lift(a) * lift(b), ctx)
        assert product.is_zero() == outside

    @pytest.mark.parametrize("box, left, right", [
        ((2, 3), lambda ctx: SchurClass(ctx, {(2, 1): 1, (3,): 1, (3, 1): 1}),
         lambda ctx: SchurClass(ctx, {(3, 2): 1, (3,): 1})),
        ((5, 7), lambda ctx: SchurClass(ctx, {(3,): 1, (2,): 1}),
         lambda ctx: reduce_free(total_chern(5).power(3), ctx)),
    ], ids=["G(2,3)", "G(5,7)"])
    def test_product_work_ignores_term_order(self, box, left, right):
        # a miss enters the pairs its steps pass, so a walk in the order the
        # terms came in solved other pairs when they came reversed: 13 table
        # entries against 12 on the first case, 914 strip lookups against
        # 922 on the second
        ctx = RingContext(*box)
        a, b = left(ctx), right(ctx)
        assert product_work(a, b) == product_work(reordered(a, reversed),
                                                  reordered(b, reversed))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_product_work_ignores_shuffled_terms(self, k, n, data):
        ctx = RingContext(k, n)
        terms = st.dictionaries(st.sampled_from(box_basis(k, n)),
                                st.integers(-3, 3).filter(bool),
                                min_size=1, max_size=5)
        a, b = (SchurClass(ctx, data.draw(terms)) for _ in range(2))
        shuffled = [reordered(s, lambda keys: data.draw(st.permutations(keys)))
                    for s in (a, b)]
        assert product_work(a, b) == product_work(*shuffled)

    @settings(max_examples=60, deadline=None)
    @given(ring_triples(), st.integers(-4, 4))
    def test_adams_is_free_weight_scaling(self, triple, m):
        a = triple[0]
        ctx = a.context
        free = FreeClass(ctx.k, {alpha: m ** weight(alpha) * c
                                 for alpha, c in lift(a).terms.items()})
        assert apply_adams(a, m) == reduce_free(free, ctx)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 6), st.data())
    def test_dual_class_is_signed_row(self, k, n, data):
        i = data.draw(st.integers(0, n + k + 2))
        ctx = RingContext(k, n)
        row = (i,) if i else ()
        want = SchurClass(ctx, {row: (-1) ** i}) if i <= n else SchurClass(ctx)
        assert reduce_free(dual_class_closed(i, k), ctx) == want


@st.composite
def act_cases(draw):
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    ctx = RingContext(k, n)
    coeffs = st.one_of(
        st.integers(-6, 6),
        st.fractions(min_value=-3, max_value=3, max_denominator=5))
    alphas = st.tuples(*[st.integers(0, 3)] * k)
    p = FreeClass(k, draw(st.dictionaries(alphas, coeffs, max_size=5)))
    y = SchurClass(ctx, draw(st.dictionaries(
        st.sampled_from(box_basis(k, n)), coeffs, max_size=4)))
    return p, y


class TestAct:
    """`act(p, y)` is reduce_free(p) * y, stepped on the whole of y."""

    @settings(max_examples=200, deadline=None)
    @given(act_cases(), st.booleans())
    def test_is_reduced_product(self, case, cold):
        p, y = case
        if cold:
            grasscoh.clear_caches()
        assert ring.act(p, y) == schur_mul(reduce_free(p, y.context), y)

    @settings(max_examples=200, deadline=None)
    @given(chains(), st.data())
    def test_monomial_is_naive_chain(self, case, data):
        alpha, k, n = case
        start = data.draw(st.sampled_from(box_basis(k, n)))
        got = ring.act(FreeClass(k, {alpha: 1}), sigma(RingContext(k, n), start))
        assert dict(got.terms) == dict(naive_chain(alpha, k, n, start))

    def test_zero_and_full(self):
        # a zero class stays zero, and a chain longer than the cells left
        # outside the smallest term is empty with no strip stepped
        ctx = RingContext(3, 4)
        p = total_chern(3).power(4)
        assert ring.act(p, SchurClass(ctx)).is_zero()
        grasscoh.clear_caches()
        full = ring.act(FreeClass(3, {(3, 0, 0): 1}), sigma(ctx, (4, 4, 2)))
        assert full.is_zero()
        assert vertical_strips.cache_info().misses == 0
        with pytest.raises(AmbientMismatch):
            ring.act(FreeClass.generator(2, 1), sigma(ctx, ()))

    def test_long_chain_runs_no_recursion(self):
        # 100,000 factors of c_1 in G(1, 100000), each prefix found on an
        # explicit list
        ctx = RingContext(1, 100000)
        got = ring.act(FreeClass(1, {(100000,): 1}), sigma(ctx, ()))
        assert str(got) == "1*sigma[100000]"
