"""The quotient ring H*(G(k,n); Q) in its Schur basis.

`reduce_free(p, ctx)` carries reduction: each monomial c^alpha of p
is a Pieri chain on sigma_(), one vertical strip per factor, with two
separate prunes: partitions with more than k rows vanish already in k
variables, partitions with a part larger than n vanish in the quotient.
Every Pieri chain is memoised, one strip step on the memoised chain of
its prefix: monomials that share their high exponents share their chain.
`lift` solves free lifts from the same strips, the Giambelli steps of all
its terms in one walk, keeping nothing after the call; `giambelli` is the
lift of one basis class, and eval's `sigma[...]` lifts through `lift`.
On eval's path `reduce_free` serves only the subtrees of numbers and c_i
atoms: eval's Schur line takes cbar and sigma atoms as Schur classes at
once and combines them with `+`, `-`, `schur_mul` and `SchurClass.power`,
the binomial expansion of a*sigma_() + N, whose N^j vanishes past k*n.

`schur_mul(a, b)` is the bilinear sum of basis products
sigma_lam * sigma_mu, kept in one table per context and solved on that
table by the Giambelli step of the operand with the smaller
rows x columns, with neither a lift nor a chain: a product vanishes when
mu does not fit the complement of lam in the box, and that is read off
at once.  Both operands are walked in basis order, so a product's table
work depends on their values alone.  `reduce_free(lift(a) * lift(b), ctx)`,
through lifts and chains, is a second path to each product.
`pairing` reads Poincare duality off the coefficients and forms no
product.  Integer classes stay integer (`freepoly.exact`).  The ideal
relations are then a testable consequence, not an implementation input.
"""

from math import comb

from .freepoly import AmbientMismatch, Combination, FreeClass, render_terms
from .partitions import memo, record


@record
class RingContext(tuple):
    """Ambient Grassmannian G(k,n): k-planes in C^(k+n).  An immutable
    (k, n) pair; it equals and hashes as the plain tuple."""
    __slots__ = ()

    def __new__(cls, k, n):
        if k < 1 or n < 1:
            raise ValueError("k and n must be positive")
        return tuple.__new__(cls, (k, n))

    @property
    def top_partition(self):
        return (self.n,) * self.k


class ContextMismatch(ValueError):
    pass


class SchurClass(Combination):
    """Element of the ring: a Combination over the partitions in the box.
    Its `space` is the RingContext, also read as `context`.  A key that is
    not a partition (weakly decreasing positive parts) or leaves the box
    raises ValueError."""

    __slots__ = ()
    _mismatch = ContextMismatch
    context = Combination.space

    @staticmethod
    def _key(context, lam):
        lam = tuple(lam)
        if lam:
            # one pass: `low` ends as the last part, or 0 at the first rise
            low = lam[0]
            for part in lam:
                if low < part:
                    low = 0
                    break
                low = part
            if low < 1:
                raise ValueError(f"{list(lam)} is not a partition")
            k, n = context
            if len(lam) > k or lam[0] > n:
                raise ValueError(f"partition {list(lam)} outside the "
                                 f"{k}x{n} box")
        return lam

    def coeff(self, lam):
        return self.terms.get(self._key(self.context, lam), 0)

    def cup(self, other):
        return schur_mul(self, other)

    def __mul__(self, other):
        # scalars go through scale(); any other operand is a TypeError
        if not isinstance(other, SchurClass):
            return NotImplemented
        return schur_mul(self, other)

    def power(self, exponent: int):
        """self^exponent by the binomial split: self is a*sigma_() + N with
        no unit term in N, and the power is the sum of C(e, j) a^(e-j) N^j
        over j <= e.  The sum stops once N^j is 0, which it is past k*n,
        since N^j has degree at least j."""
        if not isinstance(exponent, int):
            raise TypeError(f"exponent must be an int, not "
                            f"{type(exponent).__name__}")
        if exponent < 0:
            raise ValueError("negative exponent")
        ctx = self.context
        a = self.terms.get((), 0)
        nil = SchurClass._of(ctx, {lam: c for lam, c in self.terms.items()
                                   if lam})
        # 0^0 is 1, so a zero base still has the unit at e = 0
        terms, power = {(): a ** exponent}, nil
        for j in range(1, exponent + 1):
            if power.is_zero():
                break
            factor = comb(exponent, j) * a ** (exponent - j)
            for lam, c in power.terms.items():
                terms[lam] = terms.get(lam, 0) + factor * c
            if j < exponent:
                power = power * nil
        return SchurClass._of(ctx, terms)

    def sorted_terms(self):
        # descending partition order: the wire format's, and the one that
        # fixes `schur_mul`'s product work (unique keys: pairs sort by key)
        return sorted(self.terms.items(), reverse=True)

    def __str__(self):
        return render_terms((f"sigma[{','.join(map(str, lam))}]", c)
                            for lam, c in self.sorted_terms())

    def __repr__(self):
        return f"SchurClass({self.context}, {str(self)!r})"

    # from_schur, reduced and the GrassElement alias below are the old
    # element API; perfbench/session.py is their only caller outside the
    # tests, and they go with the next change to it
    @classmethod
    def from_schur(cls, context, schur):
        if schur.context != context:
            raise ContextMismatch(f"{schur.context} != {context}")
        return schur

    @property
    def reduced(self):
        return self


GrassElement = SchurClass


@memo
def vertical_strips(parts, size, max_rows, max_part):
    """Partitions obtained from `parts`, a partition in the
    max_rows x max_part box, by adding a vertical strip of `size` boxes
    (at most one box per row), pruned to that box.  Rows are decided from
    the top, and a strip that boxes a row comes before one that skips it.
    Memoised, so the result is a shared tuple."""
    nrows = len(parts)
    out = []
    # (row, boxes left, part above, parts so far); "skip this row" is
    # pushed before "box this row", so boxing is popped first
    stack = [(0, size, max_part, ())]
    while stack:
        row, left, above, mu = stack.pop()
        if left == 0:
            out.append(mu + parts[row:])
        elif left <= max_rows - row:
            part = parts[row] if row < nrows else 0
            # below the last row a skipped row would end every strip, as
            # no row under a zero row can take a box
            if row < nrows:
                stack.append((row + 1, left, part, mu + (part,)))
            # above <= max_part: it starts there and each row only lowers it
            if part < above:
                stack.append((row + 1, left - 1, part + 1, mu + (part + 1,)))
    return tuple(out)


@memo
def _reduce_monomial(alpha, k, n):
    """Schur expansion of c^alpha in the k x n box, as a tuple of
    (partition, integer multiplicity) pairs.  The chain applies c_k first
    and c_1 last, one vertical strip per factor, and each step reads this
    memo's own entry for its prefix: alpha less one factor of its lowest
    index.  So monomials that share their high exponents share their
    chain, and a session's later monomials start from its prefixes.  Each
    factor adds at least one box, so a chain of more factors than the box
    has cells is empty at once, and no recursion runs deeper than k*n
    (`_chain`, which `reduce_free` calls, bounds it to _STRIDE)."""
    for i, a in enumerate(alpha, 1):
        if a:
            break
    else:
        return (((), 1),)
    if sum(alpha) > k * n:
        return ()
    nxt = {}
    for lam, c in _reduce_monomial(alpha[:i - 1] + (a - 1,) + alpha[i:],
                                   k, n):
        # read at call time, so a wrapper bound to the module name sees
        # every call
        for mu in vertical_strips(lam, i, k, n):
            nxt[mu] = nxt.get(mu, 0) + c
    return tuple(nxt.items())


# the deepest chain recursion `_chain` lets run
_STRIDE = 200


def _chain(alpha, k, n):
    """_reduce_monomial(alpha, k, n), with its prefixes of _STRIDE,
    2 _STRIDE, ... factors asked for first, so that each call recurses at
    most _STRIDE deep (a shorter chain asks for none); an empty prefix
    ends the chain at once."""
    for m in range(_STRIDE, sum(alpha), _STRIDE):
        # the first m factors of the chain, c_k first
        prefix = [0] * k
        for i in range(k - 1, -1, -1):
            prefix[i] = min(alpha[i], m)
            m -= prefix[i]
        if not _reduce_monomial(tuple(prefix), k, n):
            return ()
    return _reduce_monomial(alpha, k, n)


def reduce_free(p: FreeClass, ctx: RingContext) -> SchurClass:
    """Image of a free polynomial in the quotient ring: the sum of its
    monomials' Pieri chains, c_i adding vertical strips of i boxes."""
    if p.k != ctx.k:
        raise AmbientMismatch(f"polynomial ambient {p.k} != context k {ctx.k}")
    k, n = ctx
    terms = {}
    for alpha, coeff in p.terms.items():
        for mu, mult in _chain(alpha, k, n):
            terms[mu] = terms.get(mu, 0) + coeff * mult
    return SchurClass._of(ctx, terms)


def _giambelli_step(nu, k):
    """The Pieri step that solves sigma_nu, nu a nonempty partition with at
    most k rows: (rest, others), where rest is nu less its first column and
    c_h * sigma_rest, h the length of nu, is sigma_nu plus sigma_o for each
    o in others, the other vertical strips of h boxes on rest.  Every one
    of them is a partition of at most k rows and parts at most nu[0].
    Tuple order solves a step after its inputs: rest has a smaller first
    part than nu, and nu dominates the others, so they sort below it."""
    rest = tuple(p - 1 for p in nu if p > 1)
    return rest, [mu for mu in vertical_strips(rest, len(nu), k, nu[0])
                  if mu != nu]


def giambelli(lam, k: int) -> FreeClass:
    """Free-ring lift of sigma_lam: the `lift` of the basis class sigma_lam
    in the narrowest box of k rows that holds lam, whose key check refuses
    anything but a partition with at most k rows."""
    lam = tuple(lam)
    return lift(SchurClass(RingContext(k, max((1,) + lam)), {lam: 1}))


def lift(s: SchurClass) -> FreeClass:
    """The free representative sum c * lift(sigma_lam) over the terms of s,
    solved by `_giambelli_step`: the lift of sigma_nu is c_h times the lift
    of sigma_rest, less the lifts of the others.  The steps of every term
    are walked on one explicit stack, each partition once, and solved
    in partition order into dicts local to the call."""
    k = s.context.k
    lifts = {(): FreeClass.one(k)}
    # the step of every partition the terms of s need
    steps = {}
    stack = list(s.terms)
    while stack:
        nu = stack.pop()
        if nu in lifts or nu in steps:
            continue
        rest, others = steps[nu] = _giambelli_step(nu, k)
        stack.append(rest)
        stack += others
    for nu in sorted(steps):
        rest, others = steps[nu]
        h = len(nu)
        # c_h times a term raises its h-th exponent by one
        terms = {a[:h - 1] + (a[h - 1] + 1,) + a[h:]: c
                 for a, c in lifts[rest].terms.items()}
        for mu in others:
            for a, c in lifts[mu].terms.items():
                terms[a] = terms.get(a, 0) - c
        lifts[nu] = FreeClass._of(k, terms)
    terms = {}
    for lam, c in s.terms.items():
        for alpha, g in lifts[lam].terms.items():
            terms[alpha] = terms.get(alpha, 0) + c * g
    return FreeClass._of(k, terms)


def integrate(x: SchurClass):
    """Coefficient of the box partition (n,...,n): evaluation against the
    fundamental class."""
    return x.coeff(x.context.top_partition)


def pairing(x: SchurClass, y: SchurClass):
    """integrate(x * y) by Poincare duality (Fulton, Young Tableaux, 9.4):
    sigma_lam * sigma_mu integrates to 1 when mu is the complement of lam
    in the k x n box and to 0 otherwise, so the pairing is
    sum_lam x_lam * y_(complement of lam), with no product formed."""
    x._check(y)
    k, n = x.context
    total = 0
    for lam, c in x.terms.items():
        # the complement's rows are n less lam's, bottom row first: n for
        # each row lam lacks, and none for a row of lam that fills the box
        dual = (n,) * (k - len(lam)) + tuple(n - p for p in lam[::-1] if p < n)
        total += c * y.terms.get(dual, 0)
    return total


# the Schur expansion of every basis product sigma_lam * sigma_mu solved
# so far, with the closures solved on the way, one dict per context, keyed
# by the ordered pair (lam <= mu)
_products = {}


def _solve_products(table, ctx: RingContext, lam, mu):
    """Enter sigma_lam * sigma_mu into `table`, a context's `_products`, as
    a tuple of (partition, coefficient) pairs, and return it.  The
    `_giambelli_step`s of the operand with the smaller rows x columns are
    walked, on an explicit stack, against the other operand, mu after the
    swap: sigma_nu * sigma_mu is c_h acting on sigma_rest * sigma_mu, one
    vertical strip of h boxes in the box, less sigma_o * sigma_mu for the
    others.  Every pair walked is entered, in partition order.  A pair whose
    product vanishes, as mu does not fit the complement of nu in the box
    (Fulton, Young Tableaux, 9.4), is entered as () at once and walked no
    further."""
    k, n = ctx
    if len(mu) * (mu[0] if mu else 0) < len(lam) * (lam[0] if lam else 0):
        lam, mu = mu, lam
    # nu_i + mu_(k+1-i) <= n for every row i: mu reversed, against the rows
    # of nu from k - len(mu) on
    skip, flipped = k - len(mu), mu[::-1]
    table[((), mu)] = ((mu, 1),)
    steps = {}
    stack = [lam]
    while stack:
        nu = stack.pop()
        key = (nu, mu) if nu <= mu else (mu, nu)
        if key in table or nu in steps:
            continue
        for p, q in zip(nu[skip:], flipped):
            if p + q > n:
                table[key] = ()
                break
        else:
            rest, others = _giambelli_step(nu, k)
            steps[nu] = key, rest, others
            stack.append(rest)
            stack += others
    for nu in sorted(steps):
        key, rest, others = steps[nu]
        h = len(nu)
        terms = {}
        for kappa, c in table[(rest, mu) if rest <= mu else (mu, rest)]:
            # read at call time, so a wrapper bound to the module name sees
            # every call
            for strip in vertical_strips(kappa, h, k, n):
                terms[strip] = terms.get(strip, 0) + c
        for o in others:
            # every term of sigma_o * sigma_mu is one of the sum's, as
            # Schur products expand with nonnegative coefficients
            for kappa, c in table[(o, mu) if o <= mu else (mu, o)]:
                terms[kappa] -= c
        table[key] = tuple((kappa, c) for kappa, c in terms.items() if c)
    return table[(lam, mu) if lam <= mu else (mu, lam)]


def schur_mul(a: SchurClass, b: SchurClass) -> SchurClass:
    """Product on canonical forms: the bilinear sum of the basis products
    sigma_lam * sigma_mu, each solved once per context by
    `_solve_products` and read from `_products` after that.  A miss also
    enters the pairs its steps pass, so the walk's order decides which later
    pairs are solved already: both operands go in basis order (descending:
    perfbench's reduce-cold rows step 241,943 strips; ascending 253,251)."""
    a._check(b)
    ctx = a.context
    table = _products.setdefault(ctx, {})
    terms, right = {}, b.sorted_terms()
    for lam, c in a.sorted_terms():
        for mu, d in right:
            key = (lam, mu) if lam <= mu else (mu, lam)
            entry = table.get(key)
            if entry is None:
                entry = _solve_products(table, ctx, *key)
            c_d = c * d
            for nu, e in entry:
                terms[nu] = terms.get(nu, 0) + c_d * e
    return SchurClass._of(ctx, terms)
