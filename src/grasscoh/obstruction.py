"""Machine-checkable certificates behind the nontrivial-intersection theorem.

For 1 < k < n, no selfmap of G(k,n) can split the inverse total class as
cbar_n = (top induced class) cup (top normal class).  Each (k,n) falls in
one of five cases; the certificate either exhibits a monomial of cbar_n
that such a product cannot contain (Cases 1, 2i, 2ii) or records an
exhaustive divisor search showing the forced coefficient system has no
integer solution (Cases 2iii, 2iv).

Coefficient witnesses are computed twice and must agree: by the
multinomial formula, and by the defining recursion of the inverse class
run on that one coefficient (`freepoly.dual_coefficient`), which never
builds cbar_n.  The Case 2(iii)/(iv) magnitudes are one table, checked
against the same recursion.  `dispatch_case` alone decides the case.
"""

from math import isqrt

from .freepoly import closed_coefficient, dual_coefficient
from .partitions import count_exponent_vectors, record, weight

# Cited results the certificates rely on but do not re-derive.
ASSUME_ADAMS = "GH3-Thm1-Adams"                      # endomorphisms are Adams type
ASSUME_ONEILL_ADAMS = "ONeill-GH3-low-rank-Adams"    # same, k <= 3 route
ASSUME_PRODUCT_OMITS_WITNESS = "witness-absent-from-induced-product"
ASSUME_LEADING_COEFFS_ONE = "ctilde-t-leading-coefficients-one"

CASE1 = "Case1"
CASE2I = "Case2i"
CASE2II = "Case2ii"
CASE2III = "Case2iii"
CASE2IV = "Case2iv"

# the cited results each case rests on
_ASSUMPTIONS = {
    CASE1: (ASSUME_ONEILL_ADAMS,),
    CASE2I: (ASSUME_ADAMS, ASSUME_PRODUCT_OMITS_WITNESS),
    CASE2II: (ASSUME_ADAMS, ASSUME_PRODUCT_OMITS_WITNESS),
    CASE2III: (ASSUME_ADAMS, ASSUME_LEADING_COEFFS_ONE),
    CASE2IV: (ASSUME_ADAMS, ASSUME_LEADING_COEFFS_ONE),
}

# the largest n certified: the work (the witness recursion table, the Case 1
# partition count, the Case 4 magnitude checks) is linear in n
_MAX_N = 10 ** 6


class HypothesisError(ValueError):
    """The theorem requires 1 < k < n."""


@record
class Certificate(tuple):
    """The case of (k, n), its witness monomial and coefficient or its
    search log, and the assumption tags it rests on.  Immutable;
    `cert._asdict()` gives the fields by name, and `cli` writes them as
    text or JSON."""
    __slots__ = ()

    def __new__(cls, case_tag, k, n, witness_monomial=None,
                witness_coefficient=None, search_log=None, assumptions=()):
        return tuple.__new__(cls, (case_tag, k, n, witness_monomial,
                                   witness_coefficient, search_log, assumptions))


def dispatch_case(k: int, n: int) -> str:
    if k <= 1 or k >= n:
        raise HypothesisError(f"need 1 < k < n, got k={k}, n={n}")
    if k <= 3:
        return CASE1
    r = n % (k - 1)
    if r != 1:
        return CASE2I
    lp = (n - 1) // (k - 1) - 1  # n = (lp+1)(k-1) + 1
    if k > 4:
        return CASE2II
    return CASE2III if lp % 2 == 0 else CASE2IV


def _witness_coefficient(alpha, n: int) -> int:
    """Coefficient of c^alpha in cbar_n, via two independent code paths:
    the closed multinomial formula and the single-coefficient recursion
    1 = (1 + c1 + ... + ck) * cbar over the sub-box of alpha.  A witness
    must have weight n and a coefficient other than 0."""
    by_formula = closed_coefficient(alpha)
    by_recursion = dual_coefficient(alpha)
    if by_formula != by_recursion:
        raise AssertionError(
            f"coefficient paths disagree for alpha={alpha}: "
            f"{by_formula} vs {by_recursion}")
    if weight(alpha) != n:
        raise AssertionError(f"witness {alpha} has weight {weight(alpha)} != {n}")
    if by_formula == 0:
        raise AssertionError(f"witness {alpha} has coefficient 0 in cbar_{n}")
    return by_formula


def _monomial(k: int, *factors):
    """The exponent vector of the product of c_i^e over the factors (i, e)."""
    alpha = [0] * k
    for i, e in factors:
        alpha[i - 1] += e
    return tuple(alpha)


# A builder takes a (k, n) that `dispatch_case` sent to its case and
# returns (witness monomial or None, search log).
def _case1(k: int, n: int):
    """k in {2,3}: the pure c1^n monomial of cbar_n has no c_k factor, but
    every monomial c^beta * c_k of c_k cup (anything) does.  Those beta are
    the exponent vectors of weight n - k, the partitions of n - k into
    parts <= k, and only their number enters the log."""
    checked = count_exponent_vectors(n - k, k)
    return _monomial(k, (1, n)), {"image_monomials_checked": checked,
                                  "all_have_ck_factor": True,
                                  "witness_ck_exponent": 0}


def _case2i(k: int, n: int):
    """k > 3, n = l(k-1) + r with r != 1: witness c_{k-1}^l c_2^i (r = 2i)
    or c_{k-1}^l c_2^i c_3 (r = 2i + 3)."""
    l, r = divmod(n, k - 1)
    if r % 2 == 0:
        alpha = _monomial(k, (k - 1, l), (2, r // 2))
        form = "c_(k-1)^l * c2^i, r = 2i"
    else:
        alpha = _monomial(k, (k - 1, l), (2, (r - 3) // 2), (3, 1))
        form = "c_(k-1)^l * c2^i * c3, r = 2i + 3"
    return alpha, {"l": l, "r": r, "witness_form": form}


def _case2ii(k: int, n: int):
    """k > 4, n = (l+1)(k-1) + 1: witness c_{k-1}^{l-1} c_{k-2}^2 c_3, the
    exponent l-1 being forced by the weight count n = (l-1)(k-1) + 2(k-2) + 3."""
    l = (n - 1) // (k - 1) - 1
    return _monomial(k, (k - 1, l - 1), (k - 2, 2), (3, 1)), {
        "l": l, "witness_form": "c_(k-1)^(l-1) * c_(k-2)^2 * c3",
        "exponent_rule": "l-1 forced by weight bookkeeping"}


def _divisors(n: int):
    """The positive divisors of |n| in ascending order, paired up to sqrt|n|."""
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _case4_magnitudes(l: int) -> dict:
    """k = 4, n = 3l + 4: each product of leading coefficients -> (c^a, the
    magnitude of [c^a] cbar_n that the product must equal); alpha*alpha' is
    read at c2^(3j+2) for l = 2j and at c1 c2^(3j+3) for l = 2j+1."""
    j = l // 2
    return {
        "alpha*beta": ((0, 2, l, 0), (l + 2) * (l + 1) // 2),
        "theta*beta": ((0, 0, l, 1), l + 1),
        "gamma*beta": ((1, 0, l + 1, 0), l + 2),
        "alpha*alpha'": ((0, 3 * j + 2, 0, 0), 1) if l % 2 == 0
        else ((1, 3 * j + 3, 0, 0), 3 * j + 4),
    }


def _case2iii_single(l: int) -> dict:
    """Even l >= 1: search all integer (alpha, beta, theta) whose products
    alpha*alpha', alpha*beta and theta*beta have the forced magnitudes."""
    assert l % 2 == 0 and l >= 1
    table = _case4_magnitudes(l)
    mags = {p: table[p][1] for p in ("alpha*alpha'", "alpha*beta", "theta*beta")}
    b_aa, b_ab, b_tb = mags.values()
    candidates = _divisors(b_aa)        # |alpha| divides alpha*alpha'
    solutions = []
    for a in candidates:
        if b_ab % a:
            continue
        b = b_ab // a                   # forced |beta|
        if b != 0 and b_tb % b == 0:    # theta must be integral
            solutions.append({"|alpha|": a, "|beta|": b, "|theta|": b_tb // b})
    return {"l": l, "magnitudes": mags, "candidates_examined": len(candidates),
            "solutions": solutions}


def _case2iv_single(l: int) -> dict:
    """Odd l = 2j+1 >= 1: search all integer (alpha, alpha', beta, theta,
    gamma) whose products alpha*alpha', alpha*beta, theta*beta and
    gamma*beta have the forced magnitudes."""
    assert l % 2 == 1 and l >= 1
    table = _case4_magnitudes(l)
    mags = {p: table[p][1]
            for p in ("alpha*alpha'", "alpha*beta", "theta*beta", "gamma*beta")}
    b_aa, b_ab, b_tb, b_gb = mags.values()
    candidates = _divisors(b_tb)        # |beta| divides theta*beta
    solutions = []
    for b in candidates:
        if b_gb % b or b_ab % b:        # and gamma*beta and alpha*beta
            continue
        a = b_ab // b
        if b_aa % a == 0:               # alpha' must be integral
            solutions.append({"|alpha|": a, "|beta|": b,
                              "|theta|": b_tb // b, "|gamma|": b_gb // b})
    return {"l": l, "j": (l - 1) // 2, "magnitudes": mags,
            "candidates_examined": len(candidates), "solutions": solutions}


def _case4(search, k: int, n: int):
    """k = 4, n = 3l + 4: the divisor search must find nothing, and each
    magnitude of the table must be that of its coefficient by the recursion."""
    l = (n - 4) // 3
    log = search(l)
    if log["solutions"]:
        raise AssertionError(f"unexpected solution for (k,n)=({k},{n}): {log}")
    verified = log["coefficient_magnitudes_verified"] = {}
    for alpha, mag in _case4_magnitudes(l).values():
        got = abs(dual_coefficient(alpha))
        if got != mag:
            raise AssertionError(
                f"magnitude mismatch at alpha={alpha}: {got} != {mag}")
        verified[f"c^{list(alpha)}"] = str(mag)
    return None, log


_BUILDERS = {
    CASE1: _case1, CASE2I: _case2i, CASE2II: _case2ii,
    CASE2III: lambda k, n: _case4(_case2iii_single, k, n),
    CASE2IV: lambda k, n: _case4(_case2iv_single, k, n),
}


def nontrivial_intersection_report(k: int, n: int) -> Certificate:
    """Dispatch (k,n) to its case and produce the supporting certificate."""
    tag = dispatch_case(k, n)
    if n > _MAX_N:
        raise ValueError(f"need n <= {_MAX_N}, got n={n}")
    alpha, log = _BUILDERS[tag](k, n)
    coeff = None if alpha is None else _witness_coefficient(alpha, n)
    return Certificate(tag, k, n, alpha, coeff, log, _ASSUMPTIONS[tag])
