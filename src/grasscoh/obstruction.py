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
builds cbar_n.  The Case 2(iii)/(iv) magnitudes are read from the same
recursion.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt

from .freepoly import closed_coefficient, dual_coefficient
from .partitions import weight

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


class HypothesisError(ValueError):
    """The theorem requires 1 < k < n."""


# The case of (k, n), its witness monomial and coefficient or its search
# log, and the assumption tags it rests on.  Immutable; `cert._asdict()`
# gives the fields by name, and `cli` writes them as text or JSON.
Certificate = namedtuple(
    "Certificate", "case_tag k n witness_monomial witness_coefficient "
                   "search_log assumptions",
    defaults=(None, None, None, ()))


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
    1 = (1 + c1 + ... + ck) * cbar over the sub-box of alpha."""
    by_formula = closed_coefficient(alpha)
    by_recursion = dual_coefficient(alpha)
    if by_formula != by_recursion:
        raise AssertionError(
            f"coefficient paths disagree for alpha={alpha}: "
            f"{by_formula} vs {by_recursion}")
    if weight(alpha) != n:
        raise AssertionError(f"witness {alpha} has weight {weight(alpha)} != {n}")
    return by_formula


def case1_certificate(k: int, n: int) -> Certificate:
    """k in {2,3}: the pure c1^n monomial of cbar_n has no c_k factor, but
    every monomial c^beta * c_k of c_k cup (anything) does.  Those beta are
    the exponent vectors of weight n - k, the partitions of n - k into
    parts <= k, and only their number enters the log."""
    if not (1 < k <= 3 and n > k):
        raise HypothesisError(f"Case 1 needs 1 < k <= 3 < n, got ({k},{n})")
    alpha = (n,) + (0,) * (k - 1)
    coeff = _witness_coefficient(alpha, n)
    if coeff == 0:
        raise AssertionError("Case 1 infeasibility check failed")
    ways = [1] + [0] * (n - k)
    for part in range(1, k + 1):
        for total in range(part, n - k + 1):
            ways[total] += ways[total - part]
    return Certificate(
        CASE1, k, n,
        witness_monomial=alpha,
        witness_coefficient=coeff,
        search_log={
            "image_monomials_checked": ways[-1],
            "all_have_ck_factor": True,
            "witness_ck_exponent": 0,
        },
        assumptions=[ASSUME_ONEILL_ADAMS],
    )


def case2i_certificate(k: int, n: int) -> Certificate:
    """k > 3, n = l(k-1) + r with r != 1: witness c_{k-1}^l c_2^i (r = 2i)
    or c_{k-1}^l c_2^i c_3 (r = 2i + 3)."""
    if k <= 3:
        raise HypothesisError(f"Case 2(i) needs k > 3, got k={k}")
    l, r = divmod(n, k - 1)
    if r == 1:
        raise HypothesisError(f"Case 2(i) needs remainder != 1, got ({k},{n})")
    vec = [0] * k
    vec[k - 2] += l
    if r % 2 == 0:
        i = r // 2
        vec[1] += i
        form = "c_(k-1)^l * c2^i, r = 2i"
    else:
        i = (r - 3) // 2
        vec[1] += i
        vec[2] += 1
        form = "c_(k-1)^l * c2^i * c3, r = 2i + 3"
    alpha = tuple(vec)
    coeff = _witness_coefficient(alpha, n)
    return Certificate(
        CASE2I, k, n,
        witness_monomial=alpha,
        witness_coefficient=coeff,
        search_log={"l": l, "r": r, "witness_form": form},
        assumptions=[ASSUME_ADAMS, ASSUME_PRODUCT_OMITS_WITNESS],
    )


def case2ii_certificate(k: int, n: int) -> Certificate:
    """k > 4, n = (l+1)(k-1) + 1: witness c_{k-1}^{l-1} c_{k-2}^2 c_3, the
    exponent l-1 being forced by the weight count n = (l-1)(k-1) + 2(k-2) + 3."""
    if k <= 4:
        raise HypothesisError(f"Case 2(ii) needs k > 4, got k={k}")
    if n % (k - 1) != 1:
        raise HypothesisError(f"Case 2(ii) needs n = 1 mod k-1, got ({k},{n})")
    l = (n - 1) // (k - 1) - 1
    if l < 1:
        raise HypothesisError(f"Case 2(ii) needs l >= 1, got ({k},{n})")
    vec = [0] * k
    vec[k - 2] += l - 1
    vec[k - 3] += 2
    vec[2] += 1
    alpha = tuple(vec)
    coeff = _witness_coefficient(alpha, n)
    return Certificate(
        CASE2II, k, n,
        witness_monomial=alpha,
        witness_coefficient=coeff,
        search_log={"l": l, "witness_form": "c_(k-1)^(l-1) * c_(k-2)^2 * c3",
                    "exponent_rule": "l-1 forced by weight bookkeeping"},
        assumptions=[ASSUME_ADAMS, ASSUME_PRODUCT_OMITS_WITNESS],
    )


def _divisors(n: int):
    """The positive divisors of |n| in ascending order, paired up to sqrt|n|."""
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _case4_magnitudes(l: int):
    """Coefficient magnitudes forced in cbar_n for k=4, n=3l+4, read off
    the inverse class: c2^2 c3^l, c4 c3^l, c1 c3^(l+1)."""
    b_ab = (l + 2) * (l + 1) // 2   # alpha*beta
    b_tb = l + 1                    # theta*beta
    b_gb = l + 2                    # gamma*beta
    return b_ab, b_tb, b_gb


def _verify_case4_magnitudes(l: int) -> dict:
    """Cross-check the forced magnitudes against actual coefficients of
    cbar_{3l+4} for k=4, each by the single-coefficient recursion."""
    b_ab, b_tb, b_gb = _case4_magnitudes(l)
    checks = {
        (0, 2, l, 0): b_ab,
        (0, 0, l, 1): b_tb,
        (1, 0, l + 1, 0): b_gb,
    }
    if l % 2 == 0:
        j = l // 2
        checks[(0, 3 * j + 2, 0, 0)] = 1
    else:
        j = (l - 1) // 2
        checks[(1, 3 * j + 3, 0, 0)] = 3 * j + 4
    for alpha, mag in checks.items():
        got = abs(dual_coefficient(alpha))
        if got != mag:
            raise AssertionError(
                f"magnitude mismatch at alpha={alpha}: {got} != {mag}")
    return {f"c^{list(a)}": str(m) for a, m in checks.items()}


def _case2iii_single(l: int) -> dict:
    """Even l >= 1: search all integer (alpha, beta, theta) with
    |alpha*alpha'| = 1, |alpha*beta| = (l+2)(l+1)/2, |theta*beta| = l+1."""
    assert l % 2 == 0 and l >= 1
    b_aa = 1
    b_ab, b_tb, _ = _case4_magnitudes(l)
    solutions = []
    tried = 0
    for a in _divisors(b_aa):          # |alpha| divides alpha*alpha'
        tried += 1
        if b_ab % a:
            continue
        b = b_ab // a                   # forced |beta|
        if b != 0 and b_tb % b == 0:    # theta must be integral
            solutions.append({"|alpha|": a, "|beta|": b, "|theta|": b_tb // b})
    return {"l": l, "magnitudes": {"alpha*alpha'": b_aa, "alpha*beta": b_ab,
                                   "theta*beta": b_tb},
            "candidates_examined": tried, "solutions": solutions}


def _case2iv_single(l: int) -> dict:
    """Odd l = 2j+1 >= 1: search all integer (alpha, alpha', beta, theta,
    gamma) with |alpha*alpha'| = 3j+4, |alpha*beta| = (l+2)(l+1)/2,
    |theta*beta| = l+1, |gamma*beta| = l+2."""
    assert l % 2 == 1 and l >= 1
    j = (l - 1) // 2
    b_aa = 3 * j + 4
    b_ab, b_tb, b_gb = _case4_magnitudes(l)
    solutions = []
    tried = 0
    for b in _divisors(b_tb):           # |beta| divides theta*beta
        tried += 1
        if b_gb % b:                    # and gamma*beta
            continue
        if b_ab % b:                    # alpha must be integral
            continue
        a = b_ab // b
        if b_aa % a == 0:               # alpha' must be integral
            solutions.append({"|alpha|": a, "|beta|": b,
                              "|theta|": b_tb // b, "|gamma|": b_gb // b})
    return {"l": l, "j": j,
            "magnitudes": {"alpha*alpha'": b_aa, "alpha*beta": b_ab,
                           "theta*beta": b_tb, "gamma*beta": b_gb},
            "candidates_examined": tried, "solutions": solutions}


def nontrivial_intersection_report(k: int, n: int) -> Certificate:
    """Dispatch (k,n) to its case and produce the supporting certificate."""
    tag = dispatch_case(k, n)
    if tag == CASE1:
        return case1_certificate(k, n)
    if tag == CASE2I:
        return case2i_certificate(k, n)
    if tag == CASE2II:
        return case2ii_certificate(k, n)
    # k = 4, n = 3l + 4
    l = (n - 1) // 3 - 1
    log = _case2iii_single(l) if tag == CASE2III else _case2iv_single(l)
    if log["solutions"]:
        raise AssertionError(f"unexpected solution for (k,n)=({k},{n}): {log}")
    log["coefficient_magnitudes_verified"] = _verify_case4_magnitudes(l)
    return Certificate(tag, k, n, search_log=log,
                       assumptions=[ASSUME_ADAMS, ASSUME_LEADING_COEFFS_ONE])
