"""An independent checker of the certificates that `grasscoh obstruct` prints.

It reads only the CLI's JSON for every 1 < k < n <= 40 and imports nothing
from `grasscoh.obstruction`: the case of (k, n), the witness monomial, its
weight and coefficient, the assumption tags and, for k = 4, the forced
magnitudes and the reason the divisor search is empty are all derived
again here, from the statement of the theorem.
"""

import io
import json
from functools import lru_cache

from grasscoh import cli

N_MAX = 40

KEYS = ["case", "k", "n", "witness", "coefficient", "assumptions", "search_log"]

# the cited results each case rests on
ASSUMPTIONS = {
    "Case1": ["ONeill-GH3-low-rank-Adams"],
    "Case2i": ["GH3-Thm1-Adams", "witness-absent-from-induced-product"],
    "Case2ii": ["GH3-Thm1-Adams", "witness-absent-from-induced-product"],
    "Case2iii": ["GH3-Thm1-Adams", "ctilde-t-leading-coefficients-one"],
    "Case2iv": ["GH3-Thm1-Adams", "ctilde-t-leading-coefficients-one"],
}


def certificate(k, n):
    out = io.StringIO()
    argv = ["--format", "json", "obstruct", "--k", str(k), "--n", str(n)]
    assert cli.run_cli(argv, out=out) == cli.EXIT_OK, (k, n)
    return json.loads(out.getvalue())


def case_of(k, n):
    """Low rank; else n = l(k-1) + r with r != 1; else n = (l+1)(k-1) + 1,
    with k > 4, or k = 4 split by the parity of l."""
    if k <= 3:
        return "Case1"
    if n % (k - 1) != 1:
        return "Case2i"
    if k > 4:
        return "Case2ii"
    l = (n - 4) // 3
    return "Case2iii" if l % 2 == 0 else "Case2iv"


def monomial(k, *factors):
    """The exponent vector of the product of the factors (i, e), each c_i^e;
    factors may repeat a generator."""
    alpha = [0] * k
    for i, e in factors:
        alpha[i - 1] += e
    return alpha


def witness_of(case, k, n):
    if case == "Case1":
        return monomial(k, (1, n))
    if case == "Case2i":
        l, r = divmod(n, k - 1)
        if r % 2 == 0:
            return monomial(k, (k - 1, l), (2, r // 2))
        return monomial(k, (k - 1, l), (2, (r - 3) // 2), (3, 1))
    # Case2ii: n = (l+1)(k-1) + 1 = (l-1)(k-1) + 2(k-2) + 3
    l = (n - 1) // (k - 1) - 1
    return monomial(k, (k - 1, l - 1), (k - 2, 2), (3, 1))


@lru_cache(maxsize=None)
def coefficient(alpha):
    """[c^alpha] of the inverse of 1 + c1 + ... + ck, from
    (1 + c1 + ... + ck) * cbar = 1 read off at c^alpha."""
    if not any(alpha):
        return 1
    return -sum(coefficient(alpha[:i] + (a - 1,) + alpha[i + 1:])
                for i, a in enumerate(alpha) if a)


def count_partitions(w, largest):
    """Partitions of w into parts <= largest."""
    if w == 0:
        return 1
    return sum(count_partitions(w - p, p) for p in range(1, min(w, largest) + 1))


def check_k4(case, n, log):
    """n = 3l + 4.  The forced magnitudes are coefficients of cbar_n, and
    the divisibilities they impose have no solution for l >= 1."""
    l = (n - 4) // 3
    assert log["l"] == l

    def mag(*alpha):
        return abs(coefficient(alpha))

    ab, tb, gb = mag(0, 2, l, 0), mag(0, 0, l, 1), mag(1, 0, l + 1, 0)
    assert (ab, tb, gb) == ((l + 2) * (l + 1) // 2, l + 1, l + 2)
    if case == "Case2iii":
        j = l // 2
        aa = mag(0, 3 * j + 2, 0, 0)
        assert aa == 1
        assert log["magnitudes"] == {"alpha*alpha'": aa, "alpha*beta": ab,
                                     "theta*beta": tb}
        # |alpha| divides 1, so |beta| = ab, which must divide tb < ab
        assert tb < ab
        extra = (0, 3 * j + 2, 0, 0)
    else:
        j = (l - 1) // 2
        assert log["j"] == j
        aa = mag(1, 3 * j + 3, 0, 0)
        assert aa == 3 * j + 4
        assert log["magnitudes"] == {"alpha*alpha'": aa, "alpha*beta": ab,
                                     "theta*beta": tb, "gamma*beta": gb}
        # |beta| divides tb = l+1 and gb = l+2, so |beta| = 1 and
        # |alpha| = ab must divide aa; ab = (2j+3)(j+1) exceeds 3j+4 once
        # j >= 1, and at j = 0 it is 3, which does not divide 4
        assert aa % ab != 0
        extra = (1, 3 * j + 3, 0, 0)
    assert log["solutions"] == []
    verified = {f"c^{list(a)}": str(abs(coefficient(a)))
                for a in ((0, 2, l, 0), (0, 0, l, 1), (1, 0, l + 1, 0), extra)}
    assert log["coefficient_magnitudes_verified"] == verified


def check(obj, k, n):
    assert list(obj) == KEYS
    case = case_of(k, n)
    assert (obj["case"], obj["k"], obj["n"]) == (case, k, n)
    assert obj["assumptions"] == ASSUMPTIONS[case]
    log = obj["search_log"]
    if k == 4 and case != "Case2i":
        assert obj["witness"] is None and obj["coefficient"] is None
        check_k4(case, n, log)
        return
    alpha = obj["witness"]["alpha"]
    assert alpha == witness_of(case, k, n)
    assert sum(i * a for i, a in enumerate(alpha, start=1)) == n
    assert obj["coefficient"] == str(coefficient(tuple(alpha)))
    assert coefficient(tuple(alpha)) != 0
    if case == "Case1":
        # every monomial of c_k * (anything of weight n - k) has a c_k
        # factor, and the witness has none
        assert log == {"image_monomials_checked": count_partitions(n - k, k),
                       "all_have_ck_factor": True, "witness_ck_exponent": 0}
        assert alpha[k - 1] == 0
    elif case == "Case2i":
        assert (log["l"], log["r"]) == divmod(n, k - 1)
    else:
        assert log["l"] == (n - 1) // (k - 1) - 1


def test_every_certificate_up_to_40():
    checked = 0
    for n in range(3, N_MAX + 1):
        for k in range(2, n):
            check(certificate(k, n), k, n)
            checked += 1
    assert checked == (N_MAX - 1) * (N_MAX - 2) // 2
