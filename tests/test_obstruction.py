import io
import json
from math import prod

import pytest

from grasscoh import cli, obstruction
from grasscoh.freepoly import dual_class_closed
from grasscoh.obstruction import (CASE1, CASE2I, CASE2II, CASE2III, CASE2IV,
                                  HypothesisError,
                                  _case2iii_single, _case2iv_single, _divisors,
                                  dispatch_case, nontrivial_intersection_report)
from grasscoh.partitions import (exponent_vectors_of_weight, multinomial, size,
                                 weight)


def cli_json(k, n):
    """The certificate object that `grasscoh --format json obstruct` prints."""
    out = io.StringIO()
    argv = ["--format", "json", "obstruct", "--k", str(k), "--n", str(n)]
    assert cli.run_cli(argv, out=out) == cli.EXIT_OK
    return json.loads(out.getvalue())


class TestDispatch:
    def test_low_rank(self):
        assert dispatch_case(2, 3) == CASE1
        assert dispatch_case(3, 5) == CASE1

    def test_case2i(self):
        assert dispatch_case(5, 10) == CASE2I  # 10 = 2*4 + 2
        assert dispatch_case(5, 8) == CASE2I   # remainder 0

    def test_case2ii(self):
        assert dispatch_case(5, 9) == CASE2II  # 9 = 2*4 + 1

    def test_k4_split_on_parity(self):
        assert dispatch_case(4, 7) == CASE2IV   # l' = 1 odd
        assert dispatch_case(4, 10) == CASE2III  # l' = 2 even

    def test_hypothesis_rejected(self):
        for k, n in [(1, 5), (3, 3), (4, 2), (0, 1)]:
            with pytest.raises(HypothesisError):
                dispatch_case(k, n)

    def test_total_and_deterministic(self):
        for k in range(2, 8):
            for n in range(k + 1, 21):
                tag = dispatch_case(k, n)
                assert tag in (CASE1, CASE2I, CASE2II, CASE2III, CASE2IV)
                assert dispatch_case(k, n) == tag


class TestCase1:
    def test_witness_2_3(self):
        cert = nontrivial_intersection_report(2, 3)
        assert cert.case_tag == CASE1
        assert cert.witness_monomial == (3, 0)
        assert cert.witness_coefficient == -1

    def test_witness_3_4(self):
        cert = nontrivial_intersection_report(3, 4)
        assert cert.witness_monomial == (4, 0, 0)
        assert cert.witness_coefficient == 1

    def test_infeasibility_logged(self):
        cert = nontrivial_intersection_report(2, 3)
        assert cert.search_log["all_have_ck_factor"]
        assert cert.search_log["witness_ck_exponent"] == 0

    def test_image_count_matches_enumeration(self):
        for k in (2, 3):
            for n in range(k + 1, 61):
                log = nontrivial_intersection_report(k, n).search_log
                assert log["image_monomials_checked"] == \
                    len(exponent_vectors_of_weight(n - k, k)), (k, n)

    def test_image_count_closed_forms(self):
        # partitions of w into parts <= 2, and into parts <= 3
        for n in (61, 1000, 4321, 20000):
            w = n - 2
            assert nontrivial_intersection_report(2, n).search_log[
                "image_monomials_checked"] == w // 2 + 1
            w = n - 3
            assert nontrivial_intersection_report(3, n).search_log[
                "image_monomials_checked"] == round((w + 3) ** 2 / 12)


class TestCase2i:
    def test_even_remainder_zero(self):
        cert = nontrivial_intersection_report(5, 8)
        assert cert.case_tag == CASE2I
        assert cert.witness_monomial == (0, 0, 0, 2, 0)
        assert cert.witness_coefficient == 1

    def test_even_remainder_two(self):
        cert = nontrivial_intersection_report(5, 10)
        assert cert.witness_monomial == (0, 1, 0, 2, 0)
        assert cert.witness_coefficient == -3

    def test_odd_remainder_three(self):
        cert = nontrivial_intersection_report(6, 13)
        assert cert.witness_monomial == (0, 0, 1, 0, 2, 0)
        assert cert.witness_coefficient == -3


class TestCase2ii:
    def test_l_one_collapses(self):
        cert = nontrivial_intersection_report(5, 9)
        assert cert.case_tag == CASE2II
        assert cert.witness_monomial == (0, 0, 3, 0, 0)
        assert cert.witness_coefficient == -1

    def test_merged_generators(self):
        cert = nontrivial_intersection_report(5, 13)
        assert cert.witness_monomial == (0, 0, 3, 1, 0)
        assert cert.witness_coefficient == 4

    def test_distinct_generators(self):
        cert = nontrivial_intersection_report(6, 16)
        assert cert.witness_monomial == (0, 0, 1, 2, 1, 0)
        assert cert.witness_coefficient == 12

    def test_exponent_rule_recorded(self):
        cert = nontrivial_intersection_report(6, 16)
        assert "l-1" in cert.search_log["exponent_rule"]


# one (k, n) per witness case: 1, 2(i) and 2(ii)
@pytest.mark.parametrize("k, n", [(2, 5), (5, 10), (5, 9)])
def test_zero_witness_coefficient_fails(monkeypatch, k, n):
    # both coefficient paths agree on 0, so only the zero check can object
    monkeypatch.setattr(obstruction, "closed_coefficient", lambda alpha: 0)
    monkeypatch.setattr(obstruction, "dual_coefficient", lambda alpha: 0)
    with pytest.raises(AssertionError):
        nontrivial_intersection_report(k, n)


class TestDiophantine:
    def test_case2iii_all_infeasible(self):
        for l in range(2, 51, 2):
            entry = _case2iii_single(l)
            assert entry["magnitudes"] == {
                "alpha*alpha'": 1, "alpha*beta": (l + 2) * (l + 1) // 2,
                "theta*beta": l + 1}
            assert entry["solutions"] == []

    def test_case2iii_l2_magnitudes(self):
        entry = _case2iii_single(2)
        assert entry["magnitudes"] == {"alpha*alpha'": 1, "alpha*beta": 6,
                                       "theta*beta": 3}
        assert entry["solutions"] == []

    def test_case2iii_l0_would_be_solvable(self):
        # only l=0 solves the system: alpha*beta = 1 forces |beta| = 1,
        # which divides theta*beta = 1
        b_ab, b_tb = (0 + 2) * (0 + 1) // 2, 0 + 1
        assert b_tb % b_ab == 0

    def test_case2iv_all_infeasible(self):
        for l in range(1, 50, 2):
            entry = _case2iv_single(l)
            assert entry["magnitudes"] == {
                "alpha*alpha'": 3 * (l - 1) // 2 + 4,
                "alpha*beta": (l + 2) * (l + 1) // 2,
                "theta*beta": l + 1, "gamma*beta": l + 2}
            assert entry["solutions"] == []

    def test_case2iv_l1_chain(self):
        entry = _case2iv_single(1)
        # beta = 1 forced; |alpha| = 3 would have to divide 3j+4 = 4
        assert entry["magnitudes"]["alpha*beta"] == 3
        assert entry["magnitudes"]["alpha*alpha'"] == 4
        assert entry["solutions"] == []

    def test_case2iv_l3(self):
        entry = _case2iv_single(3)
        assert entry["magnitudes"] == {"alpha*alpha'": 7, "alpha*beta": 10,
                                       "theta*beta": 4, "gamma*beta": 5}
        assert entry["solutions"] == []

    def test_divisors_match_trial_division(self):
        for n in range(2001):
            assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
        assert _divisors(-12) == [1, 2, 3, 4, 6, 12]

    @pytest.mark.parametrize("factors", [
        {2: 9, 5: 9},              # 10^9
        {3: 4, 37: 1, 333667: 1},  # 10^9 - 1
        {10 ** 9 + 7: 1},          # a prime
        {2: 2, 97: 2, 163: 2},     # 31622^2, a square
    ])
    def test_divisors_near_1e9(self, factors):
        # every product of prime powers, against the square-root pairing
        divisors = [1]
        for p, e in factors.items():
            divisors = [d * p ** i for d in divisors for i in range(e + 1)]
        assert _divisors(prod(p ** e for p, e in factors.items())) == sorted(divisors)


class TestWitnessInvariants:
    def test_two_coefficient_paths_agree(self):
        for k in range(4, 8):
            for n in range(k + 1, 21):
                cert = nontrivial_intersection_report(k, n)
                if cert.witness_monomial is None:
                    continue
                alpha = cert.witness_monomial
                assert weight(alpha) == n
                sign = -1 if size(alpha) % 2 else 1
                assert cert.witness_coefficient == sign * multinomial(alpha)
                assert cert.witness_coefficient == \
                    dual_class_closed(n, k).coeff(alpha)


class TestCertificateSweep:
    def test_every_pair_up_to_100(self):
        pairs = 0
        for n in range(3, 101):
            for k in range(2, n):
                tag = dispatch_case(k, n)
                assert tag in (CASE1, CASE2I, CASE2II, CASE2III, CASE2IV)
                cert = nontrivial_intersection_report(k, n)
                assert cert.case_tag == tag
                if cert.witness_monomial is not None:
                    assert weight(cert.witness_monomial) == n, (k, n)
                    assert cert.witness_coefficient != 0, (k, n)
                else:
                    log = cert.search_log
                    assert tag in (CASE2III, CASE2IV) and k == 4
                    assert log["solutions"] == [], (k, n)
                    assert log["coefficient_magnitudes_verified"], (k, n)
                pairs += 1
        assert pairs == 4851


class TestReport:
    def test_dispatches_to_case1(self):
        cert = nontrivial_intersection_report(2, 3)
        assert cert.case_tag == CASE1

    def test_k4_n10_is_case2iii(self):
        cert = nontrivial_intersection_report(4, 10)
        assert cert.case_tag == CASE2III
        assert cert.search_log["l"] == 2
        assert cert.search_log["solutions"] == []

    def test_hypothesis_error(self):
        with pytest.raises(HypothesisError):
            nontrivial_intersection_report(1, 5)

    def test_full_coverage(self):
        for k in range(2, 8):
            for n in range(k + 1, 21):
                cert = nontrivial_intersection_report(k, n)
                ok = ((cert.witness_coefficient is not None
                       and cert.witness_coefficient != 0)
                      or (cert.search_log is not None
                          and cert.search_log.get("solutions") == []))
                assert ok, (k, n)
                assert cert.assumptions

    def test_json_schema(self):
        obj = cli_json(5, 10)
        assert list(obj) == ["case", "k", "n", "witness", "coefficient",
                             "assumptions", "search_log"]
        assert obj["case"] == "Case2i"
        assert obj["k"] == 5 and obj["n"] == 10
        assert obj["witness"] == {"alpha": [0, 1, 0, 2, 0]}
        assert obj["coefficient"] == "-3"
        assert obj["assumptions"]

    def test_certificate_roundtrip_fields(self):
        # a Case 2(iii) certificate has a search log and no witness
        cert = nontrivial_intersection_report(4, 10)
        obj = cli_json(4, 10)
        assert obj["witness"] is None and obj["coefficient"] is None
        assert cert.witness_monomial is None and cert.witness_coefficient is None
        assert (obj["case"], obj["k"], obj["n"]) == (cert.case_tag, 4, 10)
        assert obj["assumptions"] == list(cert.assumptions)
        assert obj["search_log"] == cert.search_log
