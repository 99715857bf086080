import math

from smoothlab.arith import primes_upto, valuation
from smoothlab.binomial import binomial_membership, binomial_valuation


class TestBinomialValuation:
    def test_examples(self):
        assert binomial_valuation(1, 2) == 1
        assert binomial_valuation(4, 2) == 1
        assert binomial_valuation(2, 5) == 0

    def test_matches_bigint(self):
        for n in range(1, 80):
            coeff = math.comb(2 * n, n)
            for p in (2, 3, 5, 7, 11, 13):
                assert binomial_valuation(n, p) == valuation(coeff, p)

    def test_carry_count_bound(self):
        # at most as many carries as base-p digits of 2n
        for n in (1, 10, 100, 4999):
            for p in (2, 3, 17):
                assert binomial_valuation(n, p) <= int(math.log(2 * n, p)) + 1


class TestBinomialMembership:
    def test_examples(self):
        assert binomial_membership(2).smooth_part == 6
        assert binomial_membership(2).member
        rep = binomial_membership(5)
        assert rep.smooth_part == 252
        assert rep.member

    def test_boundary_n1(self):
        rep = binomial_membership(1)
        assert rep.smooth_part == 2
        assert not rep.member  # 2 > 2 fails strictly

    def test_reconstruction(self):
        for n in range(1, 300):
            rep = binomial_membership(n)
            assert rep.reconstruction_ok
            assert rep.smooth_part == math.comb(2 * n, n)

    def test_members_from_2(self):
        for n in range(2, 300):
            assert binomial_membership(n).member

    def test_factors_are_the_carry_counts(self):
        # primes with p^2 > 2n are read off n mod p, not counted digit by
        # digit; n near p^2 / 2 puts p on either side of that line
        ns = set(range(1, 200)) | {p * p // 2 + k for p in primes_upto(60) for k in (-1, 0, 1)}
        for n in sorted(ns - {0}):
            want = tuple((p, e) for p in primes_upto(2 * n) if (e := binomial_valuation(n, p)))
            assert binomial_membership(n).factors.entries == want
