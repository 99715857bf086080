import bisect
import math
import time
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothlab.arith import _shared_sieve, factorize, primes_upto, smooth_part_oracle
from smoothlab.orders import SequenceSpec, order_records, term_valuation_direct
from smoothlab import arith, orders, smooth
from smoothlab.smooth import (
    _FEW_CANDIDATES,
    _MOD_PASS_BITS,
    _SLICE_SHARE,
    CutoffSpec,
    _divisor_passes,
    _integer_root,
    counting_report,
    enumerate_members,
    membership,
    smooth_part_of_term,
)

from oracles import cyclotomic_value, divisors, records_by_enumeration, smooth_part_by_pow, term_prime_log_sum


class TestCutoffSpec:
    def test_linear(self):
        cut = CutoffSpec.linear(Fraction(7, 2))
        assert cut.value_at(3) == 10
        assert cut.value_at(4) == 14

    def test_power_exact(self):
        cut = CutoffSpec.power(Fraction(3, 2))
        for n in (1, 2, 10, 99, 1000):
            assert cut.value_at(n) == math.isqrt(n**3)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            CutoffSpec.linear(0)
        with pytest.raises(ValueError):
            CutoffSpec.power(2)

    @settings(max_examples=60)
    @given(st.integers(min_value=2**1000, max_value=2**6000),
           st.integers(min_value=1, max_value=1200))
    def test_integer_root_brackets(self, m, k):
        r = _integer_root(m, k)
        assert r**k <= m < (r + 1) ** k

    @given(st.integers(min_value=2, max_value=2**300), st.integers(min_value=2, max_value=20))
    def test_integer_root_at_exact_powers(self, r, k):
        assert _integer_root(r**k, k) == r
        assert _integer_root(r**k - 1, k) == r - 1

    def test_integer_root_of_small_m_at_huge_k(self):
        # the root is 1 without building any power of size k
        assert _integer_root(10**6, 10**9) == 1
        assert _integer_root(2**64, 64) == 2
        assert _integer_root(2**64 - 1, 64) == 1

    def test_nondecreasing(self):
        for cut in (CutoffSpec.linear(Fraction(1, 3)), CutoffSpec.power(Fraction(1, 2))):
            values = [cut.value_at(n) for n in range(1, 200)]
            assert values == sorted(values)


def route_estimate(a, n, Y):
    """_divisor_passes' estimate of the primes smooth_part_of_term's
    passes visit at the scan limit Y, and pi(Y)."""
    sieve = _shared_sieve(Y)
    count = sieve.count(Y)
    return _divisor_passes(a, n, Y, sieve, count)[2], count


class TestSmoothPartOfTerm:
    def test_examples(self):
        rec = smooth_part_of_term(SequenceSpec(2), 6, 6)
        assert dict(rec) == {3: 2}
        assert rec.value() == 9
        rec = smooth_part_of_term(SequenceSpec(2), 4, 4)
        assert dict(rec) == {3: 1}
        assert rec.value() == 3
        rec = smooth_part_of_term(SequenceSpec(2), 3, 4)
        assert rec.entries == ()
        assert rec.value() == 1
        rec = smooth_part_of_term(SequenceSpec(3), 1, 2)
        assert dict(rec) == {2: 1}
        assert rec.value() == 2

    def test_oracle_equivalence(self):
        for a in (2, 3, 10):
            seq = SequenceSpec(a)
            for n in range(1, 30):
                for y in (10, 100):
                    got = smooth_part_of_term(seq, n, y)
                    want_value, want_factors = smooth_part_oracle(a**n - 1, y)
                    # primes dividing the base never divide a^n - 1, so
                    # the oracle's factorization agrees entry for entry
                    assert got.value() == want_value
                    assert got == want_factors

    def test_log_matches_value(self):
        rec = smooth_part_of_term(SequenceSpec(2), 20, 100)
        assert rec.log_value() == pytest.approx(math.log(rec.value()), rel=1e-12)

    def test_monotone_in_cutoff(self):
        seq = SequenceSpec(3)
        prev = -1.0
        for y in (2, 5, 20, 100, 500):
            log_s = smooth_part_of_term(seq, 24, y).log_value()
            assert log_s >= prev
            prev = log_s

    @given(
        a=st.one_of(st.integers(min_value=2, max_value=40),
                    st.sampled_from([1 + 3**300, 1 + 2**300])),
        n=st.one_of(st.sampled_from([720, 5040, 55440, 166320]),
                    st.integers(min_value=1, max_value=2 * 10**5)),
        cut=st.one_of(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3)]),
                      st.integers(min_value=0, max_value=3 * 10**5)),
    )
    @example(a=2, n=5, cut=31)  # the term 31 is itself the largest prime scanned
    @example(a=6, n=166320, cut=Fraction(3))
    @example(a=1 + 3**300, n=5040, cut=Fraction(1, 2))
    @settings(max_examples=60)
    def test_against_pow_oracle(self, a, n, cut):
        # the oracle tests every prime p <= y by a^n mod p itself and
        # lifts by its own powers of p; cut is a factor K of n or y itself
        y = math.floor(cut * n) if isinstance(cut, Fraction) else cut
        seq = SequenceSpec(a)
        want = smooth_part_by_pow(a, n, y)
        assert smooth_part_of_term(seq, n, y) == want
        exponents = dict(want)
        for p in primes_upto(y):
            assert term_valuation_direct(seq, n, p) == exponents.get(p, 0)

    @given(
        a=st.one_of(st.integers(min_value=2, max_value=40),
                    st.sampled_from([1 + 3**300, 1 + 2**300])),
        n=st.one_of(st.sampled_from([720, 5040, 55440, 166320, 720720, 500000, 977899]),
                    st.integers(min_value=1, max_value=2 * 10**5)),
        Y=st.integers(min_value=0, max_value=3 * 10**5),
    )
    @example(a=31, n=1, Y=100)  # n = 1: only the primes of a - 1 = 30 divide the term
    @example(a=2, n=26, Y=2**13 - 1)  # Y = a^d - 1 for d = 13, itself the prime 8191
    @example(a=2, n=26, Y=2**13 - 2)
    @example(a=2, n=26, Y=2**13)  # 8191 has the odd order 13: the pass of 26 finds it
    @example(a=2, n=8, Y=100)  # 17 has order 8 = 4 * 2, 4 the largest d | n with 2^d <= Y
    @example(a=40, n=6, Y=39)  # a - 1 >= Y: the pass of d = 1 runs to Y
    @example(a=3, n=2, Y=2)  # p = 2 at an odd base
    @example(a=2, n=199999, Y=3 * 10**5)  # a prime n
    @example(a=2, n=500000, Y=3 * 10**5)  # 2^5 * 5^6: many passes that run to Y
    @example(a=7, n=500000, Y=3 * 10**5)  # p = 2 at an odd base, with 2d | n for every odd d
    @example(a=10, n=977899, Y=3 * 10**5)  # 13 * 75223: the passes of 13 and 75223 run to Y
    @example(a=2, n=2**18, Y=3 * 10**5)  # 2^d - 1 past the bit cap from d = 2^11 on
    @example(a=1 + 3**300, n=720720, Y=10**5)  # a^d - 1 past the cap from d = 3 on
    @example(a=2, n=786432, Y=786432)  # 2^18 * 3: the passes of 12 and 16 end at 2^d - 1 < Y, and are cut
    @example(a=3, n=327680, Y=327680)  # 2^16 * 5: d = 10 ends at 3^10 - 1, cut into Phi_5(3), Phi_10(3)
    @example(a=2, n=39, Y=10000)  # Phi_13(2) = 8191 = 2^13 - 1, cut and itself left over below Y
    @settings(max_examples=60)
    def test_divisor_passes_find_the_primes_of_the_term(self, a, n, Y):
        # the per-divisor route at any estimate, dense n included, against
        # the oracle's own scan of every prime <= Y
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(smooth, "_SLICE_SHARE", math.inf)
            assert smooth_part_of_term(SequenceSpec(a), n, Y) == smooth_part_by_pow(a, n, Y)

    @pytest.mark.parametrize("a, n, Y", [(2, 2**18, 3 * 10**5), (1 + 3**300, 720720, 10**5)])
    def test_bit_cap_examples_reach_the_cap(self, monkeypatch, a, n, Y):
        # the two @examples above take a pass with candidates whose
        # a^d - 1 passes the bit cap, which tests them by pow(a, d, p)
        taken = []

        def recording(t, L):
            found = list(arith._progression(t, L))
            taken.append((t, len(found)))
            return found

        monkeypatch.setattr(smooth, "_progression", recording)
        monkeypatch.setattr(smooth, "_SLICE_SHARE", math.inf)
        smooth_part_of_term(SequenceSpec(a), n, Y)
        assert any(d * math.log2(a) > _MOD_PASS_BITS and size > 0 for d, size in taken)

    @given(
        a=st.one_of(st.integers(min_value=2, max_value=40), st.just(1 + 3**300)),
        nY=st.integers(min_value=1, max_value=3000).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=3 * n))),
    )
    @example(a=3, nY=(5, 121))  # Phi_5(3) = 11^2
    @example(a=18, nY=(3, 500))  # Phi_3(18) = 7^3: 7 divided out once would leave 49
    @example(a=2, nY=(6, 18))  # Phi_6(2) = 3 divides 6
    @example(a=7, nY=(2, 8))  # Phi_2(7) = 8, a power of the 2 of d = 2
    @example(a=31, nY=(111, 333))  # Phi_3(31) = 3 * 331: 331 is left over below Y
    @example(a=10, nY=(10, 9091))  # Phi_10(10) = 9091, left over at Y
    @example(a=10, nY=(10, 9090))  # and just past it
    @example(a=10, nY=(529360, 529360))
    @example(a=6, nY=(840880, 840880))
    @example(a=5, nY=(895158, 895158))
    @example(a=2, nY=(786432, 786432))  # d = 12 and 16, bounded by 2^d - 1 < Y
    @example(a=3, nY=(327680, 327680))  # d = 10 takes Phi_5(3) = 11^2, then Phi_10(3) = 61, below Y
    @example(a=2, nY=(39, 10000))  # Phi_13(2) = 8191 is itself the prime left over below Y
    @settings(max_examples=60)
    def test_cut_passes_find_the_primes_of_the_term(self, a, nY):
        # with no set-up charge, every pass whose piece lies below Y^2 and
        # whose bound L holds a prime, pi(L) > 0, is cut, and the full
        # scan is never taken
        n, Y = nY
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(smooth, "_SLICE_SHARE", math.inf)
            patch.setattr(smooth, "_FEW_CANDIDATES", 0)
            assert smooth_part_of_term(SequenceSpec(a), n, Y) == smooth_part_by_pow(a, n, Y)

    @pytest.mark.parametrize("a, n, Y", [(10, 529360, 529360), (6, 840880, 840880), (5, 895158, 895158)])
    def test_cut_passes_stop_at_the_root_of_their_pieces(self, monkeypatch, a, n, Y):
        # a cut pass reads its progression, in arith._trial_divide, only
        # up to the square root of each piece it takes, Phi_d(a), or
        # Phi_(d/2)(a) and then Phi_d(a) for d = 2 mod 4, whose progression
        # of t = d/2 odd steps by 2t = d; an uncut pass still runs to
        # min(Y, a^d - 1); before them all, the divisor walk reads the
        # primes up to min(Y - 1, isqrt(n))
        taken = []
        progression = arith._progression

        def recording(t, L):
            taken.append((t, L))
            return progression(t, L)

        monkeypatch.setattr(smooth, "_progression", recording)
        monkeypatch.setattr(arith, "_progression", recording)
        smooth_part_of_term(SequenceSpec(a), n, Y)
        monkeypatch.undo()  # the oracle below factors through arith._progression too
        sieve = _shared_sieve(Y)
        count = sieve.count(Y)
        passes, cuts, visits = _divisor_passes(a, n, Y, sieve, count)
        assert visits < _SLICE_SHARE * count
        assert cuts and any(L == Y for _, L in passes)
        # the divisor walk comes first, then the uncut passes, each to its
        # own L, then each cut pass stops below the root of each piece
        # it takes
        assert taken[0] == (1, min(Y - 1, math.isqrt(n)))
        assert taken[1 : len(passes) + 1] == passes
        roots = [(k, math.isqrt(cyclotomic_value(k, a))) for d, _ in cuts
                 for k in ([d // 2, d] if d % 4 == 2 and d > 2 else [d])]
        assert [t for t, _ in taken[len(passes) + 1:]] == [k for k, _ in roots]
        assert all(L <= root for (_, L), (_, root) in zip(taken[len(passes) + 1:], roots))
        if (a, n) == (10, 529360):
            assert (8, 100) in taken  # Phi_8(10) = 10001 = 73 * 137

    @pytest.mark.parametrize("a", [2, 3, 10, 40, 1 + 3**300], ids=["2", "3", "10", "40", "1+3^300"])
    @pytest.mark.parametrize("n, Y", [(39, 10000), (720, 720), (5040, 1260), (55440, 55440), (327680, 327680),
                                      (786432, 786432), (977899, 3 * 10**5), (720720, 2 * 720720)])
    def test_divisor_passes_follow_the_one_cut_rule(self, a, n, Y):
        # every listed pass has the bound L = min(Y, a^d - 1), and it is
        # cut exactly when its piece lies below Y^2 and its mod pass would
        # visit more than 4 * _FEW_CANDIDATES primes, pi(L) / phi(d)
        sieve = _shared_sieve(Y)
        passes, cuts, _ = _divisor_passes(a, n, Y, sieve, sieve.count(Y))
        primes = primes_upto(Y)
        phi_max = 2 * (Y.bit_length() - 1) / math.log2(a)

        def cut(d):
            L = min(Y, a**d - 1) if d < Y.bit_length() else Y  # a^d >= 2^d > Y from there on
            phi = math.prod(q**(k - 1) * (q - 1) for q, k in factorize(d))
            return L, phi <= phi_max and bisect.bisect(primes, L) / phi > 4 * _FEW_CANDIDATES

        assert all(cut(d) == (L, False) for d, L in passes)
        assert all(cut(d)[1] and qs == [q for q, _ in factorize(d)] for d, qs in cuts)
        if (a, n, Y) == (2, 786432, 786432):
            assert {12, 16} <= {d for d, _ in cuts}  # bounded by 2^d - 1 < Y, and cut

    def test_prime_n_has_few_candidates(self):
        # every prime of 2^n - 1 is 1 mod n, so none lies below Y = n:
        # the one pass, of d = 1, stops at a - 1 = 1
        visits, count = route_estimate(2, 999983, 999983)
        assert visits < count / 100 < _SLICE_SHARE * count
        assert smooth_part_of_term(SequenceSpec(2), 999983, 999983).entries == ()

    @pytest.mark.parametrize("a, n", [(10, 720720), (1 + 3**300, 5040)])
    def test_dense_terms_scan_every_prime(self, a, n):
        # nearly every prime <= n is 1 mod some divisor of n, or the
        # base exceeds Y so that the pass of d = 1 runs to Y; with its
        # cut passes, (10, 720720) reads 1.88 pi(Y) over all its divisors,
        # and the list stops at 1.52 pi(Y)
        visits, count = route_estimate(a, n, n)
        assert visits >= _SLICE_SHARE * count

    def test_cut_passes_move_n_off_the_full_scan(self):
        # 55440 = 2^4 3^2 5 7 11: uncut, its passes would read 2.46 pi(Y),
        # past the full scan's share; cut, they read 1.07 pi(Y)
        visits, count = route_estimate(2, 55440, 55440)
        assert visits < 1.2 * count < _SLICE_SHARE * count
        assert smooth_part_of_term(SequenceSpec(2), 55440, 55440) == smooth_part_by_pow(2, 55440, 55440)

    def test_dense_n_stops_listing_its_divisors(self):
        # lcm(1..100) has tens of thousands of divisors below 10^6; the
        # list stops at the pass that brings the estimate to the full
        # scan's share, and each pass counts at least _FEW_CANDIDATES
        sieve = _shared_sieve(10**6)
        count = sieve.count(10**6)
        passes, cuts, visits = _divisor_passes(2, math.lcm(*range(1, 101)), 10**6, sieve, count)
        limit = _SLICE_SHARE * count
        assert visits >= limit
        assert (len(passes) + len(cuts) - 1) * _FEW_CANDIDATES < limit

    def test_prime_n_near_2_to_the_100(self):
        # only n's prime factors below Y are sought, by trial division
        n = 2**100 - 15  # prime
        start = time.perf_counter()
        got = smooth_part_of_term(SequenceSpec(10), n, 10**5)
        assert time.perf_counter() - start < 1.0
        assert dict(got) == {3: 2}  # v_3(10^n - 1) = v_3(9) + v_3(n)

    @pytest.mark.parametrize("a, n, Y, want", [
        (2, 6, 12, {3: 2, 7: 1}),  # the walk to isqrt(6) = 2 ends before 3, the prime past it
        (2, 22, 100, {3: 1, 23: 1, 89: 1}),  # primes <= isqrt(22): 2, 3; then 11 is left over
        (2, 11, 100, {23: 1, 89: 1}),  # a prime n below Y is its own last prime
    ])
    def test_last_prime_of_n_left_over_by_the_walk(self, monkeypatch, a, n, Y, want):
        # n = 2p, with p past the prefix the divisor walk reads, or n
        # prime: the pass of d = n still runs.  The walk stops at
        # min(Y - 1, isqrt(n)), however far a fresh sieve or any other
        # lists, so it reads no prime whose square passes what is left
        # of n; the full scan, which needs no divisor, is turned off
        monkeypatch.setattr(arith, "_sieve", arith._marked_sieve(1000))
        monkeypatch.setattr(smooth, "_SLICE_SHARE", math.inf)
        got = smooth_part_of_term(SequenceSpec(a), n, Y)
        assert dict(got) == want
        assert got == smooth_part_by_pow(a, n, Y)

    def test_divisors_below_against_factorize(self):
        # every divisor d < Y of n, less the odd d > 1 of an even n,
        # with Y below, at and past n, each with phi(d)
        for n in range(1, 1200):
            for Y in {0, 2, n // 2, n, n + 1, 2 * n, n * n}:
                found = []
                got = sorted(smooth._divisors_below(n, Y, primes_upto(min(Y - 1, math.isqrt(n))), found))
                want = [(d, math.prod(q**(k - 1) * (q - 1) for q, k in factorize(d)))
                        for d in divisors(n) if d < Y and not (d > 1 and d % 2 and n % 2 == 0)]
                assert got == (want or [(1, 1)]), (n, Y)
                assert found == [q for q, _ in factorize(n) if q < Y]


class TestMembership:
    def test_examples(self):
        seq = SequenceSpec(2)
        cut = CutoffSpec.linear(1)
        assert membership(seq, 6, cut, Fraction(6, 5)).member
        assert not membership(seq, 3, cut, 2).member
        assert not membership(seq, 1, cut, Fraction(3, 2)).member

    def test_rejects_c_below_one(self):
        with pytest.raises(ValueError):
            membership(SequenceSpec(2), 5, CutoffSpec.linear(1), 1)

    def test_monotone_in_c(self):
        seq = SequenceSpec(2)
        cut = CutoffSpec.linear(1)
        for n in range(1, 25):
            if membership(seq, n, cut, Fraction(6, 5)).member:
                continue
            # non-member at small c stays non-member at every larger c
            assert not membership(seq, n, cut, 2).member

    def test_exact_tiebreak_on_boundary(self):
        # s_8(2^8 - 1) = 15 and c = 15^(1/8) is irrational; pick c with
        # c^n = s exactly: a=2, n=4, s=3, c^4 = 3 has no rational c, so
        # engineer the tie via c = 3/1 at n = 1: s_1(u_1)=1, c^1... use
        # direct check instead: margin 0 forces the exact path.
        seq = SequenceSpec(3)
        # u_2 = 8, s_2(8) = 8, c = 2 -> c^2 = 4 < 8: member, clear.
        v = membership(seq, 2, CutoffSpec.linear(1), 2)
        assert v.member
        # exact tie: a=3, n=1, cutoff 2: s = 2, c = 2 -> 2 > 2 is false
        v = membership(SequenceSpec(3), 1, CutoffSpec.linear(2), 2)
        assert v.exact_tiebreak_used
        assert not v.member

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4: n * ln c is taken from float(c),"
                       " which rounds 1 + 10^-40 to 1.0, so the threshold reads 0")
    def test_verdict_when_c_rounds_to_one_as_a_double(self):
        # n * ln c is just under 10^5 against log_s = 278.98, so the
        # smooth part stays below c^n; checked at 100 digits
        n, c = 10**45, Fraction(10**40 + 1, 10**40)
        v = membership(SequenceSpec(2), n, CutoffSpec.linear(Fraction(1, 10**40)), c)
        with mpmath.workdps(100):
            threshold = n * mpmath.log(mpmath.mpf(c.numerator) / c.denominator)
        assert v.member == (v.log_s > threshold)


class TestEnumerate:
    def test_ground_truth(self):
        got = enumerate_members(SequenceSpec(2), CutoffSpec.linear(1), Fraction(6, 5), 10)
        assert got == [4, 6, 8, 9]

    def test_empty_at_large_c(self):
        assert enumerate_members(SequenceSpec(2), CutoffSpec.linear(1), 2, 10) == []

    def test_empty_domain(self):
        assert enumerate_members(SequenceSpec(2), CutoffSpec.linear(1), 2, 0) == []


class TestPrimeSums:
    def test_log_sum_examples(self):
        seq = SequenceSpec(2)
        assert term_prime_log_sum(seq, 1, 6) == pytest.approx(math.log(3))
        assert term_prime_log_sum(seq, 2, 6) == pytest.approx(math.log(21))
        assert term_prime_log_sum(seq, 1, 1) == 0.0

    def test_order_divisor_primes_examples(self):
        seq = SequenceSpec(2)
        recs = counting_report(seq, 1, 6).records
        assert recs == [(3, 2, 1)]
        recs = counting_report(seq, 2, 6).records
        assert [p for p, _, _ in recs] == [3, 7]
        assert counting_report(seq, 1, 1).records == []

    def test_two_criteria_agree(self):
        # order-divides-n and p-divides-term pick the same primes
        for a in (2, 3):
            seq = SequenceSpec(a)
            for n in (6, 12, 30):
                recs = counting_report(seq, 3, n).records
                assert [p for p, _, _ in recs] == [
                    p for p in primes_upto(3 * n) if a % p != 0 and pow(a, n, p) == 1
                ]

    def test_report_carries_records_and_exact_log_sum(self):
        for a in (2, 3, 10):
            seq = SequenceSpec(a)
            for K, n in ((1, 6), (3, 30), (Fraction(3, 2), 360)):
                rep = counting_report(seq, K, n)
                y = CutoffSpec.linear(K).value_at(n)
                assert rep.records == [r for r in records_by_enumeration(a, y) if n % r[1] == 0]
                assert rep.log_sum == term_prime_log_sum(seq, K, n)

    @given(
        a=st.one_of(st.integers(min_value=2, max_value=40), st.just(1 + 3**300)),
        n=st.integers(min_value=1, max_value=3000),
        K=st.one_of(
            st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)]),
            st.fractions(min_value=Fraction(1, 8), max_value=2, max_denominator=8),
        ),
    )
    @example(a=9, n=1680, K=Fraction(2))
    @example(a=40, n=2000, K=Fraction(2))
    @example(a=2, n=1092, K=Fraction(2))  # 1093, with o = 2, is a hit
    @settings(max_examples=60)
    def test_records_against_enumeration(self, a, n, K):
        # records found without the order table, each from orders' one
        # step with the odd part of p - 1 factored: the oracle steps the
        # order and values a^ell - 1 whole, only for ell | n, which keeps
        # the powers of the 476-bit base small enough to value
        rep = counting_report(SequenceSpec(a), K, n)
        y = CutoffSpec.linear(K).value_at(n)
        assert rep.records == records_by_enumeration(a, y, n)


class TestCountingReport:
    def test_hand_checked_bound(self):
        rep = counting_report(SequenceSpec(2), 1, 6)
        assert rep.prime_count == 1
        assert rep.bound == 8
        assert rep.bound_holds

    def test_trivial_n1(self):
        rep = counting_report(SequenceSpec(2), 1, 1)
        assert rep.prime_count == 0
        assert rep.bound_holds

    def test_bound_holds_scan(self):
        rep = counting_report(SequenceSpec(3), 2, 12)
        assert rep.bound_holds
        for n in range(1, 120):
            assert counting_report(SequenceSpec(2), Fraction(7, 2), n).bound_holds

    def test_bound_matches_definition(self):
        # sum over d | n of min(floor(Kn/d) + 1, floor(d * log2 a)), with
        # a^d built for every divisor
        for a in (2, 3, 10):
            for K in (Fraction(1), Fraction(3, 2), Fraction(7, 2)):
                for n in range(1, 80):
                    y = math.floor(K * n)
                    want = sum(
                        min(y // d + 1, (a**d).bit_length() - 1)
                        for d in range(1, n + 1)
                        if n % d == 0
                    )
                    assert counting_report(SequenceSpec(a), K, n).bound == want

    def test_bound_at_large_n(self):
        # 10^16 has 289 divisors; the bound needs them without a search up
        # to 10^8.  With a = 2, floor(d * log2 a) = d.
        n, K = 10**16, Fraction(1, 10**11)
        y = 10**5
        want = sum(min(y // d + 1, d) for d in (2**i * 5**j for i in range(17) for j in range(17)))
        assert counting_report(SequenceSpec(2), K, n).bound == want

    def test_bound_at_dense_n(self):
        # lcm(1..40) has 36,864 divisors, each listed here; the report
        # walks only those up to y
        n = math.lcm(*range(1, 41))
        for a in (2, 3, 10):
            for y in (1, 1000, 123457, 10**6):
                want = 0
                for d in divisors(n):
                    count = y // d + 1
                    if count > d:
                        count = min(count, (a**d).bit_length() - 1)
                    want += count
                assert counting_report(SequenceSpec(a), Fraction(y, n), n).bound == want

    def test_bound_at_lcm_100_lists_no_divisor_above_y(self):
        # lcm(1..100) has about 6.6e8 divisors; listing them all runs out
        # of memory.  Those up to y = 1000 are found here by trial.
        n = math.lcm(*range(1, 101))
        y = 1000
        K = Fraction(y, n)
        tau = math.prod(max(k for k in range(8) if p**k <= 100) + 1 for p in primes_upto(100))
        small = [d for d in range(1, y + 1) if n % d == 0]
        want = tau - len(small) + sum(min(y // d + 1, d) for d in small)
        counting_report(SequenceSpec(2), K, n)  # sieve and factoring tables warm
        tracemalloc.start()
        try:
            rep = counting_report(SequenceSpec(2), K, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.bound == want
        assert peak < 2**20


class TestCountingReportAgainstTable:
    """The records come from the single-term passes; the order table's
    rows with ell | n are the other route to them."""

    def test_records_match_table_rows(self):
        for a in (2, 3, 5, 6, 7, 10):
            seq = SequenceSpec(a)
            rows = list(order_records(seq, 720720))
            for n in (360360, 720720):
                want = [r for r in rows if r[0] <= n and n % r[1] == 0]
                assert counting_report(seq, 1, n).records == want

    @given(
        a=st.integers(min_value=2, max_value=40),
        n=st.integers(min_value=1, max_value=5 * 10**4),
        K=st.fractions(min_value=Fraction(1, 8), max_value=2, max_denominator=8),
    )
    @example(a=2, n=5 * 10**4, K=Fraction(2))
    @example(a=3, n=45360, K=Fraction(1, 8))
    @settings(max_examples=40)
    def test_records_match_table_rows_property(self, a, n, K):
        seq = SequenceSpec(a)
        y = CutoffSpec.linear(K).value_at(n)
        want = [r for r in order_records(seq, y) if n % r[1] == 0]
        assert counting_report(seq, K, n).records == want

    def test_builds_no_order_table(self, monkeypatch):
        # order_records' pass is the one caller of this array
        def refused(limit):
            raise AssertionError(f"smallest_prime_factors({limit}) called")

        monkeypatch.setattr(orders, "smallest_prime_factors", refused)
        rep = counting_report(SequenceSpec(97), 1, 100800)
        assert rep.prime_count > 0
