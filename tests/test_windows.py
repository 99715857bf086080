import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlab.arith import sieve_primes, valuation
from smoothlab.bounds import default_y, density_bound, stewart_bound
from smoothlab.orders import SequenceSpec, term_valuation_direct
from smoothlab.smooth import CutoffSpec, membership
from smoothlab.windows import (
    density_check,
    dyadic_partition,
    even_prime_window_sum,
    prime_window_valuation_sum,
    window_product,
)


class TestWindowProduct:
    def test_small_examples(self):
        rep = window_product(SequenceSpec(2), 1, 4)
        assert rep.log_Q == pytest.approx(math.log(3))
        rep = window_product(SequenceSpec(2), 1, 2)
        assert rep.log_Q == 0.0

    def test_exchange_identity(self):
        for a in (2, 3):
            for N in (16, 64, 200):
                rep = window_product(SequenceSpec(a), 1, N)
                assert rep.agreement_delta <= 1e-9 * max(1.0, abs(rep.log_Q))

    def test_member_count(self):
        rep = window_product(SequenceSpec(2), 1, 10, c="6/5")
        # members of the threshold set in (5, 10]: {6, 8, 9}
        assert rep.member_count == 3

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=2, max_value=400),
        st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)]),
    )
    def test_prime_major_totals_match_direct(self, a, N, K):
        # The p-major side counts with lifting the exponent; the oracle
        # sums direct valuations over the window.
        seq = SequenceSpec(a)
        rep = window_product(seq, K, N)
        window = range(N // 2 + 1, N + 1)
        expected = []
        for p in sieve_primes(rep.cutoff_y):
            total = sum(term_valuation_direct(seq, n, p) for n in window)
            if total:
                expected.append((p, total))
        assert [(p, t) for p, t, _ in rep.per_prime_contributions] == expected


class TestPrimeWindowValuationSum:
    def test_examples(self):
        seq = SequenceSpec(2)
        assert prime_window_valuation_sum(seq, 3, 4) == (1, 1)
        assert prime_window_valuation_sum(seq, 5, 8) == (1, 1)
        assert prime_window_valuation_sum(seq, 3, 2) == (1, 1)

    def test_rejects_two_and_dividing(self):
        with pytest.raises(ValueError):
            prime_window_valuation_sum(SequenceSpec(2), 2, 10)
        with pytest.raises(ValueError):
            prime_window_valuation_sum(SequenceSpec(6), 3, 10)

    def test_identity_exact(self):
        for a in (2, 3, 7):
            seq = SequenceSpec(a)
            for p in sieve_primes(40):
                if p == 2 or a % p == 0:
                    continue
                for N in (10, 37, 100):
                    direct, formula = prime_window_valuation_sum(seq, p, N)
                    assert direct == formula


class TestEvenPrimeWindowSum:
    def test_examples(self):
        assert even_prime_window_sum(SequenceSpec(3), 4) == 5
        assert even_prime_window_sum(SequenceSpec(2), 100) == 0
        assert even_prime_window_sum(SequenceSpec(5), 2) == 3

    def test_against_bigint(self):
        # 7, 15, 17, 31, 33 reach v_2(a - 1) or v_2(a + 1) of 3 to 5
        for a in (3, 5, 9, 11, 7, 15, 17, 31, 33):
            seq = SequenceSpec(a)
            for N in (1, 2, 3, 7, 20, 64):
                expected = sum(
                    valuation(a**n - 1, 2) for n in range(N // 2 + 1, N + 1)
                )
                assert even_prime_window_sum(seq, N) == expected


class TestDyadicPartition:
    def test_degenerate_threshold(self):
        rep = dyadic_partition(SequenceSpec(2), 1, 8, 1e9)
        assert rep.Q1_size == 0
        assert rep.Q2_size == 3  # p in {3, 5, 7}
        assert rep.I >= 0

    def test_unit_threshold(self):
        rep = dyadic_partition(SequenceSpec(2), 1, 8, 1.0)
        in_q1 = {p for p, r in rep.ratios if r < 1.0}
        assert 7 in in_q1  # ln(7)/3 < 1

    def test_partition_exact(self):
        rep = dyadic_partition(SequenceSpec(2), 1, 100, default_y(100))
        primes = [p for p in sieve_primes(100)]
        assert rep.Q1_size + rep.Q2_size == len(primes) - 1  # p = 2 divides the base
        assert len(rep.ratios) == rep.Q1_size + rep.Q2_size

    def test_s1_reproducible(self):
        y = 2.0
        rep = dyadic_partition(SequenceSpec(3), 1, 50, y)
        s1 = 50 * sum(r for _, r in rep.ratios if r < 1 / y)
        assert rep.S1 == pytest.approx(s1)
        assert rep.S2 == 50 * rep.Q2_size


class TestBoundFunctions:
    def test_default_y_examples(self):
        assert default_y(3) == pytest.approx(1.0777557881515827, rel=1e-12)
        assert default_y(10**6) == pytest.approx(1.0343025507920662, rel=1e-12)

    def test_default_y_monotone(self):
        values = [default_y(N) for N in range(16, 4000, 37)]
        assert values == sorted(values)

    def test_default_y_domain(self):
        with pytest.raises(ValueError):
            default_y(2)

    def test_stewart_examples(self):
        assert stewart_bound(10**6) == pytest.approx(903592.3482494156, rel=1e-12)
        assert stewart_bound(17) == pytest.approx(16.1318285068217, rel=1e-12)

    def test_stewart_below_identity(self):
        for p in (17, 101, 10**4, 10**9):
            assert stewart_bound(p) < p

    def test_stewart_domain(self):
        with pytest.raises(ValueError):
            stewart_bound(16)

    def test_density_examples(self):
        assert density_bound(10**6) == pytest.approx(966835.0902104966, rel=1e-12)
        assert density_bound(10**4) == pytest.approx(9737.594569471152, rel=1e-12)

    def test_density_below_identity(self):
        for N in (3, 100, 10**6):
            assert density_bound(N) < N

    def test_high_precision_mode(self):
        with mpmath.workdps(50):
            want = 10**6 * mpmath.exp(
                -mpmath.log(10**6) / (156 * mpmath.log(mpmath.log(10**6)))
            )
            got = density_bound(10**6, precision="high")
            assert mpmath.almosteq(got, want, rel_eps=mpmath.mpf(10) ** -45)
            for x in (17, 10**6, 1000003):
                ln = mpmath.log(x)
                assert default_y(x, "high") == mpmath.exp(ln / (156 * mpmath.log(ln)))
                assert density_bound(x, "high") == x * mpmath.exp(
                    -ln / (156 * mpmath.log(ln))
                )
                assert stewart_bound(x, "high") == x * mpmath.exp(
                    -ln / (mpmath.mpf("51.9") * mpmath.log(ln))
                )

    def test_rejects_unknown_precision(self):
        with pytest.raises(ValueError):
            density_bound(100, precision="quad")


class TestDensityCheck:
    def test_row_count_and_sanity(self):
        rows = density_check(SequenceSpec(2), CutoffSpec.linear(1), 2, 64)
        assert len(rows) == math.ceil(math.log2(64))
        for row in rows:
            assert 0 <= row.member_count <= row.upper / 2 + 1

    @pytest.mark.parametrize("N", [3, 7, 45, 127, 201])
    def test_window_counts_match_membership(self, N):
        # odd N makes every window bound below the first fractional
        seq, cutoff, c = SequenceSpec(3), CutoffSpec.linear(1), Fraction(101, 100)
        members = [n for n in range(1, N + 1) if membership(seq, n, cutoff, c).member]
        for row in density_check(seq, cutoff, c, N):
            want = sum(1 for n in members if row.upper / 2 < n <= row.upper)
            assert row.member_count == want

    def test_total_count_matches_enumeration(self):
        rows = density_check(SequenceSpec(2), CutoffSpec.linear(1), "6/5", 10)
        assert sum(r.member_count for r in rows) == 4
