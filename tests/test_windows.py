import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothlab import orders, windows
from smoothlab.arith import sieve_primes, valuation
from smoothlab.bounds import default_y, density_bound, stewart_bound
from smoothlab.orders import SequenceSpec, order_records, term_valuation_direct
from smoothlab.smooth import CutoffSpec, membership
from smoothlab.windows import (
    density_check,
    dyadic_partition,
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

    def test_rejects_c_before_building_any_term(self, monkeypatch):
        # c is checked ahead of the window's pass, not after 5 * 10^4 terms
        def refused(*args):
            raise AssertionError("smooth_part_of_term called")

        monkeypatch.setattr(windows, "smooth_part_of_term", refused)
        with pytest.raises(ValueError, match="c must be > 1"):
            window_product(SequenceSpec(2), 1, 10**5, c=1)

    @settings(max_examples=40)
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
        totals = [
            (p, sum(term_valuation_direct(seq, n, p) for n in window))
            for p in sieve_primes(rep.cutoff_y)
        ]
        assert rep.log_Q_by_prime == math.fsum(t * math.log(p) for p, t in totals)

    @settings(max_examples=40)
    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=2, max_value=400),
        st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)]),
        st.fractions(min_value=Fraction(1, 1), max_value=5, max_denominator=100).filter(
            lambda c: c > 1),
    )
    @example(7, 2, Fraction(1), Fraction(4))  # s_2(48) = 16 = 4^2: a tie
    @example(3, 400, Fraction(1), Fraction(101, 100))
    def test_member_count_matches_membership(self, a, N, K, c):
        seq = SequenceSpec(a)
        cutoff = CutoffSpec.linear(K)
        want = sum(membership(seq, n, cutoff, c).member for n in range(N // 2 + 1, N + 1))
        assert window_product(seq, K, N, c=c).member_count == want


class TestPrimeWindowValuationSum:
    def test_examples(self):
        seq = SequenceSpec(2)
        assert prime_window_valuation_sum(seq, 3, 4) == (1, 1)
        assert prime_window_valuation_sum(seq, 5, 8) == (1, 1)
        assert prime_window_valuation_sum(seq, 3, 2) == (1, 1)

    def test_window_takes_no_prime_test_per_n(self, monkeypatch):
        # term_valuation_direct tests its p on every call; the window's
        # p is checked once, by its order record
        calls = []
        is_prime = orders.is_prime
        monkeypatch.setattr(orders, "is_prime", lambda m: calls.append(m) or is_prime(m))
        direct, formula = prime_window_valuation_sum(SequenceSpec(2), 7, 1000)
        assert direct == formula > 0
        assert calls == [7]

    def test_rejects_empty_window_before_building_the_table(self, monkeypatch):
        # N is checked before p's order record is asked for
        def refused(seq, p):
            raise AssertionError(f"order_record({seq}, {p}) called")

        monkeypatch.setattr(windows, "order_record", refused)
        with pytest.raises(ValueError, match="N must be >= 1"):
            prime_window_valuation_sum(SequenceSpec(97), 100003, 0)

    def test_rejects_two_and_dividing(self):
        # p = 2 is rejected only where it divides the base
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
    # p = 2 with an odd base: each even n adds v_2(a + 1) - 1 to o_2 + v_2(n)
    def test_examples(self):
        assert prime_window_valuation_sum(SequenceSpec(3), 2, 4) == (5, 5)
        assert prime_window_valuation_sum(SequenceSpec(5), 2, 2) == (3, 3)

    def test_against_bigint(self):
        # 7, 15, 17, 31, 33 reach v_2(a - 1) or v_2(a + 1) of 3 to 5
        for a in (3, 5, 9, 11, 7, 15, 17, 31, 33):
            seq = SequenceSpec(a)
            for N in (1, 2, 3, 7, 20, 64):
                expected = sum(
                    valuation(a**n - 1, 2) for n in range(N // 2 + 1, N + 1)
                )
                assert prime_window_valuation_sum(seq, 2, N) == (expected, expected)


def dyadic_ratios(a, N):
    """(p, o_p * ln p / ell_p) for the primes p <= N not dividing a."""
    return [(p, o * math.log(p) / ell) for p, ell, o in order_records(SequenceSpec(a), N)]


class TestDyadicPartition:
    def test_degenerate_threshold(self):
        rep = dyadic_partition(SequenceSpec(2), 1, 8, 1e9)
        assert rep.Q1_size == 0
        assert rep.Q2_size == 3  # p in {3, 5, 7}
        assert rep.I >= 0

    def test_unit_threshold(self):
        rep = dyadic_partition(SequenceSpec(2), 1, 8, 1.0)
        in_q1 = {p for p, r in dyadic_ratios(2, 8) if r < 1.0}
        assert 7 in in_q1  # ln(7)/3 < 1
        assert rep.Q1_size == len(in_q1)

    def test_partition_exact(self):
        rep = dyadic_partition(SequenceSpec(2), 1, 100, default_y(100))
        primes = [p for p in sieve_primes(100)]
        assert rep.Q1_size + rep.Q2_size == len(primes) - 1  # p = 2 divides the base
        in_q1 = [r for _, r in dyadic_ratios(2, 100) if r < 1 / default_y(100)]
        assert rep.Q1_size == len(in_q1)

    def test_s1_reproducible(self):
        y = 2.0
        rep = dyadic_partition(SequenceSpec(3), 1, 50, y)
        s1 = 50 * sum(r for _, r in dyadic_ratios(3, 50) if r < 1 / y)
        assert rep.S1 == pytest.approx(s1)
        assert rep.S2 == 50 * rep.Q2_size


# Integers log-uniform up to 10^400: a digit count, then the integer.
LOG_UNIFORM_TO_10_400 = st.integers(min_value=1, max_value=400).flatmap(
    lambda k: st.integers(min_value=10 ** (k - 1), max_value=10**k))


def assert_50_digits_agree(N, p):
    """default_y and density_bound at N and stewart_bound at p, in the
    50-digit mode, each give the double of mpmath's value at 50 digits
    (in a workdps(50) block) and agree with it within 10^-45."""
    ln_N, ln_p = mpmath.log(N), mpmath.log(p)
    pairs = [
        (default_y(N, "high"), mpmath.exp(ln_N / (156 * mpmath.log(ln_N)))),
        (density_bound(N, "high"), N * mpmath.exp(-ln_N / (156 * mpmath.log(ln_N)))),
        (stewart_bound(p, "high"), p * mpmath.exp(-ln_p / (mpmath.mpf("51.9") * mpmath.log(ln_p)))),
    ]
    for got, want in pairs:
        assert float(got) == float(want), (N, p)
        assert mpmath.almosteq(mpmath.mpf(str(got)), want, rel_eps=mpmath.mpf(10) ** -45), (N, p)


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
        # the 50-digit mode evaluates in decimal; mpmath at 50 digits is
        # an independent oracle: the same double, and agreement far inside
        # either side's stated error
        with mpmath.workdps(50):
            for x in (17, 10**6, 1000003):
                assert_50_digits_agree(x, x)

    @given(N=LOG_UNIFORM_TO_10_400, p=LOG_UNIFORM_TO_10_400)
    @settings(max_examples=200, deadline=None)
    def test_high_precision_mode_against_mpmath(self, N, p):
        with mpmath.workdps(50):
            assert_50_digits_agree(max(N, 3), max(p, 17))

    def test_rejects_unknown_precision(self):
        with pytest.raises(ValueError):
            density_bound(100, precision="quad")


class TestDensityCheck:
    def test_row_count_and_sanity(self):
        rows = density_check(SequenceSpec(2), CutoffSpec.linear(1), 2, 64)
        assert len(rows) == math.ceil(math.log2(64))
        for row in rows:
            assert 0 <= row.member_count <= row.window_upper / 2 + 1

    @pytest.mark.parametrize("N", [3, 7, 45, 127, 201])
    def test_window_counts_match_membership(self, N):
        # odd N makes every window bound below the first fractional
        seq, cutoff, c = SequenceSpec(3), CutoffSpec.linear(1), Fraction(101, 100)
        members = [n for n in range(1, N + 1) if membership(seq, n, cutoff, c).member]
        for row in density_check(seq, cutoff, c, N):
            want = sum(1 for n in members if row.window_upper / 2 < n <= row.window_upper)
            assert row.member_count == want

    def test_total_count_matches_enumeration(self):
        rows = density_check(SequenceSpec(2), CutoffSpec.linear(1), "6/5", 10)
        assert sum(r.member_count for r in rows) == 4
