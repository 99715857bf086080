import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlab.arith import (
    SIEVE_MAX,
    Factorization,
    factorize,
    is_prime,
    radical,
    sieve_primes,
    smallest_prime_factors,
    smooth_part_oracle,
    valuation,
)


def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def trial_division_factor(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class TestSieve:
    def test_first_primes(self):
        assert sieve_primes(10) == [2, 3, 5, 7]

    def test_empty_range(self):
        assert sieve_primes(1) == []
        assert sieve_primes(0) == []

    def test_pi_100_against_trial_division(self):
        expected = [n for n in range(2, 101) if trial_division_is_prime(n)]
        assert sieve_primes(100) == expected
        assert len(sieve_primes(100)) == 25


class TestSmallestPrimeFactors:
    def test_matches_factorize(self):
        spf = smallest_prime_factors(20000)
        assert spf.typecode == "H" and len(spf) == 20001
        for m in range(20001):
            f = factorize(m).entries if m else ()
            composite = len(f) > 1 or (len(f) == 1 and f[0][1] > 1)
            assert spf[m] == (f[0][0] if composite else 0), m

    def test_small_limits(self):
        assert [list(smallest_prime_factors(n)) for n in range(5)] == [
            [0], [0, 0], [0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0, 2],
        ]

    def test_rejects_limit_out_of_range(self):
        for limit in (-1, SIEVE_MAX + 1):
            with pytest.raises(ValueError):
                smallest_prime_factors(limit)


class TestValuation:
    def test_unit(self):
        assert valuation(1, 7) == 0

    def test_examples(self):
        assert valuation(72, 2) == 3
        assert valuation(242, 11) == 2

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            valuation(0, 7)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            valuation(10, 4)


class TestFactorize:
    def test_unit(self):
        assert factorize(1).entries == ()
        assert factorize(1).value() == 1

    def test_examples(self):
        assert dict(factorize(63)) == {3: 2, 7: 1}
        assert dict(factorize(2047)) == {23: 1, 89: 1}

    def test_roundtrip_random_sample(self):
        rng = random.Random(20240811)
        for _ in range(40):
            m = rng.randrange(1, 10**12)
            f = factorize(m)
            assert f.value() == m
            for p, e in f:
                assert is_prime(p)
                assert e >= 1

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=60)
    def test_roundtrip_matches_trial_division(self, m):
        assert dict(factorize(m)) == trial_division_factor(m)

    def test_entries_ascending(self):
        f = factorize(2 * 3 * 5 * 7 * 11)
        primes = [p for p, _ in f]
        assert primes == sorted(primes)

    def test_budget_exhaustion_reports_cofactor(self):
        from smoothlab.arith import FactorizationError

        # 18-digit primes: far beyond a 100-iteration rho budget
        p, q = 999999999999999989, 999999999999999967
        with pytest.raises(FactorizationError) as exc:
            factorize(7 * p * q, budget=100)
        assert exc.value.cofactor == p * q
        assert dict(exc.value.partial) == {7: 1}

    def test_rho_splits_semiprime_past_trial_range(self):
        f = factorize(1000003 * 1000033)
        assert dict(f) == {1000003: 1, 1000033: 1}

    def test_invalid_entries_rejected(self):
        with pytest.raises(ValueError):
            Factorization(((3, 1), (2, 1)))
        with pytest.raises(ValueError):
            Factorization(((2, 0),))


class TestRadical:
    def test_examples(self):
        assert radical(1) == 1
        assert radical(72) == 6
        assert radical(4032) == 42


class TestSmoothPartOracle:
    def test_examples(self):
        assert smooth_part_oracle(720, 5)[0] == 720
        assert smooth_part_oracle(720, 3)[0] == 144
        assert smooth_part_oracle(7, 4)[0] == 1

    def test_divides_and_monotone(self):
        rng = random.Random(7)
        for _ in range(40):
            m = rng.randrange(1, 10**8)
            s10, _ = smooth_part_oracle(m, 10)
            s100, _ = smooth_part_oracle(m, 100)
            assert m % s10 == 0
            assert s100 % s10 == 0

    def test_cofactor_is_rough(self):
        for m in [720, 3600, 99991 * 8, 123456]:
            for y in [2, 5, 30]:
                s, _ = smooth_part_oracle(m, y)
                cof = m // s
                assert all(cof % p != 0 for p in sieve_primes(y))

    def test_smooth_part_largest_prime(self):
        s, f = smooth_part_oracle(2 * 3 * 5 * 7 * 11 * 13, 7)
        assert f.entries[-1][0] <= 7

