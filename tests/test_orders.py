import math

import pytest

from smoothlab.arith import sieve_primes, valuation
from smoothlab.orders import (
    SequenceSpec,
    initial_valuation,
    multiplicative_order,
    order_record,
    order_records,
    term_valuation_direct,
    term_valuation_lte,
)


def order_by_enumeration(a, p):
    x = a % p
    k = 1
    while x != 1:
        x = x * a % p
        k += 1
    return k


class TestSequenceSpec:
    def test_rejects_small_base(self):
        with pytest.raises(ValueError):
            SequenceSpec(1)


class TestMultiplicativeOrder:
    def test_examples(self):
        assert multiplicative_order(SequenceSpec(5), 3) == 2
        assert multiplicative_order(SequenceSpec(2), 7) == 3
        assert multiplicative_order(SequenceSpec(4), 3) == 1

    def test_rejects_p_dividing_base(self):
        with pytest.raises(ValueError):
            multiplicative_order(SequenceSpec(6), 3)

    def test_matches_enumeration(self):
        for a in (2, 3, 5, 10):
            seq = SequenceSpec(a)
            for p in sieve_primes(100):
                if a % p == 0:
                    continue
                assert multiplicative_order(seq, p) == order_by_enumeration(a, p)

    def test_minimality_and_divides_p_minus_1(self):
        for a in (2, 3, 7):
            seq = SequenceSpec(a)
            for p in sieve_primes(60):
                if a % p == 0:
                    continue
                ell = multiplicative_order(seq, p)
                assert (p - 1) % ell == 0
                for d in range(1, ell):
                    if ell % d == 0:
                        assert pow(a, d, p) != 1


class TestInitialValuation:
    def test_examples(self):
        assert initial_valuation(SequenceSpec(2), 3) == 1
        assert initial_valuation(SequenceSpec(3), 11) == 2
        assert initial_valuation(SequenceSpec(2), 7) == 1

    def test_against_bigint(self):
        for a in (2, 3, 5, 7):
            seq = SequenceSpec(a)
            for p in sieve_primes(50):
                if a % p == 0:
                    continue
                ell = multiplicative_order(seq, p)
                assert initial_valuation(seq, p) == valuation(a**ell - 1, p)


class TestOrderRecord:
    def test_invariants(self):
        for a in (2, 3, 12):
            seq = SequenceSpec(a)
            for p in sieve_primes(100):
                if a % p == 0:
                    continue
                rec = order_record(seq, p)
                assert pow(a, rec.ell, p) == 1
                assert (p - 1) % rec.ell == 0
                m = a**rec.ell - 1
                assert m % p**rec.o == 0
                assert m % p ** (rec.o + 1) != 0

    def test_size_bound(self):
        # p^o divides a^ell - 1 < a^ell, so o*ln p < ell*ln a
        for a in (2, 3, 10):
            seq = SequenceSpec(a)
            for p in sieve_primes(200):
                if a % p == 0:
                    continue
                rec = order_record(seq, p)
                assert rec.o * math.log(p) <= rec.ell * math.log(a)

    def test_order_records_match_public_routes(self):
        for a in (2, 3, 6, 10, 12):
            seq = SequenceSpec(a)
            expected = [
                (p, multiplicative_order(seq, p), initial_valuation(seq, p))
                for p in sieve_primes(300)
                if a % p != 0
            ]
            assert [(r.p, r.ell, r.o) for r in order_records(seq, 300)] == expected
        assert order_records(SequenceSpec(2), 1) == []


class TestTermValuations:
    def test_direct_examples(self):
        assert term_valuation_direct(SequenceSpec(2), 6, 3) == 2
        assert term_valuation_direct(SequenceSpec(2), 5, 3) == 0
        assert term_valuation_direct(SequenceSpec(6), 4, 3) == 0

    def test_lte_examples(self):
        assert term_valuation_lte(SequenceSpec(2), 6, 3) == 2
        assert term_valuation_lte(SequenceSpec(3), 4, 2) == 4
        assert term_valuation_lte(SequenceSpec(3), 5, 2) == 1

    def test_triple_equality_small(self):
        for a in (2, 3, 12):
            seq = SequenceSpec(a)
            for n in range(1, 60):
                m = a**n - 1
                for p in sieve_primes(60):
                    expected = valuation(m, p) if m > 1 else 0
                    assert term_valuation_direct(seq, n, p) == expected
                    assert term_valuation_lte(seq, n, p) == expected

    def test_divisibility_criterion(self):
        for a in (2, 3, 7):
            seq = SequenceSpec(a)
            for p in sieve_primes(60):
                if a % p == 0:
                    continue
                ell = multiplicative_order(seq, p)
                for n in range(1, 40):
                    assert (pow(a, n, p) == 1) == (n % ell == 0)
