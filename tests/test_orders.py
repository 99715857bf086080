import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothlab import arith, orders
from smoothlab.arith import sieve_primes, valuation
from smoothlab.orders import (
    SequenceSpec,
    order_record,
    order_records,
    term_valuation_direct,
    term_valuation_lte,
)

from oracles import order_by_enumeration


@pytest.fixture
def empty_memo():
    """Order records built one prime at a time, through factorize."""
    with mock.patch.dict(orders._record_cache, clear=True):
        yield


class TestSequenceSpec:
    def test_rejects_small_base(self):
        with pytest.raises(ValueError):
            SequenceSpec(1)


@pytest.mark.usefixtures("empty_memo")
class TestMultiplicativeOrder:
    def test_examples(self):
        assert order_record(SequenceSpec(5), 3).ell == 2
        assert order_record(SequenceSpec(2), 7).ell == 3
        assert order_record(SequenceSpec(4), 3).ell == 1

    def test_rejects_p_dividing_base(self):
        with pytest.raises(ValueError):
            order_record(SequenceSpec(6), 3)

    def test_matches_enumeration(self):
        for a in (2, 3, 5, 10):
            seq = SequenceSpec(a)
            for p in sieve_primes(100):
                if a % p == 0:
                    continue
                assert order_record(seq, p).ell == order_by_enumeration(a, p)

    def test_minimality_and_divides_p_minus_1(self):
        for a in (2, 3, 7):
            seq = SequenceSpec(a)
            for p in sieve_primes(60):
                if a % p == 0:
                    continue
                ell = order_record(seq, p).ell
                assert (p - 1) % ell == 0
                for d in range(1, ell):
                    if ell % d == 0:
                        assert pow(a, d, p) != 1


@pytest.mark.usefixtures("empty_memo")
class TestInitialValuation:
    def test_examples(self):
        assert order_record(SequenceSpec(2), 3).o == 1
        assert order_record(SequenceSpec(3), 11).o == 2
        assert order_record(SequenceSpec(2), 7).o == 1

    def test_against_bigint(self):
        for a in (2, 3, 5, 7):
            seq = SequenceSpec(a)
            for p in sieve_primes(50):
                if a % p == 0:
                    continue
                ell = order_by_enumeration(a, p)
                assert order_record(seq, p).o == valuation(a**ell - 1, p)


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
        # the batch from one emptied memo, order_record prime by prime
        # (factoring each p - 1) from another
        for a in (2, 3, 6, 10, 12):
            seq = SequenceSpec(a)
            with mock.patch.dict(orders._record_cache, clear=True):
                got = order_records(seq, 300)
            with mock.patch.dict(orders._record_cache, clear=True):
                expected = [order_record(seq, p) for p in sieve_primes(300) if a % p != 0]
            assert got == expected
        assert order_records(SequenceSpec(2), 1) == []


class TestOrderRecordsBatch:
    @given(
        a=st.integers(min_value=2, max_value=40),
        y=st.integers(min_value=0, max_value=3000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(a=6, y=3000, seed=0)
    @example(a=10, y=3000, seed=1)
    @example(a=12, y=3000, seed=2)
    @example(a=30, y=3000, seed=3)
    @settings(max_examples=30)
    def test_against_enumeration_from_mixed_memo(self, a, y, seed):
        # A random share of the records is memoized one at a time first,
        # so the batch pass fills the gaps between single-prime records.
        seq = SequenceSpec(a)
        primes = [p for p in sieve_primes(y) if a % p != 0]
        expected = []
        for p in primes:
            ell = order_by_enumeration(a, p)
            expected.append((p, ell, valuation(a**ell - 1, p)))
        rng = random.Random(seed)
        share = rng.random()
        with mock.patch.dict(orders._record_cache, clear=True):
            for p in primes:
                if rng.random() < share:
                    order_record(seq, p)
            assert [(r.p, r.ell, r.o) for r in order_records(seq, y)] == expected

    def test_batch_build_skips_prime_test_and_factoring(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for mod in (arith, orders):
            for name in ("is_prime", "factorize"):
                monkeypatch.setattr(mod, name, counted(name, getattr(arith, name)))
        monkeypatch.setattr(orders, "_record_cache", {})
        seq = SequenceSpec(7)
        assert len(order_records(seq, 5000)) == len(sieve_primes(5000)) - 1
        assert calls == []
        # the single-prime path still checks p and factors p - 1
        order_record(seq, 5003)
        assert "is_prime" in calls and "factorize" in calls


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
                ell = order_record(seq, p).ell
                for n in range(1, 40):
                    assert (pow(a, n, p) == 1) == (n % ell == 0)
