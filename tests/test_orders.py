import math
import tracemalloc

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


class TestSequenceSpec:
    def test_rejects_small_base(self):
        with pytest.raises(ValueError):
            SequenceSpec(1)


class TestMultiplicativeOrder:
    def test_examples(self):
        assert order_record(SequenceSpec(5), 3)[0] == 2
        assert order_record(SequenceSpec(2), 7)[0] == 3
        assert order_record(SequenceSpec(4), 3)[0] == 1

    def test_rejects_p_dividing_base(self):
        with pytest.raises(ValueError):
            order_record(SequenceSpec(6), 3)

    def test_matches_enumeration(self):
        for a in (2, 3, 5, 10):
            seq = SequenceSpec(a)
            for p in sieve_primes(100):
                if a % p == 0:
                    continue
                ell, _ = order_record(seq, p)
                assert ell == order_by_enumeration(a, p)

    def test_minimality_and_divides_p_minus_1(self):
        for a in (2, 3, 7):
            seq = SequenceSpec(a)
            for p in sieve_primes(60):
                if a % p == 0:
                    continue
                ell, _ = order_record(seq, p)
                assert (p - 1) % ell == 0
                for d in range(1, ell):
                    if ell % d == 0:
                        assert pow(a, d, p) != 1


class TestInitialValuation:
    def test_examples(self):
        assert order_record(SequenceSpec(2), 3)[1] == 1
        assert order_record(SequenceSpec(3), 11)[1] == 2
        assert order_record(SequenceSpec(2), 7)[1] == 1

    def test_against_bigint(self):
        for a in (2, 3, 5, 7):
            seq = SequenceSpec(a)
            for p in sieve_primes(50):
                if a % p == 0:
                    continue
                ell = order_by_enumeration(a, p)
                _, o = order_record(seq, p)
                assert o == valuation(a**ell - 1, p)

    @pytest.mark.parametrize("a, expected", [
        (2, {1093: 2, 3511: 2}),
        (3, {11: 2}),
        (5, {2: 2, 20771: 2, 40487: 2}),
        (7, {5: 2}),
        (10, {3: 2, 487: 2}),
        (28, {3: 3, 19: 2, 23: 2}),
    ])
    def test_o_above_1_only_at_the_wieferich_primes(self, a, expected):
        # o_p = v_p(a^(p-1) - 1), so o_p >= 2 just where a^(p-1) = 1 mod
        # p^2; these are all such p <= 5 * 10^4 for these bases
        seq = SequenceSpec(a)
        records = {}
        for p, o in expected.items():
            ell = order_by_enumeration(a, p)
            assert valuation(a**ell - 1, p) == o
            records[p] = (ell, o)
            assert order_record(seq, p) == (ell, o)
        got = {p: (ell, o) for p, ell, o in order_records(seq, 5 * 10**4) if o > 1}
        assert got == records

    @pytest.mark.parametrize("p", [2, 3, 5, 17, 257, 65537, 12289, 40961, 786433])
    def test_two_adic_edges(self, p):
        # the Fermat primes have an odd part m = 1 of p - 1; 12289, 40961
        # and 786433 have v_2(p - 1) = 12, 13 and 18.  Both routes are
        # checked: p's record, the last order_records yields up to p, and
        # the single-prime record.
        divisors = sorted({d for k in range(1, math.isqrt(p - 1) + 1) if (p - 1) % k == 0
                           for d in (k, (p - 1) // k)})
        for a in (2, 3, 5, 6, 7, 10):
            if a % p == 0:
                continue
            ell = next(d for d in divisors if pow(a, d, p) == 1)
            o = 1
            while pow(a, ell, p ** (o + 1)) == 1:
                o += 1
            seq = SequenceSpec(a)
            *_, last = order_records(seq, p)
            assert last == (p, ell, o)
            assert order_record(seq, p) == (ell, o)


class TestOrderRecord:
    def test_invariants(self):
        for a in (2, 3, 12):
            seq = SequenceSpec(a)
            for p in sieve_primes(100):
                if a % p == 0:
                    continue
                ell, o = order_record(seq, p)
                assert pow(a, ell, p) == 1
                assert (p - 1) % ell == 0
                m = a**ell - 1
                assert m % p**o == 0
                assert m % p ** (o + 1) != 0

    def test_size_bound(self):
        # p^o divides a^ell - 1 < a^ell, so o*ln p < ell*ln a
        for a in (2, 3, 10):
            seq = SequenceSpec(a)
            for p in sieve_primes(200):
                if a % p == 0:
                    continue
                ell, o = order_record(seq, p)
                assert o * math.log(p) <= ell * math.log(a)

    def test_order_records_match_order_record(self):
        # the one-pass stream against one record per prime from p - 1
        for a in (2, 3, 6, 10, 12):
            seq = SequenceSpec(a)
            got = [(p, *order_record(seq, p)) for p in sieve_primes(300) if a % p != 0]
            assert list(order_records(seq, 300)) == got
        assert list(order_records(SequenceSpec(2), 1)) == []

    @pytest.mark.parametrize("p", [-3, 0, 1, 4, 91, 3, arith.SIEVE_MAX + 7])
    def test_rejects_what_has_no_record(self, p):
        # p <= 1, composite, dividing the base 6, above the sieve limit
        with pytest.raises(ValueError):
            order_record(SequenceSpec(6), p)


class TestOrderRecordsBatch:
    @given(
        a=st.integers(min_value=2, max_value=40),
        y=st.integers(min_value=0, max_value=3000),
    )
    @example(a=6, y=3000)
    @example(a=10, y=3000)
    @example(a=12, y=3000)
    @example(a=30, y=3000)
    @example(a=28, y=3000)  # o_3 = 3, o_19 = o_23 = 2
    @settings(max_examples=30)
    def test_both_routes_against_enumeration(self, a, y):
        # the one-pass stream and the per-prime records from p - 1, each
        # against the order by enumeration and the valuation of a^ell - 1
        seq = SequenceSpec(a)
        expected = []
        for p in sieve_primes(y):
            if a % p != 0:
                ell = order_by_enumeration(a, p)
                expected.append((p, ell, valuation(a**ell - 1, p)))
        assert list(order_records(seq, y)) == expected
        assert [(p, *order_record(seq, p)) for p, _, _ in expected] == expected

    def test_o_above_32_bits_is_yielded_as_it_is(self, monkeypatch):
        # the first lift, which the pass takes only for an o >= 2 (base
        # 2's prime 1093), returns an o past 32 bits; no column caps it
        calls = []
        monkeypatch.setattr(orders, "_lift", lambda *args: calls.append(args) or 2**32)
        records = {p: (ell, o) for p, ell, o in order_records(SequenceSpec(2), 1100)}
        assert records[1093] == (364, 2**32)
        assert calls == [(2, 364, 1093)]

    def test_failed_build_keeps_nothing(self, monkeypatch):
        # The interruption comes at the 100th power the pass takes, since
        # every prime takes one.  No state outlives the failed call: the
        # next one, with the fault gone, equals the oracle.
        a = 7
        seq = SequenceSpec(a)
        calls = 0

        def faulty(*args):
            nonlocal calls
            calls += 1
            if calls < 100:
                return pow(*args)
            raise RuntimeError("interrupted")

        monkeypatch.setattr(orders, "pow", faulty, raising=False)
        with pytest.raises(RuntimeError):
            list(order_records(seq, 10**4))
        assert calls == 100
        monkeypatch.undo()
        got = list(order_records(seq, 2000))
        expected = []
        for p in sieve_primes(2000):
            if a % p != 0:
                ell = order_by_enumeration(a, p)
                expected.append((p, ell, valuation(a**ell - 1, p)))
        assert got == expected

    def test_records_refuse_y_above_the_sieve(self, monkeypatch):
        # refused on the first next(), before any sieve or
        # smallest-prime-factor array is built
        def refused(limit):
            raise AssertionError(f"smallest_prime_factors({limit}) called")

        monkeypatch.setattr(orders, "smallest_prime_factors", refused)
        monkeypatch.setattr(arith, "_sieve", arith._marked_sieve(1000))
        records = order_records(SequenceSpec(3), arith.SIEVE_MAX + 1)
        with pytest.raises(ValueError, match="SIEVE_MAX"):
            next(records)
        assert arith._sieve.limit < 10**6

    def test_stream_stores_no_record(self):
        # Deterministic: tracemalloc counts the bytes the stream holds
        # once its sieve and smallest-prime-factor array exist, that is,
        # after the first record.  Consuming the other 2,260 records adds
        # less than 4 KiB, where even 4 bytes a record would add 9 KiB.
        # Tracing slows the build some 35-fold, hence y = 2 * 10^4, not
        # the 2 * 10^5 the benchmark's table workload reaches.
        y = 2 * 10**4
        records = order_records(SequenceSpec(5), y)
        tracemalloc.start()
        try:
            next(records)
            before = tracemalloc.get_traced_memory()[0]
            rest = sum(1 for _ in records)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert 1 + rest == len(sieve_primes(y)) - 1
        assert grown < 4096

    def test_batch_build_skips_prime_test_and_factoring(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("is_prime", "factorize"):
            for module in (arith, orders):  # orders binds both for its single records
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        seq = SequenceSpec(7)
        assert sum(1 for _ in order_records(seq, 5000)) == len(sieve_primes(5000)) - 1
        assert calls == []

    def test_cold_lookup_works_from_p_minus_1(self, monkeypatch):
        # a single record factors p - 1 by trial division up to its
        # square root; it runs no order_records pass and no sieve up to p
        def refused(limit):
            raise AssertionError(f"smallest_prime_factors({limit}) called")

        monkeypatch.setattr(orders, "smallest_prime_factors", refused)
        monkeypatch.setattr(arith, "_sieve", arith._marked_sieve(1000))
        seq = SequenceSpec(2)
        assert order_record(seq, 99999989) == (99999988, 1)
        assert order_record(seq, 3511) == (1755, 2)
        assert arith._sieve.limit < 10**6


class TestTermValuations:
    def test_direct_examples(self):
        assert term_valuation_direct(SequenceSpec(2), 6, 3) == 2
        assert term_valuation_direct(SequenceSpec(2), 5, 3) == 0
        assert term_valuation_direct(SequenceSpec(6), 4, 3) == 0

    def test_lte_examples(self):
        assert term_valuation_lte(SequenceSpec(2), 6, 3) == 2
        assert term_valuation_lte(SequenceSpec(3), 4, 2) == 4
        assert term_valuation_lte(SequenceSpec(3), 5, 2) == 1

    @pytest.mark.parametrize("p", [1, 9, 91])
    def test_both_routes_reject_a_non_prime_p(self, p):
        # 1 divides the base 10, 9 and 91 are composites coprime to it
        for route in (term_valuation_direct, term_valuation_lte):
            with pytest.raises(ValueError, match="not prime"):
                route(SequenceSpec(10), 1, p)

    def test_lte_tests_p_once_and_rejects_p_above_the_sieve(self, monkeypatch):
        calls = []
        is_prime = orders.is_prime
        monkeypatch.setattr(orders, "is_prime", lambda m: calls.append(m) or is_prime(m))
        # base 2's Wieferich prime 1093: o = 2, plus v_1093(n) = 1
        assert term_valuation_lte(SequenceSpec(2), 364 * 1093, 1093) == 3
        assert calls == [1093]
        assert arith.is_prime(arith.SIEVE_MAX + 7)
        with pytest.raises(ValueError, match="SIEVE_MAX"):
            term_valuation_lte(SequenceSpec(2), 1, arith.SIEVE_MAX + 7)

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
                ell, _ = order_record(seq, p)
                for n in range(1, 40):
                    assert (pow(a, n, p) == 1) == (n % ell == 0)
