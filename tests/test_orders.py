import math
import random
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothlab import arith, orders
from smoothlab.arith import sieve_primes, valuation
from smoothlab.orders import (
    SequenceSpec,
    order_columns,
    order_record,
    term_valuation_direct,
    term_valuation_lte,
)

from oracles import order_by_enumeration


@pytest.fixture
def empty_memo():
    """Empty order tables, so each lookup grows its base's table."""
    with mock.patch.dict(orders._tables, clear=True):
        yield


class TestSequenceSpec:
    def test_rejects_small_base(self):
        with pytest.raises(ValueError):
            SequenceSpec(1)


@pytest.mark.usefixtures("empty_memo")
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


@pytest.mark.usefixtures("empty_memo")
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
        with mock.patch.dict(orders._tables, clear=True):
            columns = order_columns(seq, 5 * 10**4)
        assert {p: (ell, o) for p, ell, o in zip(*columns) if o > 1} == records

    @pytest.mark.parametrize("p", [2, 3, 5, 17, 257, 65537, 12289, 40961, 786433])
    def test_two_adic_edges(self, p):
        # the Fermat primes have an odd part m = 1 of p - 1; 12289, 40961
        # and 786433 have v_2(p - 1) = 12, 13 and 18.  A table that stops
        # at p - 1 grows by p alone.
        divisors = sorted({d for k in range(1, math.isqrt(p - 1) + 1) if (p - 1) % k == 0
                           for d in (k, (p - 1) // k)})
        for a in (2, 3, 5, 6, 7, 10):
            if a % p == 0:
                continue
            ell = next(d for d in divisors if pow(a, d, p) == 1)
            o = 1
            while pow(a, ell, p ** (o + 1)) == 1:
                o += 1
            seeded = {a: (p - 1, array("I"), array("I"), array("I"))}
            with mock.patch.dict(orders._tables, seeded):
                assert list(zip(*order_columns(SequenceSpec(a), p))) == [(p, ell, o)]


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

    def test_order_columns_match_order_record(self):
        # a table grown one prime at a time through order_record against
        # a one-shot order_columns from another empty table
        for a in (2, 3, 6, 10, 12):
            seq = SequenceSpec(a)
            with mock.patch.dict(orders._tables, clear=True):
                got = [(p, *order_record(seq, p)) for p in sieve_primes(300) if a % p != 0]
            with mock.patch.dict(orders._tables, clear=True):
                assert list(zip(*order_columns(seq, 300))) == got
        assert list(zip(*order_columns(SequenceSpec(2), 1))) == []

    @pytest.mark.parametrize("p", [-3, 0, 1, 4, 91, 3, arith.SIEVE_MAX + 7])
    def test_rejects_what_has_no_record(self, p):
        # p <= 1, composite, dividing the base 6, above the sieve limit
        with pytest.raises(ValueError):
            order_record(SequenceSpec(6), p)


class TestOrderRecordsBatch:
    @given(
        a=st.integers(min_value=2, max_value=40),
        y=st.integers(min_value=0, max_value=3000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        one_prime_at_a_time=st.booleans(),
    )
    @example(a=6, y=3000, seed=0, one_prime_at_a_time=False)
    @example(a=10, y=3000, seed=1, one_prime_at_a_time=False)
    @example(a=12, y=3000, seed=2, one_prime_at_a_time=True)
    @example(a=30, y=3000, seed=3, one_prime_at_a_time=True)
    @example(a=28, y=3000, seed=4, one_prime_at_a_time=False)  # o_3 = 3, o_19 = o_23 = 2
    @settings(max_examples=30)
    def test_against_enumeration_from_grown_table(self, a, y, seed, one_prime_at_a_time):
        # The table grows either in random cutoff steps (a share of them
        # on primes, which end a step on its last record) or one prime
        # at a time; it must equal a one-shot build and the oracle.
        seq = SequenceSpec(a)
        primes = [p for p in sieve_primes(y) if a % p != 0]
        expected = []
        for p in primes:
            ell = order_by_enumeration(a, p)
            expected.append((p, ell, valuation(a**ell - 1, p)))
        rng = random.Random(seed)
        with mock.patch.dict(orders._tables, clear=True):
            if one_prime_at_a_time:
                for p in primes:
                    order_record(seq, p)
            else:
                steps = sorted(rng.choice([rng.randint(0, y), rng.choice(primes or [0])])
                               for _ in range(rng.randint(1, 8)))
                for step in steps:
                    order_columns(seq, step)
            grown = list(zip(*order_columns(seq, y)))
        with mock.patch.dict(orders._tables, clear=True):
            assert list(zip(*order_columns(seq, y))) == grown
        assert grown == expected

    def test_ascending_lookups_grow_the_table_geometrically(self, monkeypatch):
        builds = []

        def counted(limit):
            builds.append(limit)
            return arith.smallest_prime_factors(limit)

        monkeypatch.setattr(orders, "smallest_prime_factors", counted)
        monkeypatch.setattr(orders, "_tables", {})
        seq = SequenceSpec(3)
        got = [(p, *order_record(seq, p)) for p in sieve_primes(4 * 10**4) if p != 3]
        assert len(builds) <= 20
        assert got == list(zip(*order_columns(seq, 4 * 10**4)))

    def test_batch_read_grows_the_table_to_exactly_y(self, monkeypatch):
        # a batch read names every prime it needs, so its growth stops at
        # y: doubling from 999983 would build 1999966 to cover 17 more
        monkeypatch.setattr(orders, "_tables", {})
        seq = SequenceSpec(5)
        order_record(seq, 999983)
        grown = order_columns(seq, 10**6)
        assert orders._tables[5][0] == 10**6
        monkeypatch.setattr(orders, "_tables", {})
        assert grown == order_columns(seq, 10**6)

    @pytest.mark.parametrize("fault, raised", [
        (RuntimeError("interrupted"), RuntimeError),  # a pass stopped part way
        (2**32, ValueError),  # an o too large for the o column
    ])
    def test_failed_growth_leaves_the_table_as_it_was(self, monkeypatch, fault, raised):
        # The interruption comes at the 100th power the pass takes, since
        # every prime takes one; the oversized o at the first lift, which
        # the pass takes only for an o >= 2, at base 2's prime 1093.
        if isinstance(fault, Exception):
            a, name, real, at = 7, "pow", pow, 100
        else:
            a, name, real, at = 2, "_lift", orders._lift, 1
        monkeypatch.setattr(orders, "_tables", {})
        seq = SequenceSpec(a)
        order_columns(seq, 1000)
        before = orders._tables[a]
        columns = [list(c) for c in before[1:]]
        calls = 0

        def faulty(*args):
            nonlocal calls
            calls += 1
            if calls < at:
                return real(*args)
            if isinstance(fault, Exception):
                raise fault
            return fault

        monkeypatch.setattr(orders, name, faulty, raising=False)
        with pytest.raises(raised):
            order_columns(seq, 10**4)
        assert calls == at
        assert orders._tables[a] is before
        assert [list(c) for c in before[1:]] == columns
        ps, ells, os = columns
        assert len(ps) == len(ells) == len(os)
        assert ps == sorted(set(ps))
        monkeypatch.setattr(orders, name, real)
        grown = list(zip(*order_columns(seq, 10**4)))
        with mock.patch.dict(orders._tables, clear=True):
            assert list(zip(*order_columns(seq, 10**4))) == grown

    def test_table_keeps_under_16_bytes_per_record(self, monkeypatch):
        # Deterministic: tracemalloc counts the bytes the table retains,
        # with the shared sieve built beforehand.  Three array("I")
        # columns take 12 bytes a record; a frozen dataclass object per
        # record would take about 96.  Tracing slows the build some
        # 35-fold, hence y = 2 * 10^4, not the 2 * 10^5 the benchmark's
        # table workload reaches.
        y = 2 * 10**4
        arith.primes_upto(y)
        monkeypatch.setattr(orders, "_tables", {})
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            order_columns(SequenceSpec(5), y)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        records = len(orders._tables[5][1])
        assert records == len(sieve_primes(y)) - 1
        assert retained < 16 * records

    def test_batch_build_skips_prime_test_and_factoring(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("is_prime", "factorize"):
            for module in (arith, orders):  # orders binds is_prime for its valuations
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        monkeypatch.setattr(orders, "_tables", {})
        seq = SequenceSpec(7)
        assert len(order_columns(seq, 5000)[0]) == len(sieve_primes(5000)) - 1
        # a lookup past the table grows it the same way
        order_record(seq, 5003)
        assert order_columns(seq, 5003)[0][-1] == 5003
        assert calls == []


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
