import math
import os
import random
import subprocess
import sys
from bisect import bisect_right
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothlab import arith
from smoothlab.arith import (
    SIEVE_MAX,
    Factorization,
    _marked_sieve,
    factorize,
    is_prime,
    radical,
    sieve_primes,
    smallest_prime_factors,
    smooth_part_oracle,
    valuation,
)
from smoothlab.smooth import _divisors_upto


PRIMES_TO_10_5 = sieve_primes(10**5)

# Limits at the edges of the mark's count blocks and of its table of
# small counts, and the smallest ones.
SIEVE_EDGES = sorted({0, 1, 2, 3} | {base + e for base in (128, 256, 384, 99968, arith._LOW_PI)
                                     for e in (-2, -1, 0, 1)})

SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(Path(__file__).resolve().parent.parent / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}


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

    def test_every_limit_to_3000_against_trial_division(self):
        expected = [n for n in range(2, 3001) if trial_division_is_prime(n)]
        for limit in range(3001):
            assert sieve_primes(limit) == expected[: bisect_right(expected, limit)]

    def test_shared_triple_reads_odd_positions_only(self, monkeypatch):
        # the prime list is 2 and then the odd positions of the mark, so
        # the edges sit at small limits and at both parities of the limit
        for limit in [*range(201), *range(10**5 - 3, 10**5 + 4)]:
            monkeypatch.setattr(arith, "_sieve", _marked_sieve(limit))
            sieve = arith._shared_sieve(limit, limit)
            assert sieve.limit == sieve.listed == limit and len(sieve.mark) == limit + 1
            assert sieve.primes == [m for m in range(limit + 1) if is_prime(m)], limit
            assert sieve.count(limit) == len(sieve.primes)

    def test_primes_upto_hands_out_a_copy(self, monkeypatch):
        # a caller that changes its list changes no later answer; the
        # fresh shared sieve keeps a corruption from reaching other tests
        monkeypatch.setattr(arith, "_sieve", _marked_sieve(1000))
        arith.primes_upto(5000).reverse()
        assert dict(factorize(91)) == {7: 1, 13: 1}
        assert arith.primes_upto(20) == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_rejects_limit_above_sieve_max_before_allocating(self, monkeypatch):
        def no_sieve(limit):
            raise AssertionError("sieved before the limit check")

        monkeypatch.setattr(arith, "_sieve_mark", no_sieve)
        with pytest.raises(ValueError, match="SIEVE_MAX"):
            sieve_primes(SIEVE_MAX + 1)

    def test_progression_checks_the_cutoff_only_when_the_sieve_grows(self, monkeypatch):
        # the sieve stops at SIEVE_MAX, so a limit it covers needs no
        # check, and every limit above SIEVE_MAX is one it does not cover
        checked = []
        check = arith._check_cutoff
        monkeypatch.setattr(arith, "_check_cutoff", lambda limit: checked.append(limit) or check(limit))
        monkeypatch.setattr(arith, "_sieve", _marked_sieve(1000))
        assert list(arith._progression(12, 100)) == [13, 37, 61, 73, 97]
        assert len(list(arith._progression(1, 1000))) == 168
        assert checked == []
        assert len(list(arith._progression(1, 3000))) == 430  # grows the sieve
        assert checked == [3000]

        def no_sieve(limit):
            raise AssertionError("sieved before the limit check")

        monkeypatch.setattr(arith, "_sieve_mark", no_sieve)
        with pytest.raises(ValueError, match="SIEVE_MAX"):
            arith._progression(2, SIEVE_MAX + 1)
        assert checked == [3000, SIEVE_MAX + 1]

    @given(
        start=st.integers(min_value=0, max_value=2000),
        steps=st.lists(st.tuples(
            st.sampled_from(["mark", "count", "walk", "upto"]),
            st.one_of(st.integers(min_value=0, max_value=10**5),
                      st.sampled_from(SIEVE_EDGES)),
            st.integers(min_value=2, max_value=60),
        ), min_size=1, max_size=6),
    )
    @example(start=0, steps=[("walk", 0, 2), ("walk", 1, 2), ("walk", 2, 2), ("count", 2, 2)])
    @example(start=1000, steps=[("mark", 10**5, 6), ("count", 10**5, 2), ("walk", 255, 2),
                                ("upto", 257, 2), ("walk", 10**5, 2)])
    @example(start=127, steps=[("count", 127, 2), ("count", 128, 2), ("walk", 129, 2),
                               ("upto", 383, 2), ("mark", 384, 3)])
    @settings(max_examples=80, deadline=None)
    def test_shared_sieve_in_any_growth_order(self, start, steps):
        # the mark grown by a progression reader, by a count or by a walk,
        # in any order, and the list grown by walks only: every count,
        # progression and copy matches a fresh sieve
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(arith, "_sieve", _marked_sieve(start))
            for kind, L, t in steps:
                before = arith._sieve.listed
                want = PRIMES_TO_10_5[: bisect_right(PRIMES_TO_10_5, L)]
                if kind == "mark":
                    assert list(arith._progression(t, L)) == [p for p in want if p % t == 1]
                elif kind == "count":
                    assert arith._shared_sieve(L).count(L) == len(want)
                elif kind == "walk":
                    assert list(arith._progression(1, L)) == want
                else:
                    assert arith.primes_upto(L) == want
                sieve = arith._sieve
                assert sieve.listed <= sieve.limit and len(sieve.mark) == sieve.limit + 1
                assert sieve.primes == sieve_primes(sieve.listed)
                if kind in ("mark", "count"):
                    assert sieve.listed == before  # only a walk lists primes

    def test_single_term_lists_no_prime_past_its_walk(self):
        # a prime n = 999983 sieves its mark to Y = n but walks only the
        # primes up to isqrt(n) to find its divisors, so the shared list
        # stops far below the 78,498 primes up to 10^6
        code = (
            "from smoothlab import arith\n"
            "from smoothlab.cli import main\n"
            "main(['membership', '--base', '2', '--n', '999983', '--K', '1', '--c', '1.01'],"
            " standalone_mode=False)\n"
            "print(arith._sieve.limit, arith._sieve.listed, len(arith._sieve.primes))\n"
        )
        result = subprocess.run([sys.executable, "-c", code], env=SRC_ENV,
                                capture_output=True, text=True, check=True)
        limit, listed, primes = map(int, result.stdout.splitlines()[-1].split())
        assert limit >= 999983
        assert listed <= 2000 and primes < 400


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


# Least strong pseudoprimes to the first 12 and the first 13 prime bases
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


class TestIsPrime:
    def test_small_numbers(self):
        # every witness, 41 included, is itself prime
        assert [n for n in range(-2, 300) if is_prime(n)] == sieve_primes(299)

    @pytest.mark.parametrize("n", [PSI_12, PSI_13])
    def test_strong_pseudoprimes_to_every_witness_below(self, n):
        assert not is_prime(n)

    def test_agrees_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(20261018)
        sample = [rng.randrange(2**64, 2**200) | 1 for _ in range(400)]
        for _ in range(100):
            p, q = (sympy.nextprime(rng.getrandbits(rng.randint(40, 90))) for _ in range(2))
            sample += [p, p * q]
        # Chernick's Carmichael numbers (6k + 1)(12k + 1)(18k + 1)
        for k in range(1, 20000):
            factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
            if all(sympy.isprime(f) for f in factors):
                sample.append(math.prod(factors))
        sample += [2**89 - 1, 2**127 - 1, (2**127 - 1) ** 2]
        for n in sample:
            assert is_prime(n) == sympy.isprime(n), n


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

    def test_splits_a_strong_pseudoprime(self):
        assert dict(factorize(PSI_12)) == {399165290221: 1, 798330580441: 1}

    def test_rho_splits_semiprime_past_trial_range(self):
        f = factorize(1000003 * 1000033)
        assert dict(f) == {1000003: 1, 1000033: 1}

    def test_invalid_entries_rejected(self):
        with pytest.raises(ValueError):
            Factorization(((3, 1), (2, 1)))
        with pytest.raises(ValueError):
            Factorization(((2, 0),))


class TestDivisors:
    def test_brute_force(self):
        # the walk over n's primes that factor_term and counting_report
        # take, whole and below a cutoff
        for n in range(1, 2001):
            entries = factorize(n).entries
            want = [d for d in range(1, n + 1) if n % d == 0]
            assert sorted(_divisors_upto(entries, n)) == want
            for y in {1, math.isqrt(n), n // 3, n - 1} - {0}:
                assert sorted(_divisors_upto(entries, y)) == [d for d in want if d <= y], (n, y)


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

