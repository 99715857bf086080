"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time
from fractions import Fraction

import mpmath
import pytest
from click.testing import CliRunner

from smoothlab.abc_triples import abc_quality
from smoothlab.arith import factorize, primes_upto, smooth_part_oracle, valuation
from smoothlab.binomial import binomial_membership, binomial_valuation
from smoothlab.bounds import default_y, density_bound, stewart_bound
from smoothlab.cli import main
from smoothlab.orders import SequenceSpec, term_valuation_direct, term_valuation_lte
from smoothlab.smooth import (
    CutoffSpec,
    counting_report,
    enumerate_members,
    membership,
    smooth_part_of_term,
)
from smoothlab.windows import prime_window_valuation_sum, window_product


def report(name):
    print(f"\nACCEPTANCE {name}: PASS")


def test_01_valuation_triple_equality():
    primes = primes_upto(500)
    for a in (2, 3, 5, 6, 7, 10, 11, 12):
        seq = SequenceSpec(a)
        power = a  # a^n tracked incrementally
        for n in range(1, 301):
            m = power - 1
            for p in primes:
                if a % p == 0:
                    continue
                big = valuation(m, p) if m > 1 else 0
                assert term_valuation_direct(seq, n, p) == big, (a, n, p)
                assert term_valuation_lte(seq, n, p) == big, (a, n, p)
            power *= a
    report("1 (valuation triple-equality)")


def test_02_smooth_part_oracle_equivalence():
    for a in (2, 3, 10):
        seq = SequenceSpec(a)
        for n in range(1, 41):
            m = a**n - 1
            for y in (10, 100, 1000):
                got = smooth_part_of_term(seq, n, y)
                want_value, want_factors = smooth_part_oracle(m, y)
                assert got.value() == want_value, (a, n, y)
                assert got == want_factors, (a, n, y)
    report("2 (smooth-part oracle equivalence)")


def test_03_window_valuation_identity():
    for a in (2, 3, 7):
        seq = SequenceSpec(a)
        for p in primes_upto(100):
            if p == 2 or a % p == 0:
                continue
            for N in (10, 100, 1000):
                direct, formula = prime_window_valuation_sum(seq, p, N)
                assert direct == formula, (a, p, N)
    report("3 (window valuation-sum exact identity)")


def test_04_counting_bound():
    for a in (2, 3):
        seq = SequenceSpec(a)
        for K in (Fraction(1), Fraction(2), Fraction(7, 2)):
            for n in range(1, 2001):
                rep = counting_report(seq, K, n)
                assert rep.bound_holds, (a, K, n)
    report("4 (divisor counting bound)")


def test_05_exchange_identity():
    for a in (2, 3):
        seq = SequenceSpec(a)
        for N in (16, 128, 1024):
            rep = window_product(seq, 1, N)
            scale = max(1.0, abs(rep.log_Q))
            assert rep.agreement_delta <= 1e-9 * scale, (a, N)
    report("5 (exchange identity for the windowed product)")


def test_06_enumeration_ground_truth():
    got = enumerate_members(SequenceSpec(2), CutoffSpec.linear(1), Fraction(6, 5), 10)
    # independent oracle: fully factor 2^n - 1 and take the smooth part
    want = []
    for n in range(1, 11):
        s = 1
        for p, e in factorize(2**n - 1):
            if p <= n:
                s *= p**e
        if s * 5**n > 6**n:
            want.append(n)
    assert want == [4, 6, 8, 9]
    assert got == want
    report("6 (enumeration ground truth)")


def test_07_abc_probe():
    with mpmath.workdps(50):
        want = float(mpmath.log(64) / mpmath.log(42))
    rep = abc_quality(SequenceSpec(2), 6, 1, Fraction(6, 5))
    assert abs(rep.quality - want) < 1e-6
    for a in (2, 3):
        seq = SequenceSpec(a)
        c = Fraction(2 * a - 1, a)
        for n in range(1, 41):
            r = abc_quality(seq, n, 1, c)
            assert r.A + r.B == r.C
            assert r.s_value * r.t_value == r.A
    report("7 (abc probe)")


def test_08_binomial_baseline():
    for n in range(1, 2001):
        rep = binomial_membership(n)
        assert rep.reconstruction_ok, n
        if n == 1:
            assert rep.smooth_part == 2 and not rep.member  # non-strict boundary
        else:
            assert rep.member, n
    report("8 (binomial baseline)")


def test_09_bound_functions_vs_oracle():
    def grid(lo, hi):
        return sorted({int(round(lo * (hi / lo) ** (i / 19))) for i in range(20)})

    with mpmath.workdps(50):
        for N in grid(3, 10**9):
            want = mpmath.exp(mpmath.log(N) / (156 * mpmath.log(mpmath.log(N))))
            assert abs(default_y(N) - want) / want < 1e-12, N
            want = N * mpmath.exp(-mpmath.log(N) / (156 * mpmath.log(mpmath.log(N))))
            assert abs(density_bound(N) - want) / want < 1e-12, N
        for p in grid(17, 10**9):
            want = p * mpmath.exp(
                -mpmath.log(p) / (mpmath.mpf("51.9") * mpmath.log(mpmath.log(p)))
            )
            assert abs(stewart_bound(p) - want) / want < 1e-12, p
    report("9 (bound functions vs 50-digit oracle)")


def test_10_performance_and_thread_determinism():
    start = time.monotonic()
    v = membership(SequenceSpec(2), 10**6, CutoffSpec.linear(1), 2)
    elapsed = time.monotonic() - start
    assert elapsed <= 10.0, f"membership at n=10^6 took {elapsed:.1f}s"
    assert not v.member  # log_s is nowhere near 10^6 * ln 2

    runner = CliRunner()
    args = ["enumerate", "--base", "2", "--K", "1", "--c", "6/5", "--N", "200"]
    one = runner.invoke(main, args + ["--threads", "1"])
    eight = runner.invoke(main, args + ["--threads", "8"])
    assert one.exit_code == 0 and eight.exit_code == 0
    assert one.output == eight.output
    report(f"10 (performance: {elapsed:.2f}s; threaded output identical)")


def test_11_observational_density_table():
    runner = CliRunner()
    args = ["bounds", "--N", "10000", "--check-base", "2", "--K", "1",
            "--check-c", "1.01", "--format", "csv"]
    start = time.monotonic()
    first = runner.invoke(main, args + ["--threads", "1"])
    second = runner.invoke(main, args + ["--threads", "8"])
    elapsed = time.monotonic() - start
    assert first.exit_code == 0 and second.exit_code == 0
    assert first.output == second.output  # byte-for-byte reproducible
    assert elapsed < 600
    lines = first.output.strip().splitlines()
    assert len(lines) == 1 + 1 + math.ceil(math.log2(10000))  # header, summary, windows
    report(f"11 (observational density table in {elapsed:.0f}s)")
