"""Slow, independent reference routes the tests compare the library with.

Each one works on the definition alone: modular arithmetic, or one
factorize call on the whole number, never the order records, their
tables or the cyclotomic split.
"""

import math

from smoothlab.arith import Factorization, factorize, primes_upto, sieve_primes, valuation
from smoothlab.smooth import CutoffSpec


def order_by_enumeration(a, p):
    """Least k >= 1 with a^k = 1 mod p, by stepping k."""
    b = x = a % p
    k = 1
    while x != 1:
        x = x * b % p
        k += 1
    return k


def records_by_enumeration(a, y, n=None):
    """(p, ell, o) for every prime p <= y not dividing a, ascending, by
    stepping the order and valuing a^ell - 1 whole; given n, only those
    with ell | n, so a wide base values only the powers it keeps."""
    records = []
    for p in sieve_primes(y):
        if a % p:
            ell = order_by_enumeration(a, p)
            if n is None or n % ell == 0:
                records.append((p, ell, valuation(a**ell - 1, p)))
    return records


def term_prime_log_sum(seq, K, n):
    """Sum of ln p over primes p <= floor(K*n) dividing a^n - 1, in
    ascending-prime order."""
    y = CutoffSpec.linear(K).value_at(n)
    a = seq.base
    return math.fsum(
        math.log(p) for p in primes_upto(y) if a % p != 0 and pow(a, n, p) == 1
    )


def smooth_part_by_pow(a, n, y):
    """Factorization of s_y(a^n - 1): every prime p <= y not dividing a
    with a^n = 1 mod p, its exponent the last k with a^n = 1 mod p^k."""
    entries = []
    for p in primes_upto(y):
        if a % p and pow(a, n, p) == 1:
            k = 2
            while pow(a, n, p**k) == 1:
                k += 1
            entries.append((p, k - 1))
    return Factorization(tuple(entries))


def divisors(n):
    """The divisors of n >= 1, ascending, from factorize(n)."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def term_factorization(seq, n):
    """Factorization of a^n - 1 taken as one number, without splitting
    it into cyclotomic pieces first."""
    return factorize(seq.base**n - 1)
