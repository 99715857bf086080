"""Per-prime data for u_n = a^n - 1: multiplicative orders, initial
valuations, and two independent routes to v_p(a^n - 1) that never build
a^n - 1 itself.

Every record (p, ell_p, o_p) comes from one step, _records, and none is
stored.  The step has two inputs for the odd primes of p - 1 it strips:
order_records' pass over the sieved primes up to a cutoff reads them
off one smallest-prime-factor array, and a single prime (order_record,
term_valuation_lte, counting_report's hits) factors them.  The
lifting-the-exponent route, _lte_sum, sums v_p(a^n - 1) over a range of
n from a record alone; the direct route, _valuation_direct, reads none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import _check_cutoff, _progression, factorize, is_prime, smallest_prime_factors, valuation


@dataclass(frozen=True)
class SequenceSpec:
    """The sequence a^n - 1, pinned down by its base."""

    base: int

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be an integer >= 2")


def _lift(a: int, k: int, p: int) -> int:
    """v_p(a^k - 1) for a^k = 1 mod p: evaluates a^k against p^2,
    p^3, ... until the residue leaves 1."""
    o = 1
    modulus = p * p
    while pow(a, k, modulus) == 1:
        o += 1
        modulus *= p
    return o


def _records(a: int, primes, spf=None):
    """Yield the triple (p, ell, o) of each prime p of the iterable not
    dividing a, in its order.  With p - 1 = 2^v m, m odd, one power
    w = a^m mod p^2 gives both the 2-part of the order and the lift:
    ell_p's odd part divides m, so w squared j times turns 1 mod p at
    j = v_2(ell_p), and o_p >= 2 exactly when that power is 1 mod p^2.
    The odd part of ell_p is the order of b = a^(2^v) mod p: each prime
    q of m is stripped from e = m while b^(e/q) stays 1 mod p.  Those q
    are read off spf, a smallest-prime-factor array covering every m,
    when one is given, and off factorize(m) otherwise.  Only an
    o_p >= 2 is lifted further, to its exact value."""
    for p in primes:
        if a % p == 0:
            continue
        v = ((p - 1) & (1 - p)).bit_length() - 1
        e = m = (p - 1) >> v
        p2 = p * p
        w = pow(a, m, p2)
        j = 0
        while w % p != 1:
            w = w * w % p2
            j += 1
        # w = 1 + kp now, and for odd p its 2^i-th power is 1 + 2^i kp
        # mod p^2 (p = 2 has v = 0): so a^(p-1) = 1 mod p^2, that is
        # o_p = v_p(a^(p-1) - 1) >= 2, iff w == 1
        b = pow(a, 1 << v, p)
        factors = iter(factorize(m)) if spf is None else None
        while m > 1:
            q = next(factors)[0] if spf is None else (spf[m] or m)  # 0 marks a prime m
            while m % q == 0:
                m //= q
            while e % q == 0 and pow(b, e // q, p) == 1:
                e //= q
        e <<= j
        yield p, e, _lift(a, e, p) if w == 1 else 1


def order_records(seq: SequenceSpec, y: int):
    """Yield the triple (p, ell, o) of each prime p <= y not dividing
    the base, in ascending p; the generator stores none of them.

    One pass of _records, with a smallest-prime-factor array of the odd
    parts of every p - 1.  Raises ValueError for y above SIEVE_MAX on
    the first next(), before any sieve or array is built."""
    primes = _progression(1, y)
    yield from _records(seq.base, primes, smallest_prime_factors(max(y - 1, 0) // 2))


def order_record(seq: SequenceSpec, p: int) -> tuple[int, int]:
    """(ell, o) of one prime p: the order of the base mod p and
    v_p(base^ell - 1), from _records' step with the odd part of p - 1
    factored.

    Raises ValueError when p is not a prime, divides the base or lies
    above SIEVE_MAX."""
    a = seq.base
    _check_cutoff(p)
    if not is_prime(p) or a % p == 0:
        raise ValueError(f"{p} is not a prime coprime to the base {a}")
    _, ell, o = next(_records(a, (p,)))
    return ell, o


def term_valuation_direct(seq: SequenceSpec, n: int, p: int) -> int:
    """v_p(base^n - 1) for a prime p, by modular exponentiation against
    p, p^2, ...

    p divides base^n - 1 exactly when base^gcd(n, p - 1) = 1 mod p: for p
    not dividing the base, base^k = 1 mod p iff ell_p | k, and ell_p
    divides p - 1, so ell_p | n iff ell_p | gcd(n, p - 1).  When p
    divides the base the residue is 0, and for p = 2 it is base mod 2,
    so the one test also returns 0 there.  Raises ValueError for a p
    that is not prime, as valuation does.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _valuation_direct(seq.base, n, p)


def _valuation_direct(a: int, n: int, p: int) -> int:
    """term_valuation_direct for n >= 1 and a p already known prime,
    for callers that value many n at one p."""
    if pow(a, math.gcd(n, p - 1), p) != 1:
        return 0
    return _lift(a, n, p)


def term_valuation_lte(seq: SequenceSpec, n: int, p: int) -> int:
    """v_p(base^n - 1) from the order data alone: _lte_sum over the
    one n, with p's record from _records' step.  One call tests p for
    primality once and factors the odd part of p - 1, by trial division
    up to its square root; 0 when p divides the base.  Raises
    ValueError for a p that is not prime, as valuation does, and, as
    order_record does, for a p coprime to the base above SIEVE_MAX.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    a = seq.base
    if a % p == 0:
        return 0
    _check_cutoff(p)
    _, ell, o = next(_records(a, (p,)))
    return _lte_sum(a, p, ell, o, n - 1, n)


def _lte_sum(a: int, p: int, ell: int, o: int, lo: int, hi: int) -> int:
    """Sum of v_p(a^n - 1) over lo < n <= hi from p's record (ell, o)
    alone, by lifting the exponent: o + v_p(n) for each n that ell
    divides, counted as o * #(multiples of ell) + the sum over k >= 1 of
    #(multiples of ell * p^k), which stops at the first k with none.
    For p = 2 (odd a, ell = 1) each even n adds v_2(a + 1) - 1 on top."""
    total = o * (hi // ell - lo // ell)
    m = ell * p
    while count := hi // m - lo // m:
        total += count
        m *= p
    if p == 2:
        total += (valuation(a + 1, 2) - 1) * (hi // 2 - lo // 2)
    return total
