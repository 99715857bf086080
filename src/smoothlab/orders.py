"""Per-prime data for u_n = a^n - 1: multiplicative orders, initial
valuations, and two independent routes to v_p(a^n - 1) that never build
a^n - 1 itself.

The records (p, ell_p, o_p) come by two routes, and neither stores one.
order_records yields the record of every prime up to a cutoff, in one
pass over the sieved primes: by lifting the exponent,
o_p = v_p(a^(p-1) - 1), so one power of a mod p^2 per prime settles
both the 2-part of ell_p and whether o_p >= 2; only the odd part of
p - 1 is factored, off one smallest-prime-factor array, and only the
rare o_p >= 2 (base-a Wieferich primes) is lifted further.
order_record answers one prime from p - 1 alone: _record strips the
primes of a multiple of ell_p, here p - 1, while a stays 1 mod p, then
lifts.
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


def _record(a: int, p: int, m: int, primes_of_m) -> tuple[int, int]:
    """(ell, o) of a prime p not dividing a, from a multiple m of ell_p
    and an iterable holding every prime of m (others are skipped): each
    prime q is stripped from e = m while a^(e/q) = 1 mod p, which leaves
    ell_p, and o = v_p(a^ell - 1) is lifted."""
    e = m
    for q in primes_of_m:
        while e % q == 0 and pow(a, e // q, p) == 1:
            e //= q
    return e, _lift(a, e, p)


def order_records(seq: SequenceSpec, y: int):
    """Yield the triple (p, ell, o) of each prime p <= y not dividing
    the base, in ascending p; the generator stores none of them.

    One pass over the sieved primes.  With p - 1 = 2^v m, m odd, one
    power w = a^m mod p^2 gives both the 2-part of the order and the
    lift: ell_p's odd part divides m, so w squared j times turns 1 mod
    p at j = v_2(ell_p), and o_p >= 2 exactly when that power is 1 mod
    p^2.  The odd part of ell_p is the order of b = a^(2^v) mod p: each
    prime q of m, read off one smallest-prime-factor array of the odd
    parts, is stripped from e = m while b^(e/q) stays 1 mod p.  Only an
    o_p >= 2 is lifted further, to its exact value.  Raises ValueError
    for y above SIEVE_MAX on the first next(), before any sieve or
    array is built."""
    a = seq.base
    primes = _progression(1, y)
    spf = smallest_prime_factors(max(y - 1, 0) // 2)
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
        while m > 1:
            q = spf[m] or m  # 0 marks a prime m
            while m % q == 0:
                m //= q
            while e % q == 0 and pow(b, e // q, p) == 1:
                e //= q
        e <<= j
        yield p, e, _lift(a, e, p) if w == 1 else 1


def order_record(seq: SequenceSpec, p: int) -> tuple[int, int]:
    """(ell, o) of one prime p: the order of the base mod p and
    v_p(base^ell - 1), stripped from p - 1 by the primes of p - 1.

    Raises ValueError when p is not a prime, divides the base or lies
    above SIEVE_MAX."""
    a = seq.base
    _check_cutoff(p)
    if not is_prime(p) or a % p == 0:
        raise ValueError(f"{p} is not a prime coprime to the base {a}")
    return _record(a, p, p - 1, (q for q, _ in factorize(p - 1)))


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
    """v_p(base^n - 1) from the order data alone: o_p + v_p(n) when
    ell_p | n, else 0, and 0 when p divides the base.  For p = 2 (odd
    base, ell_2 = 1) each even n adds v_2(base + 1) - 1 on top.  Raises
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
    ell, o = _record(a, p, p - 1, (q for q, _ in factorize(p - 1)))
    if n % ell != 0:
        return 0
    v = o + valuation(n, p)
    if p == 2 and n % 2 == 0:
        v += valuation(a + 1, 2) - 1
    return v
