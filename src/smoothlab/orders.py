"""Per-prime data for u_n = a^n - 1: multiplicative orders, initial
valuations, and two independent routes to v_p(a^n - 1) that never build
a^n - 1 itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import factorize, is_prime, primes_upto, smallest_prime_factors, valuation


@dataclass(frozen=True)
class SequenceSpec:
    """The sequence a^n - 1, pinned down by its base."""

    base: int

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be an integer >= 2")


@dataclass(frozen=True, slots=True)
class OrderRecord:
    """(p, ell, o): order of the base mod p and v_p at the first
    divisible index."""

    p: int
    ell: int
    o: int


# (base, p) -> OrderRecord, filled by order_record and order_records.
_record_cache: dict[tuple[int, int], OrderRecord] = {}


def _order_and_lift(a: int, p: int, qs) -> OrderRecord:
    """(p, ell, o) for a prime p not dividing a, given the distinct
    primes qs dividing p - 1: strips each q from p - 1 while a^(e/q)
    stays 1 mod p, then lifts the order."""
    e = p - 1
    for q in qs:
        while e % q == 0 and pow(a, e // q, p) == 1:
            e //= q
    return OrderRecord(p=p, ell=e, o=_lift(a, e, p))


def _lift(a: int, k: int, p: int) -> int:
    """v_p(a^k - 1) for a^k = 1 mod p: evaluates a^k against p^2,
    p^3, ... until the residue leaves 1."""
    o = 1
    modulus = p * p
    while pow(a, k, modulus) == 1:
        o += 1
        modulus *= p
    return o


def order_record(seq: SequenceSpec, p: int) -> OrderRecord:
    """Memoized (p, ell, o) triple.  On a memo miss p must be prime and
    coprime to the base, and p - 1 is factored by factorize."""
    key = (seq.base, p)
    rec = _record_cache.get(key)
    if rec is None:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if seq.base % p == 0:
            raise ValueError(f"order of {seq.base} mod {p} undefined: p divides base")
        qs = [q for q, _ in factorize(p - 1)]
        rec = _record_cache[key] = _order_and_lift(seq.base, p, qs)
    return rec


def order_records(seq: SequenceSpec, y: int) -> list[OrderRecord]:
    """order_record for every prime p <= y not dividing the base,
    ascending.

    Primes without a memoized record are built in one pass: they come
    from the sieve, so they skip the prime check, and the primes dividing
    each p - 1 are read off one smallest-prime-factor array."""
    a = seq.base
    primes = [p for p in primes_upto(y) if a % p != 0]
    missing = [p for p in primes if (a, p) not in _record_cache]
    if missing:
        spf = smallest_prime_factors(missing[-1] - 1)
        for p in missing:
            qs = []
            m = p - 1
            while m > 1:
                q = spf[m] or m  # 0 marks a prime m
                qs.append(q)
                while m % q == 0:
                    m //= q
            _record_cache[(a, p)] = _order_and_lift(a, p, qs)
    return [_record_cache[(a, p)] for p in primes]


def term_valuation_direct(seq: SequenceSpec, n: int, p: int) -> int:
    """v_p(base^n - 1) by modular exponentiation against p, p^2, ...

    0 when p divides the base or base^n != 1 mod p.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = seq.base
    if a % p == 0 or pow(a, n, p) != 1:
        return 0
    return _lift(a, n, p)


def term_valuation_lte(seq: SequenceSpec, n: int, p: int) -> int:
    """v_p(base^n - 1) from the order data alone.

    Odd p: o_p + v_p(n) when ell_p | n, else 0.  p = 2 with odd base:
    o_2 for odd n, o_2 + v_2(base + 1) + v_2(n/2) for even n.  p = 2
    with even base: 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = seq.base
    if p == 2:
        if a % 2 == 0:
            return 0
        rec = order_record(seq, 2)
        if n % 2 == 1:
            return rec.o
        return rec.o + valuation(a + 1, 2) + valuation(n // 2, 2)
    if a % p == 0:
        return 0
    rec = order_record(seq, p)
    if n % rec.ell != 0:
        return 0
    return rec.o + valuation(n, p)
