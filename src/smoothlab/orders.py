"""Per-prime data for u_n = a^n - 1: multiplicative orders, initial
valuations, and two independent routes to v_p(a^n - 1) that never build
a^n - 1 itself.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .arith import SIEVE_MAX, primes_upto, smallest_prime_factors, valuation


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


# base -> (limit, records): the record of every prime p <= limit not
# dividing the base, ascending.  Only _table writes here, and only by
# raising a base's limit.
_tables: dict[int, tuple[int, list[OrderRecord]]] = {}


def _lift(a: int, k: int, p: int) -> int:
    """v_p(a^k - 1) for a^k = 1 mod p: evaluates a^k against p^2,
    p^3, ... until the residue leaves 1."""
    o = 1
    modulus = p * p
    while pow(a, k, modulus) == 1:
        o += 1
        modulus *= p
    return o


def _table(a: int, y: int) -> list[OrderRecord]:
    """Base a's table, first grown to cover y in one pass over the new
    sieved primes p: each prime q of p - 1, read off one
    smallest-prime-factor array, is stripped from e = p - 1 while
    a^(e/q) stays 1 mod p, and the order e is then lifted.

    Like the prime sieve, a grown table reaches at least twice its old
    limit (up to SIEVE_MAX), so ascending single lookups rebuild the
    array O(log y) times; a first build stops at y itself."""
    limit, records = _tables.get(a, (1, []))
    if y > limit:
        y = max(y, min(2 * limit, SIEVE_MAX))
        primes = primes_upto(y)
        new = [p for p in primes[bisect_right(primes, limit):] if a % p != 0]
        if new:
            spf = smallest_prime_factors(new[-1] - 1)
            grown = []  # appended whole, so an interrupted pass leaves no part
            for p in new:
                e = m = p - 1
                while m > 1:
                    q = spf[m] or m  # 0 marks a prime m
                    while m % q == 0:
                        m //= q
                    while e % q == 0 and pow(a, e // q, p) == 1:
                        e //= q
                grown.append(OrderRecord(p, e, _lift(a, e, p)))
            records.extend(grown)
        _tables[a] = (y, records)
    return records


def order_record(seq: SequenceSpec, p: int) -> OrderRecord:
    """The (p, ell, o) triple of one prime, from the base's table.

    The table first grows past p if it stops below, so one lookup may
    cost a table build up to max(p, twice the old limit).  Raises
    ValueError when p is not a prime, divides the base or lies above
    SIEVE_MAX."""
    records = _table(seq.base, p)
    i = bisect_left(records, p, key=lambda r: r.p)
    if i == len(records) or records[i].p != p:
        raise ValueError(f"{p} is not a prime coprime to the base {seq.base}")
    return records[i]


def order_records(seq: SequenceSpec, y: int) -> list[OrderRecord]:
    """order_record for every prime p <= y not dividing the base,
    ascending: a slice of the base's table."""
    records = _table(seq.base, y)
    return records[: bisect_right(records, y, key=lambda r: r.p)]


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
    """v_p(base^n - 1) from the order data alone: o_p + v_p(n) when
    ell_p | n, else 0, and 0 when p divides the base.  For p = 2 (odd
    base, ell_2 = 1) each even n adds v_2(base + 1) - 1 on top.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = seq.base
    if a % p == 0:
        return 0
    rec = order_record(seq, p)
    if n % rec.ell != 0:
        return 0
    v = rec.o + valuation(n, p)
    if p == 2 and n % 2 == 0:
        v += valuation(a + 1, 2) - 1
    return v
