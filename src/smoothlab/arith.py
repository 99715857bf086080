"""Exact integer arithmetic: sieving, factoring, valuations, smooth parts.

Everything here is pure and deterministic.  The only shared state is the
cached prime sieve behind primes_upto: it starts at 1000, at least
doubles when a larger cutoff is asked for, and is rebuilt under a lock so
threads may share it.  Cutoffs above SIEVE_MAX raise ValueError.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass, field

# Trial division handles primes up to this bound; beyond it Pollard rho
# takes over.
TRIAL_DIVISION_LIMIT = 10**6

# Largest cutoff the shared prime sieve serves.  A sieve this size peaks
# near 0.37 GB while it is built (7 s, Python 3.11); larger cutoffs are
# rejected up front instead of exhausting memory.
SIEVE_MAX = 10**8

# Iteration budget per rho split attempt.  Fixed so runs are reproducible.
RHO_BUDGET = 2**24

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10^24
# (covers 64-bit and then some).  Larger candidates reuse the same fixed
# witness list as a documented probabilistic test.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class FactorizationError(Exception):
    """Raised when factoring gives up; carries the unfactored cofactor."""

    def __init__(self, message: str, partial: "Factorization", cofactor: int):
        super().__init__(message)
        self.partial = partial
        self.cofactor = cofactor


@dataclass(frozen=True)
class Factorization:
    """Multiset of (prime, exponent) pairs, ascending by prime."""

    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        last = 1
        for p, e in self.entries:
            if p <= last:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be >= 1")
            last = p

    def value(self) -> int:
        v = 1
        for p, e in self.entries:
            v *= p**e
        return v

    def radical(self) -> int:
        v = 1
        for p, _ in self.entries:
            v *= p
        return v

    def divisor_count(self) -> int:
        d = 1
        for _, e in self.entries:
            d *= e + 1
        return d

    def restrict(self, y: int) -> "Factorization":
        """Sub-factorization keeping only primes <= y."""
        return Factorization(tuple((p, e) for p, e in self.entries if p <= y))

    def log_value(self) -> float:
        return math.fsum(e * math.log(p) for p, e in self.entries)

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, ascending.  Empty for limit < 2."""
    if limit < 2:
        return []
    mark = bytearray([1]) * (limit + 1)
    mark[0] = mark[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if mark[p]:
            mark[p * p :: p] = bytearray((limit - p * p) // p + 1)
    return [i for i in range(2, limit + 1) if mark[i]]


_sieve_lock = threading.Lock()
# (limit, ascending primes <= limit), replaced whole so readers always
# see a matching pair.  Grows by at least doubling, up to SIEVE_MAX.
_sieve: tuple[int, list[int]] = (1000, sieve_primes(1000))


def primes_upto(limit: int) -> list[int]:
    """Cached ascending prime list for 0 <= limit <= SIEVE_MAX.

    Raises ValueError above SIEVE_MAX, before anything is allocated."""
    global _sieve
    if limit < 2:
        return []
    if limit > SIEVE_MAX:
        raise ValueError(f"prime cutoff {limit} exceeds the sieve limit SIEVE_MAX = {SIEVE_MAX}")
    sieved, primes = _sieve
    if limit > sieved:
        with _sieve_lock:
            sieved, primes = _sieve
            if limit > sieved:
                sieved = min(max(limit, 2 * sieved), SIEVE_MAX)
                primes = sieve_primes(sieved)
                _sieve = (sieved, primes)
    if limit >= sieved:
        return primes
    return primes[: bisect_right(primes, limit)]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24; same fixed witnesses above."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def valuation(m: int, p: int) -> int:
    """Largest e with p^e | m.  Rejects m = 0 and composite p."""
    if m == 0:
        raise ValueError("valuation of 0 is infinite")
    if m < 0:
        raise ValueError("m must be positive")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e


def _rho_split(n: int, budget: int) -> int:
    """Brent-cycle Pollard rho with fixed polynomial seeds x^2 + c.

    Returns a nontrivial factor of composite odd n, or 0 if every seed
    exhausts its budget.
    """
    iterations = 0  # shared across seeds: the budget caps the whole attempt
    for c in range(1, 32):
        if iterations >= budget:
            break
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1 and iterations < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                iterations += min(128, r - k)
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return 0


def factorize(m: int, budget: int = RHO_BUDGET) -> Factorization:
    """Complete factorization of m >= 1.

    Trial division by sieved primes up to TRIAL_DIVISION_LIMIT, then
    deterministic-seeded Pollard rho with Miller-Rabin certification of
    every cofactor.  Raises FactorizationError (with the partial result)
    if rho exhausts its budget; never returns a wrong factorization.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return Factorization()
    found: dict[int, int] = {}
    rest = m
    for p in primes_upto(min(math.isqrt(rest), TRIAL_DIVISION_LIMIT)):
        if p * p > rest:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            found[p] = e
    if rest > 1:
        if rest <= TRIAL_DIVISION_LIMIT**2 or is_prime(rest):
            # below the square of the trial bound any survivor is prime
            found[rest] = found.get(rest, 0) + 1
        else:
            stack = [rest]
            while stack:
                n = stack.pop()
                if is_prime(n):
                    found[n] = found.get(n, 0) + 1
                    continue
                d = _rho_split(n, budget)
                if d == 0:
                    partial = Factorization(tuple(sorted(found.items())))
                    raise FactorizationError(
                        f"rho budget exhausted on cofactor {n}", partial, n
                    )
                stack.append(d)
                stack.append(n // d)
    return Factorization(tuple(sorted(found.items())))


def radical(m: int) -> int:
    """Product of the distinct primes dividing m; radical(1) = 1."""
    return factorize(m).radical()


def largest_prime_factor(m: int) -> int:
    """P(m) for m >= 2."""
    if m < 2:
        raise ValueError("largest prime factor undefined for m <= 1")
    return factorize(m).entries[-1][0]


def smooth_part_oracle(m: int, y: int) -> tuple[int, Factorization]:
    """s_y(m) = prod over primes p <= y of p^(v_p(m)), by direct trial
    division on m.  The reference everything else is checked against;
    deliberately does not factor the rough cofactor, which may be far
    beyond splitting range even when the smooth part is tiny."""
    if m < 1:
        raise ValueError("m must be >= 1")
    entries = []
    for p in primes_upto(y):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            entries.append((p, e))
    factors = Factorization(tuple(entries))
    return factors.value(), factors


def divisor_count(n: int) -> int:
    """d(n) for n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return factorize(n).divisor_count()
