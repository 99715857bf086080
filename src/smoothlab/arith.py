"""Exact integer arithmetic: sieving, factoring, cyclotomic values,
valuations, smooth parts.

Everything here is pure and deterministic.  The only shared state is the
cached prime sieve _sieve, swapped in whole as one _Sieve: the sieve's
byte array (mark) with a 1 at exactly the primes, so _progression reads
the primes of an arithmetic progression off it as a C-level slice;
cumulative prime counts per block of the mark, so pi(L) is one count
plus one C-level bytearray.count (one read of a table of pi below
2^14); and the ascending prime list, built off the mark only as far as
a walk over every prime has asked, and read only by _progression(1, L)
and primes_upto.  The mark starts at 1000 and at least doubles when a
larger cutoff is asked for; cutoffs above SIEVE_MAX raise ValueError.
primes_upto hands out copies, so no caller can change the shared list.
smallest_prime_factors builds a fresh least-prime-factor array from that
sieve, so a whole range of integers factors without trial division.
All other factoring takes one trial-division walk, _trial_divide, over
the primes a cyclotomic value Phi_t(a) can hold (every prime for t = 1):
factorize, abc's pieces and the single-term cut passes share it, and
_split certifies or splits with rho what the first two leave.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import accumulate, chain, compress, islice, repeat
from typing import NamedTuple

# Trial division handles primes up to this bound; beyond it Pollard rho
# takes over.
TRIAL_DIVISION_LIMIT = 10**6

# Largest cutoff the shared prime sieve serves.  Its mark and counts to
# this size take 1.4 s and peak at 159 MB (VmHWM, 130 MB held after); a
# walk that then lists every prime below it takes 2.7 s in all and peaks
# at 381 MB (fresh interpreter, 2-core box, Python 3.11).  Larger cutoffs
# are rejected up front instead of exhausting memory.  It also keeps every
# entry of smallest_prime_factors (a prime <= isqrt(SIEVE_MAX) = 10^4)
# below 2^16, so that array stores unsigned shorts.
SIEVE_MAX = 10**8

# Iteration budget per rho split attempt.  Fixed so runs are reproducible.
RHO_BUDGET = 2**24

# Miller-Rabin witnesses: the first 13 primes.  Together they are a
# proof of primality below psi_13, the least strong pseudoprime to all
# of them (Sorenson & Webster, 2017).  From psi_13 on, is_prime adds a
# strong Lucas test, which makes it Baillie-PSW: no composite is known
# to pass, though none is proven impossible.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


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

    def restrict(self, y: int) -> "Factorization":
        """Sub-factorization keeping only primes <= y."""
        return Factorization(tuple((p, e) for p, e in self.entries if p <= y))

    def log_value(self) -> float:
        return math.fsum(e * math.log(p) for p, e in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def _sieve_mark(limit: int) -> bytearray:
    """Eratosthenes' byte array for limit >= 0: entry m is 1 exactly
    when m <= limit is prime."""
    mark = bytearray([1]) * (limit + 1)
    mark[:2] = bytes(min(limit + 1, 2))
    for p in range(2, math.isqrt(limit) + 1):
        if mark[p]:
            mark[p * p :: p] = bytearray((limit - p * p) // p + 1)
    return mark


def _marked_primes(mark: bytearray, lo: int, hi: int, head: list[int] | tuple = ()) -> list[int]:
    """A new list of head and then the primes in [lo, hi] that a
    _sieve_mark marks, ascending, for 0 <= lo and hi < len(mark): 2, then
    the odd positions only, which halves the integers made.  The odd
    positions are read through a memoryview, as a copy of them would add
    half the mark to the peak (50 MB at SIEVE_MAX), and go straight into
    the new list, with no second list of them."""
    primes = [*head, 2] if lo <= 2 <= hi else list(head)
    primes += compress(range(lo | 1, hi + 1, 2), memoryview(mark)[lo | 1 : hi + 1 : 2])
    return primes


def _check_cutoff(limit: int) -> None:
    """Raise ValueError for a sieve cutoff above SIEVE_MAX."""
    if limit > SIEVE_MAX:
        try:
            shown = str(limit)
        except ValueError:  # past Python's int-to-str digit limit
            shown = f">= 2^{limit.bit_length() - 1}"
        raise ValueError(f"prime cutoff {shown} exceeds the sieve limit SIEVE_MAX = {SIEVE_MAX}")


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, ascending, from a fresh sieve.  Empty for
    limit < 2; raises ValueError above SIEVE_MAX, before anything is
    allocated."""
    _check_cutoff(limit)
    if limit < 2:
        return []
    return _marked_primes(_sieve_mark(limit), 0, limit)


# The mark's integers come in blocks of 2^_COUNT_SHIFT, one cumulative
# prime count per block: pi(L) reads one count and counts the marks of
# less than one block, a C-level bytearray.count over at most 127 bytes.
# Over random L <= 10^6, one pi(L) took 0.39 us at blocks of 128, 0.46 at
# 256 and 0.64 at 512, as that count walks its bytes one by one; at 128
# it costs about as much as bisect_right over the 78,498 primes below
# 10^6 and twice as much as over a few hundred, and the counts add 1/32
# of the mark's bytes and 3-4 ms to a sieve to 10^6, whose mark alone
# takes about 2 ms (2-core box, Python 3.11).
_COUNT_SHIFT = 7

# Below this cutoff pi(L) is one read of a table of pi at every integer
# (array("H"), 32 KB), not a bytearray.count: that count costs twice a
# bisect_right over the few hundred primes below 3000, and the single
# terms of small n count there three to four times each.  Over
# _term_primes at bases 3 and 7 for n = 1..3000 (in-process, interleaved
# 12 times with a copy that counts by bisect_right over the list), the
# block counts alone took 1.07-1.11 times as long, and with the table
# 0.99-1.00.
_LOW_PI = 1 << 14


class _Sieve(NamedTuple):
    """The shared sieve: mark is _sieve_mark(limit); counts[i] is the
    number of primes below i << _COUNT_SHIFT, for each block start up to
    limit + 1, and low[L] = pi(L) for L < min(_LOW_PI, limit + 1);
    primes lists the primes <= listed, ascending, listed <= limit."""

    limit: int
    mark: bytearray
    counts: array
    low: array
    listed: int
    primes: list[int]

    def count(self, L: int) -> int:
        """pi(L), the number of primes <= L, for 0 <= L <= limit."""
        if L < _LOW_PI:
            return self.low[L]
        i = (L + 1) >> _COUNT_SHIFT
        return self.counts[i] + self.mark.count(1, i << _COUNT_SHIFT, L + 1)


def _marked_sieve(limit: int, listed: int = 0, primes: list[int] | None = None) -> _Sieve:
    """A _Sieve to limit, with the primes <= listed given, or none."""
    mark = _sieve_mark(limit)
    block = 1 << _COUNT_SHIFT
    counts = array("I", accumulate(
        map(mark.count, repeat(1), range(0, limit + 2 - block, block), range(block, limit + 2, block)), initial=0))
    return _Sieve(limit, mark, counts, array("H", accumulate(mark[:_LOW_PI])), listed, primes or [])


# The one shared state, replaced whole so readers always see a matching
# sieve; two callers growing it at once at worst sieve or list twice.
# The mark grows by at least doubling, up to SIEVE_MAX, when any reader
# asks past it.  The prime list grows, by at least doubling too, only
# when a walk over every prime asks past it (_progression(1, L),
# primes_upto), so a reader of the mark or of counts never lists one.
_sieve: _Sieve = _marked_sieve(1000)


def _shared_sieve(limit: int, listed: int = 0) -> _Sieve:
    """The shared sieve, first grown to cover limit with its mark and
    listed <= limit with its prime list, where either stops below; its
    limit and listed are then at least these, so read it up to them
    only.  The list grows as a copy extended by the primes read off the
    mark past its end.

    Raises ValueError above SIEVE_MAX, before anything is allocated."""
    global _sieve
    sieve = _sieve
    if limit > sieve.limit:  # true of every limit above SIEVE_MAX, as the sieve stops there
        _check_cutoff(limit)
        sieve = _sieve = _marked_sieve(min(max(limit, 2 * sieve.limit), SIEVE_MAX),
                                       sieve.listed, sieve.primes)
    if listed > sieve.listed:
        upto = min(max(listed, 2 * sieve.listed), sieve.limit)
        primes = _marked_primes(sieve.mark, sieve.listed + 1, upto, sieve.primes)
        sieve = _sieve = sieve._replace(listed=upto, primes=primes)
    return sieve


def primes_upto(limit: int) -> list[int]:
    """Ascending list of the primes <= limit for 0 <= limit <= SIEVE_MAX,
    a fresh copy off the shared sieve, so the caller may change it.

    Raises ValueError above SIEVE_MAX, before anything is allocated."""
    if limit < 2:
        return []
    sieve = _shared_sieve(limit, limit)
    return sieve.primes[: sieve.count(limit)]


def _progression(t: int, L: int):
    """Iterator over the primes p <= L with p = 1 mod t, for t >= 1,
    ascending, read lazily off the shared sieve; nothing for L < 2.  For
    t = 1 it is the first pi(L) entries of the prime list, listed to L
    first, which keeps p = 2, and otherwise a C-level slice of the byte
    mark stepped by lcm(t, 2), as an odd p = 1 mod t is = 1 mod 2t.
    It and primes_upto are the only readers of the list, so every walk
    over the primes goes through it.  Raises ValueError for L above
    SIEVE_MAX."""
    if t == 1:
        sieve = _shared_sieve(L, L)
        return islice(sieve.primes, sieve.count(L) if L > 0 else 0)
    mark = _shared_sieve(L).mark
    s = t if t % 2 == 0 else 2 * t
    return compress(range(s + 1, L + 1, s), mark[s + 1 : L + 1 : s])


def smallest_prime_factors(limit: int) -> array:
    """array("H") of length limit + 1 whose entry m is the least prime
    factor of a composite m, and 0 for a prime or for m < 4.

    Raises ValueError for a negative limit or one above SIEVE_MAX."""
    if not 0 <= limit <= SIEVE_MAX:
        raise ValueError(f"limit {limit} is outside 0..SIEVE_MAX = {SIEVE_MAX}")
    spf = array("H", [0]) * (limit + 1)
    # descending, so the least prime factor is the last one written
    for q in reversed(primes_upto(math.isqrt(limit))):
        spf[q * q :: q] = array("H", [q]) * ((limit - q * q) // q + 1)
    return spf


def is_prime(n: int) -> bool:
    """Miller-Rabin to the 13 fixed witnesses, a proof below psi_13
    (about 3.3e24); from there on a strong Lucas test too (Baillie-PSW)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
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
    return n < _PSI_13 or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n > 1 with no factor below
    43, Selfridge's parameters: the first D in 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1 and Q = (1 - D)/4."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D would have (D/n) = -1
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # gcd(D, n) > 1 with |D| < n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    half = (n + 1) // 2  # the inverse of 2 mod n

    # U_k, V_k and Q^k mod n, from k = 1 along the bits of d
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


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


def _rho_split(n: int) -> int:
    """Brent-cycle Pollard rho with fixed polynomial seeds x^2 + c.

    Returns a nontrivial factor of composite odd n, or 0 if every seed
    exhausts its budget, RHO_BUDGET as read at the call.
    """
    iterations = 0  # shared across seeds: the budget caps the whole attempt
    for c in range(1, 32):
        if iterations >= RHO_BUDGET:
            break
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1 and iterations < RHO_BUDGET:
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


def _trial_divide(m: int, t: int, primes_of_t, cap: int, found: dict[int, int]) -> int:
    """What is left of m >= 1 once trial division takes out, each fully,
    the given primes of t >= 1, ascending, and then the primes
    p = 1 mod lcm(t, 2) (every prime for t = 1) up to min(cap, isqrt(m));
    each exponent is added into found.

    A prime of the cyclotomic value Phi_t(a) divides t or has order t,
    and then p = 1 mod t, so an odd one is = 1 mod 2t (the rule the
    Cunningham tables use); for t = 1 every prime qualifies.  For such
    an m the primes tried are, ascending, all that can divide it, so the
    walk stops once p^2 passes what is left, which is then 1 or a prime.
    Where the walk runs out first, the rest has no prime
    <= min(cap, isqrt(m)): it is 1 or a prime unless cap < isqrt(m)."""
    rest = m
    for p in chain(primes_of_t, _progression(t, min(cap, math.isqrt(m)))):
        if p * p > rest:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            found[p] = found.get(p, 0) + e
    return rest


def _split(rest: int, found: dict[int, int]) -> Factorization:
    """found with the primes of rest added, as a Factorization, where
    rest is what _trial_divide left with cap TRIAL_DIVISION_LIMIT of a
    number whose primes it tries all: 1, a prime, or a number whose
    primes lie above the cap.  So an entry up to the cap's square, rest
    or a factor rho split off, is a prime; above it is_prime certifies a
    prime and Pollard rho splits a composite.  Raises
    FactorizationError, with found as the partial result, when rho
    exhausts its budget."""
    stack = [rest] if rest > 1 else []
    while stack:
        n = stack.pop()
        if n <= TRIAL_DIVISION_LIMIT**2 or is_prime(n):
            found[n] = found.get(n, 0) + 1
            continue
        d = _rho_split(n)
        if d == 0:
            partial = Factorization(tuple(sorted(found.items())))
            raise FactorizationError(f"rho budget exhausted on cofactor {n}", partial, n)
        stack += (d, n // d)
    return Factorization(tuple(sorted(found.items())))


def factorize(m: int) -> Factorization:
    """Complete factorization of m >= 1.

    Trial division by sieved primes up to TRIAL_DIVISION_LIMIT, then
    deterministic-seeded Pollard rho; every cofactor is certified by
    is_prime, a proof of primality below psi_13 (about 3.3e24) and
    Baillie-PSW above it.  Raises FactorizationError (with the partial
    result) if rho exhausts its budget.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    found: dict[int, int] = {}
    return _split(_trial_divide(m, 1, (), TRIAL_DIVISION_LIMIT, found), found)


def _cyclotomic(a: int, d: int, primes: list[int]) -> int:
    """Phi_d(a) for a >= 2, d >= 1 and the distinct primes of d, as the
    Moebius product of (a^(d/e) - 1)^mu(e) over the squarefree e made
    from those primes: the factors with mu(e) = 1 and those with
    mu(e) = -1 are multiplied up apart, and the one division is exact."""
    terms = [(d, 1)]  # (d / e, mu(e))
    for q in primes:
        terms += [(m // q, -mu) for m, mu in terms]
    num = den = 1
    for m, mu in terms:
        if mu > 0:
            num *= a**m - 1
        else:
            den *= a**m - 1
    return num // den


def radical(m: int) -> int:
    """Product of the distinct primes dividing m; radical(1) = 1."""
    return factorize(m).radical()


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
