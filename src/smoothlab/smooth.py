"""Smooth parts of a^n - 1 without materializing the term, membership in
the threshold set {n : s_{y(n)}(a^n - 1) > c^n}, and the prime-counting
quantities behind it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, groupby, islice
from typing import NamedTuple

from .arith import SIEVE_MAX, Factorization, _shared_sieve, divisors, primes_upto
from .orders import SequenceSpec, order_columns, term_valuation_direct

# Relative width of the band around the threshold inside which the
# membership decision is re-made in exact integer arithmetic.
TIE_GUARD = 1e-9

# smooth_part_of_term tests only the primes of its slices while their
# estimated count stays below this share of the primes <= Y, and every
# prime <= Y from there on.  A slice prime costs more to test than an
# average one (gcd(n, p - 1) >= d), so the union stops paying before it
# holds every prime: over 299 random n < 10^6 at y = n (bases 2-10,
# best of 3, 2-core box, Python 3.11), the union took a median 0.82 of
# the scan's time at shares 0.40-0.45, 0.95 at 0.45-0.50, 0.98 at
# 0.50-0.55, 1.00 at 0.55-0.60 and 1.11 at 0.60-0.65.
_SLICE_SHARE = 0.5

# Most bits of an integer the package builds from an exponent: of the
# n**p that the power cutoff floor(n ** (p/q)) builds before its q-th
# root, counted as p * bits(n), and of the term a^n - 1 that abc
# factors, counted as n * bits(a).  At the cap the root takes up to
# about 1.5 s (2-core box, Python 3.11).
POWER_CUTOFF_MAX_BITS = 2**20


def _integer_root(m: int, k: int) -> int:
    """floor(m ** (1/k)) for m >= 0, k >= 1, by exact integer Newton steps
    from a float estimate off the top 64 bits of m, padded by r >> 30 plus
    2 to lie above the root.  From any start one step lands at or above
    the root (AM-GM), and from there the steps fall strictly to it."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if k == 1 or m < 2:
        return m
    if m.bit_length() <= k:  # 2 <= m < 2^k
        return 1
    shift = max(m.bit_length() - 64, 0)
    log2_root = (math.log2(m >> shift) + shift) / k
    e = int(log2_root)
    r = int(2 ** (log2_root - e + 52)) << e >> 52

    def step(r):
        return ((k - 1) * r + m // r ** (k - 1)) // k

    r = step(r + (r >> 30) + 2)
    while (s := step(r)) < r:
        r = s
    return r


@dataclass(frozen=True)
class CutoffSpec:
    """Smoothness cutoff evaluated at n: floor(K*n) or floor(n**theta)."""

    mode: str  # "linear" | "power"
    param: Fraction

    @classmethod
    def linear(cls, K) -> "CutoffSpec":
        K = Fraction(K)
        if K <= 0:
            raise ValueError("K must be positive")
        return cls("linear", K)

    @classmethod
    def power(cls, theta) -> "CutoffSpec":
        theta = Fraction(theta)
        if not 0 < theta < 2:
            raise ValueError("theta must lie in (0, 2)")
        return cls("power", theta)

    def value_at(self, n: int) -> int:
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.mode == "linear":
            return (self.param.numerator * n) // self.param.denominator
        # floor(n^(p/q)) = floor of the q-th root of n^p, exact in integers
        p, q = self.param.numerator, self.param.denominator
        bits = p * n.bit_length()
        if bits > POWER_CUTOFF_MAX_BITS:
            raise ValueError(f"n**{p} for the cutoff floor(n ** {self.param}) at n = {n} has up to"
                             f" {bits} bits, above POWER_CUTOFF_MAX_BITS = {POWER_CUTOFF_MAX_BITS}")
        return _integer_root(n**p, q)

    def describe(self) -> str:
        if self.mode == "linear":
            return f"floor({self.param} * n)"
        return f"floor(n ** {self.param})"


class MembershipVerdict(NamedTuple):
    n: int
    cutoff_y: int
    log_s: float
    threshold: float  # n * ln c
    member: bool
    margin: float
    exact_tiebreak_used: bool


def _scan_limit(a: int, n: int, y: int) -> int:
    """min(y, a^n - 1), past which no prime divides s_y(a^n - 1), with
    a^n built only when n * (bits(a) - 1) < bits(y), so below 2^54 for
    y <= SIEVE_MAX.  A y above SIEVE_MAX is returned as it is, so the
    sieve still rejects it however small the term."""
    if y <= SIEVE_MAX and n * (a.bit_length() - 1) < y.bit_length():
        return min(y, a**n - 1)
    return y


def _slices(a: int, n: int, Y: int, primes: list[int]) -> tuple[list[tuple[int, int]], float]:
    """Pairs (d, L) whose progressions {p prime : p = 1 mod d, p <= L}
    together hold every prime p <= Y that divides a^n - 1 and not a, with
    the estimated size of that union, the sum of pi(L) / phi(d).

    Such a p has order d = ell_p dividing n and p - 1, so p = 1 mod d,
    d < p <= Y, and p divides a^d - 1, so p <= a^d - 1.  Each divisor
    d < Y of n with a^d - 1 < Y gives (d, a^d - 1).  The divisors with
    a^d - 1 >= Y give (d, Y), but only those no smaller one of them
    divides: p = 1 mod d implies p = 1 mod e for e | d.  Those minimal d
    are d = s * q for a divisor s with a^s - 1 < Y and a prime q of n no
    larger than any prime of s, or d = 1 when a - 1 >= Y.  The primes q
    come from trial division of n by the ascending sieved primes below
    Y, so n itself is never factored past Y."""
    if a > Y:
        return [(1, Y)], float(bisect_right(primes, Y))
    small = []  # (d, a^d - 1) for d | n, a^d <= Y
    power, d = a, 1
    while power <= Y:
        if n % d == 0:
            small.append((d, power - 1))
        power *= a
        d += 1
    small_max = d - 1
    qs = []  # the primes q < Y of n, ascending
    rest = n
    for q in primes:
        if q * q > rest or q >= Y:
            if 1 < rest < Y:
                qs.append(rest)
            break
        if rest % q == 0:
            qs.append(q)
            while rest % q == 0:
                rest //= q
    slices = list(small)
    for s, _ in small:
        for q in qs:
            d = s * q
            if d >= Y:
                break
            if d > small_max and n % d == 0:
                slices.append((d, Y))
            if s % q == 0:  # q is the least prime of s
                break
    visits = 0.0
    for d, L in slices:
        phi = d
        for q in qs:
            if d % q == 0:
                phi -= phi // q
        visits += bisect_right(primes, L) / phi
    return slices, visits


def _slice_union(slices: list[tuple[int, int]], mark: bytearray) -> list[int]:
    """The primes of all the slices (d, L), ascending, each once, read
    off the sieve's byte mark (which must reach every L) as the C-level
    slices mark[d + 1 : L + 1 : d].  Sorting the concatenated ascending
    runs and dropping repeats takes less time and memory than a set."""
    merged = sorted(chain.from_iterable(
        compress(range(d + 1, L + 1, d), mark[d + 1 : L + 1 : d]) for d, L in slices))
    return [p for p, _ in groupby(merged)]


def smooth_part_of_term(seq: SequenceSpec, n: int, y: int) -> Factorization:
    """The factors of s_y(a^n - 1), assembled prime by prime.

    A prime p <= Y = min(y, a^n - 1) contributes exactly when
    a^gcd(n, p - 1) = 1 mod p: for p not dividing the base, p divides
    a^n - 1 iff its order ell_p divides n, and ell_p divides p - 1.  The
    residue is 0 when p divides the base and a mod 2 for p = 2, so no
    prime needs a second test.  The exponent of each prime found comes
    from term_valuation_direct's lift against p^2, p^3, ...

    Only candidates are tested, and they miss no such p: p = 1 mod ell_p
    and p <= a^ell_p - 1, so p lies in one of _slices' progressions over
    the divisors of n.  When those progressions are estimated to hold
    _SLICE_SHARE of the primes <= Y or more (at a highly composite n, or
    a base above Y), every prime <= Y is tested instead.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = seq.base
    Y = _scan_limit(a, n, y)
    _, primes, mark = _shared_sieve(Y)
    count = bisect_right(primes, Y)
    slices, visits = _slices(a, n, Y, primes)
    if visits < _SLICE_SHARE * count:
        candidates = _slice_union(slices, mark)
    else:
        candidates = islice(primes, count)
    entries = []
    for p in candidates:
        if pow(a, math.gcd(n, p - 1), p) == 1:
            entries.append((p, term_valuation_direct(seq, n, p)))
    return Factorization(tuple(entries))


def _threshold_base(c) -> Fraction:
    """c as an exact rational, which must exceed 1."""
    c = Fraction(c)
    if c <= 1:
        raise ValueError("c must be > 1")
    return c


def _decide(n: int, y: int, c: Fraction, factors: Factorization) -> MembershipVerdict:
    """Verdict on s > c^n for s = s_y(a^n - 1), from the factors of the
    smooth part at any cutoff >= y, in log space; near-ties inside the
    guard band are settled in exact integer arithmetic with c = P/Q."""
    factors = factors.restrict(y)
    log_s = factors.log_value()
    threshold = n * math.log(c)
    margin = log_s - threshold
    tiebreak = abs(margin) < TIE_GUARD * max(1.0, threshold)
    if tiebreak:
        member = factors.value() * c.denominator**n > c.numerator**n
    else:
        member = margin > 0
    return MembershipVerdict(
        n=n,
        cutoff_y=y,
        log_s=log_s,
        threshold=threshold,
        member=member,
        margin=margin,
        exact_tiebreak_used=tiebreak,
    )


def membership(seq: SequenceSpec, n: int, cutoff: CutoffSpec, c) -> MembershipVerdict:
    """Decide s_{y(n)}(a^n - 1) > c^n, exactly."""
    c = _threshold_base(c)
    y = cutoff.value_at(n)
    return _decide(n, y, c, smooth_part_of_term(seq, n, y))


def enumerate_members(seq: SequenceSpec, cutoff: CutoffSpec, c, N: int) -> list[int]:
    """All n in [1, N] whose smooth part beats c^n, ascending."""
    if N < 1:
        return []
    c = _threshold_base(c)
    primes_upto(_scan_limit(seq.base, N, cutoff.value_at(N)))  # presize the shared sieve once
    return [n for n in range(1, N + 1) if membership(seq, n, cutoff, c).member]


class CountingReport(NamedTuple):
    """Prime count against its certified combinatorial ceiling."""

    n: int
    prime_count: int
    log_sum: float
    normalized: float  # log_sum / sqrt(K * n)
    bound: int  # sum over d | n of min(floor(Kn/d) + 1, floor(d * log2 a))
    bound_holds: bool
    records: list[tuple[int, int, int]]  # (p, ell, o) of the primes counted, ascending


def counting_report(seq: SequenceSpec, K, n: int) -> CountingReport:
    """Count primes p <= floor(Kn) with order dividing n and certify the
    per-divisor ceiling.

    Each divisor d of n contributes primes with order exactly d; these
    are = 1 mod d (at most floor(Kn/d) + 1 of them below the cutoff) and
    divide a^d - 1 (at most floor(d*log2 a) = bits(a^d) - 1 distinct
    primes).  Since floor(d*log2 a) >= d, a^d is built only when
    floor(Kn/d) + 1 > d.
    """
    K = Fraction(K)
    y = CutoffSpec.linear(K).value_at(n)
    records = [(p, ell, o) for p, ell, o in zip(*order_columns(seq, y)) if n % ell == 0]
    log_sum = math.fsum(math.log(p) for p, _, _ in records)
    a = seq.base
    bound = 0
    for d in divisors(n):
        count = y // d + 1
        if count > d:
            count = min(count, (a**d).bit_length() - 1)
        bound += count
    # float(K) underflows to 0 only where K*n < 2 (for n within a double),
    # which leaves no records
    normalized = log_sum / math.sqrt(float(K) * n) if records else 0.0
    return CountingReport(
        n=n,
        prime_count=len(records),
        log_sum=log_sum,
        normalized=normalized,
        bound=bound,
        bound_holds=len(records) <= bound,
        records=records,
    )
