"""Smooth parts of a^n - 1 without materializing the term, membership in
the threshold set {n : s_{y(n)}(a^n - 1) > c^n}, and the prime-counting
quantities behind it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice
from operator import not_
from typing import NamedTuple

from .arith import SIEVE_MAX, Factorization, _shared_sieve, divisors, primes_upto
from .orders import SequenceSpec, _lift, order_columns

# Relative width of the band around the threshold inside which the
# membership decision is re-made in exact integer arithmetic.
TIE_GUARD = 1e-9

# smooth_part_of_term takes the slice route while _slices' estimate of
# the primes it visits (each slice, and for a slice that runs to Y its
# first sub-progressions as well, each progression counted as
# _FEW_CANDIDATES primes more) stays below this multiple of the primes
# <= Y, and tests every prime <= Y from there on.  A visited prime
# mostly costs one C-level (a^g - 1) mod p, below one pow test, so the
# crossover lies above 1.  Over 600 n in [100, 3000], 400 in
# [3000, 10^4] and 600 in [10^4, 10^6], half uniform and half 13-smooth,
# at y = n (random bases 2-10, best of 3 interleaved, 2-core box,
# Python 3.11), the slice route took a median 0.86, 0.81 and 0.78-0.81
# of the full scan's time at estimates 1.00-1.25, 0.97, 0.98 and
# 0.85-1.02 at 1.25-1.50, and 1.04, 1.07 and 1.03-1.16 at 1.50-1.75.
# At 1.25 the routes taken summed to 1.009, 1.005 and 1.005 times the
# faster route per n (1.018-1.032 at 1.0, 1.004-1.006 at 1.5).
_SLICE_SHARE = 1.25

# Most bits of a^g - 1 that _slice_hits divides by each prime of a
# progression; past it the progression's primes take the
# a^gcd(n, p - 1) mod p test.  Per prime near 10^6, one (a^g - 1) mod p
# in a C-level pass took 80-180 ns up to 256 bits, 385 ns at 1024 and
# 646 ns at 2048, against 420-880 ns for the pow test, but a pass also
# sends the progression's sub-progressions through passes of their
# own.  Over bases 2, 3, 5, 6, 7, 10 at 12 n in 5040..10^6 (y = n,
# best of 5, two copies of the module timed interleaved, 2-core box,
# Python 3.11), a cap of 256 bits took 1.006 and one of 4096 bits 1.003
# times as long as 1024: the cap keeps the powers built small at no
# measurable cost.
_MOD_PASS_BITS = 1024

# A progression with fewer primes than this leaves them to the pow
# test instead of a modulus pass and sub-progressions of its own,
# whose set-up costs more than a few pow calls; _slices counts the
# same set-up as this many primes.  Against 16, measured as above, 8
# took 1.002 and 32 took 1.041 times as long over every n <= 3000 at
# y = n and n in (1000, 2000] at y = 2000, and 0.998 and 1.000 over
# the 12 large n.
_FEW_CANDIDATES = 16

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


def _slices(a: int, n: int, Y: int, primes: list[int]) -> tuple[list[tuple[int, int]], float, list[int]]:
    """Pairs (d, L) whose progressions {p prime : p = 1 mod d, p <= L}
    together hold every prime p <= Y that divides a^n - 1 and not a, with
    an estimate of the primes _slice_hits visits for them, and the primes
    of n below Y, ascending.  The estimate sums pi(L) / phi(d) over the
    slices and, for a slice that runs to Y, pi(Y) / phi(u) over its
    first sub-progressions u = lcm(t, g * q) (t = lcm(d, 2), g =
    gcd(n, t), q a prime of n with g * q | n), and counts each of these
    progressions as _FEW_CANDIDATES primes more, about what setting it
    up costs.  The sum stops once it reaches _SLICE_SHARE * pi(Y), where
    smooth_part_of_term's choice of route is made.

    Such a p has order d = ell_p dividing n and p - 1, so p = 1 mod d,
    d < p <= Y, and p divides a^d - 1, so p <= a^d - 1.  Each divisor
    d < Y of n with a^d - 1 < Y gives (d, a^d - 1).  The divisors with
    a^d - 1 >= Y give (d, Y), but only those no smaller one of them
    divides: p = 1 mod d implies p = 1 mod e for e | d.  Those minimal d
    are d = s * q for a divisor s with a^s - 1 < Y and a prime q of n no
    larger than any prime of s, or d = 1 when a - 1 >= Y.  The primes q
    come from trial division of n by the ascending sieved primes below
    Y, so n itself is never factored past Y."""
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
    small = []  # (d, a^d - 1) for d | n, a^d <= Y
    power, d = a, 1
    while power <= Y:
        if n % d == 0:
            small.append((d, power - 1))
        power *= a
        d += 1
    small_max = d - 1
    slices = list(small) if small else [(1, Y)]  # small is empty iff a > Y
    for s, _ in small:
        for q in qs:
            d = s * q
            if d >= Y:
                break
            if d > small_max and n % d == 0:
                slices.append((d, Y))
            if s % q == 0:  # q is the least prime of s
                break
    count = bisect_right(primes, Y)
    limit = _SLICE_SHARE * count
    visits = 0.0
    for d, L in reversed(slices):  # the larger slices that run to Y first
        if visits >= limit:
            break  # the route is decided
        phi = d
        for q in qs:
            if d % q == 0:
                phi -= phi // q
        if L < Y:
            visits += bisect_right(primes, L) / phi + _FEW_CANDIDATES
            continue
        # phi(lcm(d, 2)) = phi(d); u = lcm(t, g * q) = t * q, as g * q | n
        # does not divide t, and phi(u) = phi(t) * q, or * (q - 1) where
        # q is new to t
        t = d if d % 2 == 0 else 2 * d
        size = count / phi
        visits += size + _FEW_CANDIDATES
        g = math.gcd(n, t)
        for q in qs:
            if n % (g * q) == 0 and t * q < Y:
                visits += size / (q if t % q == 0 else q - 1) + _FEW_CANDIDATES
    return slices, visits, qs


def _pow_test(a: int, n: int, candidates) -> list[int]:
    """The candidates p with a^gcd(n, p - 1) = 1 mod p, in order."""
    gcd = math.gcd
    return [p for p in candidates if pow(a, gcd(n, p - 1), p) == 1]


def _progression(t: int, L: int, primes: list[int], mark: bytearray) -> list[int]:
    """The primes p <= L with p = 1 mod t, ascending: for t = 1 the prime
    list, which keeps p = 2, and otherwise a C-level slice of the
    sieve's byte mark stepped by lcm(t, 2), as an odd p = 1 mod t is
    = 1 mod 2t."""
    if t == 1:
        return primes[: bisect_right(primes, L)]
    s = t if t % 2 == 0 else 2 * t
    return list(compress(range(s + 1, L + 1, s), mark[s + 1 : L + 1 : s]))


def _slice_hits(a: int, n: int, Y: int, slices: list[tuple[int, int]], qs: list[int],
                primes: list[int], mark: bytearray) -> set[int]:
    """The primes of the slices (d, L) that divide a^n - 1, given the
    primes qs of n below Y and the sieve's byte mark up to Y.

    A slice that stops at L = a^d - 1 < Y is there for the primes of
    order d, which divide L.  As each such d divides n, a prime that
    divides the product of these L divides a^n - 1, so one C-level pass
    of that product mod p over all their primes finds exactly their
    hits.

    A slice that runs to Y is taken as progressions p = 1 mod t, from
    t = lcm(d, 2) on (t = 1 for d = 1, whose progression is the prime
    list).  In one, every p has g = gcd(n, t) dividing G = gcd(n, p - 1).
    Where G = g, p divides a^n - 1 iff it divides a^g - 1 (ell_p | n iff
    ell_p | g), and for any p, p | a^g - 1 implies p | a^n - 1, as
    g | n.  So one pass of (a^g - 1) mod p decides the progression's p
    with G = g and claims no false hit.  A p with G > g has g * q | G
    for a prime q of n (q < Y, as g * q <= p - 1), so it lies in the
    progression of u = lcm(t, g * q, 2), which is taken in turn, and
    gcd(n, u) >= g * q; along such steps g rises to G, where the pass
    decides p.  A progression with fewer than _FEW_CANDIDATES primes,
    or whose a^g - 1 could exceed _MOD_PASS_BITS bits, is not passed or
    split: its primes not found elsewhere take the a^gcd(n, p - 1) mod p
    test, which decides them, and so every progression inside it.  (For
    p = 2, in the progression of t = 1, a^g - 1 is even iff a is odd,
    which is right: ell_2 = 1.)"""
    moduli = []  # of the progressions still to take, each once
    stopped = []  # the primes of the slices that stop below Y
    product = 1  # of their a^d - 1
    for d, L in slices:
        if L == Y:
            moduli.append(d if d == 1 else math.lcm(d, 2))
        else:
            stopped += _progression(d, L, primes, mark)
            product *= L
    hits = set(compress(stopped, map(not_, map(product.__mod__, stopped))))
    rest: set[int] = set()  # the primes of the progressions left to the pow test
    seen = set(moduli)
    g_max = _MOD_PASS_BITS / math.log2(a)
    while moduli:
        t = moduli.pop()
        candidates = _progression(t, Y, primes, mark)
        g = math.gcd(n, t)
        if len(candidates) < _FEW_CANDIDATES or g > g_max:
            rest.update(candidates)
            continue
        hits.update(compress(candidates, map(not_, map((a**g - 1).__mod__, candidates))))
        for q in qs:
            if n % (g * q) == 0:
                u = math.lcm(t, g * q, 2)
                if u < Y and u not in seen:
                    seen.add(u)
                    moduli.append(u)
    if rest:
        hits.update(_pow_test(a, n, rest - hits))
    return hits


def smooth_part_of_term(seq: SequenceSpec, n: int, y: int) -> Factorization:
    """The factors of s_y(a^n - 1), assembled prime by prime.

    A prime p <= Y = min(y, a^n - 1) contributes exactly when
    a^gcd(n, p - 1) = 1 mod p: for p not dividing the base, p divides
    a^n - 1 iff its order ell_p divides n, and ell_p divides p - 1.  The
    residue is 0 when p divides the base and a mod 2 for p = 2, so no
    prime needs a second test.  The exponent of each prime found is
    lifted against p^2, p^3, ... as in term_valuation_direct.

    Only candidates are tested, and they miss no such p: p = 1 mod ell_p
    and p <= a^ell_p - 1, so p lies in one of _slices' progressions over
    the divisors of n.  _slice_hits decides them with C-level passes of
    (a^g - 1) mod p instead of one gcd and one pow per prime.  The pass
    for a divisor g of n dividing gcd(n, p - 1) is exact: ell_p | n
    iff ell_p | gcd(n, p - 1), so where gcd(n, p - 1) = g, p | a^n - 1
    iff p | a^g - 1, and p | a^g - 1 implies p | a^n - 1 for every p.
    The candidates with gcd(n, p - 1) > g all lie in sub-progressions
    p = 1 mod lcm(t, g * q, 2), q a prime of n, which take passes of
    their own (see _slice_hits).  When _slices estimates that the route
    would visit _SLICE_SHARE times the primes <= Y or more, as at a
    highly composite n, every prime <= Y takes the a^gcd(n, p - 1) test
    instead.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = seq.base
    Y = _scan_limit(a, n, y)
    _, primes, mark = _shared_sieve(Y)
    count = bisect_right(primes, Y)
    slices, visits, qs = _slices(a, n, Y, primes)
    if visits < _SLICE_SHARE * count:
        hits = sorted(_slice_hits(a, n, Y, slices, qs, primes, mark))
    else:
        hits = _pow_test(a, n, islice(primes, count))
    return Factorization(tuple((p, _lift(a, n, p)) for p in hits))


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
