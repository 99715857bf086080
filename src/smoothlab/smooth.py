"""Smooth parts of a^n - 1 without materializing the term, membership in
the threshold set {n : s_{y(n)}(a^n - 1) > c^n}, and the prime-counting
quantities behind it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, islice
from operator import not_
from typing import NamedTuple

from .arith import SIEVE_MAX, Factorization, _cyclotomic, _progression, _shared_sieve, _Sieve, factorize
from .orders import SequenceSpec, _lift, _records

# Relative width of the band around the threshold inside which the
# membership decision is re-made in exact integer arithmetic.
TIE_GUARD = 1e-9

# smooth_part_of_term takes its per-divisor passes while
# _divisor_passes' estimate of the primes they visit stays below this
# multiple of the primes <= Y, and tests every prime <= Y from there on.
# A visited prime mostly costs one C-level (a^d - 1) mod p, below one
# pow test, so the crossover lies above 1.  Measured before any pass was
# cut, when every pass ran to min(Y, a^d - 1): over 600 n in [100, 3000],
# 400 in [3000, 10^4] and 600 in [10^4, 10^6], half uniform and half
# 13-smooth, at y = n (random bases 2-10, both routes timed per n, the
# full scan with the estimate that picks it, best of 5 interleaved,
# two seeds, 2-core box, Python 3.11), the passes took a median
# 0.79-0.80, 0.91 and 0.96-1.01 of the full scan's time at estimates
# 1.00-1.25, 1.25-1.50 and 1.50-1.75.  At 1.5 the routes taken summed
# to 1.005-1.008, 1.001-1.003 and 1.002-1.003 times the faster route
# per n over the three ranges (up to 1.023 at 1.25, up to 1.013 at
# 1.75).
_SLICE_SHARE = 1.5

# Most bits of a^d - 1 that a pass divides by each of its primes; past
# it the pass tests pow(a, d, p) == 1 instead.  Per prime near 10^6, one
# (a^d - 1) mod p in a C-level pass took 80-180 ns up to 256 bits, 385
# ns at 1024 and 646 ns at 2048, against 420-880 ns for the pow test.
# Over bases 2, 3, 5, 6, 7, 10 at 12 n in 5040..10^6 (y = n, best of 5,
# timed interleaved with another copy of the module, 2-core box, Python
# 3.11), a cap of 256 bits took 1.014 and one of 4096 bits 1.004 times
# as long as 1024.  Measured on uncut passes; a cut pass divides its
# piece, about Y^2 at most, and never comes near the cap.
_MOD_PASS_BITS = 1024

# What setting up one pass costs, its progression read off the sieve
# and a^d - 1 built, counted as this many visited primes in the
# estimate.  Measured as for _SLICE_SHARE, on uncut passes, with no such
# charge the routes taken summed to 1.029-1.032 times the faster route
# per n at n <= 3000 (at a share of 1.0, its best there), against
# 1.005-1.008 with 16 at 1.5; 8 gave 1.002-1.004 at 1.25 but up to 1.011
# above n = 3000, and 32 gave 1.014-1.019 at 2.0.  A cut pass is charged
# it twice more per piece, once for building Phi_d(a) and once for the
# piece's own progression: at Y = 3000 (bases 2, 3, 10, each d < 120
# with a^d - 1 > Y, best of 5, CPU time of the thread, 2-core box, Python 3.11), an uncut
# pass cost 12-13 visited primes beyond its visits, and a cut piece
# 33-40 all told.
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


def _divisors_below(n: int, Y: int, primes: list[int], found: list[int]):
    """Yield (d, phi(d)) for 1 and the divisors d < Y of n, except the
    odd ones of an even n, built up prime by prime as n's primes below Y
    turn up in trial division by the ascending primes, which list at
    least those up to min(Y - 1, isqrt(n)); so n itself is never
    factored past Y.  Each prime of n is appended to found as it turns
    up, so when d is yielded found holds every prime of d.

    The list can end below the square root of what is left of n, as for
    a prime n.  What is left then has no prime up to isqrt(n) or below
    Y: it is 1, n's last prime (above isqrt(n)), or a number whose
    primes are all >= Y.  The sentinel n after the walk, whose square
    exceeds anything left, hands it to the q = rest step, which takes it
    exactly when 1 < rest < Y."""
    yield 1, 1
    divisors = [(1, 1)]
    rest = n
    for q in chain(primes, (n,)):
        if q * q > rest:
            q = rest  # 1, or the last prime of n
        if q == 1 or q >= Y:
            return
        if rest % q:
            continue
        rest //= q
        k = 1
        while rest % q == 0:
            rest //= q
            k += 1
        found.append(q)
        for i in range(len(divisors)):
            d, phi = divisors[i]
            if d == 1 and q > 2 and n % 2 == 0:
                continue  # its multiples by odd primes are odd
            d, phi = d * q, phi * (q - 1)
            for _ in range(k):
                if d >= Y:
                    break
                divisors.append((d, phi))
                yield d, phi
                d, phi = d * q, phi * q


def _divisor_passes(
    a: int, n: int, Y: int, sieve: _Sieve, count: int
) -> tuple[list[tuple[int, int]], list[tuple[int, list[int]]], float]:
    """The passes of smooth_part_of_term, for d = 1 and each divisor
    d < Y of n except an odd one of an even n: the uncut ones, the cut
    ones, and an estimate of the primes they visit.

    An uncut pass (d, L) runs over the primes p = 1 mod lcm(d, 2) up to
    L = min(Y, a^d - 1), counted as pi(L) / phi(d).  A pass that runs to
    Y may be cut instead, (d, the primes of d): it trial-divides each of
    its cyclotomic pieces only up to the piece's square root (see
    _term_primes).  Each piece is counted as pi(min(Y, r)) / phi(d),
    with r = 2^ceil(phi(d) * log2(a) / 2) standing for the root of a
    piece of about a^phi(d), plus 2 * _FEW_CANDIDATES: one set-up for
    building the piece and one for reading its progression.  A pass is
    cut where that count is the smaller, so never where r passes Y, as
    for a piece of Y^2 or more.  Every pass counts _FEW_CANDIDATES more
    for its own set-up.  The lists stop at the pass that brings the sum
    to _SLICE_SHARE * pi(Y), where the full scan is taken instead, so a
    dense n never lists all its divisors.  Every pi comes from
    sieve.count, as the sieve covers Y, and count is pi(Y); its prime
    list covers min(Y - 1, isqrt(n)) for the divisors."""
    pi = sieve.count
    limit = _SLICE_SHARE * count
    passes = []
    cuts = []
    visits = 0.0
    log2_a = math.log2(a)
    a_bits, Y_bits = a.bit_length() - 1, Y.bit_length()
    phi_max = 2 * (Y_bits - 1) / log2_a  # past it r >= 2^Y_bits > Y, and a cut visits no fewer
    found = []
    for d, phi in _divisors_below(n, Y, sieve.primes, found):
        if d * a_bits < Y_bits and (L := min(Y, a**d - 1)) < Y:  # else a^d >= 2^(d * a_bits) > Y
            passes.append((d, L))
            visits += pi(L) / phi + _FEW_CANDIDATES
        elif phi <= phi_max and (cut := (2 if d % 4 == 2 and d > 2 else 1)
                                 * (pi(1 << math.ceil(phi * log2_a / 2)) / phi
                                    + 2 * _FEW_CANDIDATES)) < count / phi:
            cuts.append((d, [q for q in found if d % q == 0]))
            visits += cut + _FEW_CANDIDATES
        else:
            passes.append((d, Y))
            visits += count / phi + _FEW_CANDIDATES
        if visits >= limit:
            break
    return passes, cuts, visits


def _piece_primes(piece: int, t: int, strip: list[int], Y: int) -> list[int]:
    """The primes p <= Y of order k, taken from the cyclotomic piece
    Phi_k(a), for the pass of t with k = t or t/2; strip holds the
    primes of t.

    A prime of Phi_k(a) either divides k or has order k, and then
    p = 1 mod k.  So once the primes of t are stripped, every prime of
    the rest lies in the progression of the pass of t, the primes
    p = 1 mod lcm(t, 2) (p = 2 has order 1, and an odd p = 1 mod k is
    = 1 mod 2k).  The rest is trial-divided, each hit fully, by one
    C-level mod pass over that progression up to min(Y, isqrt(rest)).
    What is left is then 1 or one prime, as two primes above the root
    would multiply to more than the rest, and it counts if it is <= Y;
    where the pass stopped at Y, every prime left lies above Y.
    """
    for q in strip:
        while piece % q == 0:
            piece //= q
    candidates = list(_progression(t, min(Y, math.isqrt(piece))))
    hits = list(compress(candidates, map(not_, map(piece.__mod__, candidates))))
    for p in hits:
        while piece % p == 0:
            piece //= p
    if 1 < piece <= Y:
        hits.append(piece)
    return hits


def _term_primes(a: int, n: int, Y: int) -> list[int]:
    """The primes p <= Y dividing a^n - 1, ascending.

    A prime p not dividing the base divides a^n - 1 iff its order
    d = ell_p divides n.  Then p = 1 mod d, so d < p <= Y, and p divides
    a^d - 1, so p <= a^d - 1.  Hence each such p turns up in the pass of
    its own d: over the primes p = 1 mod lcm(d, 2) up to
    min(Y, a^d - 1) (every prime up to a - 1 for d = 1, p = 2
    included), keeping those that divide a^d - 1.  A pass claims no
    false hit, as p | a^d - 1 and d | n give p | a^n - 1, and a prime of
    the base never divides a^d - 1.  Where n is even, the pass of an odd
    d > 1 is left out: the pass of 2d runs over the same progression, at
    least as far (none of it lies below Y if 2d >= Y), and a^d - 1
    divides a^(2d) - 1.  Each pass is one C-level (a^d - 1) mod p over
    its progression, or pow(a, d, p) where a^d - 1 would pass
    _MOD_PASS_BITS bits.  The divisors come from trial division of n
    below Y (see _divisor_passes).

    A pass that runs to Y may be cut instead (see _divisor_passes).  It
    needs only the primes of order d, since every other prime of
    a^d - 1 has an order e < d dividing d and turns up in the pass of e,
    or of 2e for an odd e > 1 of an even n.  Those are the primes of the cyclotomic piece Phi_d(a)
    (arith._cyclotomic) that do not divide d, and _piece_primes finds
    them by trial division that stops at the square root of the piece
    rather than at Y.  The pass of 2d that covers an odd d > 1 takes
    Phi_d(a) and then Phi_2d(a), over its one progression.

    When the passes are estimated to visit _SLICE_SHARE times the
    primes <= Y or more, as at a highly composite n, every prime p <= Y
    takes one test instead: p divides a^n - 1 iff
    a^gcd(n, p - 1) = 1 mod p, as ell_p divides p - 1 (the residue is 0
    where p divides the base, and a mod 2 for p = 2).
    """
    sieve = _shared_sieve(Y, min(Y - 1, math.isqrt(n)))
    count = sieve.count(Y)
    passes, cuts, visits = _divisor_passes(a, n, Y, sieve, count)
    if visits >= _SLICE_SHARE * count:
        gcd = math.gcd
        return [p for p in islice(_shared_sieve(Y, Y).primes, count) if pow(a, gcd(n, p - 1), p) == 1]
    d_max = _MOD_PASS_BITS / math.log2(a)
    found = set()
    for d, L in passes:
        candidates = list(_progression(d, L))
        if d > d_max:
            found.update(p for p in candidates if pow(a, d, p) == 1)
        else:
            found.update(compress(candidates, map(not_, map((a**d - 1).__mod__, candidates))))
    for d, qs in cuts:
        for k in (d // 2, d) if d % 4 == 2 and d > 2 else (d,):
            found.update(_piece_primes(_cyclotomic(a, k, [q for q in qs if k % q == 0]), d, qs, Y))
    return sorted(found)


def smooth_part_of_term(seq: SequenceSpec, n: int, y: int) -> Factorization:
    """The factors of s_y(a^n - 1), assembled prime by prime: the primes
    p <= min(y, a^n - 1) dividing a^n - 1 come from _term_primes'
    per-divisor passes, and the exponent of each is lifted against p^2,
    p^3, ... as in term_valuation_direct.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = seq.base
    hits = _term_primes(a, n, _scan_limit(a, n, y))
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
    _shared_sieve(_scan_limit(seq.base, N, cutoff.value_at(N)))  # presize the shared sieve once
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


def _divisors_upto(factors: tuple[tuple[int, int], ...], y: int):
    """Yield the divisors d <= y of the number with these ascending
    (prime, exponent) pairs, unordered, by a depth-first walk that drops
    a branch as soon as its next factor passes y; its stack holds only
    the branches pending along one path."""
    stack = [(1, 0)]
    while stack:
        d, i = stack.pop()
        yield d
        for j in range(i, len(factors)):
            q, k = factors[j]
            m = d * q
            if m > y:
                break  # and so for every larger prime
            for _ in range(k):
                stack.append((m, j + 1))
                m *= q
                if m > y:
                    break


def counting_report(seq: SequenceSpec, K, n: int) -> CountingReport:
    """Count primes p <= floor(Kn) with order dividing n and certify the
    per-divisor ceiling.

    Those are the primes p <= floor(Kn) dividing a^n - 1, so they are
    found by smooth_part_of_term's passes (_term_primes), without the
    base's order columns.  Their records (ell_p, o_p) come from the
    step order_record takes, which factors the odd part of each p - 1.

    Each divisor d of n contributes primes with order exactly d; these
    are = 1 mod d (at most floor(Kn/d) + 1 of them below the cutoff) and
    divide a^d - 1 (at most floor(d*log2 a) = bits(a^d) - 1 distinct
    primes).  Since floor(d*log2 a) >= d, a^d is built only when
    floor(Kn/d) + 1 > d; so each of the tau(n) - #{d <= Kn} divisors
    d > Kn adds exactly 1, and only the divisors d <= Kn are walked.
    """
    K = Fraction(K)
    y = CutoffSpec.linear(K).value_at(n)
    a = seq.base
    hits = _term_primes(a, n, _scan_limit(a, n, y))
    records = list(_records(a, hits))
    factors = factorize(n)
    log_sum = math.fsum(math.log(p) for p in hits)
    bound = math.prod(k + 1 for _, k in factors)
    for d in _divisors_upto(factors.entries, y):
        count = y // d + 1
        if count > d:
            count = min(count, (a**d).bit_length() - 1)
        bound += count - 1
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
