"""Smooth parts of a^n - 1 without materializing the term, membership in
the threshold set {n : s_{y(n)}(a^n - 1) > c^n}, and the prime-counting
quantities behind it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import Factorization, primes_upto
from .orders import OrderRecord, SequenceSpec, order_records, term_valuation_direct

# Relative width of the band around the threshold inside which the
# membership decision is re-made in exact integer arithmetic.
TIE_GUARD = 1e-9


def _integer_root(m: int, k: int) -> int:
    """floor(m ** (1/k)) for m >= 0, k >= 1, in integers only: the root
    has at most ceil(bits(m)/k) bits, set one at a time from the top."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if k == 1 or m < 2:
        return m
    r = 0
    for i in reversed(range(-(-m.bit_length() // k))):
        candidate = r | (1 << i)
        if candidate**k <= m:
            r = candidate
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
        return _integer_root(n**p, q)

    def describe(self) -> str:
        if self.mode == "linear":
            return f"floor({self.param} * n)"
        return f"floor(n ** {self.param})"


@dataclass(frozen=True)
class SmoothPartRecord:
    n: int
    cutoff_y: int
    factors: Factorization
    log_value: float  # natural log
    exact_value: int | None = None


@dataclass(frozen=True)
class MembershipVerdict:
    n: int
    cutoff: CutoffSpec
    c: Fraction
    log_s: float
    threshold: float  # n * ln c
    member: bool
    margin: float
    exact_tiebreak_used: bool


def smooth_part_of_term(
    seq: SequenceSpec, n: int, y: int, materialize: bool = False
) -> SmoothPartRecord:
    """s_y(a^n - 1) assembled prime by prime.

    A prime p <= y (with p not dividing the base) contributes exactly
    when a^n = 1 mod p; its exponent comes from term_valuation_direct.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = seq.base
    entries = []
    for p in primes_upto(y):
        if a % p == 0 or pow(a, n, p) != 1:
            continue
        entries.append((p, term_valuation_direct(seq, n, p)))
    factors = Factorization(tuple(entries))
    log_value = factors.log_value()
    exact = factors.value() if materialize else None
    return SmoothPartRecord(n=n, cutoff_y=y, factors=factors, log_value=log_value, exact_value=exact)


def membership(seq: SequenceSpec, n: int, cutoff: CutoffSpec, c) -> MembershipVerdict:
    """Decide s_{y(n)}(a^n - 1) > c^n, exactly.

    The comparison runs in log space; near-ties inside the guard band
    are settled in exact integer arithmetic with c = P/Q.
    """
    c = Fraction(c)
    if c <= 1:
        raise ValueError("c must be > 1")
    record = smooth_part_of_term(seq, n, cutoff.value_at(n))
    threshold = n * math.log(c)
    margin = record.log_value - threshold
    tiebreak = abs(margin) < TIE_GUARD * max(1.0, threshold)
    if tiebreak:
        s = record.factors.value()
        member = s * c.denominator**n > c.numerator**n
    else:
        member = margin > 0
    return MembershipVerdict(
        n=n,
        cutoff=cutoff,
        c=c,
        log_s=record.log_value,
        threshold=threshold,
        member=member,
        margin=margin,
        exact_tiebreak_used=tiebreak,
    )


def enumerate_members(seq: SequenceSpec, cutoff: CutoffSpec, c, N: int) -> list[int]:
    """All n in [1, N] whose smooth part beats c^n, ascending."""
    if N < 1:
        return []
    c = Fraction(c)
    if c <= 1:
        raise ValueError("c must be > 1")
    primes_upto(cutoff.value_at(N))  # presize the shared sieve once
    return [n for n in range(1, N + 1) if membership(seq, n, cutoff, c).member]


def term_prime_log_sum(seq: SequenceSpec, K, n: int) -> float:
    """Sum of ln p over primes p <= floor(K*n) dividing a^n - 1, in
    ascending-prime order."""
    y = CutoffSpec.linear(K).value_at(n)
    a = seq.base
    return math.fsum(
        math.log(p) for p in primes_upto(y) if a % p != 0 and pow(a, n, p) == 1
    )


def order_divisor_primes(seq: SequenceSpec, K, n: int) -> list[OrderRecord]:
    """Order records for the primes p <= floor(K*n), p not dividing the
    base, whose order divides n (equivalently p | a^n - 1)."""
    y = CutoffSpec.linear(K).value_at(n)
    return [rec for rec in order_records(seq, y) if n % rec.ell == 0]


@dataclass(frozen=True)
class CountingReport:
    """Prime count against its certified combinatorial ceiling."""

    n: int
    K: Fraction
    prime_count: int
    log_sum: float
    normalized: float  # log_sum / sqrt(K * n)
    bound: int  # sum over d | n of min(floor(Kn/d) + 1, floor(d * log2 a))
    bound_holds: bool
    records: list[OrderRecord]  # the primes counted, ascending


def _floor_log2_power(a: int, d: int) -> int:
    """floor(d * log2(a)) exactly, as floor(log2(a^d))."""
    return (a**d).bit_length() - 1


def counting_report(seq: SequenceSpec, K, n: int) -> CountingReport:
    """Count primes p <= floor(Kn) with order dividing n and certify the
    per-divisor ceiling.

    Each divisor d of n contributes primes with order exactly d; these
    are = 1 mod d (at most floor(Kn/d) + 1 of them below the cutoff) and
    divide a^d - 1 (at most floor(d*log2 a) distinct primes).
    """
    K = Fraction(K)
    records = order_divisor_primes(seq, K, n)
    log_sum = math.fsum(math.log(r.p) for r in records)
    y = CutoffSpec.linear(K).value_at(n)
    a = seq.base
    bound = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            for div in {d, n // d}:
                bound += min(y // div + 1, _floor_log2_power(a, div))
        d += 1
    normalized = log_sum / math.sqrt(float(K) * n)
    return CountingReport(
        n=n,
        K=K,
        prime_count=len(records),
        log_sum=log_sum,
        normalized=normalized,
        bound=bound,
        bound_holds=len(records) <= bound,
        records=records,
    )
