"""Central binomial coefficients as the contrast case: all their prime
factors sit below 2n, so the 2n-smooth part is the whole coefficient."""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import islice
from typing import NamedTuple

from .arith import Factorization, primes_upto


def binomial_valuation(n: int, p: int) -> int:
    """v_p(C(2n, n)) by counting the carries when n + n is added in
    base p; 0 once p > 2n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if p > 2 * n:
        return 0
    carries = 0
    t = n
    carry = 0
    while t > 0 or carry:
        digit = t % p
        carry = 1 if 2 * digit + carry >= p else 0
        carries += carry
        t //= p
    return carries


class BinomialReport(NamedTuple):
    n: int
    cutoff_y: int  # 2n
    factors: Factorization
    smooth_part: int  # reconstructed product; equals C(2n, n)
    log_s: float
    threshold: float  # n * ln 2
    member: bool  # strict smooth_part > 2^n
    margin: float
    reconstruction_ok: bool


def binomial_membership(n: int) -> BinomialReport:
    """s_{2n}(C(2n, n)) assembled from carry counts, checked against the
    coefficient itself, and compared (strictly) with 2^n.

    n = 1 is the boundary: 2 > 2 fails, so it is reported non-member.
    A prime p with p^2 > 2n adds n + n in at most two base-p digits.  The
    high digit n // p <= (p - 1) / 2 carries only with a carry in from a
    low digit n mod p >= (p + 1) / 2, and both at once make 2n > p^2.  So
    such p has v_p = 1 exactly when 2 (n mod p) >= p, and only the primes
    up to sqrt(2n) count their carries digit by digit.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    primes = primes_upto(2 * n)
    k = bisect_right(primes, math.isqrt(2 * n))
    entries = []
    for p in islice(primes, k):
        e = binomial_valuation(n, p)
        if e:
            entries.append((p, e))
    entries += [(p, 1) for p in islice(primes, k, None) if 2 * (n % p) >= p]
    factors = Factorization(tuple(entries))
    s = factors.value()
    log_s = factors.log_value()
    threshold = n * math.log(2)
    return BinomialReport(
        n=n,
        cutoff_y=2 * n,
        factors=factors,
        smooth_part=s,
        log_s=log_s,
        threshold=threshold,
        member=s > 2**n,
        margin=log_s - threshold,
        reconstruction_ok=s == math.comb(2 * n, n),
    )
