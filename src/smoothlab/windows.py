"""Windowed products of smooth parts over (N/2, N], per-prime valuation
sums, and the two-bin split of primes by o_p * ln p / ell_p.

Everything here is finite and exact (or double precision where a real
number is unavoidable); nothing asserts an asymptotic.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .arith import is_prime, valuation
from .bounds import density_bound, stewart_bound
from .orders import (
    OrderRecord,
    SequenceSpec,
    order_record,
    order_records,
    term_valuation_direct,
)
from .smooth import CutoffSpec, enumerate_members, membership, smooth_part_of_term


def _window(N: int) -> range:
    """Integers n with N/2 < n <= N."""
    return range(N // 2 + 1, N + 1)


def _count_multiples_in_window(m: int, N: int) -> int:
    """#{N/2 < n <= N : m | n}."""
    return N // m - (N // 2) // m


def _lte_window_sum(rec: OrderRecord, N: int) -> int:
    """Sum of o_p + v_p(n) over the n in the window that ell_p divides,
    from the order record alone; for odd p this is the window sum of
    v_p(a^n - 1).  Counted as o_p * #(multiples of ell_p) + sum over
    k >= 1 of #(multiples of ell_p * p^k)."""
    total = rec.o * _count_multiples_in_window(rec.ell, N)
    m = rec.ell * rec.p
    while m <= N:
        total += _count_multiples_in_window(m, N)
        m *= rec.p
    return total


@dataclass(frozen=True)
class WindowReport:
    N: int
    K: Fraction
    cutoff_y: int
    log_Q: float  # n-major evaluation
    log_Q_by_prime: float  # p-major evaluation
    per_prime_contributions: list[tuple[int, int, float]]  # (p, sum of v_p, sum * ln p)
    member_count: int | None = None

    @property
    def agreement_delta(self) -> float:
        return abs(self.log_Q - self.log_Q_by_prime)


def window_product(seq: SequenceSpec, K, N: int, c=None) -> WindowReport:
    """log of prod over n in (N/2, N] of s_{floor(KN)}(a^n - 1), computed
    twice: summing direct valuations over n, and exchanging summation to
    run over primes with the lifting-the-exponent counts.

    member_count (against the threshold c^n at cutoff Kn) is filled only
    when c is supplied.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    cutoff = CutoffSpec.linear(K)
    y = cutoff.value_at(N)

    log_q = math.fsum(smooth_part_of_term(seq, n, y).log_value for n in _window(N))

    contributions = []
    for rec in order_records(seq, y):
        p = rec.p
        total = even_prime_window_sum(seq, N) if p == 2 else _lte_window_sum(rec, N)
        if total:
            contributions.append((p, total, total * math.log(p)))
    log_q_by_prime = math.fsum(c3 for _, _, c3 in contributions)

    member_count = None
    if c is not None:
        member_count = sum(1 for n in _window(N) if membership(seq, n, cutoff, c).member)

    return WindowReport(
        N=N,
        K=cutoff.param,
        cutoff_y=y,
        log_Q=log_q,
        log_Q_by_prime=log_q_by_prime,
        per_prime_contributions=contributions,
        member_count=member_count,
    )


def prime_window_valuation_sum(seq: SequenceSpec, p: int, N: int) -> tuple[int, int]:
    """Sum of v_p(a^n - 1) over the window, both directly and via the
    order data (_lte_window_sum).  The two must agree exactly.
    """
    if p == 2:
        raise ValueError("p = 2 has its own formula; use even_prime_window_sum")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if seq.base % p == 0:
        raise ValueError("p divides the base")
    if N < 1:
        raise ValueError("N must be >= 1")

    direct = sum(term_valuation_direct(seq, n, p) for n in _window(N))
    return direct, _lte_window_sum(order_record(seq, p), N)


def even_prime_window_sum(seq: SequenceSpec, N: int) -> int:
    """Exact sum of v_2(a^n - 1) over n in (N/2, N]; 0 for even bases.

    For odd a, v_2(a^n - 1) is o_2 for odd n and o_2 + v_2(a + 1) +
    v_2(n) - 1 for even n.  The record (2, 1, o_2) counts o_2 + v_2(n)
    for every n, so each even n adds v_2(a + 1) - 1 on top."""
    if N < 1:
        raise ValueError("N must be >= 1")
    a = seq.base
    if a % 2 == 0:
        return 0
    return (_lte_window_sum(order_record(seq, 2), N)
            + (valuation(a + 1, 2) - 1) * _count_multiples_in_window(2, N))


def _dyadic_index(ell: int) -> int:
    """i with ell in (2^i, 2^(i+1)]; ell = 1 maps to -1."""
    return (ell - 1).bit_length() - 1


@dataclass(frozen=True)
class DyadicReport:
    N: int
    K: Fraction
    y: float
    ratios: list[tuple[int, float]]  # (p, o_p * ln p / ell_p)
    Q1_size: int
    Q2_size: int
    S1: float  # N * sum of ratios over the small bin
    S2: float  # trivial estimate N * #Q2
    I: int  # max dyadic index of ell_p over Q2; -1 when Q2 empty
    stewart_values: list[tuple[int, float]]


def dyadic_partition(seq: SequenceSpec, K, N: int, y: float) -> DyadicReport:
    """Split the primes p <= floor(KN) (p not dividing the base) by
    whether o_p * ln p / ell_p falls below 1/y."""
    if not 0 < y < math.inf:
        raise ValueError("y must be positive and finite")
    if N < 1:
        raise ValueError("N must be >= 1")
    cutoff = CutoffSpec.linear(K)
    threshold = 1.0 / y

    ratios = []
    q1_sum = 0.0
    q1 = q2 = 0
    max_ell_q2 = 0
    stewart_values = []
    for rec in order_records(seq, cutoff.value_at(N)):
        p = rec.p
        r = rec.o * math.log(p) / rec.ell
        ratios.append((p, r))
        if r < threshold:
            q1 += 1
            q1_sum += r
        else:
            q2 += 1
            max_ell_q2 = max(max_ell_q2, rec.ell)
            if p >= 17:
                stewart_values.append((p, stewart_bound(p)))

    return DyadicReport(
        N=N,
        K=cutoff.param,
        y=y,
        ratios=ratios,
        Q1_size=q1,
        Q2_size=q2,
        S1=N * q1_sum,
        S2=float(N * q2),
        I=_dyadic_index(max_ell_q2) if q2 else -1,
        stewart_values=stewart_values,
    )


@dataclass(frozen=True)
class DensityRow:
    upper: float  # window is (upper/2, upper]
    member_count: int
    bound: float | None  # density bound at floor(upper), when defined
    ratio: float | None


def density_check(seq: SequenceSpec, cutoff: CutoffSpec, c, N: int) -> list[DensityRow]:
    """Member counts per dyadic window (N/2^(i+1), N/2^i] against the
    density bound.  Observational: ratios are reported, nothing is
    asserted."""
    if N < 3:
        raise ValueError("N must be >= 3")
    members = enumerate_members(seq, cutoff, c, N)
    rows = []
    upper = float(N)
    for _ in range(math.ceil(math.log2(N))):
        lower = upper / 2
        count = bisect_right(members, upper) - bisect_right(members, lower)
        m = int(upper)
        if m >= 3:
            bound = density_bound(m)
            ratio = count / bound
        else:
            bound = ratio = None
        rows.append(DensityRow(upper=upper, member_count=count, bound=bound, ratio=ratio))
        upper = lower
    return rows
