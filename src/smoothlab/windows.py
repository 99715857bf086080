"""Windowed products of smooth parts over (N/2, N], per-prime valuation
sums, and the two-bin split of primes by o_p * ln p / ell_p.

Each side of a window product is read once, in order, and stored
nowhere: the p-major side and the two-bin split consume the stream of
order_records, and the n-major side keeps one float per n, the log of
its term's smooth part.  Everything here is finite and exact (or double
precision where a real number is unavoidable); nothing asserts an
asymptotic.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple

from .bounds import density_bound
from .orders import SequenceSpec, _lte_sum, _valuation_direct, order_record, order_records
from .smooth import CutoffSpec, _decide, _threshold_base, enumerate_members, smooth_part_of_term


def _window(N: int) -> range:
    """Integers n with N/2 < n <= N."""
    return range(N // 2 + 1, N + 1)


class WindowReport(NamedTuple):
    N: int
    cutoff_y: int
    log_Q: float  # n-major evaluation
    log_Q_by_prime: float  # p-major evaluation
    agreement_delta: float  # |log_Q - log_Q_by_prime|
    member_count: int | None


def window_product(seq: SequenceSpec, K, N: int, c=None) -> WindowReport:
    """log of prod over n in (N/2, N] of s_{floor(KN)}(a^n - 1), computed
    twice: summing direct valuations over n, and exchanging summation to
    run over primes with the lifting-the-exponent counts.

    member_count (against the threshold c^n at cutoff Kn) is filled only
    when c is supplied, which is checked before any term is built; each
    n is decided from its term above exactly as membership decides it,
    in the same pass, which keeps only the log of each term.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    cutoff = CutoffSpec.linear(K)
    y = cutoff.value_at(N)
    c = None if c is None else _threshold_base(c)

    logs, members = [], 0
    for n in _window(N):
        term = smooth_part_of_term(seq, n, y)
        logs.append(term.log_value())
        if c is not None:
            members += _decide(n, cutoff.value_at(n), c, term).member
    log_q = math.fsum(logs)

    log_q_by_prime = math.fsum(
        _lte_sum(seq.base, p, ell, o, N // 2, N) * math.log(p)
        for p, ell, o in order_records(seq, y)
    )

    return WindowReport(
        N=N,
        cutoff_y=y,
        log_Q=log_q,
        log_Q_by_prime=log_q_by_prime,
        agreement_delta=abs(log_q - log_q_by_prime),
        member_count=None if c is None else members,
    )


def prime_window_valuation_sum(seq: SequenceSpec, p: int, N: int) -> tuple[int, int]:
    """Sum of v_p(a^n - 1) over the window, both directly and via the
    order data (orders._lte_sum).  The two must agree exactly.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    ell, o = order_record(seq, p)  # raises unless p is a prime coprime to the base
    direct = sum(_valuation_direct(seq.base, n, p) for n in _window(N))
    return direct, _lte_sum(seq.base, p, ell, o, N // 2, N)


def _dyadic_index(ell: int) -> int:
    """i with ell in (2^i, 2^(i+1)]; ell = 1 maps to -1."""
    return (ell - 1).bit_length() - 1


class DyadicReport(NamedTuple):
    N: int
    y: float
    Q1_size: int
    Q2_size: int
    S1: float  # N * sum of ratios over the small bin
    S2: float  # trivial estimate N * #Q2
    I: int  # max dyadic index of ell_p over Q2; -1 when Q2 empty


def dyadic_partition(seq: SequenceSpec, K, N: int, y: float) -> DyadicReport:
    """Split the primes p <= floor(KN) (p not dividing the base) by
    whether o_p * ln p / ell_p falls below 1/y."""
    if not 0 < y < math.inf:
        raise ValueError("y must be positive and finite")
    if N < 1:
        raise ValueError("N must be >= 1")
    cutoff = CutoffSpec.linear(K)
    threshold = 1.0 / y

    q1_sum = 0.0
    q1 = q2 = 0
    max_ell_q2 = 0
    for p, ell, o in order_records(seq, cutoff.value_at(N)):
        r = o * math.log(p) / ell
        if r < threshold:
            q1 += 1
            q1_sum += r
        else:
            q2 += 1
            max_ell_q2 = max(max_ell_q2, ell)

    return DyadicReport(
        N=N,
        y=y,
        Q1_size=q1,
        Q2_size=q2,
        S1=N * q1_sum,
        S2=float(N * q2),
        I=_dyadic_index(max_ell_q2) if q2 else -1,
    )


class DensityRow(NamedTuple):
    window_upper: float  # window is (window_upper/2, window_upper]
    member_count: int
    density_bound: float | None  # at floor(window_upper), when defined
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
        rows.append(DensityRow(upper, count, bound, ratio))
        upper = lower
    return rows
