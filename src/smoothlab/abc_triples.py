"""Full factorization of a^n - 1 at small n, the smooth/rough
decomposition a^n - 1 = s * t, and the quality of the triple
(a^n - 1, 1, a^n)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import Factorization, factorize, radical
from .orders import SequenceSpec
from .smooth import CutoffSpec


def factor_term(seq: SequenceSpec, n: int) -> Factorization:
    """Complete factorization of a^n - 1.  Factoring failures propagate
    with the partial result attached."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return factorize(seq.base**n - 1)


@dataclass(frozen=True)
class AbcTripleReport:
    n: int
    A: int  # a^n - 1
    B: int  # 1
    C: int  # a^n
    rad_ABC: int
    quality: float  # ln C / ln rad(ABC)
    s_factors: Factorization  # smooth part at cutoff floor(Kn)
    s_value: int
    t_value: int
    log_t: float
    cofactor_bound: float  # n * ln(a/c)
    cofactor_below_bound: bool


def abc_quality(seq: SequenceSpec, n: int, K, c) -> AbcTripleReport:
    """Quality of (a^n - 1) + 1 = a^n and the s * t decomposition at
    cutoff floor(Kn).

    Needs 1 < c < a.  For n = 1 with a = 2 the triple degenerates to
    (1, 1, 2) and the radical of A is 1.
    """
    c = Fraction(c)
    a = seq.base
    if not 1 < c < a:
        raise ValueError("c must satisfy 1 < c < base")
    cutoff = CutoffSpec.linear(K)
    A = a**n - 1
    C = a**n
    factors = factor_term(seq, n)
    rad_abc = (1 if A == 1 else factors.radical()) * radical(a)
    quality = n * math.log(a) / math.log(rad_abc)
    s_factors = factors.restrict(cutoff.value_at(n))
    s = s_factors.value()
    t = A // s
    log_t = math.log(t)
    bound = n * (math.log(a) - math.log(c))
    return AbcTripleReport(
        n=n,
        A=A,
        B=1,
        C=C,
        rad_ABC=rad_abc,
        quality=quality,
        s_factors=s_factors,
        s_value=s,
        t_value=t,
        log_t=log_t,
        cofactor_bound=bound,
        cofactor_below_bound=log_t < bound,
    )
