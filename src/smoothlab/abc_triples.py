"""Full factorization of a^n - 1 at small n, the smooth/rough
decomposition a^n - 1 = s * t, and the quality of the triple
(a^n - 1, 1, a^n)."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .arith import TRIAL_DIVISION_LIMIT, Factorization, _cyclotomic, _split, _trial_divide, factorize, radical
from .orders import SequenceSpec
from .smooth import POWER_CUTOFF_MAX_BITS, CutoffSpec, _divisors_upto


def factor_term(seq: SequenceSpec, n: int) -> Factorization:
    """Complete factorization of a^n - 1, one cyclotomic piece at a time.

    a^n - 1 is the product of Phi_d(a) over the divisors d of n, and a
    prime p not dividing n divides Phi_d(a) only for d = ell_p, so the
    pieces already keep apart what rho would have to split.  The primes
    of n come from one factorize(n), and its divisors from the walk over
    them that counting_report takes (smooth._divisors_upto), sorted.
    Each piece, taken for ascending d, is Phi_d(a) as the Moebius
    product over the primes of d (arith._cyclotomic), trial-divided by
    the primes of d and those = 1 mod d (arith._trial_divide) and then
    split as factorize splits its rest, the exponents summed over the
    pieces.  When a piece exhausts the rho budget, the
    FactorizationError carries every prime found so far as its partial
    result and that piece's unfactored composite as its cofactor.
    Raises ValueError, before any power of a is built, for a term of
    more than POWER_CUTOFF_MAX_BITS bits counted as n * bits(a).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = seq.base
    bits = n * a.bit_length()
    if bits > POWER_CUTOFF_MAX_BITS:
        raise ValueError(f"the term {a}^{n} - 1 has up to {bits} bits,"
                         f" above POWER_CUTOFF_MAX_BITS = {POWER_CUTOFF_MAX_BITS}")
    factors = factorize(n)
    found: dict[int, int] = {}  # prime -> exponent summed over pieces
    for d in sorted(_divisors_upto(factors.entries, n)):
        qs = [q for q, _ in factors if d % q == 0]
        rest = _trial_divide(_cyclotomic(a, d, qs), d, qs, TRIAL_DIVISION_LIMIT, found)
        term = _split(rest, found)  # the pieces so far, as found holds them all
    return term


class AbcTripleReport(NamedTuple):
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
    cofactor_below_bound: bool  # t < (a/c)^n, exact with c = P/Q


def abc_quality(seq: SequenceSpec, n: int, K, c) -> AbcTripleReport:
    """Quality of (a^n - 1) + 1 = a^n and the s * t decomposition at
    cutoff floor(Kn).

    Needs 1 < c < a, and a term factor_term accepts, which it checks
    before a^n is built.  For n = 1 with a = 2 the triple degenerates to
    (1, 1, 2) and the radical of A is 1.
    """
    c = Fraction(c)
    a = seq.base
    if not 1 < c < a:
        raise ValueError("c must satisfy 1 < c < base")
    cutoff = CutoffSpec.linear(K)
    factors = factor_term(seq, n)
    C = a**n
    A = C - 1
    rad_abc = factors.radical() * radical(a)
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
        cofactor_below_bound=t * c.numerator**n < C * c.denominator**n,
    )
