"""Closed-form threshold and bound functions, in double precision with an
optional 50-digit mode for cross-checking.  mpmath is imported by the
first 50-digit call, so a process that never asks for one never loads it."""

from __future__ import annotations

import math

# Constants fixed by the analysis this toolkit makes observable.  The
# Stewart constant is kept as text so the 50-digit mode reads it exactly.
STEWART_CONSTANT = "51.9"
DENSITY_CONSTANT = 156

HIGH_PRECISION_DPS = 50


def _eval(formula, precision: str):
    """formula(m, real) over the number module m with real-number
    constructor real: math and float, or mpmath and mpf at 50 digits."""
    if precision == "double":
        return formula(math, float)
    if precision == "high":
        import mpmath

        with mpmath.workdps(HIGH_PRECISION_DPS):
            return formula(mpmath, mpmath.mpf)
    raise ValueError("precision must be 'double' or 'high'")


def default_y(N: int, precision: str = "double"):
    """exp((1/156) * ln N / ln ln N); needs N >= 3 so ln ln N > 0."""
    if N <= 2:
        raise ValueError("N must be >= 3")
    return _eval(
        lambda m, real: m.exp(m.log(N) / (DENSITY_CONSTANT * m.log(m.log(N)))),
        precision,
    )


def stewart_bound(p: int, precision: str = "double"):
    """p * exp(-ln p / (51.9 * ln ln p)); rejected below p = 17 where
    ln ln p is too small for the expression to act as a bound."""
    if p <= 16:
        raise ValueError("p must be >= 17")
    return _eval(
        lambda m, real: p * m.exp(-m.log(p) / (real(STEWART_CONSTANT) * m.log(m.log(p)))),
        precision,
    )


def density_bound(N: int, precision: str = "double"):
    """N * exp(-ln N / (156 * ln ln N)) for N >= 3."""
    if N <= 2:
        raise ValueError("N must be >= 3")
    return _eval(
        lambda m, real: N * m.exp(-m.log(N) / (DENSITY_CONSTANT * m.log(m.log(N)))),
        precision,
    )
