"""Closed-form threshold and bound functions, in double precision with an
optional 50-digit mode for cross-checking.

The 50-digit mode evaluates in the standard library's decimal, in a
fresh context of 50 significant digits rounding half to even, in which
each exp, ln, product and quotient is correctly rounded: within
u = 5 * 10^-50 of its exact value, relatively.  Carried through the
formulas below, to first order, that leaves the result within
(4|x| + 3) u of the exact value, relatively, where x is the argument of
the final exp (the ln ln step adds u / ln ln N, and
|x| / ln ln N <= 1 from N = 3 and p = 17 on).  Below 10^4300, the longest
integer Python parses by default, |x| < 21, so the error stays below
10^-47; a double read off the result is the correctly rounded double of
the exact value unless that value lies that close to a midpoint."""

from __future__ import annotations

import decimal
import math

# Constants fixed by the analysis this toolkit makes observable.  The
# Stewart constant is kept as text so the 50-digit mode reads it exactly.
STEWART_CONSTANT = "51.9"
DENSITY_CONSTANT = 156

HIGH_PRECISION_DIGITS = 50


def _eval(formula, precision: str):
    """formula(exp, log, real), with exp and log the natural exponential
    and logarithm and real the real-number constructor: math's and
    float, or decimal's at 50 significant digits."""
    if precision == "double":
        return formula(math.exp, math.log, float)
    if precision == "high":
        context = decimal.Context(prec=HIGH_PRECISION_DIGITS, rounding=decimal.ROUND_HALF_EVEN)
        with decimal.localcontext(context):
            return formula(context.exp, context.ln, decimal.Decimal)
    raise ValueError("precision must be 'double' or 'high'")


def _density_terms(N: int, precision: str):
    """(default_y(N), density_bound(N)) = (exp(x), N * exp(-x)) with
    x = ln N / (156 ln ln N) evaluated once; needs N >= 3 so
    ln ln N > 0."""
    if N <= 2:
        raise ValueError("N must be >= 3")

    def formula(exp, log, real):
        ln_N = log(N)
        x = ln_N / (DENSITY_CONSTANT * log(ln_N))
        return exp(x), N * exp(-x)

    return _eval(formula, precision)


def default_y(N: int, precision: str = "double"):
    """exp((1/156) * ln N / ln ln N); needs N >= 3 so ln ln N > 0."""
    return _density_terms(N, precision)[0]


def stewart_bound(p: int, precision: str = "double"):
    """p * exp(-ln p / (51.9 * ln ln p)); rejected below p = 17 where
    ln ln p is too small for the expression to act as a bound."""
    if p <= 16:
        raise ValueError("p must be >= 17")
    return _eval(
        lambda exp, log, real: p * exp(-log(p) / (real(STEWART_CONSTANT) * log(log(p)))),
        precision,
    )


def density_bound(N: int, precision: str = "double"):
    """N * exp(-ln N / (156 * ln ln N)) for N >= 3."""
    return _density_terms(N, precision)[1]
