"""smoothlab: exact smooth parts, multiplicative orders and p-adic
valuations of a^n - 1 without materializing the terms."""

from .arith import (
    Factorization,
    FactorizationError,
    factorize,
    is_prime,
    primes_upto,
    radical,
    sieve_primes,
    smooth_part_oracle,
    valuation,
)
from .orders import (
    SequenceSpec,
    order_record,
    order_records,
    term_valuation_direct,
    term_valuation_lte,
)
from .smooth import (
    CountingReport,
    CutoffSpec,
    MembershipVerdict,
    counting_report,
    enumerate_members,
    membership,
    smooth_part_of_term,
)
from .windows import (
    DensityRow,
    DyadicReport,
    WindowReport,
    density_check,
    dyadic_partition,
    prime_window_valuation_sum,
    window_product,
)
from .bounds import default_y, density_bound, stewart_bound
from .abc_triples import AbcTripleReport, abc_quality, factor_term
from .binomial import BinomialReport, binomial_membership, binomial_valuation

__version__ = "0.1.0"
