"""smoothlab: exact smooth parts, multiplicative orders and p-adic
valuations of a^n - 1 without materializing the terms."""

from .arith import (
    Factorization,
    FactorizationError,
    divisor_count,
    factorize,
    is_prime,
    largest_prime_factor,
    primes_upto,
    radical,
    sieve_primes,
    smooth_part_oracle,
    valuation,
)
from .orders import (
    OrderRecord,
    SequenceSpec,
    initial_valuation,
    multiplicative_order,
    order_record,
    order_records,
    term_valuation_direct,
    term_valuation_lte,
)
from .smooth import (
    CountingReport,
    CutoffSpec,
    MembershipVerdict,
    SmoothPartRecord,
    counting_report,
    enumerate_members,
    membership,
    order_divisor_primes,
    smooth_part_of_term,
    term_prime_log_sum,
)
from .windows import (
    DensityRow,
    DyadicReport,
    WindowReport,
    density_check,
    dyadic_partition,
    even_prime_window_sum,
    prime_window_valuation_sum,
    window_product,
)
from .bounds import default_y, density_bound, stewart_bound
from .abc_triples import AbcTripleReport, abc_quality, factor_term
from .binomial import BinomialReport, binomial_membership, binomial_valuation

__version__ = "0.1.0"
