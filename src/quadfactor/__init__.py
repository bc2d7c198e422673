"""Factor n^2+1 over integer intervals with a root-driven segmented sieve,
and evaluate the log-weighted sum decompositions that locate its prime
divisors."""

from .chebsums import (
    SumLedger,
    mertens_ap,
    mertens_prefixes,
    power_cutoff,
    sum_ledger,
)
from .modmath import (
    PrimePowerRoot,
    RootPair,
    hensel_lift,
    is_prime,
    iter_primes,
    primes_in,
    sqrt_minus_one,
)
from .polysieve import (
    FactorColumns,
    FactorizationRecord,
    RecordBlock,
    incidence_counts,
    iter_columns,
    iter_records,
    records_scan,
    sieve_columns,
    sieve_segment,
)
from .rootcount import (
    SolutionCount,
    count_by_floor_identity,
    count_exact,
    count_in_class,
    count_root_classes,
    count_upper_bound,
    solution_count,
)
from .verifier import (
    ChainLedger,
    CoverageCurve,
    ProbeResult,
    contradiction_probe,
    coverage_curve,
    lambda_identity_check,
    lhs_logsum,
    largest_prime_probe,
)

__version__ = "0.1.0"
