"""Factor n^2+1 over integer intervals with a root-driven segmented sieve,
and evaluate the log-weighted sum decompositions that locate its prime
divisors.

The exports below are loaded on first use (PEP 562), so importing the
package, or the CLI through it, loads none of its submodules.
"""

import importlib

_EXPORTS = {
    "chebsums": ("SumLedger", "mertens_prefixes", "power_cutoff", "sum_ledger"),
    "modmath": ("RootPair", "is_prime", "iter_primes", "sqrt_minus_one"),
    "polysieve": ("FactorColumns", "RecordBlock", "iter_columns", "records_scan", "sieve_columns"),
    "rootcount": (
        "SolutionCount", "count_by_floor_identity", "count_exact", "count_in_class",
        "count_root_classes", "count_upper_bound", "solution_count",
    ),
    "verifier": (
        "ChainLedger", "CoverageCurve", "ProbeResult", "contradiction_probe", "coverage_curve",
        "lambda_identity_check", "lhs_logsum", "largest_prime_probe",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # bound once, as an eager import would
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
