"""End-to-end checks tying the sieve output to the analytic sum machinery.

The exact left side sum(log(n^2+1)) over (x, 2x] is reproduced from the
factor sieve through the von Mangoldt identity and split into a coverage
curve by divisor cutoff; the truncated sum at each delta comes off the root
rows with the primary/secondary terms.  Each check reads the factor columns
once, a segment at a time.  Anything asymptotic is measured, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Tuple

from .chebsums import _ExactSum, power_cutoff, sum_ledger
from .modmath import DEFAULT_SEGMENT_SIZE, HI_MAX, _logs
from .polysieve import FactorColumns, divisor_incidence, iter_columns

if TYPE_CHECKING:
    import numpy

DELTA_GRID = tuple(round(0.1 * i, 1) for i in range(11))
_LOG_CHUNK = 1 << 16  # values n^2+1 whose logs lhs_logsum holds at a time
_LOW_MASK = (1 << 26) - 1
_HIGH_MASK = (1 << 27) - 1


@dataclass(frozen=True, slots=True)
class ChainLedger:
    """One (x, delta) evaluation of the truncated-sum inequality chain.

    n_trunc sums log p * incidence(p) over primes up to the cutoff (the p = 2
    term included), off the root rows; R + S covers the p = 1 (mod 4) classes
    through the per-prime upper bound, so n_trunc <= R + S is the accumulated
    form of the summand-wise bound.  margin compares R + S against the
    2x log x main term; margin_exact is its ground-truth analogue.
    lambda_side, the sum of e log p over every factor p^e from the sieve, is
    lhs_exact but for log rounding.
    """

    x: int
    lhs_exact: float
    lhs_main_term: float
    lambda_side: float
    delta: float
    cutoff: int
    n_trunc: float
    R: float
    S: float
    margin: float
    margin_exact: float


@dataclass(frozen=True, slots=True, eq=False)
class CoverageCurve:
    """Cumulative share of sum(log(n^2+1)) explained by divisors up to y.

    points holds (y, C, rho) at the delta grid cutoffs y = x^(1+delta) plus
    the terminal y = 4x^2+1.  The exact curve is two arrays from the one walk
    of the columns: every divisor key d ascending in keys (uint64), and C(d)
    at the same index in covered (float64).  delta_star is
    delta_star_at(tail_tolerance).  Curves compare by identity.
    """

    x: int
    with_prime_powers: bool
    tail_tolerance: float
    total: float
    points: Tuple[Tuple[int, float, float], ...]
    keys: "numpy.ndarray"
    covered: "numpy.ndarray"

    @property
    def delta_star(self) -> Optional[float]:
        return self.delta_star_at(self.tail_tolerance)

    def delta_star_at(self, tail_tolerance: float) -> Optional[float]:
        """Smallest delta whose cutoff x^(1+delta) already covers all but
        tail_tolerance of the total, read off the exact cumulative curve (None
        if the curve never gets there, which happens without prime powers once
        the dropped power mass exceeds the tolerance)."""
        _check_tolerance(tail_tolerance)
        threshold = (1.0 - tail_tolerance) * self.total
        # correctly rounded prefix sums of non-negative terms never decrease
        idx = int(self.covered.searchsorted(threshold, side="left"))
        if idx == len(self.covered):
            return None
        d = int(self.keys[idx])
        return math.log(d) / math.log(self.x) - 1.0 if self.x > 1 else 0.0


@dataclass(frozen=True, slots=True)
class ProbeResult:
    """Largest prime factor over (x, 2x] and where it lands."""

    x: int
    max_prime: int
    arg_n: int
    exponent: float
    in_interval: bool


def _check_x(x: int) -> None:
    if x < 1:
        raise ValueError("x must be >= 1")
    if x > HI_MAX // 2:
        raise OverflowError(f"x={x} above 2^30: 2x exceeds the sieve bound")


def _check_tolerance(tail_tolerance: float) -> None:
    if not 0 < tail_tolerance < 1:
        raise ValueError("tail_tolerance must be in (0, 1)")


def lhs_logsum(x: int) -> float:
    """sum(log(n^2+1)) over x < n <= 2x, exact and rounded once."""
    _check_x(x)
    import numpy as np

    acc = _ExactSum()
    for lo in range(x + 1, 2 * x + 1, _LOG_CHUNK):
        n = np.arange(lo, min(lo + _LOG_CHUNK, 2 * x + 1), dtype=np.int64)
        acc.add(_logs(n * n + 1))
    return acc.value()


def _cumulative(
    columns: Iterable[FactorColumns], top: int, with_prime_powers: bool
) -> Tuple["numpy.ndarray", "numpy.ndarray"]:
    """(keys, C): every divisor key d <= top, ascending, and C(d) at the same
    index, the exact sum of log p * incidence over the keys up to d, rounded
    once (a power key p^k weighs log p, not log d).

    Every term is at least log 2 > 1/2, so it is an integer multiple of
    2^-53: its integer part and its fraction in units of 2^-53 (split in
    two 26/27-bit limbs) have exact int64 prefix sums.  After the carries,
    each prefix is an integer below 2^53 plus a fraction of 53 bits, two
    exact doubles whose float sum is the correctly rounded prefix.
    """
    import numpy as np

    keys, counts, bases = divisor_incidence(columns, top, with_prime_powers)
    terms = _logs(bases) * counts
    whole = np.floor(terms)
    units = np.ldexp(terms - whole, 53).astype(np.int64)
    whole = np.cumsum(whole.astype(np.int64))
    high = np.cumsum(units >> 26)
    low = np.cumsum(units & _LOW_MASK)
    high += low >> 26
    whole += high >> 27
    fraction = ((high & _HIGH_MASK) << 26) | (low & _LOW_MASK)
    return keys, whole + np.ldexp(fraction.astype(np.float64), -53)


def _covered(keys: "numpy.ndarray", covered: "numpy.ndarray", y: int) -> float:
    """C(y): the curve at the last key d <= y, 0.0 below the first."""
    import numpy as np

    idx = int(keys.searchsorted(np.uint64(y), side="right"))
    return float(covered[idx - 1]) if idx else 0.0


def coverage_curve(
    x: int,
    with_prime_powers: bool = True,
    tail_tolerance: float = 1e-3,
    columns: Optional[Iterable[FactorColumns]] = None,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> CoverageCurve:
    """Accumulate C(y) = sum(log p * incidence(d)) over divisors d <= y.

    Primes up to 2x enter through their sieve incidence; larger primes enter
    through each n's residual (several n may share one residual prime, and
    each occurrence counts).  The curve keeps every key and its cumulative
    value, so delta_star at any tolerance comes from this one evaluation.
    """
    _check_x(x)
    _check_tolerance(tail_tolerance)
    top = 4 * x * x + 1
    if columns is None:
        columns = iter_columns(x + 1, 2 * x, segment_size, workers)
    keys, covered = _cumulative(columns, top, with_prime_powers)
    total = lhs_logsum(x)
    points = []
    for y in [min(power_cutoff(x, delta, limit=None), top) for delta in DELTA_GRID] + [top]:
        c = _covered(keys, covered, y)
        points.append((y, c, c / total if total else 0.0))
    return CoverageCurve(
        x=x,
        with_prime_powers=with_prime_powers,
        tail_tolerance=tail_tolerance,
        total=total,
        points=tuple(points),
        keys=keys,
        covered=covered,
    )


def contradiction_probe(
    x: int,
    deltas: Sequence[float],
    columns: Optional[Iterable[FactorColumns]] = None,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> list[ChainLedger]:
    """Evaluate both sides of the truncated inequality at every delta, in
    input order.

    Each ledger carries the truncated incidence sum, R and S, the margin
    2x log x - (R+S) whose sign flip across delta is the contradiction
    mechanism, and the ground-truth margin lhs_exact - n_trunc.  Every delta
    is checked (range, then cutoff) before any work, and no delta means no
    work.  The columns are read once, each segment adding its terms e log p
    to lambda_side; n_trunc, R and S at every cutoff come from one
    sum_ledger pass over the root rows, so no divisor key is held.
    """
    _check_x(x)
    if x < 2:
        raise ValueError("x must be >= 2")
    for delta in deltas:
        if not 0.0 <= delta <= 1.0:
            raise ValueError("delta must be in [0, 1]")
        power_cutoff(x, delta)
    if not deltas:
        return []
    if columns is None:
        columns = iter_columns(x + 1, 2 * x, segment_size, workers)
    lam = _ExactSum()
    for cols in columns:
        lam.add(cols.exponents * _logs(cols.primes))
    lhs_exact, lhs_main_term, lambda_side = lhs_logsum(x), 2.0 * x * math.log(x), lam.value()
    out = []
    for sums in sum_ledger(x, deltas):
        out.append(
            ChainLedger(
                x=x,
                lhs_exact=lhs_exact,
                lhs_main_term=lhs_main_term,
                lambda_side=lambda_side,
                delta=sums.delta,
                cutoff=sums.cutoff,
                n_trunc=sums.n_trunc,
                R=sums.R,
                S=sums.S,
                margin=lhs_main_term - (sums.R + sums.S),
                margin_exact=lhs_exact - sums.n_trunc,
            )
        )
    return out


def largest_prime_probe(
    x: int,
    columns: Optional[Iterable[FactorColumns]] = None,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> ProbeResult:
    """Maximum of P(n^2+1) over (x, 2x], its exponent, and the x^(3/2) test.

    The interval membership test max_p >= x^(3/2) is done in exact integers
    as max_p^2 >= x^3; the upper end 4x^2+1 holds trivially.  No asymptotic
    assertion is attached to the result.  On ties the smallest n wins.
    """
    _check_x(x)
    if x < 2:
        raise ValueError("x must be >= 2 so the exponent is defined")
    max_prime, arg_n = 0, 0
    if columns is None:
        columns = iter_columns(x + 1, 2 * x, segment_size, workers)
    for cols in columns:
        i = int(cols.largest.argmax())  # the first maximum
        if int(cols.largest[i]) > max_prime:
            max_prime, arg_n = int(cols.largest[i]), cols.lo + i
    return ProbeResult(
        x=x,
        max_prime=max_prime,
        arg_n=arg_n,
        exponent=math.log(max_prime) / math.log(x),
        in_interval=max_prime * max_prime >= x**3,
    )
