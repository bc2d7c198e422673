"""End-to-end checks tying the sieve output to the analytic sum machinery.

The exact left side sum(log(n^2+1)) over (x, 2x] is reproduced from the
factor sieve through the von Mangoldt identity and split into a coverage
curve by divisor cutoff; both the truncated sums and the curve count the
primes up to 2x by the floor identity over the root rows.  Each of the two
sieves (x, 2x] once, a segment at a time, and takes from each segment only
what it reads, reduced where the segment is sieved (in a pool worker with
workers > 1): coverage the divisor keys above 2x, chain one exact integer
for the von Mangoldt side.  The probe sieves nothing: it walks n down from
2x with is_prime, and largest_column factors only an n it cannot bound.
The sieve (polysieve), the exact sums (chebsums) and the floor identity
(rootcount) are imported by the functions that call them, so a probe
that walks to its answer compiles none of them.
Anything asymptotic is measured, never asserted.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Tuple

from .modmath import DEFAULT_SEGMENT_SIZE, HI_MAX, _logs, is_prime, root_table

if TYPE_CHECKING:
    import numpy

DELTA_GRID = tuple(round(0.1 * i, 1) for i in range(11))
_LOG_CHUNK = 1 << 16  # values n^2+1 whose logs lhs_logsum holds at a time
_LOW_MASK = (1 << 26) - 1
_HIGH_MASK = (1 << 27) - 1
_LEAST_ODD_FACTOR = 5  # odd prime factors of n^2+1 are 1 (mod 4)


class ChainLedger(NamedTuple):
    """One (x, delta) evaluation of the truncated-sum inequality chain.

    n_trunc sums log p * incidence(p) over primes up to the cutoff (the p = 2
    term included), off the root rows; R + S covers the p = 1 (mod 4) classes
    through the per-prime upper bound, so n_trunc <= R + S is the accumulated
    form of the summand-wise bound.  margin compares R + S against the
    2x log x main term; margin_exact is its ground-truth analogue.
    lambda_side, the sum of e log p over every factor p^e from the sieve,
    summed exactly, is lhs_exact but for log rounding.
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


class CoverageCurve(NamedTuple):
    """Cumulative share of sum(log(n^2+1)) explained by divisors up to y.

    points holds (y, C, rho) at the delta grid cutoffs y = x^(1+delta) plus
    the terminal y = 4x^2+1.  The exact curve is two arrays from the root rows
    up to 2x and one walk of the columns: every divisor key d ascending in
    keys (uint64), and C(d) at the same index in covered (float64).
    delta_star is delta_star_at(tail_tolerance).  Curves compare by identity.
    """

    x: int
    with_prime_powers: bool
    tail_tolerance: float
    total: float
    points: Tuple[Tuple[int, float, float], ...]
    keys: "numpy.ndarray"
    covered: "numpy.ndarray"

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

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


class ProbeResult(NamedTuple):
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

    from .chebsums import _ExactSum

    acc = _ExactSum()
    for lo in range(x + 1, 2 * x + 1, _LOG_CHUNK):
        n = np.arange(lo, min(lo + _LOG_CHUNK, 2 * x + 1), dtype=np.int64)
        acc.add(_logs(n * n + 1))
    return acc.value()


def _cumulative(
    x: int, with_prime_powers: bool, segment_size: int, workers: int
) -> Tuple["numpy.ndarray", "numpy.ndarray"]:
    """(keys, C): every divisor key d of some n^2+1 over (x, 2x], ascending,
    and C(d) at the same index, the exact sum of log p * incidence over the
    keys up to d, rounded once (a power key p^k weighs log p, not log d).

    For n <= 2x, n^2+1 has at most one prime factor above 2x: its largest,
    with exponent 1.  So a prime p <= 2x comes off root_table(2x) with its
    floor-identity count (p = 2 counts the floor(x/2) odd n), and a zero
    count is dropped; the primes above 2x and, with prime powers, each p^k,
    2 <= k <= e, of a factor p^e come from the sieve as divisor_keys.  One
    np.unique counts those last two.

    Every term is at least log 2 > 1/2, so it is an integer multiple of
    2^-53: its integer part and its fraction in units of 2^-53 (split in
    two 26/27-bit limbs) have exact int64 prefix sums.  After the carries,
    each prefix is an integer below 2^53 plus a fraction of 53 bits, two
    exact doubles whose float sum is the correctly rounded prefix.
    """
    import numpy as np

    from .polysieve import divisor_keys, iter_columns
    from .rootcount import _floor_identity

    layout = functools.partial(divisor_keys, bound=2 * x, with_prime_powers=with_prime_powers)
    keys, bases = zip(*iter_columns(x + 1, 2 * x, segment_size, workers, layout))
    uniq, first, counts = np.unique(np.concatenate(keys), return_index=True, return_counts=True)
    table = [rows.astype(np.int64).T for rows in root_table(2 * x)]
    primes = np.concatenate([[2]] + [p for p, _ in table]).astype(np.uint64)
    inc = np.concatenate([[x // 2]] + [_floor_identity(x, p, b) for p, b in table])
    hit = inc > 0
    keys = np.concatenate((primes[hit], uniq))
    terms = _logs(np.concatenate((primes[hit], np.concatenate(bases)[first])))
    terms *= np.concatenate((inc[hit], counts))
    order = keys.argsort(kind="stable")
    keys, terms = keys[order], terms[order]
    whole = np.floor(terms)
    units = np.ldexp(terms - whole, 53).astype(np.int64)
    whole = np.cumsum(whole.astype(np.int64))
    high = np.cumsum(units >> 26)
    low = np.cumsum(units & _LOW_MASK)
    high += low >> 26
    whole += high >> 27
    fraction = ((high & _HIGH_MASK) << 26) | (low & _LOW_MASK)
    return keys, whole + np.ldexp(fraction.astype(np.float64), -53)


def coverage_curve(
    x: int,
    with_prime_powers: bool = True,
    tail_tolerance: float = 1e-3,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> CoverageCurve:
    """Accumulate C(y) = sum(log p * incidence(d)) over divisors d <= y.

    Primes up to 2x enter with their floor-identity count; larger primes as
    each n's largest prime factor (several n may share it, and each counts),
    and p^k from each factor p^e, 2 <= k <= e.  The curve keeps every key
    and its C, so delta_star at any tolerance comes from this one evaluation.
    """
    _check_x(x)
    _check_tolerance(tail_tolerance)
    import numpy as np

    from .chebsums import power_cutoff

    top = 4 * x * x + 1
    keys, covered = _cumulative(x, with_prime_powers, segment_size, workers)
    total = lhs_logsum(x)
    points = []
    for y in [min(power_cutoff(x, delta, limit=None), top) for delta in DELTA_GRID] + [top]:
        # C(y) is the curve at the last key d <= y, 0.0 below the first
        idx = int(keys.searchsorted(np.uint64(y), side="right"))
        c = float(covered[idx - 1]) if idx else 0.0
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
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> list[ChainLedger]:
    """Evaluate both sides of the truncated inequality at every delta, in
    input order.

    Each ledger carries the truncated incidence sum, R and S, the margin
    2x log x - (R+S) whose sign flip across delta is the contradiction
    mechanism, and the ground-truth margin lhs_exact - n_trunc.  Every delta
    is checked (range, then cutoff) before any work, and no delta means no
    work.  Each segment gives the exact integer total of its terms e log p
    (log_total), and lambda_side is their sum, rounded once, so it does not
    depend on the segments or workers; n_trunc, R and S at every cutoff come
    from one sum_ledger pass over the root rows, so no divisor key is held.
    """
    _check_x(x)
    if x < 2:
        raise ValueError("x must be >= 2")
    from .chebsums import _ExactSum, power_cutoff, sum_ledger
    from .polysieve import iter_columns, log_total

    for delta in deltas:
        if not 0.0 <= delta <= 1.0:
            raise ValueError("delta must be in [0, 1]")
        power_cutoff(x, delta)
    if not deltas:
        return []
    lam = _ExactSum(sum(iter_columns(x + 1, 2 * x, segment_size, workers, log_total)))
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


def largest_prime_probe(x: int) -> ProbeResult:
    """Maximum of P(n^2+1) over (x, 2x], its exponent, and the x^(3/2) test.

    n walks down from 2x.  Odd prime factors of n^2+1 are 1 (mod 4), so with
    u(n) = n^2+1 without its factor 2, P(n^2+1) is u(n) if u(n) is prime and
    at most u(n) / _LEAST_ODD_FACTOR if not.  A prime u(n) >= best takes best
    (the smallest n wins a tie); the walk stops at the first even n with
    u(n) < best, which bounds every smaller n.  Each composite u(n) that could
    still reach best is factored by the sieve.  in_interval is max_p^2 >= x^3.
    """
    _check_x(x)
    if x < 2:
        raise ValueError("x must be >= 2 so the exponent is defined")
    best, arg_n, open_n = 0, 0, []
    for n in range(2 * x, x, -1):
        u = (n * n + 1) >> (n & 1)
        if u < best:
            if not n & 1:
                break
        elif is_prime(u):
            best, arg_n = u, n
        else:
            open_n.append((n, u))
    for n, u in open_n:
        if u // _LEAST_ODD_FACTOR >= best:
            from .polysieve import largest_column

            p = int(largest_column(n, n)[0])
            if (p, -n) > (best, -arg_n):
                best, arg_n = p, n
    return ProbeResult(
        x=x, max_prime=best, arg_n=arg_n, exponent=math.log(best) / math.log(x),
        in_interval=best * best >= x**3,
    )
