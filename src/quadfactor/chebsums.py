"""Log-weighted prime sums over progressions and their two-term decomposition.

The primary term is 2x * sum(log p / p) over p = 1 (mod 4) up to a cutoff
x^(1+delta); the secondary term carries the fractional parts of (x +- b_p)/p.
The terms are formed a chunk of primes at a time as float64 arrays and
summed exactly, then rounded once when read: every sum equals math.fsum of
its terms, independent of order and chunking.  Each is a prefix sum of one
ascending stream, so every cutoff of a request is read off a single pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Tuple

from .modmath import DEFAULT_SEGMENT_SIZE, HI_MAX, _class_sieve, _logs, iter_root_rows

if TYPE_CHECKING:
    import numpy


# np.frexp splits a finite double into m * 2^e with 0.5 <= |m| < 1 (or 0),
# so m * 2^53 is an integer below 2^53 and e runs from -1073 (the least
# subnormal, 2^-1074) to 1024.  The exact total counts units of 2^(-1073-53).
_MANT_BITS = 53
_MIN_EXP = -1073
_EXP_BINS = 1024 - _MIN_EXP + 1
_SCALE = 1 << (_MANT_BITS - _MIN_EXP)
# each mantissa is added as a high and a low limb of at most 27 bits, so a
# bin overflows int64 only past 2^36 terms (a 512 GiB term array)
_LIMB_BITS = 27
_LIMB_MASK = (1 << _LIMB_BITS) - 1


class _ExactSum:
    """Exact running sum of float64 terms, rounded once when read.

    A superaccumulator (Neal, arXiv:1505.05571): each array of terms is
    split into integer mantissas, summed exactly per binary exponent, and
    folded into one Python int at a fixed scale.  value() is that int over
    2^scale, and int/int true division is correctly rounded, so the result
    equals math.fsum of the same terms whatever their order or chunking.
    """

    __slots__ = ("_total",)

    def __init__(self) -> None:
        self._total = 0

    def add(self, terms: "numpy.ndarray") -> None:
        """Add every element of a float64 array; all must be finite."""
        import numpy as np

        if not terms.size:
            return
        if not np.isfinite(terms).all():
            raise ValueError("exact sums take finite terms only")
        mant, exp = np.frexp(terms)
        mant = np.ldexp(mant, _MANT_BITS).astype(np.int64)
        bins = exp - _MIN_EXP
        high = np.zeros(_EXP_BINS, np.int64)
        low = np.zeros(_EXP_BINS, np.int64)
        np.add.at(high, bins, mant >> _LIMB_BITS)
        np.add.at(low, bins, mant & _LIMB_MASK)
        used = np.flatnonzero(high | low)
        self._total += sum(
            ((h << _LIMB_BITS) + lo) << k
            for k, h, lo in zip(used.tolist(), high[used].tolist(), low[used].tolist())
        )

    def value(self) -> float:
        return self._total / _SCALE


def _prefix_sums(
    chunks: Iterable[Tuple["numpy.ndarray", Sequence["numpy.ndarray"]]],
    marks: Sequence[int],
    sums: Sequence[_ExactSum],
) -> list[Tuple[list[float], int]]:
    """Exact sums of term columns over p <= mark, for every mark ascending.

    chunks yields (p, columns): p ascending across all chunks, and one term
    array aligned with p per accumulator in sums, each added to what it
    holds.  A snapshot holds every rounded value and the number of p <= mark.
    """
    count = 0
    out: list[Tuple[list[float], int]] = []
    for p, columns in chunks:
        start = 0
        # out fills in ascending order, so marks[len(out)] is the next cutoff
        while len(out) < len(marks) and p.size and marks[len(out)] < p[-1]:
            stop = int(p.searchsorted(marks[len(out)], side="right"))
            for acc, col in zip(sums, columns):
                acc.add(col[start:stop])
            out.append(([acc.value() for acc in sums], count + stop))
            start = stop
        for acc, col in zip(sums, columns):
            acc.add(col[start:])
        count += p.size
    final = ([acc.value() for acc in sums], count)
    return out + [final] * (len(marks) - len(out))


def _incidence(x: int, p: "numpy.ndarray", b: "numpy.ndarray") -> "numpy.ndarray":
    """rootcount.count_by_floor_identity over int64 root rows (p, b)."""
    return (2 * x - b) // p - (x - b) // p + (2 * x + b) // p - (x + b) // p


@dataclass(frozen=True, slots=True)
class SumLedger:
    """Everything evaluated for one (x, delta) pair; n_trunc sums log p times
    the count of n in (x, 2x] with p | n^2 + 1 over p <= cutoff."""

    x: int
    delta: float
    cutoff: int
    R: float
    S: float
    mertens: float
    residual_R: float
    residual_S: float
    term_count: int
    n_trunc: float


def power_cutoff(x: int, delta: float, limit: Optional[int] = HI_MAX) -> int:
    """The cutoff floor(x^(1+delta)), read off c = math.pow(x, 1.0 + delta)
    raised by one ulp.

    The guard ulp keeps an integer boundary that pow misses by at most one
    ulp downward, when 1.0 + delta is exact in binary: delta = 0 gives x and
    100^1.5 gives 1000.  Otherwise the rounding of 1.0 + delta moves c by up
    to c * log(x) * 2^-53, which for x > e^2 can exceed one ulp, and a
    boundary can be lost: power_cutoff(243, 0.2) is 728, yet
    243^1.2 = 3^6 = 729.  An exact integer cutoff is ROADMAP.md item 5.
    The result is an integer, so a prime's membership below it is an exact
    comparison.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    if not math.isfinite(delta):
        raise ValueError("delta must be finite")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if x == 1:
        return 1
    c = math.pow(x, 1.0 + delta)
    cutoff = int(math.floor(math.nextafter(c, math.inf)))
    if limit is not None and cutoff > limit:
        raise OverflowError(f"cutoff {cutoff} exceeds sieve bound {limit}")
    return cutoff


def _check_residue(q: int, a: int) -> None:
    if q < 1:
        raise ValueError("modulus q must be >= 1")
    if math.gcd(a % q, q) != 1:
        raise ValueError(f"residue {a} is not invertible mod {q}")


def mertens_prefixes(cutoffs: Sequence[int], q: int, a: int) -> list[float]:
    """sum of log p / p over the primes p <= z, p = a (mod q), for every z in
    cutoffs, in input order, from one ascending pass up to the largest cutoff."""
    _check_residue(q, a)
    marks = sorted(set(cutoffs))
    if not marks:
        return []
    import numpy as np

    def chunks():
        for n0, flags in _class_sieve(2, marks[-1], q, a % q, DEFAULT_SEGMENT_SIZE):
            p = n0 + q * np.frombuffer(flags, np.bool_).nonzero()[0]
            yield p, [_logs(p) / p]

    seen = {z: s[0] for z, (s, _) in zip(marks, _prefix_sums(chunks(), marks, [_ExactSum()]))}
    return [seen[z] for z in cutoffs]


def sum_ledger(x: int, deltas: Sequence[float]) -> list[SumLedger]:
    """Evaluate the (x, delta) ledger for every delta, in input order.

    Every cutoff is validated before any work.  One ascending pass over the
    root rows (p, b) up to the largest cutoff sums exactly, a chunk at a time,
    log p / p (mertens; R is 2x times it), ({(x-b)/p} + {(x+b)/p}) log p (S),
    each fractional part an exact residue over p made a float once, and
    log p * inc(p) (n_trunc), inc(p) being _incidence's floor identity,
    with a snapshot and the term count as p passes each cutoff.  n_trunc also
    holds the p = 2 term log 2 * floor(x/2), which term_count leaves out.
    """
    if x < 2:
        raise ValueError("x must be >= 2")
    cutoffs = [power_cutoff(x, delta) for delta in deltas]
    if not cutoffs:
        return []
    marks = sorted(set(cutoffs))
    import numpy as np

    def chunks():
        for rows in iter_root_rows(marks[-1]):
            p, b = rows.astype(np.int64).T
            logp = _logs(p)
            inc = _incidence(x, p, b)
            yield p, [logp / p, ((x - b) % p / p + (x + b) % p / p) * logp, logp * inc]

    sums = [_ExactSum() for _ in range(3)]
    sums[2].add(np.array([math.log(2) * (x // 2)]))
    seen = dict(zip(marks, _prefix_sums(chunks(), marks, sums)))
    xlogx = x * math.log(x)
    ledgers = []
    for delta, cutoff in zip(deltas, cutoffs):
        (m, s_value, n_trunc), terms = seen[cutoff]
        r_value = 2.0 * x * m
        ledgers.append(
            SumLedger(
                x=x,
                delta=delta,
                cutoff=cutoff,
                R=r_value,
                S=s_value,
                mertens=m,
                residual_R=r_value - (1.0 + delta) * xlogx,
                residual_S=s_value - delta * xlogx,
                term_count=terms,
                n_trunc=n_trunc,
            )
        )
    return ledgers
