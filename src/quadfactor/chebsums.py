"""Log-weighted prime sums over progressions and their two-term decomposition.

The primary term is 2x * sum(log p / p) over p = 1 (mod 4) up to a cutoff
x^(1+delta); the secondary term carries the fractional parts of (x +- b_p)/p.
All sums run over ascending primes with compensated accumulation, so results
are reproducible bit for bit.  Each is a prefix sum of one ascending stream,
so every cutoff of a request is read off a single pass: a compensated sum
that has taken the first k terms is in exactly the state a fresh pass over
those k terms would reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .modmath import HI_MAX, iter_primes, iter_root_rows


class KahanSum:
    """Compensated accumulator; deterministic for a fixed order of adds."""

    __slots__ = ("total", "_c")

    def __init__(self) -> None:
        self.total = 0.0
        self._c = 0.0

    def add(self, term: float) -> None:
        y = term - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t


@dataclass(frozen=True, slots=True)
class SumLedger:
    """Everything evaluated for one (x, delta) pair."""

    x: int
    delta: float
    cutoff: int
    R: float
    S: float
    mertens: float
    residual_R: float
    residual_S: float
    term_count: int


def power_cutoff(x: int, delta: float, limit: Optional[int] = HI_MAX) -> int:
    """floor(x^(1+delta)) with a one-ulp guard band.

    math.pow is correctly rounded on this platform (and pow(x, 1) == x
    exactly), so rounding c up by one ulp before flooring means integer
    boundary values (delta = 0 giving x, or 100^1.5 giving 1000) are never
    lost to a downward rounding; membership of the boundary prime is then a
    fixed integer comparison.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
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


def mertens_ap(z: int, q: int, a: int) -> float:
    """sum of log p / p over primes p <= z, p = a (mod q), ascending order."""
    return mertens_prefixes([z], q, a)[0]


def mertens_prefixes(cutoffs: Sequence[int], q: int, a: int) -> list[float]:
    """mertens_ap(z, q, a) for every z in cutoffs, in input order, from one
    ascending pass up to the largest cutoff."""
    _check_residue(q, a)
    marks = sorted(set(cutoffs))
    seen: dict[int, float] = {}
    acc = KahanSum()
    if marks and marks[-1] >= 2:
        for p in iter_primes(2, marks[-1], (q, a)):
            # seen fills in ascending order, so marks[len(seen)] is the next cutoff
            while p > marks[len(seen)]:
                seen[marks[len(seen)]] = acc.total
            acc.add(math.log(p) / p)
    for z in marks[len(seen) :]:
        seen[z] = acc.total
    return [seen[z] for z in cutoffs]


def sum_ledger(x: int, deltas: Sequence[float]) -> list[SumLedger]:
    """Evaluate the (x, delta) ledger for every delta, in input order.

    Every cutoff is validated before any work.  One ascending pass over the
    root rows up to the largest cutoff accumulates the mertens sum and the
    fractional-part sum sum({(x-b)/p} + {(x+b)/p}) log p, and snapshots them
    with the term count as p passes each cutoff.  Each fractional part is the
    exact residue over p, converted to float once per summand; R is 2x times
    the mertens value.
    """
    if x < 2:
        raise ValueError("x must be >= 2")
    cutoffs = [power_cutoff(x, delta) for delta in deltas]
    marks = sorted(set(cutoffs))
    seen: dict[int, tuple[float, float, int]] = {}
    mertens = KahanSum()
    sec = KahanSum()
    count = 0
    for rows in iter_root_rows(marks[-1]) if marks else ():
        for p, b in rows.tolist():
            while p > marks[len(seen)]:
                seen[marks[len(seen)]] = (mertens.total, sec.total, count)
            count += 1
            logp = math.log(p)
            mertens.add(logp / p)
            sec.add(((x - b) % p / p + (x + b) % p / p) * logp)
    for cutoff in marks[len(seen) :]:
        seen[cutoff] = (mertens.total, sec.total, count)
    xlogx = x * math.log(x)
    ledgers = []
    for delta, cutoff in zip(deltas, cutoffs):
        m, s_value, terms = seen[cutoff]
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
            )
        )
    return ledgers
