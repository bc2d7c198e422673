"""Independent brute-force oracles used by the tests.

Everything here is deliberately written without touching the package code
paths it checks: one-shot (non-segmented) sieving, per-n interval scans,
plain trial division, Hensel lifts of the roots of -1 to prime powers, and
a single-value factorer of n^2 + 1 that shares only the primality test with
the package.  The per-n record type lives here too: the factorer returns a
FactorizationRecord, and records_of builds the same records from the
package's factor columns, so the two compare per n.  divisor_incidence
counts every divisor key of the columns with one np.unique, the route the
coverage curve is checked against, and largest_prime_oracle sieves all of
(x, 2x], the route the probe's walk is checked against.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Tuple

from quadfactor.chebsums import power_cutoff
from quadfactor.modmath import HI_MAX, U64_MAX, RootPair, is_prime
from quadfactor.polysieve import FactorColumns, largest_column

_TRIAL_BOUND = 10**6


@dataclass(frozen=True, slots=True)
class FactorizationRecord:
    """n, the complete factorization of n^2+1 ascending, and its top prime."""

    n: int
    factors: tuple[tuple[int, int], ...]
    largest_prime: int

    @property
    def value(self) -> int:
        return self.n * self.n + 1


def records_of(columns: FactorColumns) -> list[FactorizationRecord]:
    """The records of n = columns.lo, columns.lo + 1, ..., one per n."""
    pairs = zip(columns.primes.tolist(), columns.exponents.tolist())
    return [
        FactorizationRecord(n=n, factors=tuple(itertools.islice(pairs, c)), largest_prime=top)
        for n, c, top in zip(
            itertools.count(columns.lo), columns.counts.tolist(), columns.largest.tolist()
        )
    ]


def divisor_incidence(
    columns: Iterable[FactorColumns], y_cutoff: int, count_prime_powers: bool
) -> Tuple["numpy.ndarray", "numpy.ndarray", "numpy.ndarray"]:
    """(keys ascending, incidences, base primes) of the divisor keys <= y_cutoff.

    A prime key p counts the n it divides, whatever the multiplicity; with
    count_prime_powers each power p^k <= y_cutoff dividing n^2+1 is a key
    of its own, with base prime p.
    """
    import numpy as np

    y = np.uint64(min(max(y_cutoff, 0), 2**64 - 1))
    keys, bases = [], []
    for cols in columns:
        keep = cols.primes <= y
        power = base = cols.primes[keep]
        keys.append(power)
        bases.append(base)
        # p^k divides n^2+1 < 2^63 for k <= e, so the powers stay exact
        left = cols.exponents[keep].astype(np.int64) - 1
        while count_prime_powers and left.any():
            more = left > 0
            power, base, left = power[more] * base[more], base[more], left[more] - 1
            fits = power <= y
            power, base, left = power[fits], base[fits], left[fits]
            keys.append(power)
            bases.append(base)
    if not keys:
        return np.zeros(0, np.uint64), np.zeros(0, np.int64), np.zeros(0, np.uint64)
    uniq, first, counts = np.unique(
        np.concatenate(keys), return_index=True, return_counts=True
    )
    return uniq, counts, np.concatenate(bases)[first]


def largest_prime_oracle(x: int) -> Tuple[int, int]:
    """(max P(n^2+1), the first n it occurs at) over (x, 2x], sieved whole."""
    largest = largest_column(x + 1, 2 * x)
    i = int(largest.argmax())  # argmax keeps the first of equal maxima
    return int(largest[i]), x + 1 + i


@dataclass(frozen=True, slots=True)
class PrimePowerRoot:
    """A root r of r^2 = -1 modulo m = p^k, normalized to (0, m/2)."""

    p: int
    k: int
    m: int
    r: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.m != self.p**self.k:
            raise ValueError(f"modulus {self.m} is not {self.p}^{self.k}")
        if self.m > U64_MAX:
            raise OverflowError(f"{self.p}^{self.k} does not fit in 64 bits")
        if not 0 < 2 * self.r < self.m:
            raise ValueError(f"root {self.r} outside (0, {self.m}/2)")
        if (self.r * self.r + 1) % self.m:
            raise ValueError(f"{self.r}^2 + 1 is not divisible by {self.m}")


def hensel_lift(root: RootPair, k: int) -> PrimePowerRoot:
    """Lift a root of -1 mod p to the unique class mod p^k, normalized.

    Linear Newton steps: the derivative 2r is invertible mod p because p is
    odd, so each step is exact and the lift is unique up to sign.
    """
    if k < 1:
        raise ValueError("exponent k must be >= 1")
    p = root.p
    m = p**k
    if m > U64_MAX:
        raise OverflowError(f"{p}^{k} does not fit in 64 bits")
    r = root.b
    pj = p
    for _ in range(k - 1):
        step = (-((r * r + 1) // pj) * pow(2 * r, -1, p)) % p
        r += step * pj
        pj *= p
    return PrimePowerRoot(p=p, k=k, m=m, r=min(r, m - r))


def sieve_flags(limit: int) -> bytearray:
    """flags[n] == 1 iff n is prime, for 0 <= n <= limit."""
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            start = p * p
            flags[start :: p] = b"\x00" * ((limit - start) // p + 1)
    return flags


def simple_sieve(limit: int) -> list[int]:
    if limit < 2:
        return []
    flags = sieve_flags(limit)
    return [n for n in range(2, limit + 1) if flags[n]]


def smallest_factor_upto(n: int, limit: int) -> int | None:
    """Smallest divisor of n in [2, limit], or None."""
    d = 2
    while d <= limit:
        if n % d == 0:
            return d
        d += 1 if d == 2 else 2
    return None


def trial_division_factor(m: int) -> list[tuple[int, int]]:
    """Full factorization of m >= 1 by ascending trial division."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def scan_count(x: int, p: int) -> int:
    """Per-n scan of (x, 2x] for solutions of n^2 + 1 = 0 (mod p)."""
    return sum(1 for n in range(x + 1, 2 * x + 1) if (n * n + 1) % p == 0)


def scan_count_closed(x: int, p: int) -> int:
    """Same scan on the closed interval [x, 2x]."""
    return sum(1 for n in range(x, 2 * x + 1) if (n * n + 1) % p == 0)


def roots_of_minus_one(m: int) -> list[int]:
    """All r in [0, m) with r^2 + 1 = 0 (mod m), by exhaustive scan."""
    return [r for r in range(m) if (r * r + 1) % m == 0]


def totient(q: int) -> int:
    """Euler's phi by trial factorization (moduli here are tiny)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    result = q
    m = q
    d = 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


def pi_counting(z: int, q: int, a: int) -> int:
    """Exact number of primes p <= z with p = a (mod q)."""
    if q < 1:
        raise ValueError("modulus q must be >= 1")
    if math.gcd(a % q, q) != 1:
        raise ValueError(f"residue {a} is not invertible mod {q}")
    if z < 2:
        return 0
    return sieve_flags(z)[a % q :: q].count(1)


@dataclass(frozen=True, slots=True)
class TailBounds:
    """Term-by-term view of the fixed-b tail inequality chain.

    four_sum is the literal four-piece expansion of the tail sums for both
    signs; simplified is 2x * sum(log p / p) over the wider window
    (x-b, cutoff], which dominates it; main_term is delta * x * log x and
    residual is the measured gap simplified - main_term (its asymptotic
    constant is not asserted anywhere).
    """

    x: int
    delta: float
    b: int
    cutoff: int
    four_sum: float
    simplified: float
    main_term: float
    residual: float


def tail_bound_chain(x: int, delta: float, b: int) -> TailBounds:
    """Evaluate the fixed-b tail sums and the two bounds that dominate them.

    four_sum expands sum((x +- b) log p / p) over (x +- b, cutoff] into its
    four pieces; widening the plus-sign window to (x - b, cutoff] gives the
    simplified bound 2x * sum(log p / p), which four_sum never exceeds.
    """
    if x < 2:
        raise ValueError("x must be >= 2")
    if not 0 <= b < x:
        raise ValueError("need 0 <= b < x")
    cutoff = power_cutoff(x, delta)
    flags = sieve_flags(cutoff)
    window = [p for p in range(x - b + 1, cutoff + 1) if p % 4 == 1 and flags[p]]
    m_minus = math.fsum(math.log(p) / p for p in window)
    m_plus = math.fsum(math.log(p) / p for p in window if p > x + b)
    four_sum = x * m_minus - b * m_minus + x * m_plus + b * m_plus
    simplified = 2 * x * m_minus
    main_term = delta * x * math.log(x)
    return TailBounds(
        x=x,
        delta=delta,
        b=b,
        cutoff=cutoff,
        four_sum=four_sum,
        simplified=simplified,
        main_term=main_term,
        residual=simplified - main_term,
    )


@functools.lru_cache(maxsize=1)
def _trial_primes() -> tuple[int, ...]:
    """The primes 5 <= p <= _TRIAL_BOUND with p = 1 (mod 4), built once."""
    flags = sieve_flags(_TRIAL_BOUND)
    return tuple(p for p in range(5, _TRIAL_BOUND + 1, 4) if flags[p])


def _brent_rho(m: int) -> int:
    """A nontrivial factor of odd composite m; deterministic parameter sweep."""
    for c in range(1, 64):
        y, r, q = 2, 1, 1
        g = 1
        xs = ys = y
        while g == 1:
            xs = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    q = q * abs(xs - y) % m
                g = math.gcd(q, m)
                k += 128
            r *= 2
        if g == m:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(abs(xs - ys), m)
        if g != m:
            return g
    raise AssertionError(f"failed to split composite {m}")


def _split_large(v: int, out: dict[int, int]) -> None:
    """Merge the factorization of v (all prime factors > _TRIAL_BOUND) into out."""
    if v == 1:
        return
    if is_prime(v):
        out[v] = out.get(v, 0) + 1
        return
    d = _brent_rho(v)
    _split_large(d, out)
    _split_large(v // d, out)


def factorize_value(n: int) -> FactorizationRecord:
    """Factor n^2 + 1 for a single n, without sieving an interval.

    Divide by 2, then by primes p = 1 (mod 4) ascending (no other class can
    divide), stopping once p^2 exceeds the residual or the residual tests
    prime.  The rare residual whose factors all exceed the trial bound is
    split by a deterministic Brent rho.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > HI_MAX:
        raise OverflowError(f"n={n} above 2^31: n^2+1 would leave 64 bits")
    v = n * n + 1
    factors: list[tuple[int, int]] = []
    if n % 2 == 1:
        v //= 2
        factors.append((2, 1))
    if v > 1 and not is_prime(v):
        for p in _trial_primes():
            if p * p > v:
                break
            if v % p == 0:
                e = 0
                while v % p == 0:
                    v //= p
                    e += 1
                factors.append((p, e))
                if v == 1 or is_prime(v):
                    break
    if v > 1:
        if is_prime(v):
            factors.append((v, 1))
        else:
            large: dict[int, int] = {}
            _split_large(v, large)
            factors.extend(sorted(large.items()))
    factors.sort()
    return FactorizationRecord(n=n, factors=tuple(factors), largest_prime=factors[-1][0])


def largest_prime_factor(n: int) -> int:
    """P(n^2 + 1)."""
    return factorize_value(n).largest_prime
