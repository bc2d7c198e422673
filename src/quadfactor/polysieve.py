"""Segmented factor sieve producing complete factorizations of n^2 + 1.

For a segment [lo, hi] every prime p = 1 (mod 4) up to hi is visited at the
positions n = +-b_p (mod p); repeated exact division strips full prime
powers.  Whatever survives is prime: two prime factors above hi >= n would
multiply past (n+1)^2 > n^2 + 1, and a square q^2 with q > n would have to
equal n^2 + 1 itself, which (q-n)(q+n) = 1 forbids.  So sieving only up to
hi is enough, and each residual carries multiplicity 1.

The roots come from one table per bound (modmath.root_table).  Primes up to
the segment width are visited by strided passes; each prime above it has at
most one position per root in the segment, and one vectorized test over the
table finds those positions, so per-value work tracks the width, not pi(hi).
"""

from __future__ import annotations

import collections
import concurrent.futures
import functools
import itertools
import math
import multiprocessing
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, Optional, Sequence, Tuple

from .modmath import DEFAULT_SEGMENT_SIZE, HI_MAX, is_prime, iter_primes, root_table

if TYPE_CHECKING:
    import numpy
_RESIDUAL_SPOT_CHECK_STRIDE = 4093  # sampled primality audit of residuals
_TRIAL_BOUND = 10**6
_HIT_TEST_ROWS = 1 << 18


@dataclass(frozen=True, slots=True)
class FactorizationRecord:
    """n, the complete factorization of n^2+1 ascending, and its top prime."""

    n: int
    factors: Tuple[Tuple[int, int], ...]
    largest_prime: int

    @property
    def value(self) -> int:
        return self.n * self.n + 1


@dataclass(frozen=True, slots=True)
class RecordRow:
    """One row of the running-maximum scan of largest prime factors."""

    n: int
    largest_prime: int
    exponent: float
    is_record: bool


def _root_positions(
    table: "numpy.ndarray", lo: int, width: int
) -> Iterator[Tuple[int, Sequence[int]]]:
    """(p, offsets into the window) for the table's primes, ascending in p.

    Primes up to the width get one strided range per root.  A prime above
    the width meets each root class at most once in the window, so one
    vectorized test (c - lo) mod p < width over both roots finds its
    offsets, and primes that divide no value in the window are skipped.
    """
    split = int(table[:, 0].searchsorted(width, side="right"))
    for p, b in table[:split].tolist():
        yield p, range((b - lo) % p, width, p)
        yield p, range((p - b - lo) % p, width, p)
    # in row chunks, so the int64 temporaries stay small for any bound
    for start in range(split, len(table), _HIT_TEST_ROWS):
        rows = table[start : start + _HIT_TEST_ROWS].astype("int64")
        p, b = rows[:, 0], rows[:, 1]
        first = (b - lo) % p
        second = (-b - lo) % p
        hit = ((first < width) | (second < width)).nonzero()[0]
        for q, i, j in zip(p[hit].tolist(), first[hit].tolist(), second[hit].tolist()):
            yield q, [k for k in (i, j) if k < width]


def sieve_segment(lo: int, hi: int) -> list[FactorizationRecord]:
    """Factor n^2 + 1 for every n in [lo, hi]."""
    if lo < 1 or lo > hi:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    if hi > HI_MAX:
        raise OverflowError(f"hi={hi} above 2^31: hi^2+1 would leave 64 bits")
    width = hi - lo + 1
    residual = [n * n + 1 for n in range(lo, hi + 1)]
    factors: list[list[Tuple[int, int]]] = [[] for _ in range(width)]
    # p = 2 divides n^2+1 exactly once for odd n (n^2+1 = 2 mod 8), never for even n.
    for i in range((lo + 1) % 2, width, 2):
        residual[i] //= 2
        factors[i].append((2, 1))
    for p, positions in _root_positions(root_table(hi), lo, width):
        for i in positions:
            v = residual[i]
            e = 0
            while v % p == 0:
                v //= p
                e += 1
            residual[i] = v
            factors[i].append((p, e))
    records = []
    for i in range(width):
        f = factors[i]
        r = residual[i]
        if r > 1:
            f.append((r, 1))
            if i % _RESIDUAL_SPOT_CHECK_STRIDE == 0 and not is_prime(r):
                raise AssertionError(f"residual {r} at n={lo + i} is not prime")
        records.append(
            FactorizationRecord(n=lo + i, factors=tuple(f), largest_prime=f[-1][0])
        )
    return records


def _sieve_worker(
    bounds: Tuple[int, int],
) -> Tuple[list[int], list[Tuple[Tuple[int, int], ...]]]:
    # plain columns pickle several times faster than a list of dataclasses
    records = sieve_segment(*bounds)
    return [rec.n for rec in records], [rec.factors for rec in records]


def iter_records(
    lo: int,
    hi: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> Iterator[FactorizationRecord]:
    """Stream records for [lo, hi] in ascending n, in segment_size chunks.

    Segments are independent work units; with workers > 1 they run in a
    process pool and are re-sequenced by segment index, so the stream is
    identical for any worker count.  The root table for hi is built once,
    before the pool forks, so workers inherit it.  At most 2 * workers
    segments are submitted ahead of the consumer, which bounds the results
    held in memory when the consumer is slower than the pool.
    """
    if segment_size < 1:
        raise ValueError("segment_size must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    bounds = [
        (s, min(s + segment_size - 1, hi)) for s in range(lo, hi + 1, segment_size)
    ]
    if not bounds:
        return
    root_table(hi)
    if workers == 1 or len(bounds) <= 1:
        for seg in bounds:
            yield from sieve_segment(*seg)
        return
    ctx = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=min(workers, len(bounds)), mp_context=ctx
    ) as pool:
        todo = iter(bounds)
        pending = collections.deque(
            pool.submit(_sieve_worker, seg) for seg in itertools.islice(todo, 2 * workers)
        )
        try:
            while pending:
                ns, factor_lists = pending.popleft().result()
                seg = next(todo, None)
                if seg is not None:
                    pending.append(pool.submit(_sieve_worker, seg))
                for n, f in zip(ns, factor_lists):
                    yield FactorizationRecord(n=n, factors=f, largest_prime=f[-1][0])
        finally:
            for future in pending:
                future.cancel()


# --- single-value factoring -------------------------------------------------

@functools.lru_cache(maxsize=1)
def _trial_primes() -> Tuple[int, ...]:
    """The primes 5 <= p <= _TRIAL_BOUND with p = 1 (mod 4), built once."""
    return tuple(iter_primes(5, _TRIAL_BOUND, (4, 1)))


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


def _split_large(v: int, out: Dict[int, int]) -> None:
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

    Degenerate-segment path: divide by 2, then by primes p = 1 (mod 4)
    ascending (no other class can divide), stopping once p^2 exceeds the
    residual or the residual tests prime.  The rare residual whose factors
    all exceed the trial bound is split by a deterministic Brent rho.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > HI_MAX:
        raise OverflowError(f"n={n} above 2^31: n^2+1 would leave 64 bits")
    v = n * n + 1
    factors: list[Tuple[int, int]] = []
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
            large: Dict[int, int] = {}
            _split_large(v, large)
            factors.extend(sorted(large.items()))
    factors.sort()
    return FactorizationRecord(n=n, factors=tuple(factors), largest_prime=factors[-1][0])


def largest_prime_factor(n: int) -> int:
    """P(n^2 + 1)."""
    return factorize_value(n).largest_prime


# --- interval-level reductions ----------------------------------------------


def records_scan(
    n_max: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> Iterator[RecordRow]:
    """Stream (n, P(n^2+1), log P / log n, is_record) for n = 2..n_max.

    is_record marks strict running maxima of the largest prime factor; the
    fold is a single-threaded pass over the ordered record stream.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    best = 0
    for rec in iter_records(2, n_max, segment_size, workers):
        p = rec.largest_prime
        is_record = p > best
        if is_record:
            best = p
        yield RecordRow(
            n=rec.n,
            largest_prime=p,
            exponent=math.log(p) / math.log(rec.n),
            is_record=is_record,
        )


def incidence_counts(
    x: int,
    y_cutoff: int,
    count_prime_powers: bool = False,
    records: Optional[Iterable[FactorizationRecord]] = None,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> Dict[int, int]:
    """Map p (or p^k) <= y_cutoff to the number of n in (x, 2x] it divides.

    Plain prime keys count each n once regardless of multiplicity; with
    count_prime_powers every power p^k <= y_cutoff dividing n^2+1 gets its
    own key, which is exactly the index set weighted by the von Mangoldt
    function.  Precomputed records for (x, 2x] can be passed to avoid
    re-sieving.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    if x > HI_MAX // 2:
        raise OverflowError(f"x={x} above 2^30: 2x exceeds the sieve bound")
    if records is None:
        records = iter_records(x + 1, 2 * x, segment_size, workers)
    counts: Dict[int, int] = {}
    for rec in records:
        for p, e in rec.factors:
            if p > y_cutoff:
                continue
            counts[p] = counts.get(p, 0) + 1
            if count_prime_powers:
                d = p
                for _ in range(e - 1):
                    d *= p
                    if d > y_cutoff:
                        break
                    counts[d] = counts.get(d, 0) + 1
    return counts
