"""Segmented factor sieve producing complete factorizations of n^2 + 1.

For a segment [lo, hi] every prime p = 1 (mod 4) up to hi is visited at the
positions n = +-b_p (mod p), where its full power is divided out.  Whatever
survives is prime: two prime factors above hi >= n would multiply past
(n+1)^2 > n^2 + 1, and a square q^2 with q > n would have to equal n^2 + 1
itself, which (q-n)(q+n) = 1 forbids.  So sieving only up to hi is enough,
and each residual carries multiplicity 1.

The roots come from one table per bound (modmath.root_table).  A segment is
one numpy pass.  One vectorized test over the table, in row chunks, keeps
each root's first offset (+-b - lo) mod p below the segment width W, and
each kept offset runs in steps of p to the end (one hit for p > W).
Exponents are read off the original values n^2 + 1 (below 2^63 for
hi <= 2^31, so uint64 is exact) and the residuals are what one division by
p^e at every hit leaves.

The pass returns FactorColumns, a CSR layout: counts[i] factors for
n = lo + i, stored flat in primes/exponents in ascending order (2 first for
odd n, then the sieved primes, then the residual prime), and largest[i],
the last of them.  Every consumer reads the columns: the interval
reductions, the records scan and the CLI's sieve and records output.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Tuple

from .modmath import DEFAULT_SEGMENT_SIZE, HI_MAX, _logs, is_prime, root_table

if TYPE_CHECKING:
    import numpy
_RESIDUAL_SPOT_CHECK_STRIDE = 4093  # sampled primality audit of residuals
_HIT_TEST_ROWS = 1 << 18


@dataclass(frozen=True, slots=True)
class FactorColumns:
    """The factorizations of n^2 + 1 for n = lo, lo + 1, ..., flat.

    The factors of n = lo + i are the next counts[i] entries of primes and
    exponents, ascending: 2 first for odd n, then the sieved primes, then
    the residual prime above the sieve bound, if any.  largest[i] is the
    last of them, P(n^2 + 1).  counts and exponents are uint8, primes and
    largest uint64; the arrays pickle as raw buffers.
    """

    lo: int
    counts: "numpy.ndarray"
    primes: "numpy.ndarray"
    exponents: "numpy.ndarray"
    largest: "numpy.ndarray"

    def exponent(self) -> list[float]:
        """log P(n^2 + 1) / log n for each n (lo >= 2), by modmath._logs."""
        import numpy as np

        ns = np.arange(self.lo, self.lo + len(self.largest), dtype=np.int64)
        return (_logs(self.largest) / _logs(ns)).tolist()


@dataclass(frozen=True, slots=True)
class RecordBlock:
    """The records scan over one segment, n = lo, lo + 1, ...

    largest[i] is P(n^2 + 1) (uint64), exponent[i] is log P / log n and
    is_record[i] (bool) says whether P exceeds every earlier value of the
    scan, including those of earlier segments.
    """

    lo: int
    largest: "numpy.ndarray"
    exponent: list[float]
    is_record: "numpy.ndarray"


def _root_hits(
    table: "numpy.ndarray", lo: int, width: int
) -> Tuple["numpy.ndarray", "numpy.ndarray"]:
    """(int64 offsets into the window, uint64 primes) of every hit, p ascending.

    One vectorized test (c - lo) mod p < width over both roots of each row
    finds the first offset of every root class that meets the window, and
    primes that divide no value in the window are skipped.  Each kept
    offset expands to its strided run of (width - 1 - start) // p + 1 hits,
    one for a prime above the width, in the order (row, root, step).
    """
    import numpy as np

    offsets, primes = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    # in row chunks, so the temporaries stay small for any bound
    for lo_row in range(0, len(table), _HIT_TEST_ROWS):
        p, b = table[lo_row : lo_row + _HIT_TEST_ROWS].T
        # (b - lo) mod p and (-b - lo) mod p in uint32: with shift =
        # p - (lo mod p), b + shift and p - b + shift stay under 2p < 2^32
        shift = p - lo % p
        both = np.column_stack(((b + shift) % p, (p - b + shift) % p))
        row, col = (both < width).nonzero()
        start = both[row, col].astype(np.int64)
        p = p[row].astype(np.int64)
        runs = (width - 1 - start) // p + 1
        # hit j of the chunk is start + p * (j - j0), j0 the first j of its run
        base = start - p * (np.cumsum(runs) - runs)
        p = np.repeat(p, runs)
        offsets.append(np.repeat(base, runs) + p * np.arange(len(p)))
        primes.append(p)
    return np.concatenate(offsets), np.concatenate(primes).astype(np.uint64)


def sieve_columns(lo: int, hi: int) -> FactorColumns:
    """Factor n^2 + 1 for every n in [lo, hi] in one numpy pass."""
    if lo < 1 or lo > hi:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    if hi > HI_MAX:
        raise OverflowError(f"hi={hi} above 2^31: hi^2+1 would leave 64 bits")
    import numpy as np

    width = hi - lo + 1
    values = np.arange(lo, hi + 1, dtype=np.uint64) ** 2 + 1
    # p = 2 divides n^2+1 exactly once for odd n (n^2+1 = 2 mod 8), never for even n.
    odd = np.arange((lo + 1) % 2, width, 2)
    offsets, primes = _root_hits(root_table(hi), lo, width)
    pos = np.concatenate((odd, offsets))
    p = np.concatenate((np.full(len(odd), 2, dtype=np.uint64), primes))
    del odd, offsets, primes
    # every hit divides once; divide on at the hits that still divide
    e = np.ones(len(pos), dtype=np.uint8)
    rest = values[pos] // p
    more = (rest % p == 0).nonzero()[0]
    while more.size:
        e[more] += 1
        rest[more] //= p[more]
        more = more[rest[more] % p[more] == 0]
    del rest
    residual = values  # divided in place; the values are not read again
    np.floor_divide.at(residual, pos, p ** e)
    big = (residual > 1).nonzero()[0]
    for i in big[big % _RESIDUAL_SPOT_CHECK_STRIDE == 0].tolist():
        r = int(residual[i])
        if not is_prime(r):
            raise AssertionError(f"residual {r} at n={lo + i} is not prime")
    # the residual goes after the sieved primes of its n; a stable sort by
    # position keeps every n's primes in the ascending order they came in
    pos = np.concatenate((pos, big))
    order = pos.argsort(kind="stable")
    primes = np.concatenate((p, residual[big]))[order]
    exponents = np.concatenate((e, np.ones(len(big), dtype=np.uint8)))[order]
    counts = np.bincount(pos, minlength=width)
    return FactorColumns(
        lo=lo,
        counts=counts.astype(np.uint8),
        primes=primes,
        exponents=exponents,
        largest=primes[np.cumsum(counts) - 1],
    )


def iter_columns(
    lo: int,
    hi: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> Iterator[FactorColumns]:
    """Stream the factor columns of [lo, hi], one per segment, ascending.

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
            yield sieve_columns(*seg)
        return
    import concurrent.futures
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=min(workers, len(bounds)), mp_context=ctx
    ) as pool:
        todo = iter(bounds)
        pending = collections.deque(
            pool.submit(sieve_columns, *seg) for seg in itertools.islice(todo, 2 * workers)
        )
        try:
            while pending:
                columns = pending.popleft().result()
                seg = next(todo, None)
                if seg is not None:
                    pending.append(pool.submit(sieve_columns, *seg))
                yield columns
        finally:
            for future in pending:
                future.cancel()


# --- interval-level reductions ----------------------------------------------


def records_scan(
    n_max: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> Iterator[RecordBlock]:
    """Stream the records scan of n = 2..n_max, one RecordBlock per segment.

    is_record marks strict running maxima of the largest prime factor over
    the whole scan: each segment's running maximum starts from the best
    value of the segments before it, and a value equal to it is no record.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    import numpy as np

    best = np.zeros(1, dtype=np.uint64)
    for columns in iter_columns(2, n_max, segment_size, workers):
        largest = columns.largest
        # running[i] is the maximum before n = lo + i; running[-1] after the segment
        running = np.maximum.accumulate(np.concatenate((best, largest)))
        best = running[-1:]
        yield RecordBlock(
            lo=columns.lo,
            largest=largest,
            exponent=columns.exponent(),
            is_record=largest > running[:-1],
        )


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
