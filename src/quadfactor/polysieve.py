"""Segmented factor sieve producing complete factorizations of n^2 + 1.

For a segment [lo, hi] every prime p = 1 (mod 4) up to hi is visited at the
positions n = +-b_p (mod p), where its full power is divided out.  Whatever
survives is prime: two prime factors above hi >= n would multiply past
(n+1)^2 > n^2 + 1, and a square q^2 with q > n would have to equal n^2 + 1
itself, which (q-n)(q+n) = 1 forbids.  So sieving only up to hi is enough,
and each residual carries multiplicity 1.

The roots come from one table per bound (modmath.root_table), kept as the
row chunks it was built in and never joined.  A segment is one numpy pass.
One vectorized test over the table, a chunk at a time, keeps each root's
first offset (+-b - lo) mod p below the segment width W, and each kept
offset runs in steps of p to the end (one hit for p > W).
Exponents are read off the original values n^2 + 1 (below 2^63 for
hi <= 2^31, so uint64 is exact) and the residuals are what one division by
p^e at every hit leaves.

That pass, the hit core (_sieve_hits), gives every hit as a position, a
prime and its exponent, plus the residual of every n, and audits a sample
of the residuals.  Each consumer then takes one layout of it, built where
the segment is sieved: with workers > 1, in a child of iter_columns' fork
map, which holds at most one result the consumer has not read.
- sieve_columns, the CSR layout FactorColumns: counts[i] factors for
  n = lo + i, stored flat in primes/exponents in ascending order (2 first
  for odd n, then the sieved primes, then the residual prime), and
  largest[i], the last of them.  Only the sieve output reads it;
- largest_column, P(n^2 + 1) alone, for records and the probe's fallback;
- divisor_keys, the residuals above a bound and the prime powers p^k,
  2 <= k <= e, for coverage;
- log_total, the exact sum of e log p over every factor, for chain.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Tuple, TypeVar

from . import WorkerLost
from .modmath import DEFAULT_SEGMENT_SIZE, HI_MAX, _logs, is_prime, root_table

if TYPE_CHECKING:
    import numpy
_RESIDUAL_SPOT_CHECK_STRIDE = 4093  # sampled primality audit of residuals
T = TypeVar("T")


class FactorColumns(NamedTuple):
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

    def exponent(self) -> "numpy.ndarray":
        """log P(n^2 + 1) / log n for each n (lo >= 2), by modmath._logs, as float64."""
        return _exponent(self.lo, self.largest)


def _exponent(lo: int, largest: "numpy.ndarray") -> "numpy.ndarray":
    """log largest[i] / log(lo + i) for each i (lo >= 2), as float64."""
    import numpy as np

    return _logs(largest) / _logs(np.arange(lo, lo + len(largest), dtype=np.int64))


class RecordBlock(NamedTuple):
    """The records scan over one segment, n = lo, lo + 1, ...

    largest[i] is P(n^2 + 1) (uint64), exponent[i] is log P / log n (float64) and
    is_record[i] (bool) says whether P exceeds every earlier value of the
    scan, including those of earlier segments.
    """

    lo: int
    largest: "numpy.ndarray"
    exponent: "numpy.ndarray"
    is_record: "numpy.ndarray"


def _root_hits(
    table: list["numpy.ndarray"], lo: int, width: int
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
    # a table chunk at a time, so the temporaries stay small for any bound
    for rows in table:
        p, b = rows.T
        # (b - lo) mod p and (-b - lo) mod p in uint32: with shift =
        # p - (lo mod p), b + shift and p - b + shift stay under 2p < 2^32
        shift = p - lo % p
        both = np.column_stack(((b + shift) % p, (p - b + shift) % p))
        # flat index i is (row i >> 1, root i & 1), in the order (row, root)
        hit = np.flatnonzero(both < width)
        start = both.ravel()[hit].astype(np.int64)
        p = p[hit >> 1].astype(np.int64)
        runs = (width - 1 - start) // p + 1
        # hit j of the chunk is start + p * (j - j0), j0 the first j of its run
        base = start - p * (np.cumsum(runs) - runs)
        p = np.repeat(p, runs)
        offsets.append(np.repeat(base, runs) + p * np.arange(len(p)))
        primes.append(p)
    return np.concatenate(offsets), np.concatenate(primes).astype(np.uint64)


def _sieve_hits(
    lo: int, hi: int
) -> Tuple["numpy.ndarray", "numpy.ndarray", "numpy.ndarray", "numpy.ndarray"]:
    """The hit core of [lo, hi]: (pos, p, e, residual) in one numpy pass.

    Hit j is p[j]^e[j] exactly dividing n^2 + 1 at n = lo + pos[j] (int64,
    uint64, uint8), p ascending (2 at the odd n first, then the table rows);
    residual[i] (uint64) is what is left of n^2 + 1 at n = lo + i, 1 or a
    prime above hi.  A sample of the residuals above 1 is audited with
    is_prime.
    """
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
    return pos, p, e, residual


def sieve_columns(lo: int, hi: int) -> FactorColumns:
    """Factor n^2 + 1 for every n in [lo, hi] into the CSR layout."""
    pos, p, e, residual = _sieve_hits(lo, hi)
    import numpy as np

    big = (residual > 1).nonzero()[0]
    # the residual goes after the sieved primes of its n; a stable sort by
    # position keeps every n's primes in the ascending order they came in
    pos = np.concatenate((pos, big))
    order = pos.argsort(kind="stable")
    primes = np.concatenate((p, residual[big]))[order]
    exponents = np.concatenate((e, np.ones(len(big), dtype=np.uint8)))[order]
    counts = np.bincount(pos, minlength=len(residual))
    return FactorColumns(
        lo=lo,
        counts=counts.astype(np.uint8),
        primes=primes,
        exponents=exponents,
        largest=primes[np.cumsum(counts) - 1],
    )


def largest_column(lo: int, hi: int) -> "numpy.ndarray":
    """P(n^2 + 1) for every n in [lo, hi], uint64, as sieve_columns' largest."""
    pos, p, _, largest = _sieve_hits(lo, hi)
    import numpy as np

    # a residual above 1 is a prime above hi, so above every sieved prime of
    # its n; where it is 1 the largest sieved prime takes its place
    np.maximum.at(largest, pos, p)
    return largest


def divisor_keys(
    lo: int, hi: int, bound: int, with_prime_powers: bool
) -> Tuple["numpy.ndarray", "numpy.ndarray"]:
    """(keys, bases), uint64: the divisor keys above the sieved primes.

    For a bound at least hi and 2, so above every sieved prime, the keys are
    every residual prime above bound, one per n it divides, then with prime
    powers each p^k, 2 <= k <= e, of every sieved factor p^e; bases[j] is
    the prime that keys[j] is a power of.
    """
    _, p, e, residual = _sieve_hits(lo, hi)
    import numpy as np

    big = residual[residual > np.uint64(bound)]
    keys, bases = [big], [big]
    more = e >= 2
    base, power, left = p[more], p[more], e[more]
    while with_prime_powers and base.size:
        # p^k divides n^2+1 < 2^63 for k <= e, so the powers stay exact
        power = power * base
        keys.append(power)
        bases.append(base)
        more = left > 2
        base, power, left = base[more], power[more], left[more] - 1
    return np.concatenate(keys), np.concatenate(bases)


def log_total(lo: int, hi: int) -> int:
    """The sum of e log p over every factor p^e of n^2 + 1, n in [lo, hi],
    as chebsums._ExactSum's exact integer total: the totals of any split of
    an interval add up to the total of the whole."""
    _, p, e, residual = _sieve_hits(lo, hi)
    import numpy as np

    from .chebsums import _ExactSum

    # p ascends, so each prime's log is taken once and repeated over its hits
    new = np.ones(len(p), dtype=bool)
    new[1:] = p[1:] != p[:-1]
    acc = _ExactSum()
    acc.add(e * _logs(p[new])[np.cumsum(new) - 1])
    acc.add(_logs(residual[residual > 1]))
    return acc.total


def iter_columns(
    lo: int,
    hi: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
    reduce: Callable[[int, int], T] = sieve_columns,
) -> Iterator[T]:
    """Stream reduce(s, t) over the segments [s, t] of [lo, hi], ascending.

    reduce is a layout of the hit core (sieve_columns by default), or a
    consumer's reduction of one; it runs where the segment is sieved, so
    only what it returns leaves the segment.  workers is cut to the CPUs
    this process may run on (_usable_cpus) and to the segment count.  One
    worker runs the segments in this process; more run them in a fork map
    (_fork_map), started after the root table for hi is built, so workers
    inherit it.  The stream is identical for any worker count, and memory
    is bounded for any: each worker holds at most one result the consumer
    has not taken, plus one pipe buffer.
    """
    if segment_size < 1:
        raise ValueError("segment_size must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    bounds = [(s, min(s + segment_size - 1, hi)) for s in range(lo, hi + 1, segment_size)]
    if not bounds:
        return
    root_table(hi)
    workers = min(workers, _usable_cpus(), len(bounds))
    if workers == 1:
        for seg in bounds:
            yield reduce(*seg)
        return
    yield from _fork_map(reduce, bounds, workers)


def _fork_map(
    reduce: Callable[[int, int], T], bounds: list[Tuple[int, int]], workers: int
) -> Iterator[T]:
    """reduce(*bounds[i]) for each i, in order, from workers forked children.

    Child k reduces segments k, k + workers, ... in order and writes each
    result to its own pipe as an 8-byte length and a pickle, blocking while
    the pipe is full; the parent reads pipe i mod workers for segment i.
    An exception in reduce is raised here at its segment, and a pipe that
    ends early raises WorkerLost naming it.  A child ends with os._exit:
    it flushes no inherited stdio buffer and runs no atexit handler.  Once
    the stream ends, fails or is closed, every child is killed and reaped.
    """
    import pickle

    pids, pipes = [], []
    try:
        for k in range(workers):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            with open(write, "wb") as out:  # the parent's copy closes here
                pid = os.fork()
                if pid == 0:
                    try:
                        for pipe in pipes:  # if the parent dies, a write fails, not blocks
                            pipe.close()
                        for seg in bounds[k::workers]:
                            try:
                                data = pickle.dumps((True, reduce(*seg)))
                            except BaseException as exc:
                                data = pickle.dumps((False, exc))
                            out.writelines((len(data).to_bytes(8, "little"), data))
                            out.flush()
                    finally:
                        os._exit(0)
            pids.append(pid)
        for i, seg in enumerate(bounds):
            size = int.from_bytes(pipes[i % workers].read(8), "little")
            data = pipes[i % workers].read(size)
            if not size or len(data) < size:
                raise WorkerLost(f"segment [{seg[0]}, {seg[1]}]: its worker ended early")
            ok, result = pickle.loads(data)
            if not ok:
                raise result
            yield result
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL; the signal module would take 1.5 ms to import
            os.waitpid(pid, 0)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has
    one, else os.cpu_count(), and at least 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# --- interval-level reductions ----------------------------------------------


def _record_columns(lo: int, hi: int) -> Tuple["numpy.ndarray", "numpy.ndarray"]:
    """(largest, exponent) of [lo, hi], records_scan's per-segment reduction."""
    largest = largest_column(lo, hi)
    return largest, _exponent(lo, largest)


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
    lo = 2
    for largest, exponent in iter_columns(2, n_max, segment_size, workers, _record_columns):
        # running[i] is the maximum before n = lo + i; running[-1] after the segment
        running = np.maximum.accumulate(np.concatenate((best, largest)))
        best = running[-1:]
        yield RecordBlock(
            lo=lo, largest=largest, exponent=exponent, is_record=largest > running[:-1]
        )
        lo += len(largest)
