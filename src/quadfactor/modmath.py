"""Exact integer substrate: primality, prime streams, and roots of -1.

Everything here is deterministic and validated against the 64-bit contract:
values such as hi^2+1 must stay below 2^64, and callers get an
OverflowError instead of silent wraparound semantics.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import stat
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, Optional, Tuple

if TYPE_CHECKING:
    import numpy

U64_MAX = 2**64 - 1
DEFAULT_SEGMENT_SIZE = 1 << 20
# Largest sieve bound: primes and roots fit uint32, and the products of two
# residues below it fit 62 bits, so batched arithmetic in int64 is exact.
HI_MAX = 2**31
# Candidates 4i+1 examined per chunk of the root-table sieve.
_TABLE_CHUNK = 1 << 18

# Witnesses proven sufficient for deterministic Miller-Rabin below 2^64
# (Sinclair / Feitsma-verified base set).
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_TINY_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True, slots=True)
class RootPair:
    """A prime p = 1 (mod 4) together with the root b of b^2 = -1 (mod p).

    Only the representative in (0, p/2) is stored; the second root is p - b.
    Primality of p is the constructor's caller contract (sqrt_minus_one
    checks it); the root relation and normalization are re-validated here.
    """

    p: int
    b: int

    def __post_init__(self) -> None:
        if self.p % 4 != 1:
            raise ValueError(f"p={self.p} is not 1 mod 4")
        if not 0 < 2 * self.b < self.p:
            raise ValueError(f"root {self.b} outside (0, {self.p}/2)")
        if (self.b * self.b + 1) % self.p:
            raise ValueError(f"{self.b}^2 + 1 is not divisible by {self.p}")


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2^64."""
    if n < 0 or n > U64_MAX:
        raise ValueError("is_prime is specified for 64-bit unsigned inputs")
    if n < 2:
        return False
    for p in _TINY_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=32)
def _base_primes(limit: int) -> Tuple[int, ...]:
    """The primes up to limit inclusive; each level recurses to sqrt(limit)."""
    return tuple(iter_primes(2, limit)) if limit >= 2 else ()


def _class_sieve(
    lo: int, hi: int, q: int, a: int, chunk: int
) -> Iterator[Tuple[int, bytearray]]:
    """Segmented sieve of the progression n = a (mod q), lo <= n <= hi.

    Yields (n0, flags) chunks of at most chunk members, ascending, where
    flags[j] is 1 exactly when n0 + q*j is prime.  2 <= lo and
    gcd(a, q) == 1 are the caller's contract.  A base prime r dividing q
    divides no member and is skipped; any other r strikes every r-th member
    from the first member >= r^2 that it divides, so r itself survives.
    """
    start = lo + (a - lo) % q  # first member >= lo
    if start > hi:
        return
    count = (hi - start) // q + 1
    # (r, index of the first member >= r^2 divisible by r), r ascending
    strikes = []
    for r in _base_primes(math.isqrt(hi)):
        if q % r:
            j = -start * pow(q, -1, r) % r
            if start + q * j < r * r:
                j -= (start + q * j - r * r) // (q * r) * r
            strikes.append((r, j))
    zeros = memoryview(bytes(chunk))
    for j_lo in range(0, count, chunk):
        size = min(chunk, count - j_lo)
        n0 = start + q * j_lo
        last = n0 + q * (size - 1)
        flags = bytearray(b"\x01") * size
        for r, j in strikes:
            if r * r > last:
                break
            s = j - j_lo if j >= j_lo else (j - j_lo) % r
            if s < size:
                flags[s::r] = zeros[: (size - 1 - s) // r + 1]
        yield n0, flags


def iter_primes(
    lo: int,
    hi: int,
    residue_filter: Optional[Tuple[int, int]] = None,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
) -> Iterator[int]:
    """Yield the primes in [lo, hi] in ascending order.

    An optional residue_filter (q, a) restricts the stream to p = a (mod q);
    gcd(a, q) must be 1.  Only that class is sieved, segment_size members
    at a time, so memory stays O(segment_size) regardless of the range.
    """
    if lo > hi:
        raise ValueError(f"empty range: lo={lo} > hi={hi}")
    if segment_size < 1:
        raise ValueError("segment_size must be >= 1")
    q, a = residue_filter if residue_filter is not None else (1, 0)
    if q < 1:
        raise ValueError("modulus q must be >= 1")
    a %= q
    if math.gcd(a, q) != 1:
        raise ValueError(f"residue {a} is not invertible mod {q}")
    for n0, flags in _class_sieve(max(lo, 2), hi, q, a, segment_size):
        yield from itertools.compress(range(n0, n0 + q * len(flags), q), flags)


@lru_cache(maxsize=1 << 20)
def _root_for_prime(p: int) -> int:
    """Root of -1 for p already known to be prime and 1 (mod 4).

    sqrt_minus_one adds the input validation.  2 is a nonresidue exactly
    when p = +-3 (mod 8), so p = 5 (mod 8) resolves without any Euler test.
    Otherwise the least nonresidue z comes from trying z = 3, 5, 7, ...: an
    odd composite below it is a product of residues, so the first odd hit is
    the least.  Then z^((p-1)/4) squares to z^((p-1)/2) = -1 by Euler's
    criterion.
    """
    e = (p - 1) // 2
    if p % 8 == 5:
        z = 2
    else:
        z = 3
        while pow(z, e, p) != p - 1:
            z += 2
    b = pow(z, e // 2, p)
    return min(b, p - b)


def sqrt_minus_one(p: int) -> RootPair:
    """The normalized root pair of n^2 + 1 = 0 (mod p) for prime p = 1 (mod 4)."""
    if p % 4 != 1:
        raise ValueError(f"p={p} is not 1 mod 4; n^2+1 has no root mod p")
    if not is_prime(p):
        raise ValueError(f"p={p} is composite")
    return RootPair(p=p, b=_root_for_prime(p))


_root_table_cache: Optional[Tuple[int, list["numpy.ndarray"]]] = None


def root_table(hi: int) -> list["numpy.ndarray"]:
    """Rows (p, b_p) for every prime p = 1 (mod 4) up to hi, ascending in p.

    A list of uint32 chunks of shape (k, 2), k >= 1, the chunks of
    iter_root_rows as they were built or read from the root cache and
    audited; they are never joined.  b_p is the root of b^2 = -1 (mod p)
    normalized to (0, p/2), equal to _root_for_prime(p).  The largest table
    built so far is kept for the life of the process, so a fork pool started
    after the first call inherits it; a smaller bound gets views of its
    leading chunks, the last one cut.
    """
    global _root_table_cache
    if hi > HI_MAX:
        raise OverflowError(f"hi={hi} above 2^31: the root table is uint32")
    if _root_table_cache is None or _root_table_cache[0] < hi:
        _root_table_cache = (hi, list(iter_root_rows(hi)))
    table = []
    for rows in _root_table_cache[1]:
        cut = int(rows[:, 0].searchsorted(hi, side="right"))
        if cut:
            table.append(rows[:cut])
        if cut < len(rows):
            break
    return table


def iter_root_rows(hi: int, chunk: int = _TABLE_CHUNK) -> Iterator["numpy.ndarray"]:
    """The rows of root_table(hi), ascending, one uint32 block per sieve chunk.

    The primes come from the class sieve over n = 1 (mod 4), chunk members
    at a time; only one chunk is in memory at a time.  hi <= HI_MAX is the
    caller's contract.  The roots of a complete chunk (chunk members) are
    read from the root cache when its file passes _read_roots' checks, which
    admit only the normalized roots; otherwise, and for the last, partial
    chunk, they are computed in one batch, every row is audited with
    (b*b + 1) % p == 0 (a failure raises AssertionError), and a complete
    chunk's roots are written back to the cache.  The cache never changes a
    row: deleting it, or any file in it, is always safe.
    """
    import numpy as np

    base = _base_primes(math.isqrt(max(hi, 0)) + 1)
    cache = _cache_dir()
    for n0, flags in _class_sieve(2, hi, 4, 1, chunk):
        p = n0 + 4 * np.frombuffer(flags, np.bool_).nonzero()[0].astype(np.int64)
        path = None
        if cache is not None and len(flags) == chunk:
            path = os.path.join(cache, f"roots-{chunk}-{n0}.u4")
            b = _read_roots(path, p)
        if path is None or b is None:
            b = _batch_roots(p, base)
            bad = np.flatnonzero((b * b + 1) % p)
            if bad.size:
                i = int(bad[0])
                raise AssertionError(f"root table: {b[i]}^2 + 1 is not divisible by {p[i]}")
            if path is not None:
                _write_roots(path, b)
        yield np.column_stack((p, b)).astype(np.uint32)


def _cache_dir() -> Optional[str]:
    """The root cache: $XDG_CACHE_HOME/quadfactor, or ~/.cache/quadfactor
    when that variable is unset, empty or relative; None without an
    absolute home directory, which turns the cache off.

    It holds one file per complete chunk of iter_root_rows, named by the
    chunk size and the chunk's first member: the chunk's roots, in the
    order of its primes, as raw little-endian uint32, 4 bytes per prime.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "quadfactor") if os.path.isabs(base) else None


def _read_roots(path: str, p: "numpy.ndarray") -> Optional["numpy.ndarray"]:
    """The cached roots of the primes p (int64), or None.

    The file is read only if it is a regular file of exactly 4 bytes per
    prime, and its roots are used only if every b has 0 < 2b < p and
    (b*b + 1) % p == 0, which leaves the normalized root alone; any other
    content, and any OSError, gives None.
    """
    import numpy as np

    size = 4 * p.size
    try:
        st = os.stat(path)
        if not stat.S_ISREG(st.st_mode) or st.st_size != size:
            return None
        with open(path, "rb") as f:
            data = f.read(size + 1)
    except OSError:
        return None
    if len(data) != size:
        return None
    b = np.frombuffer(data, "<u4").astype(np.int64)
    # the range check comes first, so b*b stays below 2^62
    if not ((b > 0) & (2 * b < p)).all() or ((b * b + 1) % p).any():
        return None
    return b


def _write_roots(path: str, b: "numpy.ndarray") -> None:
    """Store the roots b at path: a temporary file in the same directory,
    then os.replace, so the path holds a whole file or none.  An OSError
    leaves the cache without this file and is otherwise ignored."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(tmp, "wb") as f:
            f.write(b.astype("<u4").tobytes())
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _batch_roots(p: "numpy.ndarray", base: Tuple[int, ...]) -> "numpy.ndarray":
    """Normalized roots of -1 for an int64 array of primes p = 1 (mod 4).

    Each p gets a nonresidue z: 2 when p = 5 (mod 8), otherwise the least
    odd prime q with p a nonresidue mod q, which by reciprocity (p = 1 mod 4)
    is exactly a q that is a nonresidue mod p.  The least nonresidue is a
    prime below sqrt(p) + 1, so base always holds one.  Then
    z^((p-1)/4) squares to -1, and either of its signs normalizes to the
    same root whichever nonresidue was used.

    The rows that share a z get that power together, left to right in k-bit
    digits of the exponent (the 2^k-ary method): each digit d costs k
    squarings mod p, then one product with z^d, read from a table of 2^k
    plain integers, and one reduction, so 1 + 1/k reductions per exponent
    bit.  k is the largest width with z^(2^k - 1) < 2^32 (5 for z = 2, 4 for
    3, 3 up to 23, 2 up to 1625).  Every running value is below p < 2^31,
    so each product stays below z^(2^k - 1) * p < 2^63 and int64 is exact.
    """
    import numpy as np

    b = np.zeros_like(p)
    five = (p & 7) == 5
    group = np.flatnonzero(five)
    b[group] = _digit_powers(2, p[group])
    todo = np.flatnonzero(~five)
    for q in base[1:]:
        if not todo.size:
            break
        squares = np.zeros(q, dtype=bool)
        squares[np.arange(q) ** 2 % q] = True
        hit = ~squares[p[todo] % q]
        group = todo[hit]
        b[group] = _digit_powers(q, p[group])
        todo = todo[~hit]
    return np.minimum(b, p - b)


def _digit_powers(z: int, p: "numpy.ndarray") -> "numpy.ndarray":
    """z^((p-1)/4) mod p for each p of an int64 array, as _batch_roots says."""
    import numpy as np

    if not p.size:
        return p.copy()
    k = 1
    while z ** ((2 << k) - 1) < 1 << 32:
        k += 1
    table = np.array([z**d for d in range(1 << k)], dtype=np.int64)
    mask = (1 << k) - 1
    e = (p - 1) >> 2
    shift = k * (-(-int(e.max()).bit_length() // k) - 1)  # of the leading digit
    # the leading z^d can exceed p, so it is reduced before it is squared
    r = table[e >> shift] % p
    while shift:
        shift -= k
        for _ in range(k):
            np.multiply(r, r, out=r)
            np.remainder(r, p, out=r)
        np.multiply(r, table[(e >> shift) & mask], out=r)
        np.remainder(r, p, out=r)
    return r


def _logs(values: "numpy.ndarray") -> "numpy.ndarray":
    """math.log of each integer, as float64.

    math.log, not np.log: numpy's vectorized log can differ from it in the
    last bit, and from one CPU's SIMD dispatch to another's.
    """
    import numpy as np

    return np.fromiter(map(math.log, values.tolist()), np.float64, count=values.size)
