"""The CSV text of numpy column blocks, byte for byte the CLI's row template.

sieve and records write one row per n, so their CSV is made here, a block
at a time, instead of by one "%d,%d,...\n" % row per n: cli._emit_columns
hands their column blocks to cut_blocks, and each cut block to csv_text.
Each field is written into its slice of one NUL-padded uint8 row matrix,
and the NUL-free bytes of the matrix are the text: ints four digits at a
time from a table of digit groups, bools from a table of words, and floats
in [0.01, 10) as %.17g from the exact product v * 10^k (Dekker 1971),
rounded half to even as CPython rounds it (Gay 1990), with "%.17g" % v as
the fallback for any other float.  That band holds every float the CLI
writes: its one float column is log P / log n for P = P(n^2 + 1), and
5 <= P <= n^2 + 1 with 2 <= n <= 2^31 puts it in [log 5 / (31 log 2),
log 5 / log 2], about [0.0749, 2.33].  The module is imported only by that
emitter's CSV branch, so no other request compiles it or loads numpy for it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence, Tuple

import numpy as np


# "00".."99" as the uint16 whose bytes are the two digits, in native order,
# then the same with leading zeros as NUL: "\0\0", "\01", .., "99"
_PAIRS = np.frombuffer(
    "".join(["%02d" % r for r in range(100)] + ["\0\0"] + [format(r, "\0>2") for r in range(1, 100)]
            ).encode(),
    np.uint16,
)


def _quads() -> np.ndarray:
    """"0000".."9999" as the uint32 whose bytes are the four digits, two
    pairs each, then the same with leading zeros as NUL."""
    quads = np.empty((2, 100, 100, 2), np.uint16)
    quads[..., 0] = _PAIRS.reshape(2, 100, 1)  # the high pair, stripped in the second half
    quads[..., 1] = _PAIRS[:100]
    quads[1, 0, :, 1] = _PAIRS[100:]  # below 100, the low pair is stripped too
    return quads.view(np.uint32).ravel()


def _split(v: np.ndarray):
    """Veltkamp's split of each double into two 26-bit halves, high + low = v."""
    c = 134217729.0 * v  # 2^27 + 1
    high = c - (c - v)
    return high, v - high


_QUADS = _quads()
_TEN, _TEN_THOUSAND = np.uint64(10), np.uint64(10**4)
_SCALES = 10 ** np.arange(3, dtype=np.uint64)
_POW10 = 10.0 ** np.arange(23)  # exact doubles up to 10^22
_POW10_HIGH, _POW10_LOW = _split(_POW10)
# the first four bytes of "false" and "true" as one uint32 each, and the fifth
_BOOL_HEADS = np.frombuffer(b"fals" + b"true", np.uint32)
_BOOL_TAILS = np.frombuffer(b"e\0", np.uint8)
for _table in (_PAIRS, _QUADS, _SCALES, _POW10, _POW10_HIGH, _POW10_LOW):
    _table.flags.writeable = False


def _int_field(values: np.ndarray) -> Tuple[int, Callable[[np.ndarray], None]]:
    """%d of each non-negative integer, right-aligned: (width, write)."""
    values = values.astype(np.uint64, copy=False)
    low, high = (int(values.min()), int(values.max())) if values.size else (0, 0)
    width = len(str(high))
    width += width % 2

    def write(out: np.ndarray) -> None:
        _digits(values, out, strip=low < 10 ** (width - 1))
        if low == 0:
            out[values == 0, -1] = ord("0")  # the one digit of 0, stripped with the rest

    return width, write


def _digits(values: np.ndarray, out: np.ndarray, strip: bool) -> None:
    """Write the digits of each uint64 into its row of the uint8 matrix out.

    Right-aligned and zero-padded to out's width, which is even: four
    digits per uint32 entry from a table indexed by the remainder mod 10^4,
    and two more from a table of pairs if the width is not a multiple of
    four.  With strip, the leading zeros are NUL instead, read from each
    table's second half where what is left is below its modulus.
    """
    width = out.shape[1]
    quads = out[:, width % 4 :].view(np.uint32)
    for j in range(quads.shape[1] - 1, -1, -1):
        quotient = values // _TEN_THOUSAND  # floor_divide by a scalar is SIMD; divmod is not
        # the remainder is below 10^4, so its int64 view indexes without a cast
        index = (values - quotient * _TEN_THOUSAND).view(np.int64)
        if strip:
            index = index + 10000 * (values < _TEN_THOUSAND)
        quads[:, j] = _QUADS[index]
        values = quotient
    if width % 4:  # what is left is below 100
        out[:, :2].view(np.uint16)[:, 0] = _PAIRS[values.view(np.int64) + 100 * strip]


def _two_product(a: np.ndarray, k: np.ndarray):
    """(hi, lo) with hi = fl(a * 10^k) and hi + lo = a * 10^k exactly
    (Dekker 1971): the products of the halves are exact doubles while
    nothing overflows or underflows."""
    hi = a * _POW10[k]
    a1, a2 = _split(a)
    b1, b2 = _POW10_HIGH[k], _POW10_LOW[k]
    return hi, ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2


def _float_field(values: np.ndarray) -> Tuple[int, Callable[[np.ndarray], None]]:
    """"%.17g" % v of each float64, left-aligned: (width, write).

    For v in [0.01, 10), decimal exponent X in -2..0 and k = 16 - X, 10^k
    is an exact double and the 17 digits are D = round(v * 10^k), ties to
    even, as CPython's correctly rounded conversion gives them (Gay 1990).
    v * 10^k = hi + lo exactly; X is found from log10 and corrected until
    10^16 <= hi + lo < 10^17, so hi is above 2^53, an even integer, and
    D = hi + rint(lo); one _fixed call lays them all out.  The band holds
    the CLI's one float, log P(n^2 + 1) / log n, in [log 5 / (31 log 2),
    log 5 / log 2] for 2 <= n <= 2^31.  Every other value (out of the band,
    v <= 0, not finite) is formatted by "%.17g".
    """
    values = np.asarray(values, dtype=np.float64)
    fast = (values >= 0.01) & (values < 10)
    v = values if fast.all() else np.where(fast, values, 1.0)
    x = np.floor(np.log10(v)).astype(np.int64)  # one off near 10^j
    hi, lo = _two_product(v, 16 - x)
    for _ in range(3):  # the few rows whose X is off move one step and are scaled again
        near = ((hi <= 1e16) | (hi >= 1e17)).nonzero()[0]
        h, l = hi[near], lo[near]
        up = (h > 1e17) | ((h == 1e17) & (l >= 0))
        off = up | (h < 1e16) | ((h == 1e16) & (l < 0))
        if not off.any():
            break
        near, up = near[off], up[off]
        x[near] += np.where(up, 1, -1)
        hi[near], lo[near] = _two_product(v[near], 16 - x[near])
    else:
        fast[near] = False
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # no double below 10 rounds up to 10^17 (the tests check every power of ten)
    fast &= d < 10**17
    if not fast.all():
        d, x = np.where(fast, d, 10**16), np.where(fast, x, 0)
    d = d.view(np.uint64)
    slow = (~fast).nonzero()[0]
    text = ["%.17g" % f for f in values[slow].tolist()]
    low = int(x.min(initial=0))
    width = max([18 - low] + [len(t) for t in text])

    def write(out: np.ndarray) -> None:
        _fixed(d, x - low, low, out)
        if text:
            out[slow] = np.frombuffer("".join(t.ljust(width, "\0") for t in text).encode(),
                                      np.uint8).reshape(len(slow), width)

    return width, write


def _fixed(d: np.ndarray, shift: np.ndarray, low: int, out: np.ndarray) -> None:
    """Lay out, at the start of each row of out, the 17 digits d of values
    whose decimal exponents are low + shift in fixed notation, as %.17g
    does: with -2 <= low <= low + shift <= 0, one integer digit and ".".

    Scaled by 10^shift, the digits of every row end in the same column, so
    one set of column writes lays them all out: zero-padded so that the
    first character is in column 1 ("0" for a value below 1), then moved
    one left for "." in column 1.  The zeros the scaling appended are cut
    to NUL, and so, in the rows whose 17th digit is "0", are the trailing
    fraction zeros and a "." they leave bare.
    """
    cut = (d == d // _TEN * _TEN).nonzero()[0]  # before the scaling
    top = int(shift.max(initial=0))
    if top:
        d = d * _SCALES[shift]
    end = 18 - low
    _digits(d, out[:, end % 2 : end], strip=False)
    out[:, 0] = out[:, 1]
    out[:, 1] = ord(".")
    for k in range(1, top + 1):
        out[:, end - k] *= shift < k
    fraction = out[cut, 2:end]
    # trailing[i, j]: fraction digit j of row i and all after it are "0" or
    # cut; accumulated down the columns of the transpose, a vector op each
    trailing = np.logical_and.accumulate(fraction.T[::-1] <= ord("0"), axis=0)[::-1].T
    fraction[trailing] = 0
    out[cut, 2:end] = fraction
    out[cut[trailing[:, 0]], 1] = 0


def _bool_field(values: np.ndarray) -> Tuple[int, Callable[[np.ndarray], None]]:
    """"false"/"true" of each value: (width, write)."""
    index = values.astype(bool).view(np.uint8)

    def write(out: np.ndarray) -> None:
        out[:, :4].view(np.uint32)[:, 0] = _BOOL_HEADS[index]
        out[:, 4] = _BOOL_TAILS[index]

    return 5, write


_FIELDS = {"int": _int_field, "float": _float_field, "bool": _bool_field}


def csv_text(
    kinds: Sequence[str],
    cols: Sequence[np.ndarray],
    factors: Tuple[np.ndarray, ...] = (),
) -> str:
    """The CSV rows of a block of numpy columns, byte for byte the CLI's template's.

    kinds names each column's kind ("int", "float" or "bool").  Each field
    is written into its slice of one NUL-padded uint8 row matrix, so the
    NUL-free bytes are the text.  With factors = (counts, primes,
    exponents), the CSR factorizations of polysieve.FactorColumns, row i's
    "p^e;...;p^e" goes between its columns 1 and 2: one matrix row per
    factor, each n's rows between its head and tail rows.  factors = ()
    writes the columns alone.
    """
    fields = [_FIELDS[kind](col) for kind, col in zip(kinds, cols)]
    if not factors:
        return _packed(_rows(len(cols[0]), fields, [ord(",")] * (len(fields) - 1) + [ord("\n")]))
    counts, primes, exponents = factors
    sep = np.full(len(primes), ord(";"), dtype=np.uint8)
    sep[np.cumsum(counts) - 1] = ord(",")
    parts = [
        _rows(len(counts), fields[:2], [ord(",")] * 2),
        _rows(len(primes), [_int_field(primes), _int_field(exponents)], [ord("^"), sep]),
        _rows(len(counts), fields[2:], [ord(",")] * (len(fields) - 3) + [ord("\n")]),
    ]
    # n = i owns a head row, its counts[i] factor rows and a tail row, from
    # row 2i + (factors before i)
    counts = counts.astype(np.intp)
    owner = np.arange(len(counts))
    head = 2 * owner + np.cumsum(counts) - counts
    tail = head + counts + 1
    factor = np.arange(len(primes)) + 2 * np.repeat(owner, counts) + 1
    rows = np.zeros((len(counts) * 2 + len(primes), max(p.shape[1] for p in parts)), np.uint8)
    for at, part in zip((head, factor, tail), parts):
        rows[at, : part.shape[1]] = part
    return _packed(rows)


def _rows(n: int, fields: Sequence[tuple], ends: Sequence) -> np.ndarray:
    """The n-row matrix of the fields side by side, each written into its own
    slice and followed by its end: a byte, or a column of one byte per row."""
    out = np.zeros((n, sum(width + 1 for width, _ in fields)), np.uint8)
    at = 0
    for (width, write), end in zip(fields, ends):
        write(out[:, at : at + width])
        at += width + 1
        out[:, at - 1] = end
    return out


def _packed(matrix: np.ndarray) -> str:
    return matrix[matrix != 0].tobytes().decode("ascii")


def cut_blocks(blocks: Iterable[tuple], rows: int) -> Iterator[tuple]:
    """Re-cut a stream of consecutive column blocks into blocks of at most rows rows.

    A block is (cols, factors): columns of one row per entry, and factors,
    either () or the CSR (counts, primes, exponents) in which row i owns the
    next counts[i] entries of primes and exponents.  Long blocks are sliced
    into views and short ones joined, so the kernel runs once per rows rows
    on a bounded block, whatever the segment size.
    """
    held, size = [], 0
    for cols, factors in blocks:
        if factors:
            ends = np.zeros(len(factors[0]) + 1, dtype=np.intp)
            np.cumsum(factors[0], out=ends[1:])
        start, width = 0, len(cols[0])
        while start < width:
            stop = min(width, start + rows - size)
            own = slice(start, stop)
            flat = slice(ends[start], ends[stop]) if factors else None
            cut = tuple(f[at] for f, at in zip(factors, (own, flat, flat)))
            held.append(([c[own] for c in cols], cut))
            size += stop - start
            start = stop
            if size == rows:
                yield _joined_blocks(held)
                held, size = [], 0
    if held:
        yield _joined_blocks(held)


def _joined_blocks(blocks: list) -> tuple:
    if len(blocks) == 1:
        return blocks[0]
    cols, factors = zip(*blocks)
    return [np.concatenate(c) for c in zip(*cols)], tuple(np.concatenate(f) for f in zip(*factors))
