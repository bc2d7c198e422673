"""The CSV text of numpy column blocks, byte for byte the CLI's row template.

sieve and records write one row per n, so their CSV is made here, a block
at a time, instead of by one "%d,%d,...\n" % row per n: cli._emit_columns
hands their column blocks to cut_blocks, and each cut block to csv_text.
Each field is a NUL-padded row of one uint8 matrix and the NUL-free bytes
of the matrix are the text: ints from a table of digit pairs, bools from
a table of words, and floats as %.17g from the exact product v * 10^k
(Dekker 1971), rounded half to even as CPython rounds it (Gay 1990), with
"%.17g" % v as the fallback outside fixed notation.  The module is
imported only by that emitter's CSV branch, so no other request compiles
it or loads numpy for it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

# "00".."99" as the uint16 whose bytes are the two digits, in native order,
# then the same with leading zeros as NUL: "\0\0", "\01", .., "99"
_PAIRS = np.frombuffer(
    "".join(["%02d" % r for r in range(100)] + ["\0\0"] + [format(r, "\0>2") for r in range(1, 100)]
            ).encode(),
    np.uint16,
)
_POW10 = 10.0 ** np.arange(23)  # exact doubles up to 10^22
_BOOLS = np.frombuffer(b"false" + b"true\0", np.uint8).reshape(2, 5)


def _layouts() -> np.ndarray:
    """Where each character of a %.17g in fixed notation comes from, per
    decimal exponent X = -4..16: indices into "0" + d0..d16 + "." + NUL."""
    layout = np.full((21, 22), 19, dtype=np.intp)
    for x in range(-4, 17):
        if x >= 0:
            idx = [*range(1, x + 2), 18, *range(x + 2, 18)]
        else:
            idx = [0, 18, *[0] * (-x - 1), *range(1, 18)]
        layout[x + 4, : len(idx)] = idx
    return layout


_LAYOUT = _layouts()
for _table in (_PAIRS, _POW10, _BOOLS, _LAYOUT):
    _table.flags.writeable = False


def _int_field(values: np.ndarray) -> np.ndarray:
    """%d of each non-negative integer, right-aligned in a NUL-padded uint8 matrix."""
    values = values.astype(np.uint64, copy=False)
    width = len(str(int(values.max(initial=0))))
    out = np.empty((len(values), width + width % 2), dtype=np.uint8)
    _digit_pairs(values, out.view(np.uint16), strip=True)
    out[values == 0, -1] = ord("0")  # the one digit of 0, stripped with the rest
    return out


def _digit_pairs(values: np.ndarray, pairs: np.ndarray, strip: bool) -> None:
    """Write the digits of each uint64 into its row of the uint16 matrix pairs.

    Two digits per entry, from a table indexed by the remainder mod 100, and
    zero-padded on the left; with strip, the leading zeros are NUL instead,
    read from the table's second half where what is left is below 100.
    """
    hundred = np.uint64(100)
    for j in range(pairs.shape[1] - 1, -1, -1):
        quotient = values // hundred  # floor_divide by a scalar is SIMD; divmod is not
        # the remainder is below 100, so its int64 view indexes without a cast
        index = (values - quotient * hundred).view(np.int64)
        if strip:
            index = index + 100 * (values < hundred)
        pairs[:, j] = _PAIRS[index]
        values = quotient


def _two_product(a: np.ndarray, b: np.ndarray):
    """(hi, lo) with hi = fl(a*b) and hi + lo = a*b exactly (Dekker 1971).

    Veltkamp's split cuts each factor into two 26-bit halves whose products
    are exact doubles; it holds while nothing overflows or underflows.
    """

    def split(v):
        c = 134217729.0 * v  # 2^27 + 1
        high = c - (c - v)
        return high, v - high

    hi = a * b
    a1, a2 = split(a)
    b1, b2 = split(b)
    return hi, ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2


def _float_field(values: np.ndarray) -> np.ndarray:
    """"%.17g" % v of each float64, left-aligned in a NUL-padded uint8 matrix.

    For v > 0 with decimal exponent X (10^X <= v < 10^(X+1)) and
    k = 16 - X in [0, 22], 10^k is an exact double and the 17 digits are
    D = round(v * 10^k), ties to even, as CPython's correctly rounded
    conversion gives them (Gay 1990).  v * 10^k = hi + lo exactly; X is
    found from log10 and corrected until 10^16 <= hi + lo < 10^17, so hi
    is above 2^53, an even integer, and D = hi + rint(lo).  Fixed notation
    (-4 <= X < 17) is laid out from a table, trailing fraction zeros cut.
    Every other value (v <= 0, not finite, exponent notation) is formatted
    by "%.17g".
    """
    values = np.asarray(values, dtype=np.float64)
    fast = np.isfinite(values) & (values > 0)
    x = np.floor(np.log10(np.where(fast, values, 1.0))).astype(np.int64)  # one off near 10^j
    # outside this range k leaves [0, 22] (and the products could overflow)
    fast &= (x >= -6) & (x <= 16)
    v, x = np.where(fast, values, 1.0), np.where(fast, x, 0)
    hi, lo = _two_product(v, _POW10[16 - x])
    for _ in range(3):  # the few rows whose X is off move one step and are scaled again
        up = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        off = (up | (hi < 1e16) | ((hi == 1e16) & (lo < 0))).nonzero()[0]
        if not off.size:
            break
        x[off] += np.where(up[off], 1, -1)
        hi[off], lo[off] = _two_product(v[off], _POW10[np.clip(16 - x[off], 0, 22)])
    else:
        fast[off] = False
    d = np.where(fast, hi, 1e16).astype(np.int64) + np.rint(np.where(fast, lo, 0)).astype(np.int64)
    # no double rounds up to 10^17 here (the tests check every power of ten)
    fast &= (x >= -4) & (x <= 16) & (d < 10**17)
    d, x = np.where(fast, d, 10**16), np.where(fast, x, 0)

    # "0", the 17 digits, "." and NUL: the sources of every layout
    digits = np.empty((len(v), 20), dtype=np.uint8)
    _digit_pairs(d.view(np.uint64), digits[:, :18].view(np.uint16), strip=False)
    digits[:, 18:] = np.frombuffer(b".\0", np.uint8)
    # one column gather for the commonest exponent, then one per other exponent
    rows_per_x = np.bincount(x + 4, minlength=21)
    common = int(rows_per_x.argmax())
    out = digits[:, _LAYOUT[common]]
    for i in rows_per_x.nonzero()[0].tolist():
        if i != common:
            rows = (x == i - 4).nonzero()[0]
            out[rows] = digits[rows][:, _LAYOUT[i]]
    # only a row whose last digit is 0, or whose 17 digits are all before the
    # ".", ends in characters %g cuts: trailing fraction zeros and a bare "."
    cut = ((d % 10 == 0) | (x == 16)).nonzero()[0]
    significant = 17 - np.argmax(digits[cut, 17:0:-1] != ord("0"), axis=1)
    xc = x[cut]
    length = np.where(xc >= 0, np.where(significant <= xc + 1, xc + 1, significant + 1),
                      1 - xc + significant)
    trimmed = out[cut]
    trimmed[np.arange(out.shape[1]) >= length[:, None]] = 0
    out[cut] = trimmed
    out = out[:, : 18 - min(0, int(x.min(initial=0)))]

    slow = (~fast).nonzero()[0]
    if slow.size:
        text = ["%.17g" % f for f in values[slow].tolist()]
        width = max(out.shape[1], max(map(len, text)))
        out = np.pad(out, ((0, 0), (0, width - out.shape[1])))
        out[slow] = np.frombuffer("".join(t.ljust(width, "\0") for t in text).encode(), np.uint8
                                  ).reshape(len(slow), width)
    return out


def _bool_field(values: np.ndarray) -> np.ndarray:
    return _BOOLS[values.astype(bool).view("uint8")]


_FIELDS = {"int": _int_field, "float": _float_field, "bool": _bool_field}


def csv_text(
    kinds: Sequence[str],
    cols: Sequence[np.ndarray],
    factors: Tuple[np.ndarray, ...] = (),
) -> str:
    """The CSV rows of a block of numpy columns, byte for byte the CLI's template's.

    kinds names each column's kind ("int", "float" or "bool").  Each field
    is a NUL-padded row of one uint8 matrix, so the NUL-free bytes are the
    text.  With factors = (counts, primes, exponents), the CSR
    factorizations of polysieve.FactorColumns, row i's "p^e;...;p^e" goes
    between its columns 1 and 2: one matrix row per factor, each n's rows
    between its head and tail rows.  factors = () writes the columns alone.
    """
    fields = [_FIELDS[kind](col) for kind, col in zip(kinds, cols)]
    if not factors:
        return _packed(_joined(fields, b"\n"))
    counts, primes, exponents = factors
    sep = np.full((len(primes), 1), ord(";"), dtype=np.uint8)
    sep[np.cumsum(counts) - 1] = ord(",")
    parts = [
        _joined(fields[:2], b","),
        np.hstack((_int_field(primes), np.full((len(primes), 1), ord("^"), np.uint8),
                   _int_field(exponents), sep)),
        _joined(fields[2:], b"\n"),
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


def _joined(fields: Sequence[np.ndarray], end: bytes) -> np.ndarray:
    """The fields side by side, "," between them and end after the last."""
    out = np.empty((len(fields[0]), sum(f.shape[1] + 1 for f in fields)), dtype=np.uint8)
    at = 0
    for field in fields:
        out[:, at : at + field.shape[1]] = field
        at += field.shape[1] + 1
        out[:, at - 1] = ord(",")
    out[:, -1] = end[0]
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
