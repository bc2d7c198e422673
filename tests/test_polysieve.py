import collections
import math
import os
import random
import time
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from quadfactor import chebsums, modmath, polysieve
from quadfactor.cli import main
from quadfactor.modmath import DEFAULT_SEGMENT_SIZE, HI_MAX, is_prime, iter_primes
from quadfactor.polysieve import (
    FactorColumns,
    divisor_keys,
    iter_columns,
    largest_column,
    log_total,
    records_scan,
    sieve_columns,
)
from quadfactor.verifier import contradiction_probe, coverage_curve
from quadfactor.rootcount import count_exact
from quadfactor.modmath import sqrt_minus_one

from oracles import (
    FactorizationRecord,
    divisor_incidence,
    factorize_value,
    hensel_lift,
    largest_prime_factor,
    records_of,
    trial_division_factor,
)

# smallest n >= 1e7 whose n^2+1 has two prime factors above the trial bound;
# frozen from a sympy scan, exercises the rho fallback deterministically
RHO_TRIGGER_N = 10000018


def test_examples():
    seg = records_of(sieve_columns(100, 100))
    assert seg[0].factors == ((73, 1), (137, 1))
    assert seg[0].largest_prime == 137
    seg = records_of(sieve_columns(239, 239))
    assert seg[0].factors == ((2, 1), (13, 4))
    assert seg[0].largest_prime == 13
    seg = records_of(sieve_columns(1, 1))
    assert seg[0].factors == ((2, 1),)
    assert seg[0].largest_prime == 2


def test_against_trial_division_exhaustive():
    records = records_of(sieve_columns(2, 2000))
    for rec in records:
        assert rec.factors == tuple(trial_division_factor(rec.n**2 + 1)), rec.n


def test_product_reconstruction_and_factor_classes():
    for rec in records_of(sieve_columns(3000, 3500)):
        assert math.prod(p**e for p, e in rec.factors) == rec.value
        for p, e in rec.factors:
            assert p == 2 or p % 4 == 1
            if p == 2:
                assert e == 1 and rec.n % 2 == 1
        assert rec.largest_prime == max(p for p, _ in rec.factors)


def test_even_n_has_no_factor_2():
    for rec in records_of(sieve_columns(10, 20)):
        has_two = any(p == 2 for p, _ in rec.factors)
        assert has_two == (rec.n % 2 == 1)


def test_residuals_are_prime():
    for rec in records_of(sieve_columns(5000, 5300)):
        big = [p for p, _ in rec.factors if p > 5300]
        assert len(big) <= 1
        for p in big:
            assert is_prime(p)


def test_segment_concatenation_identical():
    whole = records_of(sieve_columns(50, 350))
    parts = records_of(sieve_columns(50, 199)) + records_of(sieve_columns(200, 350))
    assert whole == parts
    streamed = [rec for cols in iter_columns(50, 350, segment_size=37) for rec in records_of(cols)]
    assert streamed == whole


def test_sieve_segment_validation(monkeypatch):
    with pytest.raises(ValueError):
        sieve_columns(0, 10)
    with pytest.raises(ValueError):
        sieve_columns(10, 5)

    def no_work(*args, **kwargs):
        raise RuntimeError("table work started")

    # an out-of-envelope bound is refused before any root table work
    monkeypatch.setattr(modmath, "iter_root_rows", no_work)
    monkeypatch.setattr(modmath, "_root_table_cache", None)
    with pytest.raises(OverflowError):
        sieve_columns(2, 2**31 + 1)
    with pytest.raises(OverflowError):
        next(iter_columns(2**31 - 10, 2**31 + 1, segment_size=4))


def _sympy_factors(n):
    return tuple(sorted(sympy.factorint(n * n + 1).items()))


def test_sieve_segment_random_windows_against_sympy():
    rng = random.Random(20230819)
    windows = []
    for _ in range(6):
        width = rng.randrange(1, 300)
        lo = rng.randrange(2, 3 * 10**7 - width)
        windows.append((lo, lo + width - 1))
    # widest bound first, so one root table serves every window
    for lo, hi in sorted(windows, key=lambda w: -w[1]):
        for rec in records_of(sieve_columns(lo, hi)):
            assert rec.factors == _sympy_factors(rec.n), rec.n


@pytest.mark.parametrize("p", [5, 101])
@pytest.mark.parametrize("base", [10**6, 2 * 10**7])
def test_sieve_segment_widths_around_a_prime(p, base):
    # W = p-1 and W = p give each root class of p at most one hit in the
    # window, W = p+1 a run of two for the class it starts on; the windows
    # start on a root class of p, so p divides the first value, and for
    # W = p+1 the last one too
    b = modmath._root_for_prime(p)
    for c in (b, p - b):
        lo = base + (c - base) % p
        for width in (p - 1, p, p + 1):
            records = records_of(sieve_columns(lo, lo + width - 1))
            assert (lo * lo + 1) % p == 0
            for rec in records:
                assert rec.factors == _sympy_factors(rec.n), (p, width, rec.n)


def test_sieve_segment_two_primes_above_the_width():
    n = 20000004  # n^2+1 = 53 * 5653 * 27529 * 48497
    records = records_of(sieve_columns(n - 500, n + 499))
    rec = records[500]
    assert rec.n == n
    assert rec.factors == ((53, 1), (5653, 1), (27529, 1), (48497, 1))
    for rec in records[::37]:
        assert rec.factors == _sympy_factors(rec.n), rec.n


def test_factorize_value_examples():
    assert largest_prime_factor(3) == 5
    assert largest_prime_factor(7) == 5  # 50 = 2 * 5^2
    assert largest_prime_factor(13) == 17
    assert factorize_value(7).factors == ((2, 1), (5, 2))
    assert factorize_value(1).factors == ((2, 1),)
    with pytest.raises(ValueError):
        factorize_value(0)


def test_factorize_value_matches_segment_path():
    records = records_of(sieve_columns(2, 500))
    for rec in records:
        assert factorize_value(rec.n) == rec


def test_factorize_value_random_against_sympy():
    rng = random.Random(424243)
    for _ in range(150):
        n = rng.randrange(2, 10**8 + 1)
        got = factorize_value(n)
        expected = tuple(sorted(sympy.factorint(n * n + 1).items()))
        assert got.factors == expected, n


def test_factorize_value_rho_path():
    n = RHO_TRIGGER_N
    got = factorize_value(n)
    assert got.factors == tuple(sorted(sympy.factorint(n * n + 1).items()))
    assert any(p > 10**6 for p, _ in got.factors[:-1])  # two large factors


def _scan_rows(n_max, segment_size=DEFAULT_SEGMENT_SIZE, workers=1):
    """(n, largest, exponent, is_record) per n, flattened from the blocks."""
    rows = []
    for block in records_scan(n_max, segment_size, workers):
        assert len(block.largest) == len(block.exponent) == len(block.is_record)
        ns = range(block.lo, block.lo + len(block.largest))
        rows += zip(ns, block.largest.tolist(), block.exponent, block.is_record.tolist())
    return rows


def test_records_scan_small():
    for size in (1, 2):
        rows = _scan_rows(3, size)
        # P(5) = P(10) = 5: the tie at n = 3 is no record, in one segment or two
        assert [(n, p, is_record) for n, p, _, is_record in rows] == [
            (2, 5, True),
            (3, 5, False),
        ]
        assert rows[0][2] == pytest.approx(math.log(5) / math.log(2))


def test_records_scan_strictly_increasing_records():
    rows = _scan_rows(2000)
    peaks = [p for _, p, _, is_record in rows if is_record]
    assert peaks == sorted(set(peaks))
    # running max equals the trial-division oracle
    best = 0
    for n, p, _, _ in rows:
        oracle_p = max(q for q, _ in trial_division_factor(n**2 + 1))
        best = max(best, oracle_p)
        assert p == oracle_p
    assert best == peaks[-1]
    assert _scan_rows(2000, 37, workers=2) == rows


def test_exponents_lie_in_the_csv_float_band():
    # csvtext lays out floats in [0.01, 10) in fixed notation: every
    # log P(n^2 + 1) / log n, 5 <= P <= n^2 + 1 and 2 <= n <= 2^31, is in
    # [log 5 / (31 log 2), log 5 / log 2], the maximum at n = 2
    low, high = math.log(5) / (31 * math.log(2)), math.log(5) / math.log(2)
    blocks = list(records_scan(10**5))
    assert blocks[0].lo == 2 and blocks[0].exponent[0] == high
    window = sieve_columns(29999500, 30000000)  # the sieve_window_3e7 golden's range
    for exponent in [block.exponent for block in blocks] + [window.exponent()]:
        assert low <= exponent.min() and exponent.max() <= high
        assert set(np.floor(np.log10(exponent)).tolist()) <= {-2, -1, 0}


def _record_segment(largest):
    """A hand-made (largest, exponent) pair, as records_scan's reduction gives."""
    largest = np.array(largest, dtype=np.uint64)
    return largest, np.ones(len(largest))


def test_records_scan_ties_are_not_records(monkeypatch):
    # hand-made largest columns: 17 first at n = 3, tied at n = 5 in its own
    # segment and at n = 6, the start of the next; 19 at n = 10 is the next
    # record, and its tie at n = 11 is not
    segments = [_record_segment([5, 17, 13, 17]), _record_segment([17, 5, 17]),
                _record_segment([13, 19, 19])]
    monkeypatch.setattr(polysieve, "iter_columns", lambda *args: iter(segments))
    rows = _scan_rows(11)
    assert [(n, is_record) for n, _, _, is_record in rows] == [
        (2, True), (3, True), (4, False), (5, False), (6, False), (7, False),
        (8, False), (9, False), (10, True), (11, False),
    ]
    assert [block.lo for block in records_scan(11)] == [2, 6, 9]
    # every value ties with the first: only n = 2 is a record
    segments = [_record_segment([7, 7]), _record_segment([7])]
    monkeypatch.setattr(polysieve, "iter_columns", lambda *args: iter(segments))
    assert [is_record for *_, is_record in _scan_rows(4)] == [True, False, False]


def test_incidence_matches_rootcount():
    for x in (10, 100, 1000):
        keys, counts, _ = divisor_incidence(iter_columns(x + 1, 2 * x), 2 * x, False)
        counts = dict(zip(keys.tolist(), counts.tolist()))
        for p in iter_primes(5, 2 * x, (4, 1)):
            assert counts.get(p, 0) == count_exact(x, sqrt_minus_one(p)), (x, p)
        for p in counts:
            assert p == 2 or p % 4 == 1


def test_incidence_example_values():
    keys, counts, _ = divisor_incidence(iter_columns(11, 20), 40, False)
    counts = dict(zip(keys.tolist(), counts.tolist()))
    assert counts[5] == 4
    assert counts[13] == 1
    assert 3 not in counts and 7 not in counts and 11 not in counts


def test_incidence_prime_powers():
    x = 100
    keys, counts, _ = divisor_incidence(iter_columns(x + 1, 2 * x), 4 * x * x + 1, False)
    plain = dict(zip(keys.tolist(), counts.tolist()))
    keys, counts, _ = divisor_incidence(iter_columns(x + 1, 2 * x), 4 * x * x + 1, True)
    powered = dict(zip(keys.tolist(), counts.tolist()))
    # every power key is consistent with a direct scan
    assert powered[25] == sum(1 for n in range(x + 1, 2 * x + 1) if (n * n + 1) % 25 == 0)
    assert plain[5] == powered[5] >= powered[25]
    assert all(k in powered for k in plain)


def test_incidence_prime_powers_match_lifted_progressions():
    # the sieve strips powers by repeated division; lifted roots count the
    # same incidences through an entirely different route
    from quadfactor.rootcount import count_root_classes

    x = 200
    top = 4 * x * x + 1
    keys, counts, _ = divisor_incidence(iter_columns(x + 1, 2 * x), top, True)
    powered = dict(zip(keys.tolist(), counts.tolist()))
    for p in (5, 13, 17):
        root = sqrt_minus_one(p)
        k = 1
        while p**k <= top:
            lifted = hensel_lift(root, k)
            expected = count_root_classes(x, lifted.m, lifted.r)
            assert powered.get(p**k, 0) == expected, (p, k)
            k += 1


def test_workers_give_identical_stream():
    seq, par = (
        [rec for cols in iter_columns(2, 1200, 100, workers) for rec in records_of(cols)]
        for workers in (1, 3)
    )
    assert seq == par


def test_pool_worker_returns_plain_columns():
    # a pool worker ships numpy columns, not per-n objects, and the columns
    # that come back through the pickle rebuild the records of one sieve pass
    (columns,) = polysieve._fork_map(sieve_columns, [(2, 300)], 1)
    assert isinstance(columns, FactorColumns)
    assert columns.lo == 2
    for name, dtype in (("counts", np.uint8), ("primes", np.uint64),
                        ("exponents", np.uint8), ("largest", np.uint64)):
        assert getattr(columns, name).dtype == dtype, name
    assert len(columns.counts) == len(columns.largest) == 299
    assert len(columns.primes) == len(columns.exponents) == int(columns.counts.sum())
    assert records_of(columns) == records_of(sieve_columns(2, 300))
    assert [records_of(c) for c in iter_columns(2, 300, 50, workers=2)] == [
        records_of(sieve_columns(lo, min(lo + 49, 300))) for lo in range(2, 301, 50)
    ]


def test_iter_records_bounds_segments_in_flight(monkeypatch, tmp_path):
    # a worker blocks on its full pipe, so it holds at most one result the
    # consumer has not taken; each result here (1 MiB) outgrows a pipe buffer
    monkeypatch.setattr(polysieve, "_usable_cpus", lambda: 2)
    done = tmp_path / "done"
    done.touch()

    def reduce(lo, hi):
        block = np.full(1 << 17, lo, dtype=np.int64)
        with open(done, "ab") as out:  # one byte per finished segment, from any process
            out.write(b".")
        return block

    workers, size = 2, 50
    stream = iter_columns(2, 1201, segment_size=size, workers=workers, reduce=reduce)
    for k, block in enumerate(stream):
        time.sleep(0.02)  # the workers run ahead as far as they may
        # k + 1 results taken, and at most one more finished per worker
        assert done.stat().st_size <= k + 1 + workers, k
        assert block.shape == (1 << 17,) and (block == 2 + k * size).all(), k
    assert done.stat().st_size == 24


@pytest.mark.parametrize(
    "affinity, cpu_count, cap",
    [({0, 1}, 64, 2), ({3}, 64, 1), (None, 3, 3), (None, None, 1)],
)
def test_pool_is_capped_at_the_usable_cpus(monkeypatch, affinity, cpu_count, cap):
    # --workers 64 on a small host forks no more processes than it may use
    if affinity is None:
        monkeypatch.delattr(polysieve.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(polysieve.os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(polysieve.os, "cpu_count", lambda: cpu_count)
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(polysieve.os, "fork", counted_fork)
    streamed = [records_of(cols) for cols in iter_columns(2, 1201, 50, workers=64)]
    # one usable CPU runs the segments in-process, with no fork
    assert len(forks) == (cap if cap > 1 else 0)
    assert streamed == [records_of(cols) for cols in iter_columns(2, 1201, 50)]
    # a request with fewer segments than CPUs still takes the pool path
    forks.clear()
    list(iter_columns(2, 61, 50, workers=64))
    assert len(forks) == (min(cap, 2) if cap > 1 else 0)


def test_one_usable_cpu_streams_in_process(monkeypatch):
    # --workers 2 where the process may run on one CPU forks nothing
    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(polysieve, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(polysieve.os, "fork", no_fork)
    streamed = [records_of(cols) for cols in iter_columns(2, 1201, 50, workers=2)]
    assert streamed == [
        records_of(sieve_columns(lo, min(lo + 49, 1201))) for lo in range(2, 1202, 50)
    ]


def test_closing_the_pool_stream_early_leaves_no_child(monkeypatch):
    # a consumer that stops after the first segment: every worker is killed
    # and reaped, so no child is left, not even a zombie
    monkeypatch.setattr(polysieve, "_usable_cpus", lambda: 2)
    stream = iter_columns(2, 200_000, 1000, workers=2)
    assert records_of(next(stream)) == records_of(sieve_columns(2, 1001))
    stream.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sieve_segment_prime_power_above_the_width():
    # 5 > W = 2 is found by the hit test, yet its full power is divided out
    assert records_of(sieve_columns(7, 8))[0] == FactorizationRecord(7, ((2, 1), (5, 2)), 5)
    assert records_of(sieve_columns(57, 58))[0] == FactorizationRecord(
        57, ((2, 1), (5, 3), (13, 1)), 13
    )


def _dividing_rows(lo, hi):
    """Root table rows (p, b_p) of the primes p = 1 (mod 4), p <= hi, that
    divide some n^2 + 1 with n in [lo, hi]."""
    primes = set()
    for n in range(lo, hi + 1):
        primes.update(p for p in sympy.factorint(n * n + 1) if p % 4 == 1 and p <= hi)
    rows = [(p, min(sympy.sqrt_mod(-1, p, all_roots=True))) for p in sorted(primes)]
    return np.array(rows, dtype=np.uint32).reshape(-1, 2)


MID_BOUND = 3 * 10**7


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    window=st.one_of(
        st.tuples(st.integers(1, 40), st.integers(1, 300)),
        st.tuples(st.integers(1, MID_BOUND - 300), st.integers(1, 300)),
        st.tuples(st.integers(HI_MAX - 2000, HI_MAX), st.integers(1, 30)),
    )
)
def test_sieve_segment_matches_factorint(window):
    lo, width = window
    hi = min(lo + width - 1, HI_MAX)
    if hi <= MID_BOUND:
        polysieve.root_table(MID_BOUND)  # one table serves every window
        records = records_of(sieve_columns(lo, hi))
    else:
        # a table prime that divides no value in the window has no hit, so
        # the rows of the dividing primes give the same columns as the full
        # table near 2^31, whose build would dominate the test
        with mock.patch.object(polysieve, "root_table", lambda bound: [_dividing_rows(lo, hi)]):
            records = records_of(sieve_columns(lo, hi))
    assert [rec.n for rec in records] == list(range(lo, hi + 1))
    for rec in records:
        assert rec.factors == _sympy_factors(rec.n), rec.n
        assert rec.largest_prime == rec.factors[-1][0]


def test_bad_residual_raises_and_exits_2(capsys):
    # the sampled audit sits at offset 0 of each segment; these segments
    # start at n = 1100 and 2100, whose residuals lie above the segment bound
    with mock.patch.object(polysieve, "is_prime", lambda n: False):
        with pytest.raises(AssertionError, match="residual 137 at n=100 is not prime"):
            sieve_columns(100, 100)
        for workers in ("1", "2"):
            argv = ["sieve", "--lo", "1100", "--hi", "3099", "--segment-size", "1000",
                    "--workers", workers]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err == "internal check failed: residual 93077 at n=1100 is not prime\n"


def _record_incidence(records, y_cutoff, count_prime_powers):
    """The per-record incidence loop the column reduction replaced."""
    counts = {}
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


def _record_cumulative(records, top, with_prime_powers):
    base_prime = {}
    for rec in records:
        for p, e in rec.factors:
            d = p
            for _ in range(e - 1):
                d *= p
                if d > top:
                    break
                base_prime[d] = p
    terms = []
    cumulative = []
    for d, count in sorted(_record_incidence(records, top, with_prime_powers).items()):
        terms.append(math.log(base_prime.get(d, d)) * count)
        cumulative.append((d, math.fsum(terms)))
    return cumulative


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_column_reductions_equal_the_record_loops(data):
    x = data.draw(st.integers(1, 3000), label="x")
    size = data.draw(st.integers(1, 2 * x), label="segment_size")
    # a cutoff on a prime power tests that the power key itself is kept
    y_cutoff = data.draw(
        st.one_of(st.integers(-1, 4 * x * x + 2), st.sampled_from([25, 125, 169, 289, 625])),
        label="y_cutoff",
    )
    columns = list(iter_columns(x + 1, 2 * x, size))
    records = [rec for cols in columns for rec in records_of(cols)]
    assert records == records_of(sieve_columns(x + 1, 2 * x))
    for powers in (False, True):
        keys, counts, _ = divisor_incidence(columns, y_cutoff, powers)
        assert (keys.dtype, counts.dtype) == (np.uint64, np.int64)
        got = dict(zip(keys.tolist(), counts.tolist()))
        assert got == _record_incidence(records, y_cutoff, powers)
        assert list(got) == sorted(got)
        curve = coverage_curve(x, with_prime_powers=powers, segment_size=size)
        cumulative = list(zip(curve.keys.tolist(), curve.covered.tolist()))
        assert cumulative == _record_cumulative(records, 4 * x * x + 1, powers)
    terms = [e * math.log(p) for rec in records for p, e in rec.factors]
    # the segments' exact totals add up to the correctly rounded sum of all
    # terms; sum_ledger needs x >= 2, so the ledger of x = 1 is not asked for
    totals = iter_columns(x + 1, 2 * x, size, 1, log_total)
    assert chebsums._ExactSum(sum(totals)).value() == math.fsum(terms)
    if x >= 2:
        (led,) = contradiction_probe(x, [0.0], segment_size=size)
        assert led.lambda_side == math.fsum(terms)


@pytest.mark.parametrize("segment_size", [1, 7, DEFAULT_SEGMENT_SIZE])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    window=st.one_of(
        st.tuples(st.integers(1, 40), st.integers(1, 60)),
        st.tuples(st.integers(1, 10**5), st.integers(1, 60)),
    ),
    data=st.data(),
)
def test_each_layout_equals_the_csr(segment_size, window, data):
    # largest, the coverage keys and the lambda integer, segment by segment,
    # against what the CSR layout of the same segment gives
    lo, width = window
    hi = lo + width - 1
    # coverage asks for the keys above 2x, at least hi and 2; the least such
    # bound keeps the most residuals, and a square bound drops them all
    bound = data.draw(st.sampled_from([max(hi, 2), 2 * hi, hi * hi + 1]), label="bound")
    segments = zip(
        iter_columns(lo, hi, segment_size),
        iter_columns(lo, hi, segment_size, 1, largest_column),
        iter_columns(lo, hi, segment_size, 1, log_total),
    )
    for cols, largest, total in segments:
        assert largest.dtype == np.uint64
        assert largest.tolist() == cols.largest.tolist()
        acc = chebsums._ExactSum()
        acc.add(cols.exponents * modmath._logs(cols.primes))
        assert total == acc.total
        top = cols.lo + len(cols.counts) - 1
        for powers in (False, True):
            keys, bases = divisor_keys(cols.lo, top, bound, powers)
            assert (keys.dtype, bases.dtype) == (np.uint64, np.uint64)
            expected = collections.Counter()
            for rec in records_of(cols):
                for p, e in rec.factors:
                    if p > bound:
                        expected[p, p] += 1
                    for k in range(2, e + 1 if powers else 2):
                        expected[p**k, p] += 1
            assert collections.Counter(zip(keys.tolist(), bases.tolist())) == expected


def test_records_scan_blocks_equal_the_csr():
    # the records reduction ships largest and its exponent; both equal what
    # the CSR columns of the same segments give, at any worker count
    for workers in (1, 2):
        blocks = records_scan(3000, 211, workers)
        for block, cols in zip(blocks, iter_columns(2, 3000, 211), strict=True):
            assert block.lo == cols.lo
            assert block.largest.tolist() == cols.largest.tolist()
            assert block.exponent.tolist() == cols.exponent().tolist()
