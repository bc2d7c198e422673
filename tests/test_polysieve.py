import concurrent.futures
import itertools
import math
import multiprocessing
import random
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from quadfactor import modmath, polysieve
from quadfactor.cli import main
from quadfactor.modmath import DEFAULT_SEGMENT_SIZE, HI_MAX, is_prime, iter_primes
from quadfactor.polysieve import (
    FactorColumns,
    iter_columns,
    records_scan,
    sieve_columns,
)
from quadfactor.verifier import contradiction_probe, coverage_curve, largest_prime_probe
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


def test_records_scan_ties_are_not_records(monkeypatch):
    # hand-made largest columns: 17 first at n = 3, tied at n = 5 in its own
    # segment and at n = 6, the start of the next; 19 at n = 10 is the next
    # record, and its tie at n = 11 is not
    segments = [_columns_of(2, [5, 17, 13, 17]), _columns_of(6, [17, 5, 17]),
                _columns_of(9, [13, 19, 19])]
    monkeypatch.setattr(polysieve, "iter_columns", lambda *args: iter(segments))
    rows = _scan_rows(11)
    assert [(n, is_record) for n, _, _, is_record in rows] == [
        (2, True), (3, True), (4, False), (5, False), (6, False), (7, False),
        (8, False), (9, False), (10, True), (11, False),
    ]
    assert [block.lo for block in records_scan(11)] == [2, 6, 9]
    # every value ties with the first: only n = 2 is a record
    segments = [_columns_of(2, [7, 7]), _columns_of(4, [7])]
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
    with concurrent.futures.ProcessPoolExecutor(
        1, mp_context=multiprocessing.get_context("fork")
    ) as pool:
        columns = pool.submit(sieve_columns, 2, 300).result()
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


def test_iter_records_bounds_segments_in_flight(monkeypatch):
    submitted = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    workers, size = 2, 50
    records = []
    stream = iter_columns(2, 1201, segment_size=size, workers=workers)
    for k, rec in enumerate(itertools.chain.from_iterable(map(records_of, stream))):
        # segment k // size is being consumed; at most 2 * workers beyond it
        assert len(submitted) <= k // size + 1 + 2 * workers, (k, len(submitted))
        records.append(rec)
    assert len(submitted) == 24
    assert records == [
        rec for cols in iter_columns(2, 1201, segment_size=size) for rec in records_of(cols)
    ]


class InlinePool:
    """A stand-in ProcessPoolExecutor that runs each task when it is
    submitted, recording max_workers and the most results held at once."""

    max_workers = []
    most_ahead = 0

    def __init__(self, max_workers, mp_context=None):
        InlinePool.max_workers.append(max_workers)
        self.ahead = 0  # submitted, not yet taken by the consumer

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, /, *args):
        self.ahead += 1
        InlinePool.most_ahead = max(InlinePool.most_ahead, self.ahead)
        return InlineResult(self, fn(*args))


class InlineResult:
    def __init__(self, pool, value):
        self.pool, self.value = pool, value

    def result(self):
        self.pool.ahead -= 1
        return self.value

    def cancel(self):
        return False


@pytest.mark.parametrize(
    "affinity, cpu_count, cap",
    [({0, 1}, 64, 2), ({3}, 64, 1), (None, 3, 3), (None, None, 1)],
)
def test_pool_is_capped_at_the_usable_cpus(monkeypatch, affinity, cpu_count, cap):
    # --workers 64 on a small host forks no more processes than it may use,
    # and holds no more than twice that many segments ahead of the consumer
    if affinity is None:
        monkeypatch.delattr(polysieve.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(polysieve.os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(polysieve.os, "cpu_count", lambda: cpu_count)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "max_workers", [])
    monkeypatch.setattr(InlinePool, "most_ahead", 0)
    streamed = [records_of(cols) for cols in iter_columns(2, 1201, 50, workers=64)]
    assert (InlinePool.max_workers, InlinePool.most_ahead) == ([cap], 2 * cap)
    assert streamed == [records_of(cols) for cols in iter_columns(2, 1201, 50)]
    # a request with fewer segments than CPUs still takes the pool path
    InlinePool.max_workers.clear()
    list(iter_columns(2, 61, 50, workers=64))
    assert InlinePool.max_workers == [min(cap, 2)]


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


def _columns_of(lo, largest):
    largest = np.array(largest, dtype=np.uint64)
    ones = np.ones(len(largest), dtype=np.uint8)
    return FactorColumns(lo=lo, counts=ones, primes=largest, exponents=ones, largest=largest)


def test_probe_keeps_the_first_n_on_ties():
    # only the largest column is read: the maximum 17 first occurs at n = 12,
    # again later in the same segment and in the next ones
    segments = [_columns_of(11, [5, 17, 13]), _columns_of(14, [17, 17, 5]), _columns_of(17, [17])]
    result = largest_prime_probe(10, columns=segments)
    assert (result.max_prime, result.arg_n) == (17, 12)
    result = largest_prime_probe(10, columns=[_columns_of(11, [3, 3, 3])])
    assert (result.max_prime, result.arg_n) == (3, 11)
    # the same rule as max() over the records, which keeps the first maximum
    rng = random.Random(77)
    for _ in range(5):
        x = rng.randrange(2, 5000)
        records = [rec for cols in iter_columns(x + 1, 2 * x) for rec in records_of(cols)]
        best = max(records, key=lambda rec: rec.largest_prime)
        result = largest_prime_probe(x, segment_size=rng.randrange(1, x + 1))
        assert (result.max_prime, result.arg_n) == (best.largest_prime, best.n)


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
        curve = coverage_curve(x, with_prime_powers=powers, columns=columns)
        cumulative = list(zip(curve.keys.tolist(), curve.covered.tolist()))
        assert cumulative == _record_cumulative(records, 4 * x * x + 1, powers)
    terms = [e * math.log(p) for rec in records for p, e in rec.factors]
    # the lambda side sums the columns it is given, so x = 1 borrows the ledger
    # of x = 2 (sum_ledger needs x >= 2) and still checks its one column, n = 2
    (led,) = contradiction_probe(max(x, 2), [0.0], columns=columns)
    assert led.lambda_side == math.fsum(terms)
