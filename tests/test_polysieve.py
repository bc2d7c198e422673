import concurrent.futures
import math
import random

import pytest
import sympy

from quadfactor import modmath
from quadfactor.modmath import is_prime, primes_in
from quadfactor.polysieve import (
    _sieve_worker,
    factorize_value,
    incidence_counts,
    iter_records,
    largest_prime_factor,
    records_scan,
    sieve_segment,
)
from quadfactor.rootcount import count_exact
from quadfactor.modmath import sqrt_minus_one

from oracles import trial_division_factor

# smallest n >= 1e7 whose n^2+1 has two prime factors above the trial bound;
# frozen from a sympy scan, exercises the rho fallback deterministically
RHO_TRIGGER_N = 10000018


def test_examples():
    seg = sieve_segment(100, 100)
    assert seg[0].factors == ((73, 1), (137, 1))
    assert seg[0].largest_prime == 137
    seg = sieve_segment(239, 239)
    assert seg[0].factors == ((2, 1), (13, 4))
    assert seg[0].largest_prime == 13
    seg = sieve_segment(1, 1)
    assert seg[0].factors == ((2, 1),)
    assert seg[0].largest_prime == 2


def test_against_trial_division_exhaustive():
    records = sieve_segment(2, 2000)
    for rec in records:
        assert rec.factors == tuple(trial_division_factor(rec.n**2 + 1)), rec.n


def test_product_reconstruction_and_factor_classes():
    for rec in sieve_segment(3000, 3500):
        assert math.prod(p**e for p, e in rec.factors) == rec.value
        for p, e in rec.factors:
            assert p == 2 or p % 4 == 1
            if p == 2:
                assert e == 1 and rec.n % 2 == 1
        assert rec.largest_prime == max(p for p, _ in rec.factors)


def test_even_n_has_no_factor_2():
    for rec in sieve_segment(10, 20):
        has_two = any(p == 2 for p, _ in rec.factors)
        assert has_two == (rec.n % 2 == 1)


def test_residuals_are_prime():
    for rec in sieve_segment(5000, 5300):
        big = [p for p, _ in rec.factors if p > 5300]
        assert len(big) <= 1
        for p in big:
            assert is_prime(p)


def test_segment_concatenation_identical():
    whole = sieve_segment(50, 350)
    parts = sieve_segment(50, 199) + sieve_segment(200, 350)
    assert whole == parts
    streamed = list(iter_records(50, 350, segment_size=37))
    assert streamed == whole


def test_sieve_segment_validation(monkeypatch):
    with pytest.raises(ValueError):
        sieve_segment(0, 10)
    with pytest.raises(ValueError):
        sieve_segment(10, 5)

    def no_work(*args, **kwargs):
        raise RuntimeError("table work started")

    # an out-of-envelope bound is refused before any root table work
    monkeypatch.setattr(modmath, "_build_root_table", no_work)
    monkeypatch.setattr(modmath, "_root_table_cache", None)
    with pytest.raises(OverflowError):
        sieve_segment(2, 2**31 + 1)
    with pytest.raises(OverflowError):
        next(iter_records(2**31 - 10, 2**31 + 1, segment_size=4))


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
        for rec in sieve_segment(lo, hi):
            assert rec.factors == _sympy_factors(rec.n), rec.n


@pytest.mark.parametrize("p", [5, 101])
@pytest.mark.parametrize("base", [10**6, 2 * 10**7])
def test_sieve_segment_widths_around_a_prime(p, base):
    # W = p-1 puts p on the hit-test side of the split, W = p and p+1 on the
    # strided side; the windows start on a root class of p, so p divides the
    # first value, and for W = p+1 the last one too
    b = modmath._root_for_prime(p)
    for c in (b, p - b):
        lo = base + (c - base) % p
        for width in (p - 1, p, p + 1):
            records = sieve_segment(lo, lo + width - 1)
            assert (lo * lo + 1) % p == 0
            for rec in records:
                assert rec.factors == _sympy_factors(rec.n), (p, width, rec.n)


def test_sieve_segment_two_primes_above_the_width():
    n = 20000004  # n^2+1 = 53 * 5653 * 27529 * 48497
    records = sieve_segment(n - 500, n + 499)
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
    records = sieve_segment(2, 500)
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


def test_records_scan_small():
    rows = list(records_scan(3))
    assert [(r.n, r.largest_prime, r.is_record) for r in rows] == [
        (2, 5, True),
        (3, 5, False),
    ]
    assert rows[0].exponent == pytest.approx(math.log(5) / math.log(2))


def test_records_scan_strictly_increasing_records():
    rows = list(records_scan(2000))
    records = [r for r in rows if r.is_record]
    peaks = [r.largest_prime for r in records]
    assert peaks == sorted(set(peaks))
    # running max equals the trial-division oracle
    best = 0
    for row in rows:
        oracle_p = max(p for p, _ in trial_division_factor(row.n**2 + 1))
        best = max(best, oracle_p)
        assert row.largest_prime == oracle_p
    assert best == records[-1].largest_prime


def test_incidence_matches_rootcount():
    for x in (10, 100, 1000):
        counts = incidence_counts(x, 2 * x)
        for p in primes_in(5, 2 * x, (4, 1)):
            assert counts.get(p, 0) == count_exact(x, sqrt_minus_one(p)), (x, p)
        for p in counts:
            assert p == 2 or p % 4 == 1


def test_incidence_example_values():
    counts = incidence_counts(10, 40)
    assert counts[5] == 4
    assert counts[13] == 1
    assert 3 not in counts and 7 not in counts and 11 not in counts


def test_incidence_prime_powers():
    x = 100
    plain = incidence_counts(x, 4 * x * x + 1, count_prime_powers=False)
    powered = incidence_counts(x, 4 * x * x + 1, count_prime_powers=True)
    # every power key is consistent with a direct scan
    assert powered[25] == sum(1 for n in range(x + 1, 2 * x + 1) if (n * n + 1) % 25 == 0)
    assert plain[5] == powered[5] >= powered[25]
    assert all(k in powered for k in plain)


def test_incidence_prime_powers_match_lifted_progressions():
    # the sieve strips powers by repeated division; lifted roots count the
    # same incidences through an entirely different route
    from quadfactor.modmath import hensel_lift
    from quadfactor.rootcount import count_root_classes

    x = 200
    top = 4 * x * x + 1
    powered = incidence_counts(x, top, count_prime_powers=True)
    for p in (5, 13, 17):
        root = sqrt_minus_one(p)
        k = 1
        while p**k <= top:
            lifted = hensel_lift(root, k)
            expected = count_root_classes(x, lifted.m, lifted.r)
            assert powered.get(p**k, 0) == expected, (p, k)
            k += 1


def test_workers_give_identical_stream():
    seq = list(iter_records(2, 1200, segment_size=100, workers=1))
    par = list(iter_records(2, 1200, segment_size=100, workers=3))
    assert seq == par


def test_pool_worker_returns_plain_columns():
    ns, factors = _sieve_worker((2, 300))
    records = sieve_segment(2, 300)
    assert ns == [rec.n for rec in records]
    assert factors == [rec.factors for rec in records]


def test_iter_records_bounds_segments_in_flight(monkeypatch):
    submitted = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    workers, size = 2, 50
    records = []
    for k, rec in enumerate(iter_records(2, 1201, segment_size=size, workers=workers)):
        # segment k // size is being consumed; at most 2 * workers beyond it
        assert len(submitted) <= k // size + 1 + 2 * workers, (k, len(submitted))
        records.append(rec)
    assert len(submitted) == 24
    assert records == list(iter_records(2, 1201, segment_size=size, workers=1))
