import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadfactor.modmath import iter_primes, sqrt_minus_one
from quadfactor.rootcount import (
    count_by_floor_identity,
    count_exact,
    count_in_class,
    count_root_classes,
    count_upper_bound,
    solution_count,
)

from oracles import scan_count, scan_count_closed

SMALL_POOL = list(iter_primes(5, 2000, (4, 1)))


def test_examples_x10():
    r5 = sqrt_minus_one(5)
    assert count_exact(10, r5) == scan_count(10, 5) == 4
    assert count_by_floor_identity(10, r5) == 4
    assert count_upper_bound(10, r5) == Fraction(25, 5) == 5

    r13 = sqrt_minus_one(13)
    assert count_exact(10, r13) == scan_count(10, 13) == 1
    # [15/13] - [5/13] + [25/13] - [15/13] = 1 - 0 + 1 - 1
    assert count_by_floor_identity(10, r13) == 1
    assert count_upper_bound(10, r13) == Fraction(27, 13)

    r101 = sqrt_minus_one(101)
    assert r101.b == 10
    # n = 10 solves but sits outside the half-open interval (10, 20]
    assert count_exact(10, r101) == 0
    assert count_by_floor_identity(10, r101) == 0


def test_half_open_vs_closed_interval():
    # when n = x is itself a solution the closed count is one higher
    r5 = sqrt_minus_one(5)
    for x in (2, 3, 7, 12, 57, 1001):
        open_count = count_exact(x, r5)
        assert open_count == scan_count(x, 5)
        closed = scan_count_closed(x, 5)
        assert closed - open_count == (1 if (x * x + 1) % 5 == 0 else 0)


def test_divisibility_corner_contributes_zero_fraction():
    # pick x = b so p | x - b: that fractional term is exactly 0
    r13 = sqrt_minus_one(13)
    x = r13.b
    bound = count_upper_bound(x, r13)
    assert bound == Fraction(2 * x + 0 + (x + r13.b) % 13, 13)


def test_seeded_random_pairs_against_scan_oracle():
    rng = random.Random(90217)
    for _ in range(300):
        p = SMALL_POOL[rng.randrange(len(SMALL_POOL))]
        x = rng.randint(1, 1500)
        root = sqrt_minus_one(p)
        oracle = scan_count(x, p)
        assert count_exact(x, root) == oracle
        assert count_by_floor_identity(x, root) == oracle
        assert Fraction(oracle) <= count_upper_bound(x, root)


def test_invariants_on_large_seeded_sample(primes_1mod4_1e5):
    rng = random.Random(555)
    pool = primes_1mod4_1e5
    for _ in range(1000):
        p = pool[rng.randrange(len(pool))]
        x = rng.randint(1, 10**6)
        result = solution_count(x, sqrt_minus_one(p))
        assert result.exact == result.floor_identity
        assert Fraction(result.exact) <= result.bound
        assert result.bound - result.exact < 4
        # the naive main term 2x/p is off by less than 2
        assert abs(Fraction(result.exact) - Fraction(2 * x, p)) < 2


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    x=st.integers(min_value=1, max_value=10**9),
    idx=st.integers(min_value=0, max_value=len(SMALL_POOL) - 1),
)
def test_floor_identity_equals_stepping(x, idx):
    root = sqrt_minus_one(SMALL_POOL[idx])
    assert count_exact(x, root) == count_by_floor_identity(x, root)
    assert Fraction(count_exact(x, root)) <= count_upper_bound(x, root)


def test_large_prime_counts():
    # each root class hits at most once when p > x; both roots can still land
    # inside (x, 2x] as long as p = b + (p-b) <= 4x, e.g. (x=9, p=29)
    r29 = sqrt_minus_one(29)
    assert count_exact(9, r29) == scan_count(9, 29) == 2
    rng = random.Random(3301)
    for _ in range(200):
        p = SMALL_POOL[rng.randrange(len(SMALL_POOL))]
        x = rng.randint(1, max(1, p // 3 - 1))
        root = sqrt_minus_one(p)
        got = count_exact(x, root)
        assert got == count_by_floor_identity(x, root) == scan_count(x, p)
        assert got <= 2
        if p > 4 * x:
            assert got <= 1


def test_count_in_class_basics():
    # n in (10, 20] with n = 3 (mod 5): 13, 18
    assert count_in_class(10, 5, 3) == 2
    assert count_in_class(10, 5, -2) == 2  # same class
    assert count_in_class(0, 7, 3) == 0
    with pytest.raises(ValueError):
        count_in_class(10, 0, 1)


def test_count_root_classes_rejects_unnormalized():
    with pytest.raises(ValueError):
        count_root_classes(10, 13, 8)
    with pytest.raises(ValueError):
        count_root_classes(10, 13, 0)
