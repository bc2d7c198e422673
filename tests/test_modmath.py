import functools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadfactor import modmath
from quadfactor.modmath import (
    DEFAULT_SEGMENT_SIZE,
    HI_MAX,
    RootPair,
    _root_for_prime,
    is_prime,
    iter_primes,
    iter_root_rows,
    root_table,
    sqrt_minus_one,
)

from oracles import (
    PrimePowerRoot,
    hensel_lift,
    roots_of_minus_one,
    sieve_flags,
    smallest_factor_upto,
)


def test_is_prime_trivial_cases():
    assert not is_prime(0)
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(13)
    assert not is_prime(2**64 - 1)
    with pytest.raises(ValueError):
        is_prime(2**64)
    with pytest.raises(ValueError):
        is_prime(-3)


def test_is_prime_4e12_plus_1_against_trial_division():
    # isqrt(4e12+1) = 2e6, so trial division to 2e6 decides primality outright
    n = 4 * 10**12 + 1
    factor = smallest_factor_upto(n, 2 * 10**6)
    assert factor == 277
    assert is_prime(n) is False


def test_is_prime_matches_sieve_up_to_1e6():
    flags = sieve_flags(10**6)
    mismatches = [n for n in range(10**6 + 1) if is_prime(n) != bool(flags[n])]
    assert mismatches == []


def test_primes_in_examples():
    assert list(iter_primes(1, 30, (4, 1))) == [5, 13, 17, 29]
    eleven = list(iter_primes(1, 100, (4, 1)))
    assert len(eleven) == 11 and eleven[-1] == 97
    assert list(iter_primes(90, 96)) == []
    for lo in (-10, 0, 1):
        assert list(iter_primes(lo, 1)) == []
        assert list(iter_primes(lo, 1, (8, -5))) == []
    assert list(iter_primes(-10, -3, (3, 2))) == []


def test_primes_in_residue_enumeration_oracle():
    flags = sieve_flags(100)
    expected = [n for n in range(2, 101) if flags[n] and n % 4 == 1]
    assert list(iter_primes(1, 100, (4, 1))) == expected


def test_primes_in_rejects_bad_residue():
    with pytest.raises(ValueError):
        list(iter_primes(1, 100, (4, 2)))
    for lo, hi in ((10, 5), (1, 0), (-1, -2)):
        with pytest.raises(ValueError):
            list(iter_primes(lo, hi))
        with pytest.raises(ValueError):
            list(iter_primes(lo, hi, (8, 3)))
    with pytest.raises(ValueError):
        list(iter_primes(2, 10, segment_size=0))


def test_primes_in_segment_size_independent():
    full = list(iter_primes(2, 10**5))
    assert full == simple_oracle_primes()
    for size in (64, 997, 10**5 + 7):
        assert list(iter_primes(2, 10**5, segment_size=size)) == full
    assert list(iter_primes(3000, 50000, (4, 1), segment_size=128)) == [
        p for p in full if 3000 <= p <= 50000 and p % 4 == 1
    ]


_CLASS_TOP = 2 * 10**5


@functools.lru_cache(maxsize=1)
def _class_oracle_flags():
    return sieve_flags(_CLASS_TOP)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_primes_in_class_sieve_matches_filtered_oracle(data):
    q = data.draw(st.integers(1, 30), label="q")
    unit = data.draw(st.sampled_from([u for u in range(q) if math.gcd(u, q) == 1]))
    a = unit + q * data.draw(st.integers(-3, 3), label="shift")
    size = data.draw(st.sampled_from([1, 7, DEFAULT_SEGMENT_SIZE]), label="segment_size")
    # one member per chunk is slow in pure Python, so the tiny chunks get narrower ranges
    span = {1: 3000, 7: 30000}.get(size, _CLASS_TOP)
    lo = data.draw(st.integers(-10, _CLASS_TOP), label="lo")
    hi = data.draw(st.integers(lo, min(lo + span, _CLASS_TOP)), label="hi")
    flags = _class_oracle_flags()
    expected = [n for n in range(max(lo, 0), hi + 1) if flags[n] and n % q == a % q]
    assert list(iter_primes(lo, hi, (q, a), segment_size=size)) == expected


def test_primes_in_keeps_a_prime_residue():
    # the residue is itself a base prime of the range, which must not strike it
    for size in (1, 7, DEFAULT_SEGMENT_SIZE):
        assert list(iter_primes(2, 100, (8, 3), segment_size=size))[:3] == [3, 11, 19]
        assert list(iter_primes(3, 3, (8, 3), segment_size=size)) == [3]
        assert list(iter_primes(2, 100, (10, 7), segment_size=size))[:3] == [7, 17, 37]
        assert list(iter_primes(7, 7, (10, 7), segment_size=size)) == [7]
        assert list(iter_primes(2, 2, (1, 0), segment_size=size)) == [2]


def simple_oracle_primes():
    flags = sieve_flags(10**5)
    return [n for n in range(2, 10**5 + 1) if flags[n]]


def test_sqrt_minus_one_examples():
    assert sqrt_minus_one(5) == RootPair(p=5, b=2)
    assert sqrt_minus_one(13) == RootPair(p=13, b=5)
    assert sqrt_minus_one(17) == RootPair(p=17, b=4)


def test_sqrt_minus_one_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sqrt_minus_one(7)  # 3 mod 4
    with pytest.raises(ValueError):
        sqrt_minus_one(25)  # composite
    with pytest.raises(ValueError):
        sqrt_minus_one(2)


def test_sqrt_minus_one_invariant_up_to_1e6():
    for p in iter_primes(5, 10**6, (4, 1)):
        b = sqrt_minus_one(p).b
        assert (b * b + 1) % p == 0
        assert 0 < 2 * b < p


def test_no_roots_for_3_mod_4_primes():
    # roots come in pairs {r, p-r}, so scanning n <= (p-1)/2 is exhaustive
    rng = random.Random(41)
    pool = list(iter_primes(3, 10**6, (4, 3)))
    for p in rng.sample(pool, 100):
        assert all((n * n + 1) % p for n in range(1, (p + 1) // 2 + 1)), p


def test_rootpair_validation():
    with pytest.raises(ValueError):
        RootPair(p=13, b=8)  # not normalized: 8 > 13/2
    with pytest.raises(ValueError):
        RootPair(p=13, b=4)  # 17 not divisible by 13
    with pytest.raises(ValueError):
        RootPair(p=7, b=2)


def test_hensel_lift_examples():
    assert hensel_lift(sqrt_minus_one(5), 2) == PrimePowerRoot(p=5, k=2, m=25, r=7)
    assert (7 * 7 + 1) == 2 * 5**2
    lifted = hensel_lift(sqrt_minus_one(13), 4)
    assert (lifted.r**2 + 1) % 13**4 == 0
    # brute-force root search mod 13^4; 239^2+1 = 2*13^4
    assert sorted((lifted.r, lifted.m - lifted.r)) == roots_of_minus_one(13**4)
    assert lifted.r == 239
    base = sqrt_minus_one(13)
    assert hensel_lift(base, 1) == PrimePowerRoot(p=13, k=1, m=13, r=base.b)


def test_hensel_lift_brute_force_small_powers():
    for p in (5, 13, 17, 29):
        root = sqrt_minus_one(p)
        for k in (1, 2, 3):
            m = p**k
            got = hensel_lift(root, k)
            assert sorted((got.r, m - got.r)) == roots_of_minus_one(m)


def test_hensel_lift_tower_consistency():
    rng = random.Random(1009)
    pool = list(iter_primes(5, 2000, (4, 1)))
    for p in rng.sample(pool, 25):
        root = sqrt_minus_one(p)
        k = 2
        while p ** (k + 1) < 2**63:
            k += 1
        prev = hensel_lift(root, k - 1)
        cur = hensel_lift(root, k)
        reduced = cur.r % prev.m
        assert reduced in (prev.r, prev.m - prev.r)


def test_hensel_lift_overflow():
    with pytest.raises(OverflowError):
        hensel_lift(sqrt_minus_one(5), 28)  # 5^28 > 2^64
    with pytest.raises(ValueError):
        hensel_lift(sqrt_minus_one(5), 0)


def _scalar_rows(hi):
    return [[p, _root_for_prime(p)] for p in iter_primes(2, max(hi, 2), (4, 1))]


def _rows_of(table):
    for chunk in table:
        assert chunk.dtype.name == "uint32" and chunk.ndim == 2 and chunk.shape[1] == 2
        assert len(chunk), "root_table returned an empty chunk"
    return [row for chunk in table for row in chunk.tolist()]


def test_root_table_matches_scalar_roots_up_to_1e6():
    expected = _scalar_rows(10**6)
    # the default chunk covers 10^6 at once; the others cut it in many places
    for chunk in (modmath._TABLE_CHUNK, 4097, 1000):
        blocks = list(iter_root_rows(10**6, chunk))
        assert all(block.dtype.name == "uint32" for block in blocks)
        assert [row for block in blocks for row in block.tolist()] == expected, chunk
    assert _rows_of(root_table(10**6)) == expected


def test_root_table_small_bounds_and_prefixes(monkeypatch):
    full = root_table(5000)
    for hi in (1, 5, 12, 13, 4999, 5000):
        count = len(list(iter_primes(2, max(hi, 2), (4, 1))))
        assert _rows_of(root_table(hi)) == _rows_of(full)[:count]
    # 7-member chunks: 5..29, 33..57, ...; the chunk 201, 205, ..., 225 has no prime
    monkeypatch.setattr(modmath, "iter_root_rows", functools.partial(iter_root_rows, chunk=7))
    assert [] in [rows.tolist() for rows in iter_root_rows(300, chunk=7)]
    for hi in range(0, 301):
        monkeypatch.setattr(modmath, "_root_table_cache", None)
        assert _rows_of(root_table(hi)) == _scalar_rows(hi), hi
    cached = [rows for rows in modmath._root_table_cache[1] if len(rows)]
    for hi in range(0, 301):
        table = root_table(hi)
        assert _rows_of(table) == _scalar_rows(hi), hi
        # views of the leading cached chunks, not copies
        assert all(chunk.base is rows for chunk, rows in zip(table, cached)), hi


def _least_nonresidue(p):
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    return z


def _digit_width(z):
    """The largest k with z^(2^k - 1) < 2^32."""
    return 5 if z == 2 else 4 if z == 3 else 3 if z <= 23 else 2 if z <= 1625 else 1


def test_batch_roots_match_scalar_roots_at_every_digit_width():
    import numpy as np

    # every prime p = 1 (mod 4) below 2^17, and those among the top 2^16
    # members of the class below 2^31
    low = np.array(list(iter_primes(2, 2**17, (4, 1))), dtype=np.int64)
    top = np.array(list(iter_primes(HI_MAX - 2**18, HI_MAX, (4, 1))), dtype=np.int64)
    assert top.size == 6111
    # 130729 is the largest p below 2^17 with least nonresidue 23, and
    # (p - 1)/4 leads with the 3-bit digit 7: 23^7 must be reduced mod p
    # before it is squared, or the square overflows int64
    assert _least_nonresidue(130729) == 23 and (130729 - 1) // 4 >> 12 == 7
    low_z = [_least_nonresidue(p) for p in low.tolist()]
    top_z = [_least_nonresidue(p) for p in top.tolist()]
    assert {_digit_width(z) for z in low_z + top_z} == {2, 3, 4, 5}
    assert sum(z >= 29 for z in top_z) == 12
    base = modmath._base_primes(math.isqrt(HI_MAX) + 1)
    # whole chunks, and chunks with no p = 5 (mod 8) or no p = 1 (mod 8),
    # whose z = 2 group or whose odd groups are empty
    for p in (low, top, *(c[c % 8 == r] for c in (low, top) for r in (1, 5))):
        b = modmath._batch_roots(p, base)
        assert b.dtype == np.int64
        assert b.tolist() == [_root_for_prime(q) for q in p.tolist()]
    empty = modmath._batch_roots(np.zeros(0, dtype=np.int64), base)
    assert empty.dtype == np.int64 and empty.size == 0


def test_root_table_build_holds_little_beyond_its_rows(monkeypatch):
    import numpy  # imported before tracing, so its import is not counted

    monkeypatch.setattr(modmath, "_root_table_cache", None)
    tracemalloc.start()
    try:
        table = root_table(3 * 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = sum(chunk.nbytes for chunk in table)
    assert peak < 1.5 * rows, (peak, rows)


def test_root_table_audit_rejects_a_bad_root(monkeypatch):
    monkeypatch.setattr(modmath, "_batch_roots", lambda p, base: p - 1)
    with pytest.raises(AssertionError):
        list(iter_root_rows(100))


def test_root_table_rejects_bounds_above_2_31_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise RuntimeError("table work started")

    monkeypatch.setattr(modmath, "iter_root_rows", no_work)
    monkeypatch.setattr(modmath, "_root_table_cache", None)
    with pytest.raises(OverflowError):
        root_table(HI_MAX + 1)
