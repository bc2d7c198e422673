import functools
import math
import random
import struct
from fractions import Fraction
from math import gcd, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadfactor import chebsums, modmath
from quadfactor.chebsums import mertens_prefixes, power_cutoff, sum_ledger
from quadfactor.modmath import iter_primes, iter_root_rows, sqrt_minus_one

from oracles import pi_counting, sieve_flags, tail_bound_chain, totient

PI_1E6_4_1 = 39175  # frozen from a one-shot sieve enumeration (re-derived below)


def test_totient_examples_and_gcd_oracle():
    assert totient(4) == 2
    assert totient(1) == 1
    assert totient(12) == len([k for k in range(1, 13) if gcd(k, 12) == 1]) == 4
    for q in range(1, 200):
        assert totient(q) == sum(1 for k in range(1, q + 1) if gcd(k, q) == 1)
    with pytest.raises(ValueError):
        totient(0)


def test_pi_counting_small():
    assert pi_counting(100, 4, 1) == 11
    assert pi_counting(2, 4, 1) == 0
    assert pi_counting(2, 1, 0) == 1  # all primes <= 2
    with pytest.raises(ValueError):
        pi_counting(100, 4, 2)


def test_pi_counting_1e6_main_term():
    flags = sieve_flags(10**6)
    oracle = sum(1 for n in range(2, 10**6 + 1) if flags[n] and n % 4 == 1)
    assert oracle == PI_1E6_4_1
    value = pi_counting(10**6, 4, 1)
    assert value == oracle
    z = 10**6
    main = z / log(z) / 2
    scale = z / log(z) ** 2
    assert abs(value - main) / scale < 1.0


def test_mertens_small_values():
    # direct 11-term oracle
    terms = [5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97]
    oracle = math.fsum(log(p) / p for p in terms)
    value = mertens_prefixes([100], 4, 1)[0]
    assert value == pytest.approx(oracle, rel=1e-14)
    assert value == pytest.approx(1.2888, abs=5e-5)
    assert mertens_prefixes([2], 4, 1) == [0.0]
    with pytest.raises(ValueError):
        mertens_prefixes([10], 4, 2)


def test_mertens_monotone_and_residual_band():
    values = [mertens_prefixes([z], 4, 1)[0] for z in (10, 100, 10**3, 10**4, 10**5, 10**6)]
    assert values == sorted(values)
    residual = values[-1] - 0.5 * log(10**6)
    assert abs(residual) < 2 * log(log(10**6))


def test_power_cutoff_guard_band():
    for x in (2, 10, 999983, 10**6):
        assert power_cutoff(x, 0.0) == x
    assert power_cutoff(100, 0.5) == 1000  # exact integer boundary
    assert power_cutoff(10**4, 1.0) == 10**8
    assert power_cutoff(1, 0.7) == 1
    with pytest.raises(OverflowError):
        power_cutoff(10**6, 1.0)  # 1e12 above the sieve bound
    with pytest.raises(ValueError):
        power_cutoff(10, -0.1)
    assert power_cutoff(10**6, 1.0, limit=None) == 10**12


def _floor_root(n, k):
    """floor(n^(1/k)) in integers, by bisection."""
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


@pytest.mark.xfail(strict=True, reason="1.0 + delta is rounded before pow (ROADMAP.md item 5)")
@pytest.mark.parametrize("x", [243, 1024, 3125])
def test_power_cutoff_keeps_integer_boundaries(x):
    # delta = 0.2 = 1/5, so the cutoff is floor(x^(6/5)) = floor((x^6)^(1/5));
    # here x^(6/5) is the integer 3^6, 2^12 or 5^6
    exact = _floor_root(x**6, 5)
    assert exact**5 == x**6
    assert power_cutoff(x, 0.2) == exact


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_power_cutoff_refuses_non_finite_delta(delta):
    for limit in (chebsums.HI_MAX, None):
        with pytest.raises(ValueError, match="^delta must be finite$"):
            power_cutoff(10, delta, limit)
    with pytest.raises(ValueError, match="^delta must be finite$"):
        sum_ledger(10, [0.5, delta])


def test_primary_term_examples():
    assert sum_ledger(2, [0.0])[0].R == 0.0  # no primes = 1 (mod 4) up to 2
    led = sum_ledger(10**4, [0.5])[0]
    # cutoff 1e6; residual against 1.5 x log x stays O(x log log x) in measure
    assert led.R == pytest.approx(1.5 * 10**4 * log(10**4) + led.residual_R)
    assert abs(led.residual_R) < 3 * 10**4 * log(log(10**4))
    with pytest.raises(ValueError):
        sum_ledger(1, [0.0])


def test_primary_term_is_shared_path_with_mertens():
    # R and the term count against independent single-cutoff prime passes
    for x, deltas in ((10**3, [0.0, 0.4]), (10**5, [0.2]), (57, [0.7, 0.0, 0.7])):
        for led in sum_ledger(x, deltas):
            assert led.R == 2.0 * x * mertens_prefixes([led.cutoff], 4, 1)[0]  # bit-for-bit
            assert led.term_count == pi_counting(led.cutoff, 4, 1)


def test_primary_term_monotone_in_delta():
    values = [led.R for led in sum_ledger(10**4, [0.0, 0.1, 0.25, 0.5])]
    assert values == sorted(values)


def test_primary_residual_stability_across_decades():
    ratios = []
    for x in (10**4, 10**5, 10**6):
        residual = sum_ledger(x, [0.0])[0].residual_R
        ratios.append(residual / (x * log(log(x))))
    magnitudes = [abs(r) for r in ratios]
    assert max(magnitudes) / min(magnitudes) < 2.0
    assert all(r < 0 for r in ratios)  # same sign throughout the band


def test_secondary_term_empty_below_first_prime():
    led = sum_ledger(2, [0.0])[0]
    assert led.S == 0.0 and led.term_count == 0
    led = sum_ledger(4, [0.1])[0]  # cutoff 4 < 5
    assert led.S == 0.0 and led.term_count == 0


def test_secondary_term_summands_bounded():
    x = 50
    summands = []
    for p in iter_primes(5, power_cutoff(x, 0.3), (4, 1)):
        b = sqrt_minus_one(p).b
        summand = ((x - b) % p / p + (x + b) % p / p) * log(p)
        assert 0 <= summand < 2 * log(p)
        summands.append(summand)
    # the same summands, from scalar roots, summed exactly: equal bit for bit
    assert math.fsum(summands) == sum_ledger(x, [0.3])[0].S


def test_secondary_term_probe_at_1e5_reported():
    # The fixed-b tail bound does not transfer to per-prime roots: for
    # p > 2x the roots average p/2, the fractional parts average 1/2, and S
    # grows like theta(cutoff)/2 instead of delta x log x.  The ratio is a
    # measurement, recorded here only to pin the order of magnitude.
    x = 10**5
    led = sum_ledger(x, [0.5])[0]
    ratio = led.S / (0.5 * x * log(x))
    assert led.S > 0
    assert 1.0 < ratio < 60.0
    assert led.term_count == pi_counting(power_cutoff(x, 0.5), 4, 1)


def test_tail_bound_chain_b0_symmetry():
    tb = tail_bound_chain(10**4, 0.3, 0)
    assert tb.four_sum == tb.simplified  # both signs coincide exactly


def test_tail_bound_chain_inequality():
    for x, delta, b in ((10**4, 0.3, 17), (10**3, 0.5, 300), (500, 0.2, 499)):
        tb = tail_bound_chain(x, delta, b)
        assert tb.four_sum <= tb.simplified * (1 + 1e-12) + 1e-9
        assert tb.residual == tb.simplified - tb.main_term
    with pytest.raises(ValueError):
        tail_bound_chain(100, 0.1, 100)


def test_tail_bound_chain_empty_window():
    # delta = 0 and b = 0: the window (x, x] holds no primes at all
    tb = tail_bound_chain(10**3, 0.0, 0)
    assert tb.four_sum == tb.simplified == 0.0
    # a window (x-b, x] too narrow to hold any p = 1 (mod 4)
    tb = tail_bound_chain(20, 0.0, 3)
    assert tb.four_sum == 0.0 and tb.simplified == 0.0


def test_sum_ledger_invariants():
    (led,) = sum_ledger(10**3, [0.25])
    assert led.R == 2.0 * led.x * led.mertens  # exact, shared path
    assert led.S >= 0
    assert led.term_count == pi_counting(led.cutoff, 4, 1)
    assert led.cutoff == power_cutoff(10**3, 0.25)
    assert led.residual_R == led.R - 1.25 * led.x * log(led.x)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    x=st.integers(min_value=2, max_value=3000),
    deltas=st.lists(
        st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.25, 0.4, 0.5, 0.7, 1.0]),
        min_size=1,
        max_size=6,
    ),
)
def test_sum_ledger_sweep_equals_single_delta_calls(x, deltas):
    # shuffled and repeated deltas: each snapshot of the one ascending pass
    # equals, in every field and bit for bit, a pass that stops at its cutoff
    deltas = deltas + deltas[:2]
    random.Random(x).shuffle(deltas)
    sweep = sum_ledger(x, deltas)
    assert [led.delta for led in sweep] == deltas
    for led, delta in zip(sweep, deltas):
        assert led == sum_ledger(x, [delta])[0]


def test_sum_ledger_sweep_independent_of_chunk_size(monkeypatch):
    deltas = [0.5, 0.0, 0.3, 0.3, 0.1]
    expected = sum_ledger(2000, deltas)
    # a 7-candidate chunk puts chunk boundaries between almost every pair of rows
    monkeypatch.setattr(modmath, "iter_root_rows", functools.partial(iter_root_rows, chunk=7))
    assert sum_ledger(2000, deltas) == expected


def test_sum_ledger_validates_every_cutoff_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise RuntimeError("prime pass started")

    monkeypatch.setattr(modmath, "iter_root_rows", no_work)
    with pytest.raises(OverflowError, match="exceeds sieve bound"):
        sum_ledger(30000, [0.2, 1.2])
    with pytest.raises(ValueError, match="delta must be >= 0"):
        sum_ledger(100, [0.1, -0.5])
    assert sum_ledger(100, []) == []


def test_mertens_prefixes_match_direct_passes():
    cutoffs = [1000, 2, 1, 50000, 1000, 99991]
    for q, a in ((4, 1), (3, 2), (12, 7), (1, 0)):
        direct = [
            math.fsum(log(p) / p for p in (iter_primes(2, z, (q, a)) if z >= 2 else []))
            for z in cutoffs
        ]
        assert mertens_prefixes(cutoffs, q, a) == direct
    assert mertens_prefixes([], 4, 1) == []
    with pytest.raises(ValueError):
        mertens_prefixes([100], 4, 2)


def _bits(value):
    return struct.pack("<d", value)


_SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0, 2.0**-1022, 2.0**1000,
]


@st.composite
def adversarial_terms(draw):
    """Float64 terms with mixed signs, zeros, subnormals, exponents across
    the whole double range, and heavy cancellation."""
    base = draw(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(min_value=-1e-300, max_value=1e-300),
                st.sampled_from(_SPECIAL_FLOATS),
            ),
            max_size=40,
        )
    )
    # cancellation: negated copies of some terms, and near-copies one ulp off
    negated = [-v for v in base[: draw(st.integers(0, len(base)))]]
    nudged = [-math.nextafter(v, 0.0) for v in base[: draw(st.integers(0, len(base)))]]
    return base + negated + nudged


@settings(max_examples=300, deadline=None, derandomize=True)
@given(terms=adversarial_terms(), data=st.data())
def test_exact_sum_equals_fsum_under_any_order_and_split(terms, data):
    exact = sum(map(Fraction, terms), Fraction(0))
    try:
        expected = math.fsum(terms)
    except OverflowError:  # fsum overflows on a partial sum; int/int does not
        expected = None
    try:
        rounded = float(exact)
    except OverflowError:
        rounded = None
    if expected is not None:
        assert _bits(expected) == _bits(rounded)
    order = data.draw(st.permutations(range(len(terms))), label="order")
    cuts = sorted(data.draw(st.lists(st.integers(0, len(terms)), max_size=5), label="cuts"))
    shuffled = np.array([terms[i] for i in order], dtype=np.float64)
    for pieces in ([np.array(terms, dtype=np.float64)], np.split(shuffled, cuts)):
        acc = chebsums._ExactSum()
        for piece in pieces:
            acc.add(piece)
        if rounded is None:
            with pytest.raises(OverflowError):
                acc.value()
        else:
            assert _bits(acc.value()) == _bits(rounded)


def test_exact_sum_refuses_non_finite_terms():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            chebsums._ExactSum().add(np.array([1.0, bad]))
    assert chebsums._ExactSum().value() == 0.0


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_ledger_floats_equal_fsum_at_every_cutoff(monkeypatch, chunk):
    # every snapshot of the one ascending pass, at any chunking of the
    # stream, is math.fsum of exactly the terms up to its cutoff
    if chunk is not None:
        monkeypatch.setattr(
            modmath, "iter_root_rows", functools.partial(iter_root_rows, chunk=chunk)
        )
        monkeypatch.setattr(chebsums, "DEFAULT_SEGMENT_SIZE", chunk)
    x = 300
    deltas = [0.5, 0.0, 0.3, 0.25, 0.5, 0.05]
    flags = sieve_flags(power_cutoff(x, max(deltas)))
    for led in sum_ledger(x, deltas):
        primes = [p for p in range(5, led.cutoff + 1, 4) if flags[p]]
        roots = [sqrt_minus_one(p).b for p in primes]
        assert led.mertens == math.fsum(log(p) / p for p in primes)
        assert led.S == math.fsum(
            ((x - b) % p / p + (x + b) % p / p) * log(p) for p, b in zip(primes, roots)
        )
        assert led.term_count == len(primes)
    cutoffs = [power_cutoff(x, delta) for delta in deltas] + [1, 2, 3]
    for q, a in ((3, 2), (1, 0)):
        expected = [
            math.fsum(log(p) / p for p in range(2, z + 1) if flags[p] and p % q == a % q)
            for z in cutoffs
        ]
        assert mertens_prefixes(cutoffs, q, a) == expected
