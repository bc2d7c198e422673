import gc
import itertools
import math
import random
import weakref
from pathlib import Path

import pytest

from quadfactor import chebsums, polysieve, verifier
from quadfactor.chebsums import power_cutoff, sum_ledger
from quadfactor.cli import main
from quadfactor.modmath import is_prime, iter_primes, sqrt_minus_one
from quadfactor.polysieve import iter_columns, largest_column, records_scan
from quadfactor.rootcount import count_in_class, count_root_classes
from quadfactor.verifier import (
    contradiction_probe,
    coverage_curve,
    lhs_logsum,
    largest_prime_probe,
)

from oracles import divisor_incidence, hensel_lift, largest_prime_oracle, trial_division_factor


def _key_terms(x, with_prime_powers, top=None):
    """(d, log p * incidence(d)) for every divisor key d <= top of n^2+1 over
    (x, 2x], ascending, from trial division."""
    top = 4 * x * x + 1 if top is None else top
    counts, base = {}, {}
    for n in range(x + 1, 2 * x + 1):
        for p, e in trial_division_factor(n * n + 1):
            for k in range(1, e + 1 if with_prime_powers else 2):
                if p**k <= top:
                    counts[p**k] = counts.get(p**k, 0) + 1
                    base[p**k] = p
    return [(d, math.log(base[d]) * counts[d]) for d in sorted(counts)]


def test_lhs_logsum_single_term():
    assert lhs_logsum(1) == pytest.approx(math.log(5), rel=1e-15)


def test_lhs_logsum_main_term_band():
    value = lhs_logsum(10**3)
    assert abs(value - 2 * 10**3 * math.log(10**3)) < 3 * 10**3


def test_lhs_logsum_stable_normalized_gap():
    gaps = []
    for x in (10**5, 10**6):
        gaps.append((lhs_logsum(x) - 2 * x * math.log(x)) / x)
    assert gaps[0] / gaps[1] < 1.5 and gaps[1] / gaps[0] < 1.5
    # the gap approaches 2(2 log 2 - 1)
    assert gaps[1] == pytest.approx(2 * (2 * math.log(2) - 1), abs=1e-2)


def test_lambda_identity_single_value():
    # log 50 = log 2 + 2 log 5
    assert math.log(50) == pytest.approx(math.log(2) + 2 * math.log(5), rel=1e-12)
    (led,) = contradiction_probe(50, [0.0])
    assert abs(led.lhs_exact - led.lambda_side) / led.lhs_exact <= 1e-12


def test_lambda_identity_x1e5():
    (led,) = contradiction_probe(10**5, [0.0])
    assert abs(led.lhs_exact - led.lambda_side) / led.lhs_exact <= 1e-9


def test_progression_route_reproduces_logsum():
    # Rebuild the full log sum from counting alone: every prime power
    # d = p^k <= 4x^2+1 contributes log p times its progression count; no
    # factorization of any individual n is involved.
    for x in (100, 123):
        top = 4 * x * x + 1
        terms = [math.log(2) * count_in_class(x, 2, 1)]  # 4 never divides n^2+1
        for p in iter_primes(5, top, (4, 1)):
            root = sqrt_minus_one(p)
            terms.append(math.log(p) * count_root_classes(x, p, root.b))
            k = 2
            while p**k <= top:
                lifted = hensel_lift(root, k)
                terms.append(math.log(p) * count_root_classes(x, lifted.m, lifted.r))
                k += 1
        assert math.fsum(terms) == pytest.approx(lhs_logsum(x), rel=1e-12)


def test_coverage_complete_with_prime_powers():
    curve = coverage_curve(100, with_prime_powers=True)
    ys = [y for y, _, _ in curve.points]
    rhos = [rho for _, _, rho in curve.points]
    assert ys == sorted(ys)
    assert rhos == sorted(rhos)
    assert rhos[-1] == pytest.approx(1.0, abs=1e-9)
    assert curve.points[-1][0] == 4 * 100 * 100 + 1
    assert curve.delta_star is not None
    # both sides are exact sums of their terms, rounded once
    assert curve.total == math.fsum(math.log(n * n + 1) for n in range(101, 201))
    assert curve.points[-1][1] == math.fsum(t for _, t in _key_terms(100, True))


def test_coverage_prime_power_mass_is_small_but_real():
    with_powers = coverage_curve(100, with_prime_powers=True)
    without = coverage_curve(100, with_prime_powers=False)
    dropped = with_powers.points[-1][2] - without.points[-1][2]
    assert 0 < dropped < 0.05
    # at the default tolerance the powerless curve never reaches the target
    assert without.delta_star is None


def test_coverage_delta_star_tolerance_monotone():
    stars = []
    one_curve = coverage_curve(200, with_prime_powers=True)
    for tol in (1e-1, 1e-2, 1e-3):
        curve = coverage_curve(200, with_prime_powers=True, tail_tolerance=tol)
        assert curve.delta_star is not None
        assert one_curve.delta_star_at(tol) == curve.delta_star
        stars.append(curve.delta_star)
    assert stars == sorted(stars)
    with pytest.raises(ValueError):
        one_curve.delta_star_at(1.0)


@pytest.mark.parametrize("segment_size", [1, 7, None])
def test_reductions_equal_fsum_of_their_terms(segment_size):
    # lhs, the von Mangoldt side and every prefix of the coverage cumulative
    # are math.fsum of their terms, whatever the segment size
    x = 150
    kwargs = {} if segment_size is None else {"segment_size": segment_size}
    assert lhs_logsum(x) == math.fsum(math.log(n * n + 1) for n in range(x + 1, 2 * x + 1))
    factors = [pe for n in range(x + 1, 2 * x + 1) for pe in trial_division_factor(n * n + 1)]
    (led,) = contradiction_probe(x, [0.0], **kwargs)
    assert led.lambda_side == math.fsum(e * math.log(p) for p, e in factors)
    for powers in (False, True):
        keys = _key_terms(x, powers)
        curve = coverage_curve(x, with_prime_powers=powers, **kwargs)
        assert curve.keys.tolist() == [d for d, _ in keys]
        for k, c in enumerate(curve.covered.tolist()):
            assert c == math.fsum(t for _, t in keys[: k + 1])


@pytest.mark.parametrize(
    "x, segment_size",
    [(x, s) for x in (1, 2, 3, 1000, 30011) for s in (7, None)]
    + [(x, 1) for x in (1, 2, 3, 1000)]
    # 2x past 2^20, the end of the first root-table chunk
    + [(2**19 + 11, None)],
)
@pytest.mark.parametrize("powers", [False, True])
def test_coverage_curve_equals_the_key_route(x, segment_size, powers):
    # the key route counts every divisor key of the columns with np.unique;
    # each term t = fl(log p * count) is at least log 2, so t * 2^53 is an
    # integer and the int prefix sums over 2^53 are the correctly rounded C
    kwargs = {} if segment_size is None else {"segment_size": segment_size}
    curve = coverage_curve(x, with_prime_powers=powers, **kwargs)
    keys, counts, bases = divisor_incidence(iter_columns(x + 1, 2 * x), 4 * x * x + 1, powers)
    units = (int(math.log(p) * c * 2**53) for p, c in zip(bases.tolist(), counts.tolist()))
    assert curve.keys.tolist() == keys.tolist()
    assert curve.covered.tolist() == [u / 2**53 for u in itertools.accumulate(units)]


def _delta_star_by_scan(curve, tol):
    """The linear scan delta_star_at replaced: first C >= (1 - tol) * total."""
    threshold = (1.0 - tol) * curve.total
    for d, c in zip(curve.keys.tolist(), curve.covered.tolist()):
        if c >= threshold:
            return math.log(d) / math.log(curve.x) - 1.0
    return None


def test_delta_star_at_equals_linear_scan():
    rng = random.Random(5)
    for x, powers in ((100, True), (100, False), (257, True), (257, False)):
        curve = coverage_curve(x, with_prime_powers=powers)
        cs = curve.covered.tolist()
        assert cs == sorted(cs)
        # random tolerances, tolerances that put the threshold on a point of
        # the curve, and one the powerless curve never reaches
        tols = [rng.uniform(1e-6, 1 - 1e-6) for _ in range(40)]
        tols += [1.0 - c / curve.total for c in rng.sample(cs, 20) if 0 < c < curve.total]
        tols += [1e-12]
        for tol in tols:
            assert curve.delta_star_at(tol) == _delta_star_by_scan(curve, tol), tol
        if not powers:
            assert curve.delta_star_at(1e-12) is None


def test_contradiction_probe_truncated_bound():
    deltas = [0.5, 0.0, 0.25, 0.0]
    ledgers = contradiction_probe(10**3, deltas)
    assert [led.delta for led in ledgers] == deltas
    for led, delta in zip(ledgers, deltas):
        assert led.n_trunc <= led.R + led.S
        assert led.margin == led.lhs_main_term - (led.R + led.S)
        assert led.cutoff == power_cutoff(10**3, delta)


@pytest.mark.parametrize("segment_size", [1, 7, None])
@pytest.mark.parametrize("x", [2, 3, 700, 1001])
def test_contradiction_probe_reads_each_cutoff_off_one_pass(x, segment_size):
    # n_trunc, read off the root rows, against math.fsum of the sieve-side
    # incidence terms per cutoff, R and S against single-delta ledgers: bit
    # for bit, whatever the segments the interval is cut into
    kwargs = {} if segment_size is None else {"segment_size": segment_size}
    columns = list(iter_columns(x + 1, 2 * x, **kwargs))
    deltas = [0.4, 0.0, 1.0, 0.1, 0.4]
    for led in contradiction_probe(x, deltas, **kwargs):
        keys, counts, _ = divisor_incidence(columns, led.cutoff, False)
        incidence = zip(keys.tolist(), counts.tolist())
        n_trunc = math.fsum(math.log(p) * count for p, count in incidence)
        assert led.n_trunc == n_trunc
        assert led.margin_exact == led.lhs_exact - n_trunc
        (single,) = sum_ledger(x, [led.delta])
        assert (led.R, led.S) == (single.R, single.S)


@pytest.mark.parametrize(
    "consume",
    [
        lambda size: contradiction_probe(1000, [0.0, 0.5], segment_size=size),
        lambda size: coverage_curve(1000, segment_size=size),
        lambda size: list(records_scan(1000, segment_size=size)),
    ],
    ids=["contradiction_probe", "coverage_curve", "records_scan"],
)
def test_column_consumers_hold_at_most_one_segment(monkeypatch, consume):
    # each segment is reduced where it is sieved: when the next segment's
    # hits are computed, no hit array of an earlier segment is alive
    refs, alive = [], []
    sieve_hits = polysieve._sieve_hits

    def tracked(lo, hi):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        hits = sieve_hits(lo, hi)
        refs.extend(weakref.ref(column) for column in hits[:3])
        return hits

    monkeypatch.setattr(polysieve, "_sieve_hits", tracked)
    consume(97)
    assert len(refs) == 3 * len(alive) >= 3 * 10
    assert max(alive) == 0, alive


def test_chain_builds_no_divisor_key(monkeypatch, capsys):
    # n_trunc comes off the root rows, so neither the library call nor the
    # chain subcommand reaches the divisor keys that coverage is built from
    def no_keys(*args, **kwargs):
        raise RuntimeError("divisor keys built")

    monkeypatch.setattr(verifier, "_cumulative", no_keys)
    deltas = [0.5, 0.0, 1.0]
    assert [led.delta for led in contradiction_probe(1000, deltas)] == deltas
    argv = ["chain", "--x", "2500", "--delta-grid", "0.5,0,0.25,0.25,1.0", "--workers", "1"]
    assert main(argv) == 0
    golden = Path(__file__).resolve().parent / "golden" / "chain_csv.stdout"
    assert capsys.readouterr().out == golden.read_text()


def test_contradiction_probe_validates_every_delta_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise RuntimeError("sieve started")

    monkeypatch.setattr(polysieve, "iter_columns", no_work)
    # range first, then cutoff, in the order the deltas are given
    with pytest.raises(OverflowError, match="exceeds sieve bound"):
        contradiction_probe(10**5, [0.5, 1.0, 1.5])
    with pytest.raises(ValueError, match=r"delta must be in \[0, 1\]"):
        contradiction_probe(10**5, [0.5, 1.5, 1.0])


def test_contradiction_probe_with_no_delta_does_no_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise RuntimeError("sieve started")

    for mod, name in ((polysieve, "iter_columns"), (verifier, "lhs_logsum"),
                      (chebsums, "sum_ledger")):
        monkeypatch.setattr(mod, name, no_work)
    assert contradiction_probe(10**5, []) == []


def test_contradiction_probe_full_cutoff_margin():
    (led,) = contradiction_probe(10**3, [1.0])
    # only primes above x^2 are missing from the truncated sum
    assert 0 < led.margin_exact < 0.3 * led.lhs_exact


def test_margin_sign_flips_across_half():
    low, high = contradiction_probe(10**3, [0.0, 0.5])
    assert low.margin > 0 > high.margin


def test_largest_prime_probe_x10():
    probe = largest_prime_probe(10)
    assert probe.max_prime == 401 and probe.arg_n == 20
    assert probe.exponent == pytest.approx(math.log(401) / math.log(10))
    assert probe.in_interval  # 401 >= 10^1.5


def test_largest_prime_probe_against_oracle():
    x = 100
    oracle_best = max(
        max(p for p, _ in trial_division_factor(n * n + 1))
        for n in range(x + 1, 2 * x + 1)
    )
    probe = largest_prime_probe(x)
    assert probe.max_prime == oracle_best
    assert probe.in_interval == (probe.max_prime**2 >= x**3)
    assert probe.in_interval


def test_least_odd_factor_bounds_every_composite_u_tightly():
    # the walk's premise: u(n), n^2+1 without its factor 2, has only odd prime
    # factors, each at least _LEAST_ODD_FACTOR, so a composite u(n) has
    # P(n^2+1) <= u(n) // _LEAST_ODD_FACTOR, with equality for some n
    gaps = []
    for n, p in enumerate(largest_column(2, 20000).tolist(), 2):
        u = (n * n + 1) >> (n & 1)
        if not is_prime(u):
            gaps.append(u // verifier._LEAST_ODD_FACTOR - p)
    assert min(gaps) == 0


def test_largest_prime_probe_matches_the_sieve_oracle():
    # the oracle's argmax keeps the first n of a tied maximum, as the walk must
    rng = random.Random(2026)
    xs = [*range(2, 3001), *(2**k for k in range(12, 21))]
    for x in xs + [rng.randrange(3001, 10**6 + 1) for _ in range(10)]:
        probe = largest_prime_probe(x)
        assert (probe.max_prime, probe.arg_n) == largest_prime_oracle(x), x


def test_largest_prime_probe_fallback_alone_gives_the_oracle_row(monkeypatch):
    # a least odd factor of 1 is a weaker bound, P(n^2+1) <= u(n), but still a
    # true one, so every composite u(n) >= best on the walk goes to the sieve
    factored = []

    def counted(lo, hi):
        factored.append((lo, hi))
        return largest_column(lo, hi)

    monkeypatch.setattr(verifier, "_LEAST_ODD_FACTOR", 1)
    monkeypatch.setattr(polysieve, "largest_column", counted)
    for x in range(2, 1001):
        probe = largest_prime_probe(x)
        assert (probe.max_prime, probe.arg_n) == largest_prime_oracle(x), x
    assert len(factored) > 1000
    assert all(lo == hi for lo, hi in factored)


def test_largest_prime_probe_larger_scale_reported():
    # the interval-membership outcome at real scale is a measurement; only
    # basic shape is asserted here
    probe = largest_prime_probe(10**4)
    assert probe.max_prime > 10**4
    assert probe.exponent > 1.0
    assert isinstance(probe.in_interval, bool)


def test_validation():
    with pytest.raises(ValueError):
        lhs_logsum(0)
    with pytest.raises(OverflowError):
        lhs_logsum(2**31)
    with pytest.raises(ValueError):
        contradiction_probe(100, [1.5])
    with pytest.raises(ValueError):
        coverage_curve(100, tail_tolerance=0.0)
