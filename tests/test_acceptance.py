"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines as
they complete.  Runtime budgets are asserted where the criterion states one.
"""

import math
import random
import time
from fractions import Fraction

import pytest
import sympy

from quadfactor.chebsums import mertens_prefixes, power_cutoff
from quadfactor.cli import main
from quadfactor.modmath import iter_primes, sqrt_minus_one
from quadfactor.polysieve import records_scan, sieve_columns
from quadfactor.rootcount import count_by_floor_identity, count_exact, count_upper_bound
from quadfactor.verifier import contradiction_probe, coverage_curve

from oracles import divisor_incidence, factorize_value, records_of, trial_division_factor


class _Criterion:
    def __init__(self, name: str, budget: float | None):
        self.name = name
        self.budget = budget
        self.started = time.perf_counter()

    def finish(self, detail: str = "") -> None:
        elapsed = time.perf_counter() - self.started
        within = self.budget is None or elapsed < self.budget
        status = "PASS" if within else "FAIL"
        suffix = f" {detail}" if detail else ""
        print(f"[{status}] {self.name} ({elapsed:.2f}s){suffix}")
        if not within:
            raise AssertionError(
                f"{self.name}: runtime {elapsed:.2f}s exceeds {self.budget}s budget"
            )

    def fail(self) -> None:
        elapsed = time.perf_counter() - self.started
        print(f"[FAIL] {self.name} ({elapsed:.2f}s)")


def test_criterion_1_count_identity_and_bound():
    crit = _Criterion("criterion-1 count identity + rational bound, 1000 pairs", 10.0)
    try:
        rng = random.Random(20260810)
        pool = list(iter_primes(5, 10**5, (4, 1)))
        for _ in range(1000):
            p = pool[rng.randrange(len(pool))]
            x = rng.randint(1, 10**6)
            while 4 * x * x + 1 < p:
                x = rng.randint(1, 10**6)
            root = sqrt_minus_one(p)
            exact = count_exact(x, root)
            assert exact == count_by_floor_identity(x, root)
            assert Fraction(exact) <= count_upper_bound(x, root)
    except BaseException:
        crit.fail()
        raise
    crit.finish("1000/1000 pairs exact")


def test_criterion_2_factor_sieve_oracle_equivalence():
    # The exhaustive slice is checked against genuine trial division; the
    # random slice at n <= 1e8 is cross-checked with sympy.factorint (an
    # independent library path) because trial division at ~1e16 with second
    # factors up to ~3e7 does not fit the budget.
    crit = _Criterion("criterion-2 factor sieve vs oracle + reconstruction", 60.0)
    try:
        records = records_of(sieve_columns(2, 10**4))
        for rec in records:
            assert rec.factors == tuple(trial_division_factor(rec.value)), rec.n
        rng = random.Random(987654321)
        for _ in range(1000):
            n = rng.randrange(2, 10**8 + 1)
            got = factorize_value(n)
            assert got.factors == tuple(sorted(sympy.factorint(n * n + 1).items())), n
        full = records_of(sieve_columns(10**6, 11 * 10**5))
        for rec in full:
            assert math.prod(p**e for p, e in rec.factors) == rec.value, rec.n
    except BaseException:
        crit.fail()
        raise
    crit.finish(f"exhaustive 1e4 + 1000 random + {len(full)} reconstructions")


def test_criterion_3_von_mangoldt_identity():
    crit = _Criterion("criterion-3 log-sum vs von Mangoldt side", 30.0)
    rels = []
    try:
        for x in (10**2, 10**3, 10**4):
            (led,) = contradiction_probe(x, [0.0])
            rel = abs(led.lhs_exact - led.lambda_side) / led.lhs_exact
            assert rel <= 1e-9, (x, rel)
            rels.append(rel)
    except BaseException:
        crit.fail()
        raise
    crit.finish("max rel diff %.2e" % max(rels))


def test_criterion_4_mertens_residual_convergence():
    crit = _Criterion("criterion-4 progression Mertens residual convergence", 60.0)
    try:
        residuals = [
            mertens_prefixes([z], 4, 1)[0] - 0.5 * math.log(z) for z in (10**5, 10**6, 10**7)
        ]
        steps = [abs(residuals[i + 1] - residuals[i]) for i in range(2)]
        assert all(step < 0.1 for step in steps), residuals
    except BaseException:
        crit.fail()
        raise
    crit.finish("residuals %s" % ", ".join(f"{r:.4f}" for r in residuals))


def test_criterion_5_summandwise_bound():
    crit = _Criterion("criterion-5 truncated sum below R+S, summand-wise", 30.0)
    try:
        x = 10**3
        columns = [sieve_columns(x + 1, 2 * x)]
        deltas = (0.0, 0.25, 0.5)
        for delta, led in zip(deltas, contradiction_probe(x, deltas, columns=columns)):
            assert led.n_trunc <= led.R + led.S, delta
            cutoff = power_cutoff(x, delta)
            keys, counts, _ = divisor_incidence(columns, cutoff, False)
            counts = dict(zip(keys.tolist(), counts.tolist()))
            for p in iter_primes(5, cutoff, (4, 1)):
                bound = count_upper_bound(x, sqrt_minus_one(p))
                assert Fraction(counts.get(p, 0)) <= bound, (delta, p)
    except BaseException:
        crit.fail()
        raise
    crit.finish("deltas 0, 0.25, 0.5")


def test_criterion_6_coverage_monotone_and_complete():
    crit = _Criterion("criterion-6 coverage monotone, complete with powers", 30.0)
    try:
        for x in (10**2, 10**3):
            curve = coverage_curve(x, with_prime_powers=True)
            rhos = [rho for _, _, rho in curve.points]
            assert rhos == sorted(rhos), x
            assert abs(rhos[-1] - 1.0) <= 1e-9, (x, rhos[-1])
            bare = coverage_curve(x, with_prime_powers=False)
            bare_rhos = [rho for _, _, rho in bare.points]
            assert bare_rhos == sorted(bare_rhos), x
    except BaseException:
        crit.fail()
        raise
    crit.finish("x in {1e2, 1e3}")


def test_criterion_7_records_match_oracle():
    crit = _Criterion("criterion-7 records scan vs trial division", None)
    try:
        rows = [
            row
            for block in records_scan(10**4, segment_size=999)
            for row in zip(
                range(block.lo, 10**4 + 1),
                block.largest.tolist(),
                block.exponent,
                block.is_record.tolist(),
            )
        ]
        assert [row[0] for row in rows] == list(range(2, 10**4 + 1))
        best = 0
        for n, largest, exponent, is_record in rows:
            oracle = max(p for p, _ in trial_division_factor(n**2 + 1))
            assert largest == oracle, n
            assert is_record == (oracle > best)
            best = max(best, oracle)
            assert exponent == math.log(largest) / math.log(n)
        peaks = [largest for _, largest, _, is_record in rows if is_record]
        assert peaks == sorted(set(peaks))
        assert best == peaks[-1]
    except BaseException:
        crit.fail()
        raise
    crit.finish(f"{len(rows)} rows, final max {best}")


def test_criterion_8_worker_count_determinism(tmp_path):
    crit = _Criterion("criterion-8 byte-identical output across workers", None)
    try:
        pipelines = (
            ["sieve", "--lo", "2", "--hi", "3000", "--segment-size", "251"],
            ["records", "--n-max", "2500", "--segment-size", "113"],
            ["coverage", "--x", "300", "--prime-powers", "--segment-size", "64"],
        )
        for i, pipeline in enumerate(pipelines):
            outputs = []
            for workers in ("1", "2", "4"):
                path = tmp_path / f"p{i}w{workers}.csv"
                rc = main(pipeline + ["--workers", workers, "-o", str(path)])
                assert rc == 0
                outputs.append(path.read_bytes())
            assert outputs[0] == outputs[1] == outputs[2], pipeline[0]
    except BaseException:
        crit.fail()
        raise
    crit.finish("sieve, records, coverage x {1,2,4} workers")
