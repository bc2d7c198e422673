"""The result types are immutable named tuples: what the change from frozen
dataclasses kept, and the tuple behaviour it added."""

import pickle

import numpy as np
import pytest

from quadfactor import cli
from quadfactor.chebsums import sum_ledger
from quadfactor.cli import main
from quadfactor.modmath import RootPair, sqrt_minus_one
from quadfactor.polysieve import records_scan, sieve_columns
from quadfactor.rootcount import solution_count
from quadfactor.verifier import contradiction_probe, coverage_curve, largest_prime_probe


def _instances():
    """One value of each of the 8 result types."""
    return [
        sqrt_minus_one(13),
        sieve_columns(2, 50),
        next(records_scan(50)),
        sum_ledger(1000, [0.5])[0],
        solution_count(100, sqrt_minus_one(13)),
        contradiction_probe(1000, [0.5])[0],
        coverage_curve(300),
        largest_prime_probe(500),
    ]


def _same(a, b):
    """Field by field equality, numpy columns compared by dtype and value."""
    if type(a) is not type(b):
        return False
    for x, y in zip(a, b):
        if isinstance(x, np.ndarray):
            if x.dtype != y.dtype or not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


def test_results_are_immutable_and_pickle_to_equal_values():
    values = _instances()
    assert len({type(v) for v in values}) == 8
    for value in values:
        for name in type(value)._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            value.extra = 1  # no instance dict
        copy = pickle.loads(pickle.dumps(value))
        assert _same(copy, value), type(value)
    # the tuple behaviour the named tuples add
    pair = sqrt_minus_one(13)
    assert pair == (13, 5) and len(pair) == 2 and list(pair) == [pair.p, pair.b]


def test_a_bad_root_pair_is_refused_on_every_path():
    with pytest.raises(ValueError, match="not 1 mod 4"):
        RootPair(7, 2)
    with pytest.raises(ValueError, match="outside"):
        RootPair(13, 8)
    with pytest.raises(ValueError, match="not divisible"):
        RootPair(13, 4)
    pair = sqrt_minus_one(13)
    with pytest.raises(ValueError, match="not divisible"):
        pair._replace(b=4)
    with pytest.raises(ValueError, match="not divisible"):
        RootPair._make((13, 4))
    # a pickle of a pair that never passed the checks is refused on loading
    forged = pickle.dumps(tuple.__new__(RootPair, (13, 4)))
    with pytest.raises(ValueError, match="not divisible"):
        pickle.loads(forged)
    assert pickle.loads(pickle.dumps(pair)) == pair


def test_coverage_curves_compare_by_identity():
    curve = coverage_curve(300)
    copy = pickle.loads(pickle.dumps(curve))
    assert curve == curve and not curve != curve
    assert curve != copy and not curve == copy
    assert len({curve, copy, curve}) == 2
    assert hash(curve) == object.__hash__(curve)
    assert copy.delta_star == curve.delta_star == curve.delta_star_at(curve.tail_tolerance)


def test_summary_rows_read_only_fields_of_their_type(monkeypatch, tmp_path):
    # every column name cli._by_name reads is a field of the record type
    read = []
    by_name = cli._by_name

    def recording(columns, records):
        records = list(records)
        read.extend((name, type(r)) for r in records for name, _ in columns)
        return by_name(columns, records)

    monkeypatch.setattr(cli, "_by_name", recording)
    out = str(tmp_path / "out")
    for argv in (
        ["sums", "--x", "1000", "--delta", "0", "--delta", "0.5"],
        ["chain", "--x", "1000", "--delta-grid", "0,0.5"],
        ["probe", "--x", "500"],
    ):
        assert main(argv + ["--workers", "1", "-o", out]) == 0, argv
    assert {kind.__name__ for _, kind in read} == {"SumLedger", "ChainLedger", "ProbeResult"}
    for name, kind in read:
        assert name in kind._fields, (name, kind)
