"""Byte-for-byte CLI behaviour: stdout, stderr and exit code of small configs.

Each case's expected stdout and stderr live in tests/golden/<case>.stdout and
tests/golden/<case>.stderr, and its exit code in tests/golden/exit_codes.json.
To regenerate them after a deliberate output change, run from the repository
root:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from quadfactor.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "usage": [],
    "unknown_flag": ["probe", "--x", "10", "--bogus"],
    "sieve_csv": ["sieve", "--lo", "2", "--hi", "300", "--segment-size", "64", "--workers", "1"],
    "sieve_jsonl": ["sieve", "--lo", "1000", "--hi", "1100", "--format", "jsonl", "--workers", "1"],
    "sieve_segments_jsonl": [
        "sieve", "--lo", "100000", "--hi", "101000", "--segment-size", "250",
        "--format", "jsonl", "--workers", "1",
    ],
    "sieve_table_chunks": [
        "sieve", "--lo", "8000000", "--hi", "8000150", "--segment-size", "50", "--workers", "1",
    ],
    "sieve_window_3e7": ["sieve", "--lo", "29999500", "--hi", "30000000", "--workers", "1"],
    "sieve_range": ["sieve", "--lo", "5", "--hi", "3", "--workers", "1"],
    "records_csv": ["records", "--n-max", "500", "--workers", "1"],
    "records_jsonl_w2": [
        "records", "--n-max", "500", "--segment-size", "97", "--workers", "2",
        "--format", "jsonl",
    ],
    "records_segments_w2": [
        "records", "--n-max", "5000", "--segment-size", "333", "--workers", "2",
    ],
    "sums_csv": [
        "sums", "--x", "1000", "--delta", "0.5", "--delta", "0", "--delta", "0.25",
        "--delta", "0.5", "--q", "12", "--a", "5", "--workers", "1",
    ],
    "sums_jsonl": [
        "sums", "--x", "2500", "--delta", "0.3", "--delta", "0.1", "--delta", "0.3",
        "--format", "jsonl", "--workers", "1",
    ],
    "sums_small_x": ["sums", "--x", "4", "--delta", "0.1", "--delta", "0", "--workers", "1"],
    "sums_refused": [
        "sums", "--x", "30000", "--delta", "0.2", "--delta", "1.2", "--workers", "1",
    ],
    "sums_negative_delta": [
        "sums", "--x", "100", "--delta", "0.1", "--delta", "-0.5", "--workers", "1",
    ],
    "sums_bad_residue": [
        "sums", "--x", "100", "--delta", "0", "--q", "4", "--a", "2", "--workers", "1",
    ],
    "verify_csv": [
        "verify", "counts", "--x", "2000", "--trials", "30", "--seed", "5", "--workers", "1",
    ],
    "verify_jsonl": [
        "verify", "counts", "--x", "500", "--trials", "10", "--format", "jsonl",
        "--workers", "1",
    ],
    "coverage_powers_csv": [
        "coverage", "--x", "300", "--prime-powers", "--tail-tolerance", "0.01",
        "--workers", "1",
    ],
    "coverage_powers_jsonl": [
        "coverage", "--x", "500", "--prime-powers", "--tail-tolerance", "0.05",
        "--format", "jsonl", "--workers", "1",
    ],
    "coverage_csv": ["coverage", "--x", "300", "--workers", "1"],
    "coverage_jsonl": [
        "coverage", "--x", "500", "--tail-tolerance", "0.2", "--format", "jsonl",
        "--workers", "1",
    ],
    "coverage_segments_w2": [
        "coverage", "--x", "3000", "--prime-powers", "--segment-size", "97", "--workers", "2",
    ],
    "coverage_segments_jsonl": [
        "coverage", "--x", "3000", "--segment-size", "97", "--workers", "2", "--format", "jsonl",
    ],
    "coverage_bad_tolerance": [
        "coverage", "--x", "300", "--tail-tolerance", "0", "--workers", "1",
    ],
    "chain_csv": [
        "chain", "--x", "2500", "--delta-grid", "0.5,0,0.25,0.25,1.0", "--workers", "1",
    ],
    "chain_jsonl": [
        "chain", "--x", "1000", "--delta-grid", "0.5,0,0.25,0.25,1.0", "--format", "jsonl",
        "--workers", "1",
    ],
    "chain_default_grid": ["chain", "--x", "300", "--workers", "1"],
    "chain_cutoff_refused": [
        "chain", "--x", "100000", "--delta-grid", "1.0,1.5", "--workers", "1",
    ],
    "chain_range_refused": [
        "chain", "--x", "100000", "--delta-grid", "1.5,1.0", "--workers", "1",
    ],
    "chain_bad_grid": ["chain", "--x", "300", "--delta-grid", "0,abc", "--workers", "1"],
    "chain_segments_w2": [
        "chain", "--x", "1000", "--delta-grid", "0.5,0,0.25", "--segment-size", "97",
        "--workers", "2",
    ],
    "probe_csv": ["probe", "--x", "500", "--workers", "1"],
    "probe_jsonl": ["probe", "--x", "500", "--format", "jsonl", "--workers", "1"],
    "probe_segments_w2": ["probe", "--x", "3000", "--segment-size", "97", "--workers", "2"],
    "probe_envelope": ["probe", "--x", "1073741824", "--workers", "1"],
}


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, monkeypatch):
    monkeypatch.delenv("QUADFACTOR_WORKERS", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to it
    rc, out, err = run_cli(CASES[case])
    expected_rc = json.loads((GOLDEN / "exit_codes.json").read_text())[case]
    assert (rc, out, err) == (
        expected_rc,
        (GOLDEN / f"{case}.stdout").read_text(),
        (GOLDEN / f"{case}.stderr").read_text(),
    )


def regenerate() -> None:
    os.environ.pop("QUADFACTOR_WORKERS", None)
    os.environ["COLUMNS"] = "80"
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case, argv in sorted(CASES.items()):
        codes[case], out, err = run_cli(argv)
        (GOLDEN / f"{case}.stdout").write_text(out)
        (GOLDEN / f"{case}.stderr").write_text(err)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(regenerate())
