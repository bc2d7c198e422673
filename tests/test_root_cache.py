"""The root cache: complete chunks of iter_root_rows read back from disk.

A cached chunk must give the rows the kernel computes, bit for bit, and a
bad file, a missing one or an unusable cache location must change no row,
no output byte and no exit code.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quadfactor
from quadfactor import chebsums, modmath
from quadfactor.modmath import _root_for_prime, iter_primes, iter_root_rows, root_table

from test_golden import CASES, GOLDEN, run_cli

SRC = str(Path(quadfactor.__file__).resolve().parents[1])


def _expected_rows(hi):
    return [[p, _root_for_prime(p)] for p in iter_primes(2, max(hi, 2), (4, 1))]


def _flat(blocks):
    rows = []
    for block in blocks:
        assert block.dtype.name == "uint32" and block.shape[1:] == (2,)
        rows += block.tolist()
    return rows


def _chunk_counts(hi, chunk):
    """(complete, partial) chunks of the class members 5, 9, ... up to hi."""
    complete, rest = divmod(max(hi - 1, 0) // 4, chunk)
    return complete, int(rest > 0)


@pytest.fixture
def batch_calls(monkeypatch):
    """The size of every batch _batch_roots computes."""
    calls = []
    kernel = modmath._batch_roots

    def counted(p, base):
        calls.append(p.size)
        return kernel(p, base)

    monkeypatch.setattr(modmath, "_batch_roots", counted)
    return calls


def _files(cache):
    return sorted(cache.iterdir()) if cache.exists() else []


def _delete_some(cache, step):
    files = _files(cache)[::step]
    for path in files:
        path.unlink()
    return len(files)


@pytest.mark.parametrize("chunk", [7, 1000, modmath._TABLE_CHUNK])
def test_cold_warm_and_partly_deleted_caches_give_the_computed_rows(
    chunk, monkeypatch, tmp_path, batch_calls
):
    # 4 * chunk * k + 1 is the last member of chunk k; the bounds sit on
    # chunk ends and next to them, on both sides
    ends = [4 * chunk * k + 1 for k in (1, 2)]
    bounds = sorted({e + d for e in ends for d in (-4, -1, 0, 1, 4)})
    expected = _expected_rows(bounds[-1])
    for hi in bounds:
        want = [row for row in expected if row[0] <= hi]
        complete, partial = _chunk_counts(hi, chunk)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / str(hi)))
        cache = tmp_path / str(hi) / "quadfactor"
        for state in ("cold", "warm", "partly deleted"):
            if state == "partly deleted":
                computed = _delete_some(cache, 2)
            else:
                computed = complete if state == "cold" else 0
            batch_calls.clear()
            assert _flat(iter_root_rows(hi, chunk)) == want, (state, hi)
            assert len(batch_calls) == computed + partial, (state, hi)
            assert len(_files(cache)) == complete, (state, hi)
        # a shared cache serves larger and smaller bounds alike
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "shared"))
        assert _flat(iter_root_rows(hi, chunk)) == want, ("shared", hi)


def test_root_table_from_the_cache_at_small_bounds(monkeypatch, root_cache, batch_calls):
    monkeypatch.setattr(modmath, "iter_root_rows", lambda hi: iter_root_rows(hi, 7))
    for state in ("cold", "warm", "partly deleted"):
        if state == "partly deleted":
            _delete_some(root_cache, 3)
        for hi in range(0, 301):
            monkeypatch.setattr(modmath, "_root_table_cache", None)
            batch_calls.clear()
            assert _flat(root_table(hi)) == _expected_rows(hi), (state, hi)
            if state == "warm":
                assert len(batch_calls) == _chunk_counts(hi, 7)[1], hi
    # the chunk 201, 205, ..., 225 has no prime; its file is empty, and used
    assert (root_cache / "roots-7-201.u4").stat().st_size == 0


def test_cache_location_follows_xdg_cache_home(monkeypatch, tmp_path):
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    for value in (None, "", "relative/cache"):
        if value is None:
            monkeypatch.delenv("XDG_CACHE_HOME")
        else:
            monkeypatch.setenv("XDG_CACHE_HOME", value)
        assert modmath._cache_dir() == str(tmp_path / "home" / ".cache" / "quadfactor")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert modmath._cache_dir() == str(tmp_path / "xdg" / "quadfactor")


def test_a_bad_file_falls_back_to_the_audited_kernel(monkeypatch, root_cache):
    list(iter_root_rows(85, 7))
    for path in root_cache.iterdir():
        b = np.fromfile(path, "<u4")
        (np.array([4 * 7 + 5], "<u4") + b).tofile(path)  # 2b < p fails
    monkeypatch.setattr(modmath, "_batch_roots", lambda p, base: p - 1)
    with pytest.raises(AssertionError):
        list(iter_root_rows(85, 7))


def test_every_golden_cold_then_warm_against_one_cache(monkeypatch, root_cache, batch_calls):
    # about 64 chunks per bound, so small requests have complete chunks too
    calls = []

    def rows(hi):
        calls.append(hi)
        return iter_root_rows(hi, max(7, hi // 256))

    monkeypatch.setattr(modmath, "iter_root_rows", rows)
    monkeypatch.setattr(chebsums, "iter_root_rows", rows)
    monkeypatch.delenv("QUADFACTOR_WORKERS", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    for state in ("cold", "warm"):
        batch_calls.clear()
        calls.clear()
        for case, argv in sorted(CASES.items()):
            monkeypatch.setattr(modmath, "_root_table_cache", None)
            assert run_cli(argv) == (
                codes[case],
                (GOLDEN / f"{case}.stdout").read_text(),
                (GOLDEN / f"{case}.stderr").read_text(),
            ), (state, case)
        if state == "warm":
            # at most the last, partial chunk of each table is computed
            assert len(batch_calls) <= len(calls)
    assert len(_files(root_cache)) > 500


SIEVE_CASE = "sieve_table_chunks"  # a table of 7 complete chunks and a partial one
SIEVE_HI = int(CASES[SIEVE_CASE][CASES[SIEVE_CASE].index("--hi") + 1])


def _sieve_subprocess():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("QUADFACTOR_WORKERS", None)
    run = subprocess.run(
        [sys.executable, "-m", "quadfactor", *CASES[SIEVE_CASE]],
        env=env, capture_output=True, timeout=120,
    )
    return run.returncode, run.stdout, run.stderr


def _golden_sieve():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    return (
        codes[SIEVE_CASE],
        (GOLDEN / f"{SIEVE_CASE}.stdout").read_bytes(),
        (GOLDEN / f"{SIEVE_CASE}.stderr").read_bytes(),
    )


def _first_root_within(b, p):
    """b with one root moved off to b + 1, still in (0, p/2)."""
    b = b.copy()
    i = int(np.flatnonzero(2 * (b.astype(np.int64) + 1) < p)[0])
    b[i] += 1
    return b


def _primes_of(path):
    n0 = int(path.name.split("-")[2].split(".")[0])
    chunk = int(path.name.split("-")[1])
    return np.array(list(iter_primes(n0, n0 + 4 * (chunk - 1), (4, 1))), np.int64)


FAULTS = {
    "valid": lambda data, p: data,
    "truncated": lambda data, p: data[:-4],
    "over-long": lambda data, p: data + data[:4],
    "garbage": lambda data, p: bytes(range(256)) * (len(data) // 256) + bytes(len(data) % 256),
    "un-normalized": lambda data, p: (p - np.frombuffer(data, "<u4")).astype("<u4").tobytes(),
    "wrong root": lambda data, p: _first_root_within(np.frombuffer(data, "<u4"), p).tobytes(),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_bad_files_give_the_computed_rows_and_are_rewritten(fault, root_cache, batch_calls):
    hi, chunk = 4 * 1000 * 5 + 1, 1000
    want = _flat(iter_root_rows(hi, chunk))
    files = _files(root_cache)
    original = {path: path.read_bytes() for path in files}
    for path in files:
        path.write_bytes(FAULTS[fault](original[path], _primes_of(path)))
    batch_calls.clear()
    assert _flat(iter_root_rows(hi, chunk)) == want
    assert len(batch_calls) == (0 if fault == "valid" else len(files))
    assert {path: path.read_bytes() for path in files} == original


@pytest.mark.parametrize("fault", [*FAULTS, "stale temporary files", "file in place of the cache"])
def test_cache_faults_keep_the_output_and_exit_code(fault, root_cache):
    list(iter_root_rows(SIEVE_HI))
    files = _files(root_cache)
    assert len(files) == 7
    original = {path: path.read_bytes() for path in files}
    if fault in FAULTS:
        for path in files:
            path.write_bytes(FAULTS[fault](original[path], _primes_of(path)))
    elif fault == "stale temporary files":
        for path in files[::2]:
            path.unlink()
            for pid in (os.getpid(), 1, 99999):
                Path(f"{path}.{pid}.tmp").write_bytes(b"stale")
    else:
        for path in files:
            path.unlink()
        root_cache.rmdir()
        root_cache.write_bytes(b"not a directory")
    assert _sieve_subprocess() == _golden_sieve()
    if fault == "file in place of the cache":
        assert root_cache.read_bytes() == b"not a directory"
    else:
        # every bad or missing file is rewritten with the computed roots
        assert {path: path.read_bytes() for path in files} == original
