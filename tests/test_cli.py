import ast
import contextlib
import csv
import io
import json
import math
import os
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import quadfactor
from quadfactor import cli, csvtext
from quadfactor.cli import main
from quadfactor.polysieve import sieve_columns

from oracles import records_of

SRC = str(Path(quadfactor.__file__).resolve().parents[1])


def run_csv(tmp_path, args, name="out.csv", rc_expected=0):
    path = tmp_path / name
    rc = main(args + ["-o", str(path)])
    assert rc == rc_expected
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_no_arguments_usage(capsys):
    assert main([]) == 1
    assert "usage:" in capsys.readouterr().err


def test_unknown_flag_exits_1(capsys):
    assert main(["records", "--n-max", "10", "--bogus"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err or "error" in err


def test_range_violations_exit_1(capsys):
    assert main(["sieve", "--lo", "5", "--hi", "3"]) == 1
    assert main(["sieve", "--lo", "2", "--hi", str(2**31 + 1)]) == 1
    assert main(["probe", "--x", str(2**30 + 1)]) == 1
    assert main(["sums", "--x", "100", "--delta", "0", "--q", "4", "--a", "2"]) == 1
    capsys.readouterr()


def test_records_contains_n13(tmp_path):
    rows = run_csv(tmp_path, ["records", "--n-max", "100"])
    assert rows[0].keys() == {"n", "largest_prime", "exponent", "is_record"}
    byn = {row["n"]: row for row in rows}
    assert byn["13"]["largest_prime"] == "17"
    assert byn["2"]["largest_prime"] == "5" and byn["2"]["is_record"] == "true"
    peaks = [int(r["largest_prime"]) for r in rows if r["is_record"] == "true"]
    assert peaks == sorted(set(peaks))


def test_sums_mertens_row(tmp_path):
    rows = run_csv(tmp_path, ["sums", "--x", "100", "--delta", "0", "--q", "4", "--a", "1"])
    assert len(rows) == 1
    row = rows[0]
    assert row["cutoff"] == "100" and row["term_count"] == "11"
    assert float(row["mertens"]) == pytest.approx(1.2888, abs=5e-5)
    assert float(row["R"]) == pytest.approx(200 * 1.2888039868411876, rel=1e-12)
    # 17 significant digits round-trip exactly
    assert float(row["R"]) == 2 * 100 * float(row["mertens"])


def test_sums_delta_grid(tmp_path):
    rows = run_csv(tmp_path, ["sums", "--x", "1000", "--delta", "0", "--delta", "0.25"])
    assert [r["delta"] for r in rows] == ["0", "0.25"]
    assert int(rows[1]["cutoff"]) > int(rows[0]["cutoff"])


def test_sieve_csv_columns(tmp_path):
    rows = run_csv(tmp_path, ["sieve", "--lo", "100", "--hi", "100"])
    row = rows[0]
    assert row["n2p1"] == "10001"
    assert row["factorization"] == "73^1;137^1"
    assert row["largest_prime"] == "137"
    assert float(row["exponent"]) == pytest.approx(math.log(137) / math.log(100))


def test_sieve_jsonl(tmp_path):
    path = tmp_path / "out.jsonl"
    assert main(["sieve", "--lo", "239", "--hi", "239", "--format", "jsonl", "-o", str(path)]) == 0
    obj = json.loads(path.read_text().splitlines()[0])
    assert obj["factorization"] == "2^1;13^4"
    assert obj["largest_prime"] == 13


def test_verify_counts_passes(tmp_path, capsys):
    rows = run_csv(
        tmp_path,
        ["verify", "counts", "--x", "10000", "--trials", "50", "--seed", "7"],
    )
    assert len(rows) == 50
    assert all(r["identity_ok"] == "true" and r["bound_ok"] == "true" for r in rows)
    err = capsys.readouterr().err
    assert "seed=7" in err


def test_verify_counts_seed_changes_rows(tmp_path):
    a = run_csv(tmp_path, ["verify", "counts", "--trials", "20", "--seed", "1"], "a.csv")
    b = run_csv(tmp_path, ["verify", "counts", "--trials", "20", "--seed", "2"], "b.csv")
    c = run_csv(tmp_path, ["verify", "counts", "--trials", "20", "--seed", "1"], "c.csv")
    assert a == c
    assert a != b


def test_coverage_rows(tmp_path, capsys):
    rows = run_csv(tmp_path, ["coverage", "--x", "100", "--prime-powers"])
    rhos = [float(r["rho"]) for r in rows]
    assert rhos == sorted(rhos)
    assert rhos[-1] == pytest.approx(1.0, abs=1e-9)
    assert rows[-1]["y"] == str(4 * 100 * 100 + 1)
    assert all(r["with_prime_powers"] == "true" for r in rows)
    assert "delta_star" in capsys.readouterr().err


def test_chain_rows(tmp_path):
    rows = run_csv(tmp_path, ["chain", "--x", "1000", "--delta-grid", "0,0.25,0.5"])
    assert len(rows) == 3
    for row in rows:
        assert float(row["n_trunc"]) <= float(row["R"]) + float(row["S"])
    assert float(rows[0]["margin"]) > 0 > float(rows[2]["margin"])


def test_probe_row(tmp_path):
    rows = run_csv(tmp_path, ["probe", "--x", "10"])
    row = rows[0]
    assert row["max_prime"] == "401" and row["arg_n"] == "20"
    assert row["in_interval"] == "true"


def test_workers_env_default(tmp_path, monkeypatch, capsys):
    argv = ["sieve", "--lo", "2", "--hi", "600", "--segment-size", "100"]
    monkeypatch.setenv("QUADFACTOR_WORKERS", "2")
    a = run_csv(tmp_path, argv, "a.csv")
    monkeypatch.setenv("QUADFACTOR_WORKERS", "1")
    assert run_csv(tmp_path, argv, "b.csv") == a
    monkeypatch.setenv("QUADFACTOR_WORKERS", "not-a-number")
    assert main(argv + ["-o", str(tmp_path / "c.csv")]) == 1
    assert "QUADFACTOR_WORKERS must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize(
    "value, message",
    [("abc", "QUADFACTOR_WORKERS must be an integer, not 'abc'"),
     ("0", "QUADFACTOR_WORKERS must be >= 1"), ("-3", "QUADFACTOR_WORKERS must be >= 1")],
    ids=["abc", "0", "-3"],
)
def test_invalid_workers_env_is_refused_before_any_work(
    monkeypatch, capsys, no_prime_work, value, message
):
    # the variable is checked as --workers is, not read as 1 worker, and a
    # refusal names the variable
    monkeypatch.setenv(cli.WORKERS_ENV, value)
    assert main(["records", "--n-max", "100"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_worker_count_byte_identical(tmp_path):
    paths = []
    for workers in ("1", "3"):
        path = tmp_path / f"w{workers}.csv"
        rc = main(
            ["records", "--n-max", "800", "--segment-size", "97",
             "--workers", workers, "-o", str(path)]
        )
        assert rc == 0
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_stdout_emission(capsys):
    assert main(["probe", "--x", "10"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "x,max_prime,arg_n,exponent,in_interval"


def test_flag_overrides_workers_env(tmp_path, monkeypatch):
    monkeypatch.setenv("QUADFACTOR_WORKERS", "4")
    a = run_csv(tmp_path, ["records", "--n-max", "400", "--workers", "1"], "a.csv")
    monkeypatch.delenv("QUADFACTOR_WORKERS")
    b = run_csv(tmp_path, ["records", "--n-max", "400"], "b.csv")
    assert a == b


def test_negative_delta_exits_1(capsys):
    assert main(["sums", "--x", "100", "--delta", "-0.5"]) == 1
    assert "error" in capsys.readouterr().err


def test_internal_assertion_exits_2(monkeypatch, capsys):
    # a residual failing its sampled primality audit must surface as exit 2
    from quadfactor import polysieve

    monkeypatch.setattr(polysieve, "is_prime", lambda n: False)
    assert main(["sieve", "--lo", "100", "--hi", "100"]) == 2
    assert "internal check failed" in capsys.readouterr().err


def test_root_table_audit_failure_exits_2(monkeypatch, capsys):
    from quadfactor import modmath

    monkeypatch.setattr(modmath, "_root_table_cache", None)
    monkeypatch.setattr(modmath, "_batch_roots", lambda p, base: p - 1)
    assert main(["sieve", "--lo", "2", "--hi", "50"]) == 2
    assert "internal check failed" in capsys.readouterr().err


def test_failed_run_leaves_no_partial_output(tmp_path, monkeypatch, capsys):
    from quadfactor import polysieve

    iter_columns = polysieve.iter_columns

    def failing(lo, hi, segment_size, workers):
        yield from iter_columns(lo, lo + 9, segment_size, workers)
        raise AssertionError("residual audit failed")

    argv = ["sieve", "--lo", "2", "--hi", "100"]
    monkeypatch.setattr(polysieve, "iter_columns", failing)
    fresh = tmp_path / "fresh.csv"
    assert main(argv + ["-o", str(fresh)]) == 2
    assert not fresh.exists()
    kept = tmp_path / "kept.jsonl"
    kept.write_bytes(b"an earlier run\n")
    os.chmod(kept, 0o640)
    assert main(argv + ["--format", "jsonl", "-o", str(kept)]) == 2
    assert kept.read_bytes() == b"an earlier run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["kept.jsonl"]
    assert capsys.readouterr().err.count("internal check failed: residual audit failed") == 2
    # a run that completes replaces the file whole and keeps its mode; a new
    # file gets the mode open() would give it
    monkeypatch.undo()
    assert main(argv + ["--format", "jsonl", "-o", str(kept)]) == 0
    assert len(kept.read_text().splitlines()) == 99
    assert kept.stat().st_mode & 0o777 == 0o640
    assert main(argv + ["-o", str(fresh)]) == 0
    with open(tmp_path / "plain", "w"):
        pass
    assert fresh.stat().st_mode == (tmp_path / "plain").stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.csv", "kept.jsonl", "plain"]


def test_leftover_temporary_file_does_not_block_output(tmp_path):
    # a killed run can leave its temporary file behind; a later run that
    # happens to get the same pid must still write its output
    out = tmp_path / "out.csv"
    stale = tmp_path / f"out.csv.{os.getpid()}.tmp"
    stale.write_bytes(b"killed midway\n")
    assert main(["sieve", "--lo", "2", "--hi", "20", "-o", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 20
    assert stale.read_bytes() == b"killed midway\n"


def test_unwritable_output_is_refused_before_any_work(tmp_path, monkeypatch, capsys):
    # a missing directory or a directory as the target used to fail in _emit,
    # after every row was computed, with a traceback naming the temporary file
    from quadfactor import chebsums, polysieve, rootcount, verifier

    def no_work(*args, **kwargs):
        raise RuntimeError("work started")

    entry_points = (
        (chebsums, ("sum_ledger", "mertens_prefixes")),
        (polysieve, ("iter_columns", "records_scan")),
        (rootcount, ("solution_count",)),
        (verifier, ("coverage_curve", "contradiction_probe", "largest_prime_probe")),
    )
    for mod, names in entry_points:
        for name in names:
            monkeypatch.setattr(mod, name, no_work)
    existing = tmp_path / "existing"
    existing.mkdir()
    missing = tmp_path / "missing" / "out.csv"
    refusals = {
        str(missing): f"cannot write {missing}: {os.path.realpath(missing.parent)} "
        "is not a directory",
        str(existing): f"cannot write {existing}: it is a directory",
    }
    requests = (
        ["sums", "--x", "1000", "--delta", "0", "--delta", "0.5"],
        ["sieve", "--lo", "2", "--hi", "50"],
        ["records", "--n-max", "50", "--format", "jsonl"],
        ["verify", "counts", "--trials", "5"],
        ["coverage", "--x", "100"],
        ["chain", "--x", "100", "--delta-grid", "0,0.5"],
        ["probe", "--x", "10"],
    )
    for argv in requests:
        for target, message in refusals.items():
            assert main(argv + ["-o", target]) == 1, argv
            assert capsys.readouterr() == ("", f"error: {message}\n"), argv
    assert [p.name for p in tmp_path.iterdir()] == ["existing"]
    assert not any(existing.iterdir())


@pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
def test_non_finite_delta_is_refused(no_prime_work, capsys, delta):
    # float() parses these; the cutoff used to fail on converting them to int
    assert main(["sums", "--x", "1000", "--delta", "0", f"--delta={delta}"]) == 1
    assert capsys.readouterr() == ("", "error: delta must be finite\n")


def test_output_to_a_device_is_written_in_place(capsys):
    assert main(["probe", "--x", "10", "-o", os.devnull]) == 0
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)
    assert capsys.readouterr().out == ""


def _fresh_env():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _fresh_python(*args, **env):
    return subprocess.run(
        [sys.executable, *args], env=dict(_fresh_env(), **env), capture_output=True, text=True,
        timeout=60,
    )


# the entry point with two usable CPUs, whatever the host, so the fork pool runs
_TWO_CPUS = (
    "import sys\n"
    "from quadfactor import cli, polysieve\n"
    "polysieve._usable_cpus = lambda: 2\n"
)


def test_pool_workers_flush_no_inherited_output():
    # stdout is a block-buffered pipe (no PYTHONUNBUFFERED), so the CSV header
    # is still in the parent's buffer when the workers fork; a worker that
    # flushed its copy on exit would write the header again
    env = _fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    argv = ["records", "--n-max", "5000", "--segment-size", "333", "--workers", "2"]
    run = subprocess.run(
        [sys.executable, "-c", _TWO_CPUS + "sys.exit(cli.run())\n", *argv],
        env=env, capture_output=True, timeout=60,
    )
    golden = Path(__file__).resolve().parent / "golden" / "records_segments_w2.stdout"
    assert (run.returncode, run.stdout, run.stderr) == (0, golden.read_bytes(), b"")


def test_a_killed_pool_worker_fails_the_request_and_writes_nothing(tmp_path):
    # the worker of segment [1002, 1501] dies by SIGKILL: the request fails
    # with exit 1 and one line naming that segment, not a traceback, and the
    # -o target is absent (complete or absent)
    code = _TWO_CPUS + (
        "import os, signal\n"
        "reduce = polysieve._record_columns\n"
        "def dying(lo, hi):\n"
        "    if lo == 1002:\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return reduce(lo, hi)\n"
        "polysieve._record_columns = dying\n"
        "sys.exit(cli.run())\n"
    )
    target = tmp_path / "records.csv"
    argv = ["records", "--n-max", "5000", "--segment-size", "500", "--workers", "2",
            "-o", str(target)]
    run = _fresh_python("-c", code, *argv)
    lost = "error: segment [1002, 1501]: its worker ended early\n"
    assert (run.returncode, run.stderr) == (1, lost)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("x_max", [1, 10, 100])
def test_verify_counts_ends_for_small_x(x_max):
    # primes are drawn up to 10^5; one above 4 x_max^2 + 1 fits no x <= x_max
    run = _fresh_python(
        "-m", "quadfactor", "verify", "counts", "--x", str(x_max), "--trials", "20", "--seed", "0"
    )
    assert run.returncode == 0, run.stderr
    rows = list(csv.DictReader(io.StringIO(run.stdout)))
    assert len(rows) == 20
    for row in rows:
        x, p = int(row["x"]), int(row["p"])
        assert 1 <= x <= x_max and p <= 4 * x * x + 1, row


def test_closed_stdout_pipe_exits_1_without_traceback(tmp_path):
    # as in `quadfactor sieve ... | head -1`: the reader goes after one line
    with open(tmp_path / "stderr", "w+b") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "quadfactor", "sieve", "--lo", "2", "--hi", "400000"],
            env=_fresh_env(), stdout=subprocess.PIPE, stderr=err,
        )
        header = proc.stdout.readline()
        proc.stdout.close()
        rc = proc.wait(timeout=60)
        err.seek(0)
        assert (header, rc, err.read()) == (b"n,n2p1,factorization,largest_prime,exponent\n", 1, b"")


def test_startup_does_not_import_numpy():
    # numpy is loaded only by the root table, the sieve pass and the exact
    # sums, so setup, --help and the stdlib prime streams do not pay its import
    for module in ("quadfactor", "quadfactor.polysieve", "quadfactor.verifier"):
        run = _fresh_python("-c", f"import sys, {module}; print('numpy' in sys.modules)")
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "False", module
    for sub in ("sums", "probe", "records"):
        run = _fresh_python("-X", "importtime", "-m", "quadfactor", sub, "--help")
        assert run.returncode == 0, run.stderr
        imported = {
            line.rsplit("|", 1)[-1].strip()
            for line in run.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert "quadfactor.cli" in imported
        assert not [m for m in imported if m.split(".")[0] == "numpy"], sub
    # the prime streams behind verify counts and any class are stdlib
    code = (
        "import os, sys\n"
        "from quadfactor.cli import main\n"
        "from quadfactor.modmath import iter_primes\n"
        "assert main(['verify', 'counts', '--trials', '5', '-o', os.devnull]) == 0\n"
        "assert list(iter_primes(2, 10**6, (8, 3)))[:2] == [3, 11]\n"
        "print('numpy' in sys.modules)\n"
    )
    run = _fresh_python("-c", code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_probe_at_the_envelope_imports_no_numpy_and_builds_no_root_table():
    # the walk from 2x certifies the maximum with is_prime alone: no n is left
    # for the sieve, so neither numpy nor the root table is loaded
    code = (
        "import sys\n"
        "from quadfactor import modmath\n"
        "from quadfactor.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print(rc, 'numpy' in sys.modules, modmath._root_table_cache, file=sys.stderr)\n"
    )
    argv = ["probe", "--x", "1073741824", "--workers", "1"]
    run = _fresh_python("-c", code, *argv)
    golden = Path(__file__).resolve().parent / "golden" / "probe_envelope.stdout"
    assert (run.stdout, run.stderr) == (golden.read_text(), "0 False None\n")


def test_refused_requests_do_not_import_numpy():
    # every argument and cutoff is checked before numpy is loaded, so a
    # refused request pays no numpy import
    code = (
        "import sys\n"
        "from quadfactor.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print(rc, 'numpy' in sys.modules)\n"
    )
    refused = (
        ["sums", "--x", "30039", "--delta", "0.25", "--delta", "1.2", "--workers", "1"],
        ["sums", "--x", "30039", "--delta", "0.25", "--q", "4", "--a", "2"],
        ["chain", "--x", "10000", "--delta-grid", "0,0.5,1.5", "--workers", "1"],
        ["chain", "--x", "100000", "--workers", "1"],
    )
    for argv in refused:
        run = _fresh_python("-c", code, *argv)
        assert run.stdout.strip() == "1 False", (argv, run.stderr)
        assert run.stderr.startswith("error: "), argv


# the package's exports and their defining modules
EXPORTS = {
    "chebsums": ("SumLedger", "mertens_prefixes", "power_cutoff", "sum_ledger"),
    "modmath": ("RootPair", "is_prime", "iter_primes", "sqrt_minus_one"),
    "polysieve": ("FactorColumns", "RecordBlock", "iter_columns", "records_scan", "sieve_columns"),
    "rootcount": (
        "SolutionCount", "count_by_floor_identity", "count_exact", "count_in_class",
        "count_root_classes", "count_upper_bound", "solution_count",
    ),
    "verifier": (
        "ChainLedger", "CoverageCurve", "ProbeResult", "contradiction_probe", "coverage_curve",
        "lhs_logsum", "largest_prime_probe",
    ),
}


def _imported(*args):
    """Every module a fresh interpreter imports for these arguments."""
    run = _fresh_python("-X", "importtime", *args)
    assert run.returncode == 0, (args, run.stderr)
    return {
        line.rsplit("|", 1)[-1].strip()
        for line in run.stderr.splitlines()
        if line.startswith("import time:")
    }


def test_each_subcommand_imports_only_what_it_runs():
    # what a bare interpreter imports (site customizations included) is not
    # charged to the request
    bare = _imported("-c", "pass")
    names = ("modmath", "chebsums", "polysieve", "verifier", "rootcount")
    compute = {f"quadfactor.{name}" for name in names}
    heavy = {"numpy", "multiprocessing", "concurrent.futures", "fractions", "dataclasses"}
    for sub in ("", "sieve", "records", "sums", "verify", "coverage", "chain", "probe"):
        loaded = _imported("-m", "quadfactor", *sub.split(), "--help") - bare
        assert "quadfactor.cli" in loaded
        assert not loaded & (compute | heavy), sub
    # no result type is a dataclass, and the fork pool imports no pool library
    pool = {"multiprocessing", "concurrent.futures"}
    cases = (
        (
            ["sums", "--x", "1000", "--delta", "0", "--delta", "0.5"],
            {"quadfactor.chebsums", "quadfactor.rootcount", "numpy"},
            {"quadfactor.polysieve", "quadfactor.verifier", "multiprocessing", "fractions",
             "decimal"},
        ),
        (
            ["verify", "counts", "--trials", "5"],
            {"quadfactor.rootcount"},
            {"quadfactor.chebsums", "quadfactor.polysieve", "quadfactor.verifier", "numpy",
             "multiprocessing"},
        ),
        (
            ["sieve", "--lo", "2", "--hi", "3000", "--segment-size", "500", "--workers", "1"],
            {"quadfactor.polysieve", "numpy"},
            {"quadfactor.chebsums", "quadfactor.verifier", "quadfactor.rootcount", *pool},
        ),
        (
            ["records", "--n-max", "3000", "--segment-size", "500", "--workers", "2"],
            {"quadfactor.polysieve", "numpy"},
            {"quadfactor.chebsums", "quadfactor.verifier", "quadfactor.rootcount", *pool},
        ),
        (
            ["coverage", "--x", "300", "--segment-size", "97", "--workers", "2"],
            {"quadfactor.verifier", "numpy"},
            {"fractions", "decimal", *pool},
        ),
        (
            ["chain", "--x", "1000", "--delta-grid", "0,0.5", "--segment-size", "97",
             "--workers", "2"],
            {"quadfactor.verifier", "numpy"},
            {"fractions", "decimal", *pool},
        ),
        (["probe", "--x", "3000"], {"quadfactor.verifier"}, {"numpy", *pool}),
    )
    for argv, needed, unneeded in cases:
        imported = _imported("-m", "quadfactor", *argv, "-o", os.devnull)
        assert needed <= imported, argv
        assert not (imported - bare) & (unneeded | {"dataclasses"}), argv
    # importing the package loads no submodule; each export is served on use
    code = (
        "import importlib, json, sys\n"
        "import quadfactor\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('quadfactor.'))\n"
        "exports = json.loads(sys.argv[1])\n"
        "listed = set(dir(quadfactor)) >= {n for names in exports.values() for n in names}\n"
        "same = all(\n"
        "    getattr(quadfactor, n) is getattr(importlib.import_module('quadfactor.' + m), n)\n"
        "    for m, names in exports.items() for n in names\n"
        ")\n"
        "star = {}\n"
        "exec('from quadfactor import *', star)\n"
        "print(json.dumps([loaded, listed, same, sorted(set(star) - {'__builtins__'})]))\n"
    )
    run = _fresh_python("-c", code, json.dumps(EXPORTS))
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [
        [], True, True, sorted(n for names in EXPORTS.values() for n in names)
    ]


@pytest.fixture
def no_prime_work(monkeypatch):
    """Make every sieve, prime stream and root table entry point raise."""
    import quadfactor.chebsums
    import quadfactor.modmath
    import quadfactor.polysieve
    import quadfactor.verifier
    import quadfactor.cli

    def no_work(*args, **kwargs):
        raise RuntimeError("prime work started")

    names = (
        "iter_columns", "iter_primes", "_class_sieve", "root_table", "iter_root_rows",
    )
    for mod in (quadfactor.modmath, quadfactor.polysieve, quadfactor.chebsums,
                quadfactor.verifier, quadfactor.cli):
        for name in names:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, no_work)


def test_chain_refuses_out_of_envelope_grid_before_any_work(no_prime_work, capsys):
    # the default grid reaches 10^(5*1.9) > 2^31 at delta = 0.9
    assert main(["chain", "--x", "100000", "--workers", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cutoff 3162277660 exceeds sieve bound 2147483648\n"


def test_sums_refuses_out_of_envelope_delta_before_any_work(no_prime_work, capsys):
    argv = ["sums", "--x", "30000", "--delta", "0.2", "--delta", "1.2", "--workers", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cutoff 7074027770 exceeds sieve bound 2147483648\n"


@pytest.mark.parametrize(
    "residue",
    [[], ["--q", "4", "--a", "5"], ["--q", "4", "--a", "-3"]],
    ids=["default", "a5", "a-3"],
)
def test_sums_default_class_reads_mertens_off_the_ledger(monkeypatch, capsys, residue):
    # at (q, a) = (4, 1) the ledger already holds the mertens column, so
    # sums makes no second prime pass
    import quadfactor.chebsums

    argv = ["sums", "--x", "1000", "--delta", "0", "--delta", "0.5", *residue]
    assert main(argv) == 0
    expected = capsys.readouterr()

    def no_pass(*args, **kwargs):
        raise RuntimeError("second prime pass")

    monkeypatch.setattr(quadfactor.chebsums, "mertens_prefixes", no_pass)
    assert main(argv) == 0
    assert capsys.readouterr() == expected


def _reference_value(v):
    # the per-value formatting of the per-row writer the block emitter replaced
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _reference_text(fmt, header, rows):
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(map(_reference_value, row)) for row in rows]
    else:
        lines = [json.dumps(dict(zip(header, row))) for row in rows]
    return "".join(line + "\n" for line in lines)


def _reference_records(n_max):
    # the per-row running-maximum scan, over one unsegmented sieve
    best, rows = 0, []
    for rec in records_of(sieve_columns(2, n_max)):
        p = rec.largest_prime
        rows.append((rec.n, p, math.log(p) / math.log(rec.n), p > best))
        best = max(best, p)
    return rows


def _reference_sieve(lo, hi):
    return [
        (
            rec.n,
            rec.value,
            ";".join(f"{p}^{e}" for p, e in rec.factors),
            rec.largest_prime,
            math.log(rec.largest_prime) / math.log(rec.n),
        )
        for rec in records_of(sieve_columns(lo, hi))
    ]


def _reference_ledgers(data):
    """argv, header and rows of a drawn sums, chain, probe or coverage request."""
    from quadfactor.chebsums import mertens_prefixes, sum_ledger
    from quadfactor.verifier import contradiction_probe, coverage_curve, largest_prime_probe

    command = data.draw(st.sampled_from(["sums", "chain", "probe", "coverage"]), label="command")
    x = data.draw(st.integers(1 if command == "coverage" else 2, 400), label="x")
    argv = [command, "--x", str(x)]
    if command == "probe":
        r = largest_prime_probe(x)
        header = ("x", "max_prime", "arg_n", "exponent", "in_interval")
        return argv, header, [(r.x, r.max_prime, r.arg_n, r.exponent, r.in_interval)]
    if command == "coverage":
        powers = data.draw(st.booleans(), label="prime_powers")
        curve = coverage_curve(x, with_prime_powers=powers)
        header = ("x", "y", "C", "rho", "with_prime_powers")
        rows = [(x, y, c, rho, powers) for y, c, rho in curve.points]
        return argv + ["--prime-powers"] * powers, header, rows
    deltas = data.draw(st.lists(st.floats(0, 1), min_size=1, max_size=3), label="deltas")
    if command == "chain":
        header = (
            "x", "delta", "cutoff", "lhs_exact", "lhs_main_term", "lambda_side",
            "n_trunc", "R", "S", "margin", "margin_exact",
        )
        rows = [
            (
                led.x, led.delta, led.cutoff, led.lhs_exact, led.lhs_main_term,
                led.lambda_side, led.n_trunc, led.R, led.S, led.margin, led.margin_exact,
            )
            for led in contradiction_probe(x, deltas)
        ]
        return argv + ["--delta-grid", ",".join(map(repr, deltas))], header, rows
    q = data.draw(st.integers(1, 30), label="q")
    a = data.draw(st.integers(-60, 60).filter(lambda a: math.gcd(a % q, q) == 1), label="a")
    ledgers = sum_ledger(x, deltas)
    mertens = mertens_prefixes([led.cutoff for led in ledgers], q, a)
    header = (
        "x", "delta", "cutoff", "R", "S", "residual_R", "residual_S",
        "term_count", "q", "a", "mertens",
    )
    rows = [
        (
            led.x, led.delta, led.cutoff, led.R, led.S, led.residual_R, led.residual_S,
            led.term_count, q, a, m,
        )
        for led, m in zip(ledgers, mertens)
    ]
    argv += [f"--delta={d!r}" for d in deltas] + ["--q", str(q), f"--a={a}"]
    return argv, header, rows


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_block_emitter_matches_the_per_row_writer(data):
    # every subcommand writes through _format_blocks; the reference formats
    # each value by its runtime type, so a column of the wrong kind fails
    command = data.draw(st.sampled_from(["records", "sieve", "ledgers"]), label="writer")
    size = data.draw(
        st.one_of(st.just(1), st.integers(1, 40), st.integers(40, 2000)), label="segment_size"
    )
    workers = data.draw(st.sampled_from([1, 2]), label="workers")
    fmt = data.draw(st.sampled_from(["csv", "jsonl"]), label="format")
    # small writes cut blocks into several pieces; the default cuts none here
    rows_per_write = data.draw(st.sampled_from([1, 7, 1 << 16]), label="rows_per_write")
    if command == "records":
        n_max = 2 + data.draw(st.integers(0, 1200), label="width")
        argv = ["records", "--n-max", str(n_max)]
        header = ("n", "largest_prime", "exponent", "is_record")
        rows = _reference_records(n_max)
    elif command == "sieve":
        lo = data.draw(st.integers(2, 10**7), label="lo")
        hi = lo + data.draw(st.integers(0, 1200), label="width")
        argv = ["sieve", "--lo", str(lo), "--hi", str(hi)]
        header = ("n", "n2p1", "factorization", "largest_prime", "exponent")
        rows = _reference_sieve(lo, hi)
    else:
        argv, header, rows = _reference_ledgers(data)
    argv += ["--segment-size", str(size), "--workers", str(workers), "--format", fmt]
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(cli, "_ROWS_PER_WRITE", rows_per_write)
        assert main(argv) == 0
    assert out.getvalue() == _reference_text(fmt, header, rows)


def _kernel_lines(kind, values, dtype):
    import numpy as np

    return csvtext.csv_text([kind], [np.array(values, dtype=dtype)]).splitlines()


def _bits_to_float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(
        st.one_of(
            st.floats(),  # subnormals, +-0, negatives, inf and nan included
            st.integers(0, 2**64 - 1).map(_bits_to_float),  # every double alike
            st.floats(1e-5, 1e17),  # the kernel's own range, fixed notation
        ),
        min_size=1,
        max_size=40,
    )
)
def test_csv_kernel_floats_equal_percent_17g(values):
    assert _kernel_lines("float", values, float) == ["%.17g" % v for v in values]


def test_csv_kernel_float_edge_cases():
    values = []
    # dyadic ties: v = M / 2^(k+1) with M odd has v * 10^k = M * 5^k / 2, an
    # exact .5, for the k = 16 - X the kernel scales by
    for k in range(1, 23):
        low = math.ceil(Fraction(10) ** (16 - k) * 2 ** (k + 1))
        high = min(2**53, math.ceil(Fraction(10) ** (17 - k) * 2 ** (k + 1)))  # exclusive
        for m in (low | 1, (low + high) // 2 | 1, (high - 2) | 1):
            v = m / 2 ** (k + 1)
            assert 10 ** (16 - k) <= Fraction(v) < 10 ** (17 - k)
            assert (Fraction(v) * 10**k).denominator == 2, (k, m)
            values.append(v)
    # one ulp either side of each power of ten, and short decimals, whose 17
    # digits end in a run of 9s or of 0s
    for j in range(-8, 24):
        p = float(f"1e{j}")
        values += [math.nextafter(p, 0), p, math.nextafter(p, math.inf)]
    values += [float(f"{m}e{e}") for m in (1, 3, 7, 29, 123, 4999, 12345679) for e in range(-9, 18)]
    values += [0.1 + 0.2, 2 / 3, 1 / 3, 2.5, 0.5, 100.0, 1e16 - 2, 99999999999999984.0]
    assert _kernel_lines("float", values, float) == ["%.17g" % v for v in values]


def test_no_double_rounds_up_to_a_power_of_ten_at_17_digits():
    # so the kernel's D = round(v * 10^k) never reaches 10^17 (it would fall back)
    for j in range(-330, 309):
        below = math.nextafter(float(f"1e{j}"), 0)
        if below > 0:
            assert not ("%.16e" % below).startswith("1."), j


def test_csv_kernel_ints_and_bools():
    ints = [0, 9, 10, 99, 100, 2**53 - 1, 2**53 + 1, 2**63 - 1, 2**64 - 1]
    assert _kernel_lines("int", ints, "uint64") == ["%d" % i for i in ints]
    assert _kernel_lines("bool", [True, False, True], bool) == ["true", "false", "true"]


@pytest.mark.parametrize("command", ["records --n-max 3000", "sieve --lo 999000 --hi 1002000"])
@pytest.mark.parametrize("segment_size", [1, 7, 1000, 5000])
def test_csv_kernel_never_gets_more_rows_than_a_write(command, segment_size):
    # blocks are cut and joined across segments to at most _ROWS_PER_WRITE
    # rows, and the text does not depend on where the cuts fall
    argv = command.split() + ["--segment-size", str(segment_size), "--workers", "1"]
    kernel = csvtext.csv_text
    for rows_per_write in (64, 1000, 1 << 16):
        seen = []

        def counting(kinds, cols, factors=None):
            seen.append(len(cols[0]))
            return kernel(kinds, cols, factors)

        out = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
            mp.setattr(cli, "_ROWS_PER_WRITE", rows_per_write)
            mp.setattr(csvtext, "csv_text", counting)
            assert main(argv) == 0
        assert max(seen) <= rows_per_write
        assert sum(seen) == out.getvalue().count("\n") - 1
        if rows_per_write == 64:
            first = out.getvalue()
        assert out.getvalue() == first


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("segment_size", ["333", "4999"])
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("command", ["records --n-max 40000", "sieve --lo 1000000 --hi 1030000"])
def test_bytes_do_not_depend_on_where_blocks_are_cut(command, fmt, segment_size, workers):
    # at the default block size these outputs span several blocks, whose
    # cuts fall inside segments of either size; the bytes are those of
    # 1000-row and of 2^16-row blocks
    argv = command.split() + ["--format", fmt, "--segment-size", segment_size,
                              "--workers", workers]
    outputs = []
    for rows_per_write in (cli._ROWS_PER_WRITE, 1000, 1 << 16):
        out = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
            mp.setattr(cli, "_ROWS_PER_WRITE", rows_per_write)
            assert main(argv) == 0
        outputs.append(out.getvalue())
    assert outputs[0].count("\n") > 3 * cli._ROWS_PER_WRITE
    assert outputs[1] == outputs[0] == outputs[2]


def test_only_sieve_and_records_csv_load_the_csv_kernel():
    # each request compiles what it imports, so the kernel is left to the
    # two requests that run it
    for argv, loads in (
        (["--help"], False),
        (["verify", "counts", "--trials", "5"], False),
        (["records", "--n-max", "300", "--format", "jsonl"], False),
        (["records", "--n-max", "300"], True),
        (["sieve", "--lo", "2", "--hi", "300"], True),
    ):
        imported = _imported("-m", "quadfactor", *argv, "-o", os.devnull)
        assert ("quadfactor.csvtext" in imported) == loads, argv


def test_probe_and_a_refused_sums_load_only_what_they_run():
    # each request compiles what it imports: the probe's walk needs is_prime
    # alone (at x = 3000 it factors no n), and sums is refused at its
    # cutoffs before it reads a prime stream
    refused = ["sums", "--x", "30039", "--delta", "0.25", "--delta", "1.2"]
    for argv, code, needed, unneeded in (
        (["probe", "--x", "3000"], 0, {"quadfactor.verifier", "quadfactor.modmath"},
         {"numpy", "quadfactor.chebsums", "quadfactor.polysieve", "quadfactor.rootcount",
          "fractions"}),
        (refused, 1, {"quadfactor.chebsums"}, {"quadfactor.modmath", "quadfactor.rootcount"}),
    ):
        run = _fresh_python("-X", "importtime", "-m", "quadfactor", *argv, "-o", os.devnull)
        assert run.returncode == code, run.stderr
        imported = {
            line.rsplit("|", 1)[-1].strip()
            for line in run.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert needed <= imported, argv
        assert not imported & unneeded, (argv, imported & unneeded)


@pytest.mark.parametrize("segment_size", ["1", "7", str(cli.DEFAULT_SEGMENT_SIZE)])
@pytest.mark.parametrize(
    "argv",
    [
        ["records", "--n-max", "400"],
        ["probe", "--x", "400"],
        ["coverage", "--x", "400", "--prime-powers"],
        ["chain", "--x", "400", "--delta-grid", "0,0.5"],
    ],
    ids=["records", "probe", "coverage", "chain"],
)
def test_consumers_give_the_same_bytes_at_one_and_two_workers(tmp_path, argv, segment_size):
    # each consumer's reduction runs in the pool worker at --workers 2 and
    # in-process at --workers 1; what comes out is the same
    outputs = []
    for workers in ("1", "2"):
        path = tmp_path / f"w{workers}"
        argv_w = argv + ["--segment-size", segment_size, "--workers", workers, "-o", str(path)]
        assert main(argv_w) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


# runs quadfactor as __main__ after registering an atexit hook that writes
# the collector's freeze count, the process's thread count (0 where
# /proc/self/task does not exist) and whether numpy was loaded (1 or 0) to
# the path in argv[1]
_EXIT_HOOK = (
    "import atexit, gc, os, runpy, sys\n"
    "stamp = sys.argv.pop(1)\n"
    "def hook():\n"
    "    task = '/proc/self/task'\n"
    "    threads = len(os.listdir(task)) if os.path.isdir(task) else 0\n"
    "    numpy = int('numpy' in sys.modules)\n"
    "    with open(stamp, 'w') as out:\n"
    "        out.write(f'{gc.get_freeze_count()} {threads} {numpy}')\n"
    "atexit.register(hook)\n"
    "runpy.run_module('quadfactor', run_name='__main__', alter_sys=True)\n"
)


def _entry_point_exit(tmp_path, monkeypatch, argv, **env):
    """Runs argv through the entry point with env added to the caller's
    environment, checks that its exit code and bytes are those of main(argv)
    in-process, and returns (exit code, freeze count, thread count, numpy
    loaded) at exit."""
    stamp = tmp_path / "stamp"
    env = dict(_fresh_env(), COLUMNS="80", **env)
    env.pop(cli.WORKERS_ENV, None)
    run = subprocess.run(
        [sys.executable, "-c", _EXIT_HOOK, str(stamp), *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert (run.returncode, run.stdout, run.stderr) == (rc, out.getvalue(), err.getvalue())
    freeze, threads, numpy = map(int, stamp.read_text().split())
    return rc, freeze, threads, bool(numpy)


@pytest.mark.parametrize(
    "argv",
    [
        ["probe", "--x", "500", "--workers", "1"],
        ["chain", "--x", "100000", "--delta-grid", "1.0,1.5", "--workers", "1"],
        ["--help"],
    ],
    ids=["success", "refusal", "help"],
)
def test_entry_point_freezes_the_collector_and_keeps_exit(tmp_path, monkeypatch, argv):
    # the atexit hook runs (no os._exit), sees the request's objects frozen
    # out of the teardown collections, and the exit code and bytes are those
    # of main(argv) in-process
    rc, freeze, _, _ = _entry_point_exit(tmp_path, monkeypatch, argv)
    assert rc == (1 if argv[0] == "chain" else 0)
    assert freeze > 0


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_entry_point_runs_one_thread_whatever_the_callers_blas_setting(tmp_path, monkeypatch):
    # records imports numpy; run() pins OpenBLAS to one thread before that,
    # over the caller's value, so no BLAS worker thread is left at exit
    argv = ["records", "--n-max", "500", "--workers", "1"]
    rc, freeze, threads, numpy = _entry_point_exit(
        tmp_path, monkeypatch, argv, OPENBLAS_NUM_THREADS="4"
    )
    assert (rc, threads, numpy) == (0, 1, True)
    assert freeze > 0


_BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def test_no_source_calls_blas():
    # run() pins OpenBLAS to one thread because nothing calls it; code that
    # adds BLAS work has to revisit that pin
    for path in sorted(Path(SRC, "quadfactor").glob("*.py")):
        found = []
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.MatMult):
                found.append("@")
            elif isinstance(node, ast.Name):
                found += _BLAS_NAMES & {node.id}
            elif isinstance(node, ast.Attribute):
                found += _BLAS_NAMES & {node.attr}
            elif isinstance(node, ast.alias):  # import numpy.linalg, from numpy import dot
                found += _BLAS_NAMES & set(node.name.split("."))
            elif isinstance(node, ast.ImportFrom):  # from numpy.linalg import norm
                found += _BLAS_NAMES & set((node.module or "").split("."))
        assert not found, (path.name, found)


def test_main_in_process_leaves_the_collector_unfrozen():
    code = (
        "import gc, os\n"
        "from quadfactor.cli import main\n"
        "environ = dict(os.environ)\n"
        "rc = main(['probe', '--x', '500', '--workers', '1', '-o', os.devnull])\n"
        "print(rc, gc.get_freeze_count(), dict(os.environ) == environ)\n"
    )
    run = _fresh_python("-c", code, OPENBLAS_NUM_THREADS="4")
    assert run.stdout.split() == ["0", "0", "True"], run.stderr
