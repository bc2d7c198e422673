"""Tests of the benchmark itself (not of quadfactor).

    python3 -m pytest perfbench

Covers the seeded generator, every output checker against a deliberately
corrupted row, the statistics helper, the tracer's self-time accounting and
the contract between BENCHMARK.json and the harness.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from sympy import factorint

import checks
import run
import traced_cli
from workloads import WORKLOADS, Request, generate

ROOT = Path(__file__).resolve().parent.parent


def cli(argv: tuple[str, ...], expect_rc: int = 0) -> str:
    proc = subprocess.run([sys.executable, "-m", "quadfactor", *argv], capture_output=True,
                          text=True, env=run.child_env(), cwd=ROOT, timeout=120)
    assert proc.returncode == expect_rc, proc.stderr
    return proc.stdout


def replace_cell(out: str, n_row: int, column: str, value: str) -> str:
    lines = out.splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[n_row + 1].split(",")
    assert cells[col] != value
    cells[col] = value
    lines[n_row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_a_function_of_the_seed(workload):
    assert generate(workload, 5) == generate(workload, 5)
    assert generate(workload, 5) != generate(workload, 6)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_request_names_its_worker_count(workload):
    for seed in range(20):
        for req in generate(workload, seed):
            assert "--workers" in req.argv


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        generate("nope", 1)


# (argv, data row, column, corrupted value) -- each corruption must be caught
CORRUPTIONS = [
    # n=8: 65 = 5 * 13; a wrong factor no longer multiplies back
    (("sieve", "--lo", "2", "--hi", "60", "--workers", "1"), 6, "factorization", "5^1;17^1"),
    # the product is right but 65 is no prime
    (("sieve", "--lo", "2", "--hi", "60", "--workers", "1"), 6, "factorization", "65^1"),
    (("sieve", "--lo", "2", "--hi", "60", "--workers", "1"), 5, "largest_prime", "2"),
    (("records", "--n-max", "400", "--segment-size", "128", "--workers", "1"), 5, "largest_prime", "2"),
    (("records", "--n-max", "400", "--workers", "1"), 100, "is_record", "true"),
    (("probe", "--x", "300", "--workers", "1"), 0, "in_interval", "false"),
    (("probe", "--x", "300", "--workers", "1"), 0, "arg_n", "301"),
    (("coverage", "--x", "300", "--prime-powers", "--workers", "1"), 11, "rho", "0.999"),
    (("chain", "--x", "300", "--delta-grid", "0,0.5", "--workers", "1"), 1, "lambda_side", "1.0"),
    (("chain", "--x", "300", "--delta-grid", "0,0.5", "--workers", "1"), 0, "n_trunc", "1e9"),
    (("sums", "--x", "500", "--delta", "0", "--delta", "0.5", "--q", "8", "--a", "3",
      "--workers", "1"), 1, "term_count", "1"),
    (("sums", "--x", "500", "--delta", "0", "--delta", "0.5", "--q", "8", "--a", "3",
      "--workers", "1"), 0, "mertens", "0.5"),
    (("verify", "counts", "--x", "500", "--trials", "20", "--seed", "3", "--workers", "1"),
     4, "exact", "99"),
]


@pytest.mark.parametrize("argv,row,column,value", CORRUPTIONS)
def test_checker_accepts_real_output_and_rejects_a_corrupted_row(argv, row, column, value):
    req = Request("t", argv)
    out = cli(argv)
    checks.check(req, 0, out)
    with pytest.raises(checks.CheckError):
        checks.check(req, 0, replace_cell(out, row, column, value))


def test_checker_rejects_a_wrong_exit_code():
    refused = Request("sums_refused", ("sums", "--x", "30000", "--delta", "1.2", "--workers", "1"),
                      expect_rc=1)
    checks.check(refused, 1, cli(refused.argv, expect_rc=1))
    with pytest.raises(checks.CheckError):
        checks.check(refused, 0, "")
    ok = Request("probe", ("probe", "--x", "300", "--workers", "1"))
    with pytest.raises(checks.CheckError):
        checks.check(ok, 2, cli(ok.argv))


def test_largest_prime_factor_oracle_matches_sympy():
    lpf = checks.largest_prime_factors(2, 400)
    assert [int(v) for v in lpf] == [max(factorint(n * n + 1)) for n in range(2, 401)]


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([float(i) for i in range(15)]) is None
    assert run.tail_percentile([float(i) for i in range(20)]) == (50, 9.0)
    assert run.tail_percentile([float(i) for i in range(100)]) == (90, 89.0)


def test_self_time_excludes_wrapped_children():
    tracer = traced_cli.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.03), keep_span=True)

    def outer_body():
        time.sleep(0.02)
        inner()

    outer = tracer.wrap("outer", outer_body, keep_span=True)
    outer()
    calls, incl, self_s = tracer.stats["outer"]
    inner_incl = tracer.stats["inner"][1]
    assert calls == 1 and inner_incl >= 0.03 and self_s >= 0.02
    assert self_s == pytest.approx(incl - inner_incl, abs=1e-9)
    spans = {s[2]: s for s in tracer.spans}
    assert spans["inner"][1] == spans["outer"][0]  # parent link


def test_generator_time_excludes_its_consumer():
    tracer = traced_cli.Tracer()

    def produce():
        for i in range(3):
            time.sleep(0.01)
            yield i

    gen = tracer.wrap_gen("gen", produce, item_counters=("gen.items",))
    for _ in gen():
        time.sleep(0.1)
    calls, incl, _ = tracer.stats["gen"]
    assert calls == 1 and 0.03 <= incl < 0.2
    assert tracer.counters["gen.items"] == 3


def test_traced_cli_keeps_output_and_collects_pool_workers(tmp_path):
    argv = ("records", "--n-max", "3000", "--segment-size", "700", "--workers", "2")
    env = dict(run.child_env(), QF_TRACE_DIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(run.BENCH_DIR / "traced_cli.py"), *argv],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == cli(argv)
    dumps = [json.loads(p.read_text()) for p in tmp_path.glob("*.json")]
    assert len(dumps) >= 2  # the parent and at least one pool worker
    segments = sum(d["stats"]["polysieve.sieve_segment"][0] for d in dumps)
    assert segments == 5
    assert sum(d["counters"].get("polysieve.sieve_segment.values", 0) for d in dumps) == 2999


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.layer_metric_names(False)
    assert run.REPORT_ONLY < {name for name, _ in run.layer_metric_names()}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ledger_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
