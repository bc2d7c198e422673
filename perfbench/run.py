"""Outside-in benchmark of the quadfactor CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every request is a fresh interpreter running
`python -m quadfactor ...` with PYTHONPATH=src, sent one after another by a
single client (closed loop).  A round sends each request of the workload once;
rounds repeat until the next one would overrun --seconds.  Every output is
checked against the oracles in checks.py, outside the timed region.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced rounds (traced requests run through traced_cli.py) and prints the
per-layer metrics.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
--workload all runs every workload in turn and prefixes metric names.
See README.md for what each metric and workload is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
from workloads import WORKLOADS, Request, generate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REQUEST_TIMEOUT_S = 60.0
SETUP_PROBES_FIRST = 6
SETUP_PROBES_PER_ROUND = 3

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

_CALLS_S = ("calls", "s")
PER_LAYER = (
    ("modmath.iter_primes", ("calls", "primes", "s")),
    ("modmath.root", ("calls", "misses", "hit_ratio", "s")),
    ("modmath.is_prime", _CALLS_S),
    ("polysieve.sieve_segment", ("calls", "values", "self_s")),
    ("polysieve.iter_records", ("segments", "wait_s")),
    ("polysieve.incidence_counts", _CALLS_S),
    ("polysieve", ("residuals_above_hi",)),
    ("chebsums.mertens_ap", _CALLS_S),
    ("chebsums.secondary_term", _CALLS_S),
    ("chebsums.sum_ledger", _CALLS_S),
    ("chebsums", ("prime_passes", "stream_ratio")),
    ("verifier.coverage_curve", _CALLS_S),
    ("verifier.contradiction_probe", _CALLS_S),
    ("verifier.lambda_identity_check", _CALLS_S),
    ("verifier.lhs_logsum", _CALLS_S),
    ("verifier.largest_prime_probe", _CALLS_S),
    ("rootcount.solution_count", _CALLS_S),
    ("cli.emit", ("self_s",)),
    ("cli", ("rows", "bytes")),
    ("trace", ("overhead_s",)),
)
_UNITS = {"s": "s", "self_s": "s", "wait_s": "s", "overhead_s": "s", "bytes": "bytes",
          "hit_ratio": "ratio", "stream_ratio": "ratio"}


# Seconds of a layer that some workload never calls (or, for is_prime on
# window_high, may not call): they read exactly 0 there on every run, so they
# are printed in the report but left out of the JSON result.
REPORT_ONLY = frozenset(
    ["modmath.is_prime.s", "polysieve.incidence_counts.s", "rootcount.solution_count.s"]
    + [f"chebsums.{f}.s" for f in ("mertens_ap", "secondary_term", "sum_ledger")]
    + [f"verifier.{f}.s" for f in ("coverage_curve", "contradiction_probe",
                                   "lambda_identity_check", "lhs_logsum", "largest_prime_probe")]
)


def layer_metric_names(with_report_only: bool = True) -> list[tuple[str, str]]:
    """(name, unit) of the per-layer metrics, in report order."""
    names = [(f"{prefix}.{leaf}", _UNITS.get(leaf, "count"))
             for prefix, leaves in PER_LAYER for leaf in leaves]
    return [(n, u) for n, u in names if with_report_only or n not in REPORT_ONLY]


@dataclass
class Outcome:
    kind: str
    wall_s: float
    rss_kb: int
    rows: int = 0
    nbytes: int = 0
    terms: int = 0
    trace: list = field(default_factory=list)


@dataclass
class Round:
    traced: bool
    outcomes: list[Outcome]

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)


def environment() -> dict:
    """Machine and toolchain facts recorded with every result."""
    import numpy
    import sympy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches.append(f"L{level}{suffix} {size}")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": ", ".join(caches),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QUADFACTOR_WORKERS", None)  # every request passes --workers itself
    env.pop("QF_TRACE_DIR", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(argv: list[str], out_path: Path, env: dict) -> tuple[float, int, int, bool]:
    """Run one process to exit: (wall seconds, exit code, peak RSS KiB, timed out).

    The RSS comes from wait4, which reports the largest of the process and of
    the children it waited for, so fork pool workers are included.
    """
    timed_out = threading.Event()
    with open(out_path, "wb") as out:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                stdin=subprocess.DEVNULL, env=env, cwd=ROOT,
                                start_new_session=True)

        def kill() -> None:  # the whole group, so pool workers go too
            timed_out.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(REQUEST_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss, timed_out.is_set()


class Runner:
    """Sends requests, checks their outputs and counts the failures."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.env = child_env()
        self.verified: dict[tuple, tuple[str, dict]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def send(self, req: Request, traced: bool = False, counted: bool = True) -> Outcome:
        out_path = self.workdir / "stdout"
        trace_dir = self.workdir / "trace"
        env = self.env
        if traced:
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir()
            env = dict(env, QF_TRACE_DIR=str(trace_dir), QF_TRACE_REQUEST=req.kind)
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), *req.argv]
        else:
            argv = [sys.executable, "-m", "quadfactor", *req.argv]
        wall, rc, rss_kb, timed_out = launch(argv, out_path, env)
        out = out_path.read_bytes()
        outcome = Outcome(req.kind, wall, rss_kb, nbytes=len(out))
        self.attempted += counted
        try:
            if timed_out:
                raise checks.CheckError(f"timed out after {REQUEST_TIMEOUT_S:g} s")
            key = (req.argv, rc)
            digest = hashlib.sha256(out).hexdigest()
            if key in self.verified and self.verified[key][0] == digest:
                summary = self.verified[key][1]
            else:
                summary = checks.check(req, rc, out.decode())
                self.verified[key] = (digest, summary)
            outcome.rows, outcome.terms = summary["rows"], summary["terms"]
        except (checks.CheckError, UnicodeDecodeError, ValueError, IndexError) as exc:
            self.failed += counted
            self.failures.append(f"{req.kind} {' '.join(req.argv)}: "
                                 f"{exc.__class__.__name__}: {exc}")
        if traced:
            for path in sorted(trace_dir.glob("*.json")):
                outcome.trace.append(json.loads(path.read_text()))
        return outcome


# --- statistics ---------------------------------------------------------------


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples above it."""
    ordered = sorted(samples)
    for pct in (99, 95, 90, 75, 50):
        rank = max(1, -(-pct * len(ordered) // 100))  # nearest rank
        value = ordered[rank - 1]
        if sum(1 for s in ordered if s > value) >= 10:
            return pct, value
    return None


def describe(name: str, unit: str, samples: list[float], value: float | None = None) -> str:
    value = statistics.median(samples) if value is None else value
    tail = tail_percentile(samples)
    tail_txt = f"p{tail[0]}={tail[1]:.6g}" if tail else "-"
    return f"  {name:<16} {unit:<6} {value:>14.6g}  {tail_txt:<16} n={len(samples)}"


def merge_traces(rnd: Round) -> tuple[dict, dict]:
    stats: dict[str, list] = {}
    counters: dict[str, float] = {}
    for outcome in rnd.outcomes:
        for dump in outcome.trace:
            for name, (calls, incl, self_s) in dump["stats"].items():
                st = stats.setdefault(name, [0, 0.0, 0.0])
                st[0] += calls
                st[1] += incl
                st[2] += self_s
            for name, amount in dump["counters"].items():
                counters[name] = counters.get(name, 0) + amount
    return stats, counters


def layer_metrics(rnd: Round) -> dict[str, float]:
    stats, counters = merge_traces(rnd)

    def stat(name: str, i: int) -> float:
        return stats.get(name, (0, 0.0, 0.0))[i]

    def count(name: str) -> float:
        return counters.get(name, 0)

    out: dict[str, float] = {}
    for prefix, leaves in PER_LAYER:
        for leaf in leaves:
            name = f"{prefix}.{leaf}"
            if leaf == "calls":
                out[name] = stat(prefix, 0)
            elif leaf == "s":
                out[name] = stat(prefix, 1)
            elif leaf in ("self_s", "wait_s"):
                out[name] = stat(prefix, 2)
            else:
                out[name] = count(name)
    lookups = count("modmath.root.lookups")
    out["modmath.root.hit_ratio"] = 1.0 - count("modmath.root.misses") / lookups if lookups else 0.0
    out["modmath.iter_primes.primes"] = count("modmath.iter_primes.items")
    widest = count("chebsums.max_term_count")
    out["chebsums.stream_ratio"] = count("chebsums.primes_streamed") / widest if widest else 0.0
    out["cli.rows"] = sum(o.rows for o in rnd.outcomes)
    out["cli.bytes"] = sum(o.nbytes for o in rnd.outcomes)
    return out


# --- one workload ---------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 runner: Runner) -> tuple[dict[str, float], list[str]]:
    requests = generate(workload, seed)
    subcommands = sorted({r.argv[0] for r in requests})
    start = perf_counter()
    setup: list[float] = []
    probes: list[Outcome] = []

    def probe_setup(count: int) -> None:
        # spread over the run, so that one slow moment of the host does not
        # decide the median
        for _ in range(count):
            sub = subcommands[len(probes) % len(subcommands)]
            probes.append(runner.send(Request("setup", (sub, "--help"))))
            setup.append(probes[-1].wall_s)

    runner.send(Request("warmup", ("--help",)), counted=False)  # compiles the .pyc files
    if not trace:
        probe_setup(SETUP_PROBES_FIRST)
    rounds: list[Round] = []
    longest = 0.0
    while True:
        t0 = perf_counter()
        traced = trace and len(rounds) % 2 == 1
        rounds.append(Round(traced, [runner.send(r, traced) for r in requests]))
        if not trace:
            probe_setup(SETUP_PROBES_PER_ROUND)
        longest = max(longest, perf_counter() - t0)
        if len(rounds) >= (2 if trace else 1) and perf_counter() - start + longest > seconds:
            break

    plain = [r for r in rounds if not r.traced]
    walls = [r.wall_s for r in plain]
    lines = [f"quadfactor perfbench: workload={workload} seed={seed} seconds={seconds:g} "
             f"trace={int(trace)} rounds={len(rounds)}",
             "  requests: " + " | ".join(" ".join(r.argv) for r in requests)]
    metrics: dict[str, float] = {}
    if trace:
        traced_rounds = [layer_metrics(r) for r in rounds if r.traced]
        for name, unit in layer_metric_names():
            values = [m.get(name, 0.0) for m in traced_rounds]
            metrics[name] = statistics.median(values)
        traced_walls = [r.wall_s for r in rounds if r.traced]
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        for name, unit in layer_metric_names():
            lines.append(f"  {name:<36} {unit:<6} {metrics[name]:.6g}")
        lines.append(f"  (per traced round, median of {len(traced_walls)}; untraced rounds: {len(walls)})")
        last = [{"request": list(req.argv), "processes": o.trace}
                for req, o in zip(requests, [r for r in rounds if r.traced][-1].outcomes)]
        spans_path = WORK / f"trace-{workload}-seed{seed}.json"
        spans_path.write_text(json.dumps(last))
        lines.append(f"  spans of the last traced round: {spans_path.relative_to(ROOT)}")
    else:
        lines.append(f"  {'metric':<16} {'unit':<6} {'median':>14}  {'tail':<16} samples")
        every = [o for r in plain for o in r.outcomes] + probes
        metrics["wall_s"] = statistics.median(walls)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = max(o.rss_kb for o in every) / 1024
        lines.append(describe("wall_s", "s", walls))
        lines.append("  rounds (s): " + " ".join(f"{w:.4f}" for w in walls))
        values = sum(r.values for r in requests)
        if values:
            lines.append(describe("values_per_s", "1/s", [values / w for w in walls]))
        sums = [[o for o in r.outcomes if o.kind == "sums"] for r in plain]
        if any(sums):
            lines.append(describe("terms_per_s", "1/s", [
                sum(o.terms for o in group) / sum(o.wall_s for o in group) for group in sums
            ]))
        refused = [o.wall_s for r in plain for o in r.outcomes if o.kind == "sums_refused"]
        if refused:
            lines.append(describe("reject_s", "s", refused))
        lines.append(describe("setup_s", "s", setup))
        lines.append(describe("peak_rss_mb", "MB", [o.rss_kb / 1024 for o in every],
                              metrics["peak_rss_mb"]) + "  (max)")
        lines.append(f"  {'failed_ratio':<16} {'ratio':<6} {runner.failed / runner.attempted:>14.6g}"
                     f"  {runner.failed}/{runner.attempted} requests")
        lines.append("  per request (s):")
        for kind in dict.fromkeys(r.kind for r in requests):
            lines.append(describe(kind, "s", [o.wall_s for r in plain for o in r.outcomes
                                              if o.kind == kind]))
    lines.extend(f"  FAILED {f}" for f in runner.failures)
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quadfactor" / "__init__.py").is_file():
        print(f"perfbench: no quadfactor sources under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    print("env: " + json.dumps(env), flush=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = dict(END_TO_END) if not args.trace else dict(layer_metric_names(False))
    results: dict[str, dict] = {}
    attempted = failed = 0
    for workload in names:
        workdir = WORK / f"{workload}-{args.seed}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        runner = Runner(workdir)
        try:
            metrics, lines = run_workload(workload, args.seed, args.seconds, bool(args.trace), runner)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print("\n".join(lines), flush=True)
        attempted += runner.attempted
        failed += runner.failed
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, unit in units.items():
            results[prefix + name] = {"value": metrics[name], "unit": unit}
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": results}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
