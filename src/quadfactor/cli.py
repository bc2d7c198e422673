"""Command-line front end: sieving, records, sums, and verification reports.

Data rows go to --output (or stdout) as CSV or JSON lines; everything else
goes to stderr.  An --output file is complete or absent: it is renamed into
place only after its last row.  Exit codes: 0 success, 1 validation/usage
error, a reader that closed stdout early, or a pool worker that ended
before its segment's result (killed by the OS, say: one "error: segment
[a, b]: its worker ended early" line), 2 internal assertion failure.

Every subcommand declares its columns once, each with a kind, and its
rows have the bytes of one row template built from them: ints as %d,
floats as %.17g in CSV and %r (the shortest round-trip repr, as json.dumps
writes it) in JSON lines, bools as true/false.  So output files are
byte-stable and round-trip exact.  The summary subcommands read each row's
values by those column names.  sieve and records, one row per n, hand
their segments to one emitter (_emit_columns) as numpy column blocks, with
sieve's factorizations as CSR columns.  Their CSV is written by a numpy
kernel (the csvtext module) with the template's bytes, the blocks cut and
joined across segments to at most _ROWS_PER_WRITE rows, a size that keeps
each block's work in the cache; their JSON lines, and the other
subcommands, which hand all their rows over as one block, go through the
template itself (_format_blocks): verify counts and probe never load numpy.

Each request is a fresh interpreter, so start-up is part of its cost.  At
module level this imports argparse, the stdlib every subcommand needs and
the package root's envelope constants: --help loads no compute module.
Each subcommand imports its own modules after its argument checks, and
stdlib that one branch needs (tempfile) is imported in that branch: a
refused request or verify counts never import the sieve, the CSV kernel
or numpy, and a refused sums compiles no prime stream (modmath).
numpy's OpenBLAS starts a busy-waiting worker thread per extra CPU when it
loads, and no path here calls BLAS, so run() pins it to one thread before
main() can import numpy.  The request's end is part of its cost too: run()
freezes the collector's objects once main() returns, so teardown does not
traverse them again.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import math
import operator
import os
import sys
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from . import DEFAULT_SEGMENT_SIZE, HI_MAX, WorkerLost

WORKERS_ENV = "QUADFACTOR_WORKERS"
X_MAX = HI_MAX // 2
Q_MAX = 10**4
# Rows per emit block: one csvtext kernel call for sieve and records CSV,
# one join of template rows otherwise.  2^13 keeps a records block's row
# matrix (46 bytes a row, 368 KB) and the kernel's temporaries in a core's
# 2 MB L2 cache: on the benchmark's records stream (152,231 rows) the
# kernel took 32.7 ms at 2^13 rows, 34.2 at 2^12, 33.8 at 2^14 and 38.2 at
# 2^16 (min of 15 interleaved runs, BENCH_emit_blocks.json).  A 2^20-row
# block joined whole held ~100 MB more.
_ROWS_PER_WRITE = 1 << 13
# column kind -> (CSV conversion, JSON conversion); the CSV float is
# format(v, ".17g") and the JSON one json.dumps' repr.  bool values are
# written as the JSON literals, str values must need no JSON escape.
_CONVERSIONS = {
    "int": ("%d", "%d"),
    "float": ("%.17g", "%r"),
    "bool": ("%s", "%s"),
    "str": ("%s", '"%s"'),
}
_BOOL_TEXT = ("false", "true")


def _format_blocks(
    fmt: str, columns: Sequence[Tuple[str, str]], blocks: Iterable[Sequence[Iterable]]
) -> Iterator[str]:
    """The text of row blocks given as columns, one template per row.

    columns names each column and its kind (a key of _CONVERSIONS); each
    block holds one iterable per column, equally long.  Values must be of
    their column's kind (Python, not numpy, scalars): %d would truncate a
    float and %r would spell out a numpy type.
    """
    kinds = [kind for _, kind in columns]
    if fmt == "csv":
        yield _csv_header(columns)
        template = ",".join(_CONVERSIONS[kind][0] for kind in kinds) + "\n"
    else:
        fields = (f'"{name}": {_CONVERSIONS[kind][1]}' for name, kind in columns)
        template = "{" + ", ".join(fields) + "}\n"
    for block in blocks:
        cols = [
            map(_BOOL_TEXT.__getitem__, col) if kind == "bool" else col
            for col, kind in zip(block, kinds)
        ]
        rows = map(template.__mod__, zip(*cols))
        while text := "".join(itertools.islice(rows, _ROWS_PER_WRITE)):
            yield text


def _csv_header(columns: Sequence[Tuple[str, str]]) -> str:
    return ",".join(name for name, _ in columns) + "\n"


def _emit_columns(
    args: argparse.Namespace, columns: Sequence[Tuple[str, str]], blocks: Iterable[tuple]
) -> None:
    """Emit one row per n from blocks of numpy columns, in args.format.

    Each block is (cols, factors): cols holds one array per column that is
    not of kind "str", in order; factors is the CSR (counts, primes,
    exponents) of polysieve.FactorColumns, or (), and its "p^e;...;p^e"
    text is the third column, as csvtext.csv_text places it.
    """
    if args.format == "csv":
        from . import csvtext

        kinds = [kind for _, kind in columns if kind != "str"]

        def text() -> Iterator[str]:
            yield _csv_header(columns)
            for cols, factors in csvtext.cut_blocks(blocks, _ROWS_PER_WRITE):
                yield csvtext.csv_text(kinds, cols, factors)

        _emit(args, text())
        return

    def lists() -> Iterator[list]:
        for cols, factors in blocks:
            values = [col.tolist() for col in cols]
            if factors:
                counts, primes, exponents = (f.tolist() for f in factors)
                powers = map("%d^%d".__mod__, zip(primes, exponents))
                values.insert(2, [";".join(itertools.islice(powers, c)) for c in counts])
            yield values

    _emit(args, _format_blocks(args.format, columns, lists()))


def _by_name(columns: Sequence[Tuple[str, str]], records: Iterable) -> Iterator[tuple]:
    """Each record's attributes named by columns, in column order."""
    return map(operator.attrgetter(*(name for name, _ in columns)), records)


def _emit(args: argparse.Namespace, text: Iterable[str]) -> None:
    """Write the text to stdout, or to args.output complete or not at all.

    A file is written under a temporary name in its own directory and
    renamed over the target after the last row, so a run that fails midway
    leaves no partial file and any earlier one untouched.  A target that is
    not a regular file (a device, a pipe) is written directly.
    """
    path = args.output
    if not path or (os.path.exists(path) and not os.path.isfile(path)):
        with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as out:
            out.writelines(text)
        return
    import tempfile

    target = os.path.realpath(path)
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(target) + ".", suffix=".tmp", dir=os.path.dirname(target)
    )
    try:
        with open(fd, "w", newline="") as out:
            out.writelines(text)
        if os.path.exists(target):
            mode = os.stat(target).st_mode & 0o7777
        else:  # mkstemp creates 0600; a new file gets the mode open() gives
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp, mode)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _log(message: str) -> None:
    print(message, file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract here is 1
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadfactor",
        description="Factor n^2+1 over intervals and evaluate the sum ledgers "
        "locating its prime divisors.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--segment-size", type=int, default=DEFAULT_SEGMENT_SIZE)
    common.add_argument(
        "--workers",
        type=int,
        default=None,
        help=f"worker processes for sieving (default: ${WORKERS_ENV} or 1)",
    )
    common.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    common.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    sub = parser.add_subparsers(dest="cmd")

    p = sub.add_parser("sieve", parents=[common], help="factor n^2+1 for n in [lo, hi]")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)

    p = sub.add_parser("records", parents=[common], help="largest-prime-factor records scan")
    p.add_argument("--n-max", type=int, required=True)

    p = sub.add_parser("sums", parents=[common], help="primary/secondary term ledger")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--delta", type=float, action="append", required=True)
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--a", type=int, default=1)

    p = sub.add_parser("verify", parents=[common], help="randomized property trials")
    p.add_argument("target", choices=("counts",))
    p.add_argument("--x", type=int, default=10**6, help="maximum interval base")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("coverage", parents=[common], help="cumulative divisor coverage curve")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--prime-powers", action="store_true")
    p.add_argument("--tail-tolerance", type=float, default=1e-3)

    p = sub.add_parser("chain", parents=[common], help="truncated inequality ledger per delta")
    p.add_argument("--x", type=int, required=True)
    p.add_argument(
        "--delta-grid",
        default="0.0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
        help="comma-separated delta values",
    )

    p = sub.add_parser("probe", parents=[common], help="largest prime factor over (x, 2x]")
    p.add_argument("--x", type=int, required=True)

    return parser


def _check_common(args: argparse.Namespace) -> None:
    """Refuse bad shared flags before any work; resolve args.workers in place."""
    name = "workers"
    if args.workers is None:
        name, raw = WORKERS_ENV, os.environ.get(WORKERS_ENV, "1")
        try:
            args.workers = int(raw)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, not {raw!r}") from None
    if args.workers < 1:
        raise ValueError(f"{name} must be >= 1")
    if args.segment_size < 1:
        raise ValueError("segment-size must be >= 1")
    if args.output:
        # refused here, before any work: _emit would fail only after the last row
        if os.path.isdir(args.output):
            raise ValueError(f"cannot write {args.output}: it is a directory")
        parent = os.path.dirname(os.path.realpath(args.output))
        if not os.path.isdir(parent):
            raise ValueError(f"cannot write {args.output}: {parent} is not a directory")


def _require_interval_x(x: int) -> None:
    if not 1 <= x <= X_MAX:
        raise ValueError(f"x must be in [1, {X_MAX}]")


def _cmd_sieve(args: argparse.Namespace) -> int:
    if not 2 <= args.lo <= args.hi <= HI_MAX:
        raise ValueError(f"need 2 <= lo <= hi <= {HI_MAX}")
    import numpy as np

    from .polysieve import iter_columns

    columns = (
        ("n", "int"), ("n2p1", "int"), ("factorization", "str"),
        ("largest_prime", "int"), ("exponent", "float"),
    )

    def blocks() -> Iterator[tuple]:
        for c in iter_columns(args.lo, args.hi, args.segment_size, args.workers):
            n = np.arange(c.lo, c.lo + len(c.counts), dtype=np.uint64)
            yield (n, n * n + 1, c.largest, c.exponent()), (c.counts, c.primes, c.exponents)

    _emit_columns(args, columns, blocks())
    return 0


def _cmd_records(args: argparse.Namespace) -> int:
    if not 2 <= args.n_max <= HI_MAX:
        raise ValueError(f"need 2 <= n-max <= {HI_MAX}")
    import numpy as np

    from .polysieve import records_scan

    columns = (("n", "int"), ("largest_prime", "int"), ("exponent", "float"), ("is_record", "bool"))

    def blocks() -> Iterator[tuple]:
        for b in records_scan(args.n_max, args.segment_size, args.workers):
            n = np.arange(b.lo, b.lo + len(b.largest), dtype=np.uint64)
            yield (n, b.largest, b.exponent, b.is_record), ()

    _emit_columns(args, columns, blocks())
    return 0


def _cmd_sums(args: argparse.Namespace) -> int:
    if args.x < 2 or args.x > HI_MAX:
        raise ValueError(f"x must be in [2, {HI_MAX}]")
    if not 1 <= args.q <= Q_MAX:
        raise ValueError(f"q must be in [1, {Q_MAX}]")
    if math.gcd(args.a % args.q, args.q) != 1:
        raise ValueError(f"residue {args.a} is not invertible mod {args.q}")
    from .chebsums import mertens_prefixes, sum_ledger

    ledgers = sum_ledger(args.x, args.delta)
    if (args.q, args.a % args.q) == (4, 1):
        # the ledger's own mertens sum runs over this class
        mertens = [led.mertens for led in ledgers]
    else:
        mertens = mertens_prefixes([led.cutoff for led in ledgers], args.q, args.a)
    columns = (
        ("x", "int"), ("delta", "float"), ("cutoff", "int"), ("R", "float"), ("S", "float"),
        ("residual_R", "float"), ("residual_S", "float"), ("term_count", "int"),
    )
    rows = [(*row, args.q, args.a, m) for row, m in zip(_by_name(columns, ledgers), mertens)]
    columns += (("q", "int"), ("a", "int"), ("mertens", "float"))
    _emit(args, _format_blocks(args.format, columns, [zip(*rows)]))
    return 0


def _cmd_verify_counts(args: argparse.Namespace) -> int:
    if args.x < 1 or args.x > 10**6:
        raise ValueError("verify counts supports x in [1, 10^6]")
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    import random

    from .modmath import RootPair, _root_for_prime, iter_primes
    from .rootcount import solution_count

    rng = random.Random(args.seed)
    pool = list(iter_primes(5, 10**5, (4, 1)))
    _log(f"verify counts: seed={args.seed} trials={args.trials} x_max={args.x}")
    failures = 0
    rows = []
    for trial in range(args.trials):
        p = pool[rng.randrange(len(pool))]
        # p <= 4 x^2 + 1 must hold for some x <= x_max; 5 always qualifies
        while 4 * args.x * args.x + 1 < p:
            p = pool[rng.randrange(len(pool))]
        x = rng.randint(1, args.x)
        while 4 * x * x + 1 < p:
            x = rng.randint(1, args.x)
        root = RootPair(p, _root_for_prime(p))  # p is from the sieve
        result = solution_count(x, root)
        identity_ok = result.exact == result.floor_identity
        bound_ok = result.exact <= result.bound
        failures += 0 if (identity_ok and bound_ok) else 1
        rows.append(
            (
                trial,
                x,
                p,
                root.b,
                result.exact,
                result.floor_identity,
                result.bound.numerator,
                result.bound.denominator,
                identity_ok,
                bound_ok,
            )
        )
    columns = (
        ("trial", "int"), ("x", "int"), ("p", "int"), ("b", "int"), ("exact", "int"),
        ("floor_identity", "int"), ("bound_num", "int"), ("bound_den", "int"),
        ("identity_ok", "bool"), ("bound_ok", "bool"),
    )
    _emit(args, _format_blocks(args.format, columns, [zip(*rows)]))
    if failures:
        _log(f"verify counts: {failures} of {args.trials} trials FAILED")
        return 2
    _log(f"verify counts: all {args.trials} trials passed")
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    _require_interval_x(args.x)
    from .verifier import coverage_curve

    curve = coverage_curve(
        args.x,
        with_prime_powers=args.prime_powers,
        tail_tolerance=args.tail_tolerance,
        segment_size=args.segment_size,
        workers=args.workers,
    )
    columns = (("x", "int"), ("y", "int"), ("C", "float"), ("rho", "float"),
               ("with_prime_powers", "bool"))
    rows = (
        (curve.x, y, c, rho, curve.with_prime_powers) for y, c, rho in curve.points
    )
    _emit(args, _format_blocks(args.format, columns, [zip(*rows)]))
    _log(
        f"coverage: x={curve.x} prime_powers={curve.with_prime_powers} "
        f"tail_tolerance={curve.tail_tolerance:g} delta_star={curve.delta_star}"
    )
    for tol in (1e-2, 1e-3, 1e-4):
        _log(f"coverage: delta_star at tolerance {tol:g} = {curve.delta_star_at(tol)}")
    return 0


def _cmd_chain(args: argparse.Namespace) -> int:
    _require_interval_x(args.x)
    if args.x < 2:
        raise ValueError("chain needs x >= 2")
    try:
        grid = [float(v) for v in str(args.delta_grid).split(",") if v != ""]
    except ValueError as exc:
        raise ValueError(f"bad delta grid: {exc}") from None
    if not grid:
        raise ValueError("delta grid is empty")
    from .verifier import contradiction_probe

    ledgers = contradiction_probe(
        args.x, grid, segment_size=args.segment_size, workers=args.workers
    )
    columns = (
        ("x", "int"), ("delta", "float"), ("cutoff", "int"), ("lhs_exact", "float"),
        ("lhs_main_term", "float"), ("lambda_side", "float"), ("n_trunc", "float"),
        ("R", "float"), ("S", "float"), ("margin", "float"), ("margin_exact", "float"),
    )
    _emit(args, _format_blocks(args.format, columns, [zip(*_by_name(columns, ledgers))]))
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    _require_interval_x(args.x)
    if args.x < 2:
        raise ValueError("probe needs x >= 2")
    from .verifier import largest_prime_probe

    result = largest_prime_probe(args.x)  # --segment-size and --workers: checked, unused
    columns = (("x", "int"), ("max_prime", "int"), ("arg_n", "int"), ("exponent", "float"),
               ("in_interval", "bool"))
    _emit(args, _format_blocks(args.format, columns, [zip(*_by_name(columns, [result]))]))
    return 0


_COMMANDS = {
    "sieve": _cmd_sieve, "records": _cmd_records, "sums": _cmd_sums,
    "verify": _cmd_verify_counts, "coverage": _cmd_coverage, "chain": _cmd_chain,
    "probe": _cmd_probe,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    if args.cmd is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        _check_common(args)
        return _COMMANDS[args.cmd](args)
    except BrokenPipeError:
        # the reader closed stdout (quadfactor ... | head); stdout goes to
        # devnull so the flush at exit cannot raise again (see the SIGPIPE
        # note in the signal module docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OverflowError, WorkerLost) as exc:
        _log(f"error: {exc}")
        return 1
    except AssertionError as exc:
        _log(f"internal check failed: {exc}")
        return 2


def run() -> int:
    """main() on sys.argv: the entry of `python -m quadfactor` and of the
    console script.

    Before main() runs, OPENBLAS_NUM_THREADS is set to 1, whatever the
    caller's value: no quadfactor path calls BLAS, and the worker thread
    OpenBLAS would otherwise start when numpy loads busy-waits.  On a
    2-vCPU host that thread took about 0.1 s of CPU per numpy request, and
    about 65 ms of its wall time when the host's CPUs were contended.
    Fork-pool workers inherit the setting.  After main() returns,
    gc.freeze() moves every tracked object to the permanent generation,
    which no collection traverses, so the collections of interpreter
    teardown skip the request's objects.  atexit handlers and the stream
    flushes still run.  main(argv) itself leaves os.environ and the
    collector as they were, for callers that go on running.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
