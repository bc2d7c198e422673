"""Run the quadfactor CLI with every cross-module call wrapped in a span.

Usage: python traced_cli.py <quadfactor arguments...>

The wrappers are installed from this file; nothing under src/ changes.  Each
wrapped function is replaced in every quadfactor module namespace that binds
it, so calls made inside the defining module are seen as well.  Spans and
counters stay in memory; each process writes one JSON file at exit into the
directory named by QF_TRACE_DIR.

Self time is a span's duration minus the time covered by the wrapped calls
made inside it.  Generators (iter_primes, iter_records) count one call per
generator and are timed only while they run between yields, so the work of
their consumer is not charged to them.

Fork pool workers inherit the wrappers.  Their spans live in the worker's
memory and are invisible to the parent, so each worker resets the tracer
after the fork and writes its own file when it exits (a multiprocessing
finalizer).  A worker that is killed loses its spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from multiprocessing import util
from time import perf_counter

MODULES = ("modmath", "polysieve", "chebsums", "verifier", "rootcount", "cli")

# (layer metric prefix, defining module, attribute, generator?, keep spans?)
TARGETS = (
    ("modmath.iter_primes", "modmath", "iter_primes", True, False),
    ("modmath.root", "modmath", "_root_for_prime", False, False),
    ("modmath.is_prime", "modmath", "is_prime", False, False),
    ("polysieve.sieve_segment", "polysieve", "sieve_segment", False, True),
    ("polysieve.iter_records", "polysieve", "iter_records", True, False),
    ("polysieve.incidence_counts", "polysieve", "incidence_counts", False, True),
    ("chebsums.mertens_ap", "chebsums", "mertens_ap", False, True),
    ("chebsums.secondary_term", "chebsums", "secondary_term", False, True),
    ("chebsums.sum_ledger", "chebsums", "sum_ledger", False, True),
    ("verifier.coverage_curve", "verifier", "coverage_curve", False, True),
    ("verifier.contradiction_probe", "verifier", "contradiction_probe", False, True),
    ("verifier.lambda_identity_check", "verifier", "lambda_identity_check", False, True),
    ("verifier.lhs_logsum", "verifier", "lhs_logsum", False, True),
    ("verifier.largest_prime_probe", "verifier", "largest_prime_probe", False, True),
    ("rootcount.solution_count", "rootcount", "solution_count", False, True),
    ("cli.emit", "cli", "_emit", False, True),
)


class Tracer:
    """Per-process span and counter store.

    Wrappers hold references to the stats lists and the frame stack, so
    reset() clears them in place rather than replacing them.
    """

    def __init__(self) -> None:
        # name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        # (span id, parent span id, name, start, end) of the coarse calls
        self.spans: list = []
        # open frames: [seconds covered by child spans, span id or None]
        self.stack: list[list] = []
        # the lru_cache behind modmath.root, for its hit/miss counts
        self.root_fn = None
        self.root_cache_base = (0, 0)

    def reset(self) -> None:
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]
        self.counters.clear()
        self.spans.clear()
        self.stack.clear()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, name: str, fn, keep_span: bool, on_result=None):
        stack, spans, st = self.stack, self.spans, self._stat(name)

        def traced(*args, **kwargs):
            span_id = None
            if keep_span:
                span_id = len(spans)
                spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                st[0] += 1
                st[1] += d
                st[2] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                if keep_span:
                    parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                    spans[span_id] = (span_id, parent, name, t0, t1)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def wrap_gen(self, name: str, fn, on_call=None, item_counters=()):
        """Time a generator only while it runs; count what it yields."""
        stack, st, tracer = self.stack, self._stat(name), self

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            gen = fn(*args, **kwargs)
            st[0] += 1
            items = 0
            try:
                while True:
                    frame = [0.0, None]
                    stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        d = perf_counter() - t0
                        stack.pop()
                        st[1] += d
                        st[2] += d - frame[0]
                        if stack:
                            stack[-1][0] += d
                    items += 1
                    yield item
            finally:
                gen.close()
                for counter in item_counters:
                    tracer.count(counter, items)

        return functools.wraps(fn)(traced)

    def dump(self, path: str) -> None:
        if self.root_fn is not None:
            info = self.root_fn.cache_info()
            base_hits, base_misses = self.root_cache_base
            self.count("modmath.root.misses", info.misses - base_misses)
            self.count("modmath.root.lookups", info.hits + info.misses - base_hits - base_misses)
        with open(path, "w") as fh:
            json.dump(
                {
                    "pid": os.getpid(),
                    "request": os.environ.get("QF_TRACE_REQUEST", ""),
                    "stats": self.stats,
                    "counters": self.counters,
                    "spans": [s for s in self.spans if s is not None],
                },
                fh,
            )


def _bound(fn, args, kwargs) -> dict:
    try:
        ba = inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return {}
    ba.apply_defaults()
    return ba.arguments


def install(tracer: Tracer) -> None:
    """Replace every target in every module namespace that binds it."""
    mods = {name: importlib.import_module(f"quadfactor.{name}") for name in MODULES}

    def sieve_result(args, kwargs, records):
        hi = _bound(originals["sieve_segment"], args, kwargs).get("hi")
        tracer.count("polysieve.sieve_segment.values", len(records))
        if hi is not None:
            above = sum(1 for rec in records if getattr(rec, "largest_prime", 0) > hi)
            tracer.count("polysieve.residuals_above_hi", above)

    def records_call(args, kwargs):
        b = _bound(originals["iter_records"], args, kwargs)
        lo, hi, size = b.get("lo"), b.get("hi"), b.get("segment_size")
        if None not in (lo, hi, size) and hi >= lo:
            tracer.count("polysieve.iter_records.segments", -(-(hi - lo + 1) // size))

    def ledger_result(args, kwargs, result):
        # the widest ledger a request evaluates is its one-pass lower bound
        terms = getattr(result, "term_count", 0)
        if terms > tracer.counters.get("chebsums.max_term_count", 0):
            tracer.counters["chebsums.max_term_count"] = terms

    hooks = {
        "sieve_segment": {"on_result": sieve_result},
        "iter_records": {"on_call": records_call},
        "secondary_term": {"on_result": ledger_result},
        "sum_ledger": {"on_result": ledger_result},
    }
    originals = {}
    tracer.root_fn = getattr(mods["modmath"], "_root_for_prime", None)
    if not hasattr(tracer.root_fn, "cache_info"):
        tracer.root_fn = None
    for metric, home, attr, is_gen, keep_span in TARGETS:
        fn = getattr(mods[home], attr, None)
        if fn is None:
            continue
        originals[attr] = fn
        hook = hooks.get(attr, {})
        if is_gen:
            wrapped = tracer.wrap_gen(metric, fn, hook.get("on_call"), (metric + ".items",))
        else:
            wrapped = tracer.wrap(metric, fn, keep_span, hook.get("on_result"))
        for mod_name, mod in mods.items():
            if mod_name == "chebsums" and attr == "iter_primes":
                continue
            if getattr(mod, attr, None) is fn:
                setattr(mod, attr, wrapped)
    # chebsums gets its own iter_primes wrapper so its prime passes are counted
    if "iter_primes" in originals and hasattr(mods["chebsums"], "iter_primes"):
        mods["chebsums"].iter_primes = tracer.wrap_gen(
            "modmath.iter_primes", originals["iter_primes"],
            lambda args, kwargs: tracer.count("chebsums.prime_passes"),
            ("modmath.iter_primes.items", "chebsums.primes_streamed"),
        )


def _in_fork_child(tracer: Tracer) -> None:
    tracer.reset()
    if tracer.root_fn is not None:
        info = tracer.root_fn.cache_info()
        tracer.root_cache_base = (info.hits, info.misses)
    path = os.path.join(os.environ["QF_TRACE_DIR"], f"{os.getpid()}.json")
    util.Finalize(None, tracer.dump, args=(path,), exitpriority=100)


def main(argv: list[str]) -> int:
    out_dir = os.environ["QF_TRACE_DIR"]
    from quadfactor import cli

    tracer = Tracer()
    install(tracer)
    util.register_after_fork(tracer, _in_fork_child)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(os.path.join(out_dir, f"{os.getpid()}.json"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
