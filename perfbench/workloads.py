"""Seeded request generators for the three benchmark workloads.

A workload is a fixed list of CLI requests derived only from (workload,
seed).  One round of a run sends every request once, in order, and waits for
each to exit before sending the next (closed loop, one client).

The seed moves the inputs inside narrow bands.  The work of each request is
governed by a size (hi for a sieve window, N or x elsewhere), so the bands
are kept narrow enough that rounds for different seeds cost nearly the same,
while the values factored and checked still differ from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("window_high", "dense_interval", "ledger_sweep")

WINDOW_WIDTH = 3000
# (lowest base, highest base): one window near each end of [5e6, 3e7]
WINDOW_RUNGS = ((5_000_000, 5_500_000), (29_500_000, 30_000_000 - WINDOW_WIDTH))
RECORDS_SEGMENT = 32_768
CHAIN_GRID = "0,0.1,0.2,0.3,0.4,0.5"
# 1.2 pushes x^(1+delta) past 2^31 for every x the ledger workload draws
REFUSED_DELTA = 1.2


@dataclass(frozen=True)
class Request:
    """One CLI invocation: its argv after `python -m quadfactor`, the exit
    code it must return, and the n^2+1 values it factors and outputs."""

    kind: str
    argv: tuple[str, ...]
    expect_rc: int = 0
    values: int = 0


def _units(q: int) -> list[int]:
    return [a for a in range(1, q) if math.gcd(a, q) == 1]


def _window_high(rng: random.Random) -> list[Request]:
    out = []
    for label, (lo, hi) in zip(("low", "high"), WINDOW_RUNGS):
        base = rng.randrange(lo, hi)
        argv = ("sieve", "--lo", str(base), "--hi", str(base + WINDOW_WIDTH), "--workers", "1")
        out.append(Request(f"sieve_{label}", argv, values=WINDOW_WIDTH + 1))
    return out


def _dense_interval(rng: random.Random) -> list[Request]:
    n_max = rng.randrange(150_000, 155_000)
    x_cov = rng.randrange(50_000, 51_000)
    x_probe = rng.randrange(50_000, 51_000)
    return [
        Request(
            "records",
            ("records", "--n-max", str(n_max), "--segment-size", str(RECORDS_SEGMENT),
             "--workers", "2"),
            values=n_max - 1,
        ),
        Request(
            "coverage",
            ("coverage", "--x", str(x_cov), "--prime-powers", "--workers", "1"),
            values=x_cov,
        ),
        Request("probe", ("probe", "--x", str(x_probe), "--workers", "1"), values=x_probe),
    ]


def _ledger_sweep(rng: random.Random) -> list[Request]:
    x = rng.randrange(30_000, 31_000)
    q = rng.choice((3, 8, 12))
    a = rng.choice(_units(q))
    deltas = ("0", rng.choice(("0.2", "0.25", "0.3")), "0.5")
    sums = ["sums", "--x", str(x)]
    for d in deltas:
        sums += ["--delta", d]
    sums += ["--q", str(q), "--a", str(a), "--workers", "1"]
    x_chain = rng.randrange(10_000, 10_500)
    return [
        Request("sums", tuple(sums)),
        Request(
            "chain",
            ("chain", "--x", str(x_chain), "--delta-grid", CHAIN_GRID, "--workers", "1"),
        ),
        Request(
            "verify",
            ("verify", "counts", "--x", "20000", "--trials", "1000",
             "--seed", str(rng.randrange(1 << 30)), "--workers", "1"),
        ),
        Request(
            "sums_refused",
            ("sums", "--x", str(x), "--delta", deltas[1], "--delta", str(REFUSED_DELTA),
             "--workers", "1"),
            expect_rc=1,
        ),
    ]


_GENERATORS = {
    "window_high": _window_high,
    "dense_interval": _dense_interval,
    "ledger_sweep": _ledger_sweep,
}


def generate(workload: str, seed: int) -> list[Request]:
    """The request list of one workload round; a pure function of its inputs."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
