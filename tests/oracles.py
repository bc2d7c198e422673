"""Independent brute-force oracles used by the tests.

Everything here is deliberately written without touching the package code
paths it checks: one-shot (non-segmented) sieving, per-n interval scans, and
plain trial division.
"""

from __future__ import annotations

import math


def sieve_flags(limit: int) -> bytearray:
    """flags[n] == 1 iff n is prime, for 0 <= n <= limit."""
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            start = p * p
            flags[start :: p] = b"\x00" * ((limit - start) // p + 1)
    return flags


def simple_sieve(limit: int) -> list[int]:
    if limit < 2:
        return []
    flags = sieve_flags(limit)
    return [n for n in range(2, limit + 1) if flags[n]]


def smallest_factor_upto(n: int, limit: int) -> int | None:
    """Smallest divisor of n in [2, limit], or None."""
    d = 2
    while d <= limit:
        if n % d == 0:
            return d
        d += 1 if d == 2 else 2
    return None


def trial_division_factor(m: int) -> list[tuple[int, int]]:
    """Full factorization of m >= 1 by ascending trial division."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def scan_count(x: int, p: int) -> int:
    """Per-n scan of (x, 2x] for solutions of n^2 + 1 = 0 (mod p)."""
    return sum(1 for n in range(x + 1, 2 * x + 1) if (n * n + 1) % p == 0)


def scan_count_closed(x: int, p: int) -> int:
    """Same scan on the closed interval [x, 2x]."""
    return sum(1 for n in range(x, 2 * x + 1) if (n * n + 1) % p == 0)


def roots_of_minus_one(m: int) -> list[int]:
    """All r in [0, m) with r^2 + 1 = 0 (mod m), by exhaustive scan."""
    return [r for r in range(m) if (r * r + 1) % m == 0]


def totient(q: int) -> int:
    """Euler's phi by trial factorization (moduli here are tiny)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    result = q
    m = q
    d = 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result
