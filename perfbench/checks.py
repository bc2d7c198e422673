"""Output checks for every request kind, against oracles outside the package.

Nothing here imports quadfactor.  Primality comes from sympy, roots of -1
from sympy's sqrt_mod, and largest prime factors from an independent numpy
sieve over n^2+1.  Each check raises CheckError on the first violation and
otherwise returns {"rows": data rows, "terms": ledger terms (sums only)}.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

import numpy as np
from sympy import isprime
from sympy.ntheory import sqrt_mod

from workloads import Request

REL_TOL = 1e-9


class CheckError(Exception):
    """A request's exit code or output disagrees with the oracle."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def _arg(argv: tuple[str, ...], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _args(argv: tuple[str, ...], flag: str) -> list[str]:
    return [argv[i + 1] for i, tok in enumerate(argv) if tok == flag]


def _table(out: str, header: tuple[str, ...]) -> list[list[str]]:
    lines = out.splitlines()
    _require(bool(lines), "empty output")
    _require(tuple(lines[0].split(",")) == header, f"unexpected header {lines[0]!r}")
    return [line.split(",") for line in lines[1:]]


# --- oracles ------------------------------------------------------------------


def prime_array(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, by a one-shot Eratosthenes sieve."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0]


def largest_prime_factors(lo: int, hi: int) -> np.ndarray:
    """P(n^2+1) for n = lo..hi (2 <= lo, hi^2+1 < 2^63).

    Divides n^2+1 by every prime p <= hi along the classes n = r (mod p) with
    r^2 = -1 (mod p).  A cofactor left above 1 has every prime factor above
    hi >= n, and two such factors would exceed n^2+1, so it is prime.
    """
    n = np.arange(lo, hi + 1, dtype=np.int64)
    rest = n * n + 1
    lpf = np.ones_like(rest)
    for p in prime_array(hi).tolist():
        if p % 4 == 3:
            continue
        for r in sqrt_mod(-1, p, all_roots=True):
            view = rest[(r - lo) % p :: p]
            if view.size == 0:
                continue
            lpf[(r - lo) % p :: p] = p
            hit = np.ones(view.size, dtype=bool)
            while hit.any():
                view[hit] //= p
                hit = view % p == 0
    return np.maximum(lpf, rest)


def lhs_logsum(x: int) -> float:
    """sum(log(n^2+1)) over x < n <= 2x, correctly rounded."""
    return math.fsum(math.log(n * n + 1) for n in range(x + 1, 2 * x + 1))


def mertens(primes: np.ndarray, cutoff: int, q: int, a: int) -> tuple[float, int]:
    """(sum of log p / p, count) over p <= cutoff with p = a (mod q)."""
    sel = primes[(primes <= cutoff) & (primes % q == a % q)].astype(np.float64)
    return math.fsum((np.log(sel) / sel).tolist()), int(sel.size)


# --- per-subcommand checks ------------------------------------------------------


def _check_factor_row(n: int, factorization: str, largest: int, exponent: float,
                      primes_seen: dict[int, bool]) -> None:
    product = 1
    last = 1
    for item in factorization.split(";"):
        p_txt, _, e_txt = item.partition("^")
        p, e = int(p_txt), int(e_txt)
        _require(p > last and e >= 1, f"n={n}: factor {item} out of order")
        if p not in primes_seen:
            primes_seen[p] = isprime(p)
        _require(primes_seen[p], f"n={n}: factor {p} is not prime")
        product *= p**e
        last = p
    _require(product == n * n + 1, f"n={n}: factors multiply to {product}, not n^2+1")
    _require(largest == last, f"n={n}: largest_prime {largest} is not the top factor {last}")
    _require(_close(exponent, math.log(last) / math.log(n)), f"n={n}: exponent {exponent}")


def check_sieve(req: Request, out: str) -> dict:
    lo, hi = int(_arg(req.argv, "--lo")), int(_arg(req.argv, "--hi"))
    rows = _table(out, ("n", "n2p1", "factorization", "largest_prime", "exponent"))
    _require(len(rows) == hi - lo + 1, f"{len(rows)} rows for [{lo}, {hi}]")
    primes_seen: dict[int, bool] = {}
    for i, (n_txt, v_txt, fac, lp_txt, ex_txt) in enumerate(rows):
        n = lo + i
        _require(int(n_txt) == n, f"row {i}: n={n_txt}, expected {n}")
        _require(int(v_txt) == n * n + 1, f"n={n}: n2p1={v_txt}")
        _check_factor_row(n, fac, int(lp_txt), float(ex_txt), primes_seen)
    return {"rows": len(rows), "terms": 0}


def check_records(req: Request, out: str) -> dict:
    n_max = int(_arg(req.argv, "--n-max"))
    rows = _table(out, ("n", "largest_prime", "exponent", "is_record"))
    _require(len(rows) == n_max - 1, f"{len(rows)} rows for n_max={n_max}")
    cols = list(zip(*rows))
    n = np.array(cols[0], dtype=np.int64)
    lp = np.array(cols[1], dtype=np.int64)
    _require(bool((n == np.arange(2, n_max + 1)).all()), "n column is not 2..n_max")
    _require(bool(((n * n + 1) % lp == 0).all()), "a largest_prime does not divide n^2+1")
    for p in lp[::101].tolist():
        _require(isprime(p), f"largest_prime {p} is not prime")
    oracle = largest_prime_factors(2, n_max)
    bad = np.nonzero(lp != oracle)[0]
    if bad.size:
        i = int(bad[0])
        raise CheckError(f"n={int(n[i])}: largest_prime {int(lp[i])}, oracle {int(oracle[i])}")
    exponent = np.array(cols[2], dtype=np.float64)
    expect = np.log(oracle) / np.log(n)
    _require(bool((np.abs(exponent - expect) <= REL_TOL * expect).all()), "exponent column")
    prior = np.concatenate(([0], np.maximum.accumulate(oracle)[:-1]))
    is_record = np.array([v == "true" for v in cols[3]])
    _require(bool((is_record == (oracle > prior)).all()), "is_record column")
    return {"rows": len(rows), "terms": 0}


def check_probe(req: Request, out: str) -> dict:
    x = int(_arg(req.argv, "--x"))
    rows = _table(out, ("x", "max_prime", "arg_n", "exponent", "in_interval"))
    _require(len(rows) == 1, "probe must emit one row")
    _, mp_txt, n_txt, ex_txt, in_txt = rows[0]
    max_prime, arg_n = int(mp_txt), int(n_txt)
    lpf = largest_prime_factors(x + 1, 2 * x)
    _require(max_prime == int(lpf.max()), f"max_prime {max_prime} is not the oracle maximum")
    _require(x < arg_n <= 2 * x, f"arg_n {arg_n} outside (x, 2x]")
    _require((arg_n * arg_n + 1) % max_prime == 0, "max_prime does not divide arg_n^2+1")
    _require(isprime(max_prime), f"max_prime {max_prime} is not prime")
    _require(in_txt == ("true" if max_prime**2 >= x**3 else "false"), "in_interval")
    _require(_close(float(ex_txt), math.log(max_prime) / math.log(x)), "exponent")
    return {"rows": 1, "terms": 0}


def check_coverage(req: Request, out: str) -> dict:
    x = int(_arg(req.argv, "--x"))
    rows = _table(out, ("x", "y", "C", "rho", "with_prime_powers"))
    _require(len(rows) == 12, f"{len(rows)} coverage rows, expected 12")
    ys = [int(r[1]) for r in rows]
    cs = [float(r[2]) for r in rows]
    rhos = [float(r[3]) for r in rows]
    _require(all(int(r[0]) == x and r[4] == "true" for r in rows), "x / with_prime_powers")
    _require(ys == sorted(ys) and ys[-1] == 4 * x * x + 1, "y grid")
    _require(cs == sorted(cs) and rhos == sorted(rhos), "curve is not monotone")
    _require(abs(rhos[-1] - 1.0) <= REL_TOL, f"final rho {rhos[-1]} is not 1")
    _require(_close(cs[-1], lhs_logsum(x)), "final C differs from sum log(n^2+1)")
    return {"rows": len(rows), "terms": 0}


def check_chain(req: Request, out: str) -> dict:
    x = int(_arg(req.argv, "--x"))
    grid = [float(v) for v in _arg(req.argv, "--delta-grid").split(",")]
    header = ("x", "delta", "cutoff", "lhs_exact", "lhs_main_term", "lambda_side",
              "n_trunc", "R", "S", "margin", "margin_exact")
    rows = _table(out, header)
    _require(len(rows) == len(grid), f"{len(rows)} chain rows for {len(grid)} deltas")
    lhs = lhs_logsum(x)
    for row, delta in zip(rows, grid):
        _, d, _, exact, main, lam, n_trunc, r, s, margin, margin_exact = (
            float(v) for v in row
        )
        _require(int(row[0]) == x and d == delta, f"row {row[:2]} out of grid")
        _require(_close(lam, exact), f"delta={d}: lambda_side {lam} != lhs_exact {exact}")
        _require(_close(exact, lhs), f"delta={d}: lhs_exact {exact} != oracle {lhs}")
        _require(n_trunc <= r + s, f"delta={d}: n_trunc {n_trunc} > R+S {r + s}")
        _require(_close(main, 2.0 * x * math.log(x)), f"delta={d}: lhs_main_term")
        _require(abs(margin - (main - (r + s))) <= REL_TOL * main, f"delta={d}: margin")
        _require(abs(margin_exact - (exact - n_trunc)) <= REL_TOL * exact, "margin_exact")
    return {"rows": len(rows), "terms": 0}


def check_sums(req: Request, out: str) -> dict:
    x = int(_arg(req.argv, "--x"))
    deltas = [float(v) for v in _args(req.argv, "--delta")]
    q, a = int(_arg(req.argv, "--q")), int(_arg(req.argv, "--a"))
    header = ("x", "delta", "cutoff", "R", "S", "residual_R", "residual_S",
              "term_count", "q", "a", "mertens")
    rows = _table(out, header)
    _require(len(rows) == len(deltas), f"{len(rows)} sums rows for {len(deltas)} deltas")
    primes = prime_array(int(x ** (1 + max(deltas))) + 2)
    xlogx = x * math.log(x)
    terms = 0
    for row, delta in zip(rows, deltas):
        cutoff, count = int(row[2]), int(row[7])
        r, s, res_r, res_s, m_qa = (float(row[i]) for i in (3, 4, 5, 6, 10))
        _require(int(row[0]) == x and float(row[1]) == delta, f"row {row[:2]}")
        _require(abs(cutoff - x ** (1 + delta)) <= 1, f"delta={delta}: cutoff {cutoff}")
        m41, n41 = mertens(primes, cutoff, 4, 1)
        _require(count == n41, f"delta={delta}: term_count {count}, oracle {n41}")
        _require(_close(r, 2.0 * x * m41), f"delta={delta}: R {r}, oracle {2.0 * x * m41}")
        _require(abs(res_r - (r - (1 + delta) * xlogx)) <= REL_TOL * r, "residual_R")
        _require(s >= 0 and abs(res_s - (s - delta * xlogx)) <= REL_TOL * max(s, 1.0),
                 f"delta={delta}: S / residual_S")
        _require((int(row[8]), int(row[9])) == (q, a), "q / a columns")
        _require(_close(m_qa, mertens(primes, cutoff, q, a)[0]), f"delta={delta}: mertens")
        terms += count
    return {"rows": len(rows), "terms": terms}


def check_verify_counts(req: Request, out: str) -> dict:
    x_max, trials = int(_arg(req.argv, "--x")), int(_arg(req.argv, "--trials"))
    header = ("trial", "x", "p", "b", "exact", "floor_identity", "bound_num",
              "bound_den", "identity_ok", "bound_ok")
    rows = _table(out, header)
    _require(len(rows) == trials, f"{len(rows)} rows for {trials} trials")
    for i, row in enumerate(rows):
        trial, x, p, b, exact, floor_id, num, den = (int(v) for v in row[:8])
        _require(trial == i and 1 <= x <= x_max, f"trial {i}: index / x")
        _require(p % 4 == 1 and isprime(p), f"trial {i}: p={p}")
        _require(0 < 2 * b < p and (b * b + 1) % p == 0, f"trial {i}: b={b} is no root")
        residues = np.arange(x + 1, 2 * x + 1, dtype=np.int64) % p
        oracle = int(((residues == b) | (residues == p - b)).sum())
        _require(exact == oracle == floor_id, f"trial {i}: counts {exact}/{floor_id}, oracle {oracle}")
        bound = Fraction(2 * x + (x - b) % p + (x + b) % p, p)
        _require(Fraction(num, den) == bound and bound >= exact, f"trial {i}: bound")
        _require(row[8] == row[9] == "true", f"trial {i}: flags")
    return {"rows": len(rows), "terms": 0}


def check_help(req: Request, out: str) -> dict:
    _require(out.startswith("usage:"), "help text missing")
    return {"rows": 0, "terms": 0}


_CHECKS: dict[str, Callable[[Request, str], dict]] = {
    "sieve": check_sieve,
    "records": check_records,
    "probe": check_probe,
    "coverage": check_coverage,
    "chain": check_chain,
    "sums": check_sums,
    "verify": check_verify_counts,
}


def check(req: Request, rc: int, out: str) -> dict:
    """Check one finished request; raise CheckError if it is wrong."""
    _require(rc == req.expect_rc, f"{req.kind}: exit code {rc}, expected {req.expect_rc}")
    if rc != 0:
        return {"rows": 0, "terms": 0}
    if "--help" in req.argv:
        return check_help(req, out)
    return _CHECKS[req.argv[0]](req, out)
