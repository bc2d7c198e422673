"""Three independent counts of n in (x, 2x] with p | n^2 + 1.

All intervals here are half-open (x, 2x]: the alternating floor sum is an
exact identity on that convention, while the closed interval [x, 2x] differs
by at most one (when n = x happens to be a solution).  Fractional parts are
kept as exact residues over p; nothing is rounded before comparison.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .modmath import RootPair

if TYPE_CHECKING:
    from fractions import Fraction


class SolutionCount(NamedTuple):
    """One (x, p) evaluation: exact count, floor-identity count, upper bound."""

    x: int
    p: int
    exact: int
    floor_identity: int
    bound: Fraction


def count_in_class(x: int, m: int, c: int) -> int:
    """Integers n in (x, 2x] with n = c (mod m), by stepping the progression."""
    if m < 1 or x < 0:
        raise ValueError("need m >= 1 and x >= 0")
    first = x + 1 + (c - x - 1) % m
    if first > 2 * x:
        return 0
    return (2 * x - first) // m + 1


def count_root_classes(x: int, m: int, r: int) -> int:
    """Count of n in (x, 2x] with n = r or n = -r (mod m), r in (0, m/2).

    The two classes are disjoint because 0 < 2r < m, so the counts add.
    count_exact uses it with m = p; the tests also call it with m = p^k and
    a Hensel-lifted root to count prime-power incidences.
    """
    if not 0 < 2 * r < m:
        raise ValueError(f"root {r} outside (0, {m}/2)")
    return count_in_class(x, m, r) + count_in_class(x, m, m - r)


def count_exact(x: int, root: RootPair) -> int:
    """Number of n in (x, 2x] with n^2 + 1 = 0 (mod p)."""
    return count_root_classes(x, root.p, root.b)


def count_by_floor_identity(x: int, root: RootPair) -> int:
    """The same count as an alternating sum of four floor terms."""
    return _floor_identity(x, root.p, root.b)


def _floor_identity(x, p, b):
    """The four-floor count of n in (x, 2x] with n = +-b (mod p), for ints or
    for int64 arrays p and b alike (the root rows of chebsums and verifier)."""
    return (2 * x - b) // p - (x - b) // p + (2 * x + b) // p - (x + b) // p


def count_upper_bound(x: int, root: RootPair) -> Fraction:
    """Exact rational upper bound (2x + ((x-b) mod p) + ((x+b) mod p)) / p.

    Dropping the two negative fractional terms of the floor identity leaves
    this bound, so bound - exact is a sum of two values in [0, 1).
    """
    from fractions import Fraction

    p, b = root.p, root.b
    return Fraction(2 * x + (x - b) % p + (x + b) % p, p)


def solution_count(x: int, root: RootPair) -> SolutionCount:
    """Bundle all three evaluations for one (x, p)."""
    return SolutionCount(
        x=x,
        p=root.p,
        exact=count_exact(x, root),
        floor_identity=count_by_floor_identity(x, root),
        bound=count_upper_bound(x, root),
    )
