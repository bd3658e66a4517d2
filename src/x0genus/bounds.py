"""Lower and upper bounds on the genus, decided once per block.

The lower bound

    g0(N) >= (N - 5*sqrt(N) - 8) / 12

holds for every level, with equality exactly when N = p**2 for a prime
p = 1 (mod 12).  Both the bound and the equality test are decided in exact
integer arithmetic, never by comparing floats: with lhs = N - 8 - 12*g0(N),
the bound fails when lhs > 0 and lhs**2 > 25*N, and equality holds when
lhs > 0 and lhs**2 = 25*N (then 5 | lhs, so N is the square (lhs/5)**2).

The explicit upper bound, valid for N > 2, is

    g0(N) < N * e**gamma / (2*pi**2) * (loglog N + 2/loglog N).

Its coefficient is sharp: the limsup of g0(N)/(N loglog N), approached
along the primorials, equals e**gamma/(2*pi**2).

bound_reports decides both verdicts for a block; the scalar forms of the
two bounds, one level at a time, are the test oracles it is checked against.
bounds_verdict decides both, and 12*g0(N) <= mu(N), for 1..hi in one pass."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import primes_in_progression
from .genus import GenusBlock, iter_blocks

EXP_EULER_GAMMA = 1.7810724179901979
# e**gamma / (2*pi**2) = 0.0902276...
UPPER_BOUND_COEFF = EXP_EULER_GAMMA / (2 * math.pi**2)


@dataclass(frozen=True)
class BoundsReport:
    """A level flagged by bound_reports, which decides both verdicts once."""

    n: int
    genus: int
    lower_equality: bool
    is_violation: bool  # below the lower bound, or for n > 2 at or above the upper


@dataclass(frozen=True)
class BoundsVerdict:
    """The bound checks over the levels 1..max, decided by bounds_verdict."""

    max: int
    violations: tuple[int, ...]
    mu_over_12_violations: tuple[int, ...]
    equality_levels: tuple[int, ...]
    expected_equality_levels: tuple[int, ...]
    ok: bool


def bounds_verdict(hi: int) -> BoundsVerdict:
    """Both bounds and 12*g0(N) <= mu(N) over [1, hi], from one pass.

    ok: no level breaks any of them, and the equality cases are exactly
    the squares of primes p = 1 (mod 12) up to hi."""
    reports, mu12 = [], []
    for blk in iter_blocks(1, hi):
        reports += bound_reports(blk)
        mu12 += mu_over_12_violations(blk)
    violations = tuple(r.n for r in reports if r.is_violation)
    equality = tuple(r.n for r in reports if r.lower_equality)
    expected = tuple(expected_equality_levels(1, hi))
    ok = not violations and not mu12 and equality == expected
    return BoundsVerdict(hi, violations, tuple(mu12), equality, expected, ok)


def mu_over_12_bound_check(lo: int, hi: int) -> list[int]:
    """Levels in [lo, hi] with 12*g0(N) > mu(N).  Expected empty."""
    return [n for blk in iter_blocks(lo, hi) for n in mu_over_12_violations(blk)]


def check_bounds_range(lo: int, hi: int, threads: int = 1) -> list[BoundsReport]:
    """Scan [lo, hi]; report lower-bound equality cases and any violations.

    A clean scan returns only equality cases, which should be exactly the
    squares of primes congruent to 1 mod 12 inside the range.  `threads`
    is ignored; it is kept only because the benchmark's deep-windows
    workload (perfbench/workloads.py) passes it.
    """
    return [r for blk in iter_blocks(lo, hi) for r in bound_reports(blk)]


def mu_over_12_violations(blk: GenusBlock) -> list[int]:
    """The levels of one block with 12*g0(N) > mu(N)."""
    return blk.where(12 * blk.genus > blk.mu)


def bound_reports(blk: GenusBlock) -> list[BoundsReport]:
    """The equality cases and bound violations of one block.

    The upper bound holds with room to spare where it was sampled: over
    the primorials times every m < 200, up to 1e16, the level closest to it
    is the primorial N = 200,560,490,130 = 2*3*...*31, at 0.954 of the
    bound (g0(N) = 66,886,040,577).
    """
    n = blk.levels
    g = blk.genus
    # lhs**2 > 25*N decides the lower bound, but wraps int64 once lhs passes
    # 3.04e9; clamped at a cap whose square exceeds 25*N on the whole block,
    # lhs compares the same and its square stays below 2.6e17
    lhs = np.minimum(n - 8 - 12 * g, 5 * math.isqrt(blk.hi) + 5)
    bad = (lhs > 0) & (lhs * lhs > 25 * n)  # below the lower bound
    equality = (lhs > 0) & (lhs * lhs == 25 * n)
    big = slice(max(0, 3 - blk.lo), None)  # the levels n > 2
    ll = np.log(np.log(n[big]))
    bad[big] |= g[big] >= n[big] * UPPER_BOUND_COEFF * (ll + 2 / ll)
    return [
        BoundsReport(m, int(g[m - blk.lo]), bool(equality[m - blk.lo]), bool(bad[m - blk.lo]))
        for m in blk.where(bad | equality)
    ]


def expected_equality_levels(lo: int, hi: int) -> list[int]:
    """Squares of primes p = 1 (mod 12) within [lo, hi]."""
    return [p * p for p in primes_in_progression(12, 1, math.isqrt(hi)).tolist() if p * p >= lo]

