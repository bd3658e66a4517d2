"""Lower and upper bounds on the genus, and the primorial growth diagnostic.

The lower bound

    g0(N) >= (N - 5*sqrt(N) - 8) / 12

holds for every level, with equality exactly when N = p**2 for a prime
p = 1 (mod 12).  Both the bound and the equality test are decided in exact
integer arithmetic, never by comparing floats: with lhs = N - 8 - 12*g0(N),
the bound fails when lhs > 0 and lhs**2 > 25*N, and equality holds when
lhs > 0 and lhs**2 = 25*N (then 5 | lhs, so N is the square (lhs/5)**2).

The explicit upper bound, valid for N > 2, is

    g0(N) < N * e**gamma / (2*pi**2) * (loglog N + 2/loglog N).

Growth along primorials N_x = prod_{p <= x} p is where mu/N peaks; the
limsup of g0(N)/(N loglog N) equals e**gamma/(2*pi**2) and mu(N_x)/N_x
grows like (6 e**gamma / pi**2) log x.  Neither limit is reachable at desk
scale, so limsup_diagnostic exposes the finite-x ratios as a convergence
table rather than a pass/fail gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .arith import factorize, primes_up_to
from .genus import GenusBlock, breakdown_from_factorization, scan

EXP_EULER_GAMMA = 1.7810724179901979
# e**gamma / (2*pi**2) = 0.0902276...
UPPER_BOUND_COEFF = EXP_EULER_GAMMA / (2 * math.pi**2)
# 6 e**gamma / pi**2 = 1.0827621..., the growth constant of mu(N_x)/N_x per log x
MERTENS_COEFF = 6 * EXP_EULER_GAMMA / math.pi**2

# primorial(x) fits in 64 bits only up to x = 52 (largest prime 47)
PRIMORIAL_MAX_X = 52


@dataclass(frozen=True)
class BoundsReport:
    """Bound evaluation for one level (upper is undefined for n <= 2)."""

    n: int
    genus: int
    lower: float
    upper: float | None
    lower_equality: bool

    @property
    def is_violation(self) -> bool:
        violates_lower = not lower_bound_holds(self.n, self.genus)
        violates_upper = self.upper is not None and self.genus >= self.upper
        return violates_lower or violates_upper


def lower_bound(n: int) -> float:
    """(n - 5*sqrt(n) - 8) / 12 as a float (see the exact tests below)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return (n - 5 * math.sqrt(n) - 8) / 12


def lower_bound_holds(n: int, g: int) -> bool:
    """Exact test of 12*g >= n - 5*sqrt(n) - 8.

    Equivalent to: n - 8 - 12*g <= 0, or else (n - 8 - 12*g)^2 <= 25*n.
    """
    lhs = n - 8 - 12 * g
    return lhs <= 0 or lhs * lhs <= 25 * n


def lower_bound_equality(n: int, g: int) -> bool:
    """Exact test of 12*g = n - 5*sqrt(n) - 8 (requires n to be a square)."""
    s = math.isqrt(n)
    return s * s == n and 12 * g + 5 * s + 8 == n


def upper_bound(n: int) -> float:
    """n * e**gamma/(2*pi**2) * (loglog n + 2/loglog n), defined for n > 2."""
    if n <= 2:
        raise ValueError(f"upper bound is only stated for n > 2, got {n}")
    ll = math.log(math.log(n))
    return n * UPPER_BOUND_COEFF * (ll + 2 / ll)


def mu_over_12_bound_check(lo: int, hi: int) -> list[int]:
    """Levels in [lo, hi] with 12*g0(N) > mu(N).  Expected empty."""
    return scan(lo, hi, mu_over_12_violations)[0]


def check_bounds_range(lo: int, hi: int, threads: int = 1) -> list[BoundsReport]:
    """Scan [lo, hi]; report lower-bound equality cases and any violations.

    A clean scan returns only equality cases, which should be exactly the
    squares of primes congruent to 1 mod 12 inside the range.  `threads`
    is ignored; it is kept only because the benchmark's deep-windows
    workload (perfbench/workloads.py) passes it.
    """
    return scan(lo, hi, bound_reports)[0]


def mu_over_12_violations(blk: GenusBlock) -> list[int]:
    """The levels of one block with 12*g0(N) > mu(N)."""
    return blk.where(12 * blk.genus > blk.mu)


def bound_reports(blk: GenusBlock) -> list[BoundsReport]:
    """The equality cases and bound violations of one block."""
    n = blk.levels
    g = blk.genus
    # lhs**2 > 25*N decides the lower bound, but wraps int64 once lhs passes
    # 3.04e9; clamped at a cap whose square exceeds 25*N on the whole block,
    # lhs compares the same and its square stays below 2.6e17
    lhs = np.minimum(n - 8 - 12 * g, 5 * math.isqrt(blk.hi) + 5)
    lower_bad = (lhs > 0) & (lhs * lhs > 25 * n)
    equality = (lhs > 0) & (lhs * lhs == 25 * n)
    upper_bad = np.zeros(len(blk), dtype=bool)
    big = n > 2
    if np.any(big):
        ll = np.log(np.log(n[big]))
        upper_bad[big] = g[big] >= n[big] * UPPER_BOUND_COEFF * (ll + 2 / ll)
    return [
        BoundsReport(m, int(g[m - blk.lo]), lower_bound(m), upper_bound(m) if m > 2 else None,
                     bool(equality[m - blk.lo]))
        for m in blk.where(lower_bad | upper_bad | equality)
    ]


def expected_equality_levels(lo: int, hi: int) -> list[int]:
    """Squares of primes p = 1 (mod 12) within [lo, hi]."""
    ps = primes_up_to(math.isqrt(hi))
    return [int(p) ** 2 for p in ps[ps % 12 == 1] if lo <= int(p) ** 2 <= hi]


def primorial(x: int) -> int:
    """Product of all primes <= x; refuses x beyond the 64-bit range."""
    if x < 2:
        raise ValueError(f"need x >= 2, got {x}")
    if x > PRIMORIAL_MAX_X:
        raise ValueError(
            f"primorial({x}) overflows 64 bits; maximal admissible x is {PRIMORIAL_MAX_X}"
        )
    out = 1
    for p in primes_up_to(x):
        out *= int(p)
    return out


@dataclass(frozen=True)
class LimsupDiagnostic:
    """Finite-x snapshot of the two primorial growth ratios.

    mu_ratio   = mu(N_x) / (N_x * log x)        -> 6 e**gamma / pi**2
    genus_ratio = g0(N_x) / (N_x * loglog N_x)  -> e**gamma / (2*pi**2)
    """

    x: int
    primorial: int
    mu_ratio: float
    mu_limit: float
    genus_ratio: float
    genus_limit: float


def limsup_diagnostic(x: int) -> LimsupDiagnostic:
    nx = primorial(x)
    b = breakdown_from_factorization(factorize(nx))
    mu_ratio = b.mu / (nx * math.log(x))
    genus_ratio = b.genus / (nx * math.log(math.log(nx)))
    return LimsupDiagnostic(
        x=x,
        primorial=nx,
        mu_ratio=mu_ratio,
        mu_limit=MERTENS_COEFF,
        genus_ratio=genus_ratio,
        genus_limit=UPPER_BOUND_COEFF,
    )


def limsup_table(xs: Iterable[int] | None = None) -> list[LimsupDiagnostic]:
    """Diagnostic rows for each prime x (default: every prime up to 52)."""
    if xs is None:
        xs = [int(p) for p in primes_up_to(PRIMORIAL_MAX_X)]
    return [limsup_diagnostic(x) for x in xs]
