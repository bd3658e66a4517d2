"""The set of attained genus values and its complement.

If n = g0(N) for some level N, then N < 12n + 18*sqrt(n) + 40 (a direct
consequence of the lower bound), so scanning all levels up to that bound
decides attainability for every n <= x at once.  The attained set is kept
as a bitmap: one bit per candidate value, so x = 10**8 is still feasible.

Parity is governed by a short classification: g0(N) is even exactly when N
falls in one of six explicit families (small exceptional levels, four
prime-power shapes, and two 2*p**r / 4*p**r shapes).  The classification is
implemented both as a per-level predicate and as a constructive enumeration
of each block's members, checked against the genus parity block by block.

Levels divisible by more than two distinct odd primes satisfy the stronger
congruence g0(N) = 1 (mod 2**(s-2)), s the number of those primes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, log
from typing import Optional

import numpy as np

from .arith import factorize, multiples, primes_up_to
from .genus import iter_blocks, scan

# attained_genera refuses scans past this many levels (time, not memory)
DEFAULT_SCAN_CAPACITY = 3 * 10**8

EXCEPTIONAL_EVEN_LEVELS = frozenset({1, 2, 3, 4, 8, 16})


def scan_limit_for(x: int) -> int:
    """Smallest level budget guaranteeing completeness for values up to x.

    ceil(12x + 18*sqrt(x) + 40) with sqrt rounded up, plus one defensively;
    the underlying inequality is strict, so rounding up is the safe side.
    """
    s = isqrt(x)
    if s * s < x:
        s += 1
    return 12 * x + 18 * s + 40 + 1


@dataclass(frozen=True)
class MissedValuesReport:
    """Positive integers up to x that are not the genus of any level."""

    x: int
    scan_limit: int
    missed: tuple[int, ...]
    attained_count: int
    odd_missed: tuple[int, ...]
    first_odd_position: Optional[int]  # 1-based index into missed


def attained_genera(x: int) -> np.ndarray:
    """Bitmap over [0, x]: bit n set iff some level has genus n.

    Completeness is guaranteed by scanning every level below
    scan_limit_for(x).
    """
    if x < 1:
        raise ValueError(f"need x >= 1, got {x}")
    limit = scan_limit_for(x)
    if limit > DEFAULT_SCAN_CAPACITY:
        raise ValueError(
            f"x={x} needs a scan over {limit} levels, beyond capacity {DEFAULT_SCAN_CAPACITY}"
        )
    attained = np.zeros(x + 1, dtype=bool)
    for blk in iter_blocks(1, limit):
        g = blk.genus
        attained[g[g <= x]] = True
    return attained


def missed_values(x: int) -> MissedValuesReport:
    """Complement of the attained set within [1, x], with parity bookkeeping.

    Zero is attained (level 1 has genus 0) and excluded from the counts,
    which cover positive n only.
    """
    attained = attained_genera(x)
    missed = np.nonzero(~attained[1:])[0] + 1
    odd = missed[missed % 2 == 1]
    first_odd = None
    if len(odd):
        first_odd = int(np.searchsorted(missed, odd[0])) + 1
    return MissedValuesReport(
        x=x,
        scan_limit=scan_limit_for(x),
        missed=tuple(int(v) for v in missed),
        attained_count=x - len(missed),
        odd_missed=tuple(int(v) for v in odd),
        first_odd_position=first_odd,
    )


@dataclass(frozen=True)
class ParityFamily:
    """Which of the six even-genus families a level belongs to, if any."""

    family_id: Optional[int]
    witness: str


def _matching_families(n: int) -> list[tuple[int, str]]:
    matches: list[tuple[int, str]] = []
    if n in EXCEPTIONAL_EVEN_LEVELS:
        matches.append((1, f"n = {n}, one of {sorted(EXCEPTIONAL_EVEN_LEVELS)}"))
    factors = factorize(n).factors
    if len(factors) == 1:
        p, r = factors[0]
        if p % 8 == 5:
            matches.append((2, f"n = {p}^{r} with {p} = 5 (mod 8)"))
        if p % 8 == 7 and r % 2 == 1:
            matches.append((3, f"n = {p}^{r} with {p} = 7 (mod 8), odd exponent"))
        if p % 8 == 3 and r % 2 == 0:
            matches.append((4, f"n = {p}^{r} with {p} = 3 (mod 8), even exponent"))
    elif len(factors) == 2 and factors[0][0] == 2:
        two_exp = factors[0][1]
        p, r = factors[1]
        if two_exp == 1 and p % 8 in (3, 5):
            matches.append((5, f"n = 2 * {p}^{r} with {p} = +-3 (mod 8)"))
        if two_exp == 2 and p % 4 == 3 and r % 2 == 1:
            matches.append((6, f"n = 4 * {p}^{r} with {p} = 3 (mod 4), odd exponent"))
    return matches


def even_genus_family(n: int) -> ParityFamily:
    """Classify n among the six families with even genus (or none)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    matches = _matching_families(n)
    if not matches:
        return ParityFamily(None, "no family matches; genus is odd")
    if len(matches) > 1:
        # the six cases are mutually exclusive by construction
        raise RuntimeError(f"families {[m[0] for m in matches]} overlap at n={n}")
    fid, witness = matches[0]
    return ParityFamily(fid, witness)


def _in_family(m: int, r: int, p: np.ndarray) -> np.ndarray:
    """Which levels m * p**r, m in (1, 2, 4), lie in families 2-6 (False at p = 2)."""
    p8 = p % 8
    if m == 1:  # families 2, 3 and 4
        return (p8 == 5) | (p8 == (7 if r % 2 else 3))
    if m == 2:  # family 5
        return (p8 == 3) | (p8 == 5)
    return (p8 % 4 == 3) & bool(r % 2)  # family 6


def family_members(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """Bool array over [lo, hi]: constructive enumeration of all six families.

    Enumerating members directly (primes and their powers) is far cheaper
    than classifying every level, and gives a route to parity that never
    reads a factorization.  `primes` must hold every prime up to hi; only
    the primes whose first power or whose higher powers can land in the
    window are read.
    """
    member = np.zeros(hi - lo + 1, dtype=bool)
    member[[n - lo for n in EXCEPTIONAL_EVEN_LEVELS if lo <= n <= hi]] = True
    for m in (1, 2, 4):
        first, top = -(-lo // m), hi // m  # m * p**r in [lo, hi] iff p**r in [first, top]
        ps = primes[np.searchsorted(primes, first) : np.searchsorted(primes, top, side="right")]
        member[m * ps[_in_family(m, 1, ps)] - lo] = True
        ps = primes[: np.searchsorted(primes, isqrt(top), side="right")]
        pr, r = ps * ps, 2
        while ps.size:
            member[m * pr[(pr >= first) & _in_family(m, r, ps)] - lo] = True
            more = pr <= top // ps
            ps, pr, r = ps[more], pr[more] * ps[more], r + 1
    return member


def verify_parity_classification(limit: int) -> list[int]:
    """Levels <= limit where family membership disagrees with genus parity.

    Expected empty.
    """
    if limit < 1:
        raise ValueError(f"need limit >= 1, got {limit}")
    primes = primes_up_to(limit)
    return scan(1, limit,
                lambda b: b.where((b.genus % 2 == 0) != family_members(b.lo, b.hi, primes)))[0]


def odd_prime_counts(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """Number of distinct odd prime divisors of every level in [lo, hi].

    `primes` must hold every prime up to hi.
    """
    odd = primes[np.searchsorted(primes, 3) : np.searchsorted(primes, hi, side="right")]
    return np.bincount(multiples(lo, hi, odd)[0], minlength=hi - lo + 1)


def power_of_two_congruence_check(limit: int) -> list[int]:
    """Levels <= limit violating g0(N) = 1 (mod 2**(s-2)).

    Only levels with s > 2 distinct odd prime divisors are in scope.
    Expected empty.
    """
    if limit < 1:
        raise ValueError(f"need limit >= 1, got {limit}")
    primes = primes_up_to(limit)

    def violations(blk):
        s = odd_prime_counts(blk.lo, blk.hi, primes)
        modulus_mask = (np.int64(1) << np.maximum(s - 2, 0)) - 1
        return blk.where((s > 2) & (((blk.genus - 1) & modulus_mask) != 0))

    return scan(1, limit, violations)[0]


def even_attained_count(x: int) -> tuple[int, float]:
    """Count of even attained values in [1, x], and its ratio to x/log x.

    The ratio is a slow-convergence diagnostic (the count is asymptotically
    proportional to x/log x); it is reported, never gated.
    """
    attained = attained_genera(x)
    count = int(np.count_nonzero(attained[2::2]))
    return count, count / (x / log(x))
