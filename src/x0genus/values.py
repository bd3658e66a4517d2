"""The set of attained genus values and its complement.

If n = g0(N) for some level N, then N < 12n + 18*sqrt(n) + 40 (a direct
consequence of the lower bound), so scanning all levels up to that bound
decides attainability for every n <= x at once.  The attained set is kept
as a bool array, one byte per candidate value.  The scan is what limits x:
attained_genera refuses any x above MISSED_MAX = 24,992,496, the largest x
whose scan_limit_for fits in DEFAULT_SCAN_CAPACITY levels.

Parity is governed by a short classification: g0(N) is even exactly when N
falls in one of six explicit families (small exceptional levels, four
prime-power shapes, and two 2*p**r / 4*p**r shapes).  family_members
enumerates each block's members constructively, and parity_verdict
compares them with the genus parity block by block.

Levels divisible by more than two distinct odd primes satisfy the stronger
congruence g0(N) = 1 (mod 2**(s-2)), s the number of those primes."""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Optional

import numpy as np

from .arith import multiples, primes_up_to, require_primes_up_to
from .genus import iter_blocks
from .scalar import DEFAULT_SCAN_CAPACITY, MISSED_MAX, scan_limit_for

EXCEPTIONAL_EVEN_LEVELS = frozenset({1, 2, 3, 4, 8, 16})


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
    if not 1 <= x <= MISSED_MAX:
        raise ValueError(
            f"need 1 <= x <= {MISSED_MAX}, got {x}: a larger x scans beyond "
            f"capacity {DEFAULT_SCAN_CAPACITY} levels"
        )
    attained = np.zeros(x + 1, dtype=bool)
    for blk in iter_blocks(1, scan_limit_for(x)):
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
    reads a factorization.  `primes` must hold every prime up to hi, and
    one that stops short raises ValueError; only the primes whose first
    power or whose higher powers can land in the window are read.
    """
    require_primes_up_to(primes, hi)
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
    primes = primes_up_to(limit)
    return [n for b in iter_blocks(1, limit)
            for n in b.where((b.genus % 2 == 0) != family_members(b.lo, b.hi, primes))]


@dataclass(frozen=True)
class ParityVerdict:
    """The parity classification checked over the levels 1..max."""

    max: int
    mismatches: tuple[int, ...]
    ok: bool


def parity_verdict(limit: int) -> ParityVerdict:
    """verify_parity_classification over [1, limit]: ok when no level mismatches."""
    mismatches = tuple(verify_parity_classification(limit))
    return ParityVerdict(limit, mismatches, not mismatches)


def odd_prime_counts(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """Number of distinct odd prime divisors of every level in [lo, hi].

    `primes` must hold every prime up to hi; one that stops short raises
    ValueError.
    """
    require_primes_up_to(primes, hi)
    odd = primes[np.searchsorted(primes, 3) : np.searchsorted(primes, hi, side="right")]
    return np.bincount(multiples(lo, hi, odd)[0], minlength=hi - lo + 1)


def power_of_two_congruence_check(limit: int) -> list[int]:
    """Levels <= limit violating g0(N) = 1 (mod 2**(s-2)).

    Only levels with s > 2 distinct odd prime divisors are in scope.
    Expected empty.
    """
    primes = primes_up_to(limit)

    def violations(blk):
        s = odd_prime_counts(blk.lo, blk.hi, primes)
        modulus_mask = (np.int64(1) << np.maximum(s - 2, 0)) - 1
        return blk.where((s > 2) & (((blk.genus - 1) & modulus_mask) != 0))

    return [n for blk in iter_blocks(1, limit) for n in violations(blk)]

