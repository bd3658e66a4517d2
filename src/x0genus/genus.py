"""The segmented block sieve: the genus of every level in a window at once.

breakdown_block computes the five quantities of a scalar.GenusBreakdown
for every level of a window, up to LEVEL_MAX, with numpy, and raises
scalar.ConsistencyError where 12 does not divide a genus numerator; the
closed forms for one level are in scalar.py.  One routine, _lift, holds
the rule for how a prime power p**j changes mu, nu2, nu3 and nu_inf, and,
before the cofactor pass, multiplies p into the product stripped from
each level; the pre-sieved period of the powers of 2, 3, 5 and 7 dividing
5040, the small-prime pass of strided slices, the batched large-prime
passes and the cofactor pass only list the levels it applies to.
iter_blocks cuts a range into fixed-size segments and sieves them one
after another in the calling thread; every whole-range check is one plain
loop over such a pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, prod
from typing import Iterator

import numpy as np

from .arith import multiples, primes_up_to, require_primes_up_to
# genus is kept bound here, unread, for perfbench, which reads x0genus.genus.genus
from .scalar import LEVEL_MAX, ConsistencyError, GenusBreakdown, genus, theta

# Fixed segment width for batch scans.  It is a constant, not a parameter,
# because some aggregates depend on where the blocks are cut: average_partial
# fsums one float sum per block, so another width could change its last bits.
SEGMENT = 1 << 17

# breakdown_block applies each prime up to this one on its own, as strided
# slices of the window (after the pre-sieved powers below); a larger prime
# hits a segment at most SEGMENT / 2048 = 64 times, and all of those primes
# are sieved together (see multiples).
SMALL_PRIME_LIMIT = SEGMENT >> 6

# The prime powers p**e whose contribution to a level depends only on the
# level mod PERIOD = 2**4 * 3**2 * 5 * 7 = 5040.  breakdown_block copies
# them from one period sieved at import and starts each of these primes'
# strided slices at p**(e+1).
PRESIEVED = {2: 4, 3: 2, 5: 1, 7: 1}
PERIOD = prod(p**e for p, e in PRESIEVED.items())


@dataclass(frozen=True)
class GenusBlock:
    """Vectorized breakdowns for the contiguous window [lo, hi].

    Arrays are indexed by n - lo and carry exact int64 values.
    """

    lo: int
    hi: int
    mu: np.ndarray
    nu2: np.ndarray
    nu3: np.ndarray
    nu_inf: np.ndarray
    genus: np.ndarray

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    @property
    def levels(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1, dtype=np.int64)

    def breakdown(self, n: int) -> GenusBreakdown:
        i = n - self.lo
        if not 0 <= i < len(self):
            raise ValueError(f"{n} outside block [{self.lo}, {self.hi}]")
        return GenusBreakdown(
            n, int(self.mu[i]), int(self.nu2[i]), int(self.nu3[i]),
            int(self.nu_inf[i]), int(self.genus[i]),
        )

    def where(self, mask: np.ndarray) -> list[int]:
        """The levels at which a mask over the block is true, ascending."""
        return (np.nonzero(mask)[0] + self.lo).tolist()


def _require_levels(lo: int, hi: int) -> None:
    """Refuse a level range that is empty or leaves [1, LEVEL_MAX]."""
    if not 1 <= lo <= hi <= LEVEL_MAX:
        raise ValueError(f"need 1 <= lo <= hi <= LEVEL_MAX = {LEVEL_MAX}, got [{lo}, {hi}]")


def _lift(state, idx, p, j: int) -> None:
    """Apply the prime power p**j at the window indices idx, in place.

    state is the arrays (mu, nu2, nu3, nu_inf[, stripped]), p is one prime
    or one per index, and p**(j-1) is already applied there.  mu gains p + 1
    at j = 1 and p at every higher j.  At j = 1 nu2 gains 3 - p % 4 and nu3
    (p + 1) % 3: 2 for p = 1 mod 4 (mod 3), 0 for p = 3 mod 4 (2 mod 3), 1
    for p = 2 (p = 3).  At j = 2 nu2 gains p % 2 and nu3 sign(p % 3), 0
    only for p = 2 and p = 3.  nu_inf's theta(p, j-1) becomes theta(p, j),
    and stripped, if state carries it, gains p.

    idx is a slice, whose indices are distinct, or an index array.  A slice
    is updated in place through a view.  An array goes through ufunc.at,
    which is unbuffered, so a repeated index, a level that several primes
    divide, gets every update; the factors are ints because bool ones send
    ufunc.at down a slow path.
    """
    mu, nu2, nu3, nu_inf, *stripped = state
    if isinstance(idx, slice):
        def at(ufunc, a, f):
            view = a[idx]
            ufunc(view, f, out=view)
    else:
        def at(ufunc, a, f):
            ufunc.at(a, idx, f)

    if j == 1:
        at(np.multiply, mu, p + 1)
        at(np.multiply, nu2, 3 - p % 4)
        at(np.multiply, nu3, (p + 1) % 3)
    else:
        at(np.multiply, mu, p)
        if j == 2:
            at(np.multiply, nu2, p % 2)
            at(np.multiply, nu3, np.sign(p % 3))
        at(np.floor_divide, nu_inf, theta(p, j - 1))
    at(np.multiply, nu_inf, theta(p, j))
    if stripped:
        at(np.multiply, stripped[0], p)


def _period() -> np.ndarray:
    """The pre-sieved powers over two periods, as a read-only (5, 2*PERIOD) array.

    Columns i and PERIOD + i hold the five arrays of _lift's state as the
    powers in PRESIEVED leave them at a level N = i (mod PERIOD): a power
    p**j, j <= PRESIEVED[p], divides N exactly when it divides i, and 0 is
    divisible by all of them, so the product stripped ends at gcd(N,
    PERIOD).  With two periods side by side, a whole period starting at any
    phase is one slice.
    """
    table = np.ones((5, PERIOD), dtype=np.int64)
    for p, e in PRESIEVED.items():
        for j in range(1, e + 1):
            _lift(table, slice(0, PERIOD, p**j), p, j)
    table = np.concatenate([table, table], axis=1)
    table.flags.writeable = False
    return table


_PERIOD = _period()


def breakdown_block(lo: int, hi: int, primes: np.ndarray | None = None) -> GenusBlock:
    """Compute all five quantities for every level in [lo, hi] at once.

    A segmented multiplicative sieve: _lift applies every power p**j of
    every prime p <= sqrt(hi) at the levels it divides, and multiplies the
    product stripped from each level by p.  Dividing the levels by that
    product, into its own buffer, leaves 1 or one prime above sqrt(hi),
    applied last to mu, nu2, nu3 and nu_inf alone.
    The powers p**e in PRESIEVED come first, from a tiled copy of the
    period sieved at import.  Small primes, p <= SMALL_PRIME_LIMIT, hit
    many levels each and go in one power at a time, from p**(e+1) for a
    pre-sieved p and from p for the others, as in-place updates of strided
    slices.  Large primes hit a window a few times or not at all, so
    multiples lists the hits of all of them at once, one pass per exponent
    j over the primes whose p**(j-1) divides some level.  `primes`, when
    given, must hold every prime up to isqrt(hi) (more are ignored); one
    that stops short raises ValueError, and so does a range _require_levels
    refuses.

    Every update is exact integer arithmetic, each division exact, so the
    order in which primes, or the hits of one pass, are applied cannot
    change a value, and no intermediate exceeds the level's final value.
    """
    _require_levels(lo, hi)
    if primes is None:
        primes = primes_up_to(isqrt(hi))
    else:
        require_primes_up_to(primes, isqrt(hi))
    primes = primes[: np.searchsorted(primes, isqrt(hi), side="right")]
    n_small = np.searchsorted(primes, SMALL_PRIME_LIMIT, side="right")
    size = hi - lo + 1
    # the pre-sieved powers, copied in a period at a time from the phase of
    # lo, leave stripped = gcd(N, PERIOD); the other small primes follow
    # one at a time, one strided slice per power p**j.  stripped is not a
    # row of quad, so the block's arrays do not keep it alive.
    quad = np.empty((4, size), dtype=np.int64)
    stripped = np.empty(size, dtype=np.int64)
    offset = lo % PERIOD
    for k in range(0, size, PERIOD):
        phase = slice(offset, offset + min(PERIOD, size - k))
        quad[:, k : k + PERIOD] = _PERIOD[:4, phase]
        stripped[k : k + PERIOD] = _PERIOD[4, phase]
    state = (*quad, stripped)
    for p in primes[:n_small].tolist():
        j = PRESIEVED.get(p, 0) + 1
        pj = p**j
        while pj <= hi and (first := -lo % pj) < size:
            _lift(state, slice(first, size, pj), p, j)
            pj, j = pj * p, j + 1

    # large primes all at once, one pass per exponent j
    large = primes[n_small:]
    pj, j = large, 1
    while large.size:
        idx, owner, hit = multiples(lo, hi, pj)
        _lift(state, idx, large[owner], j)
        # p**(j+1) can divide a level only if p**j did
        large, pj = large[hit], pj[hit]
        keep = pj <= hi // large
        large, pj = large[keep], pj[keep] * large[keep]
        j += 1

    # leftover cofactor is 1 or a prime > sqrt(hi), always to the first power
    cofactor = np.floor_divide(np.arange(lo, hi + 1, dtype=np.int64), stripped, out=stripped)
    idx = np.nonzero(cofactor > 1)[0]
    _lift(quad, idx, cofactor[idx], 1)
    mu_a, nu2_a, nu3_a, nui_a = quad

    twelve_g = mu_a - 3 * nu2_a - 4 * nu3_a - 6 * nui_a + 12
    if np.any(twelve_g % 12):
        bad = int(np.nonzero(twelve_g % 12)[0][0]) + lo
        raise ConsistencyError(f"12 does not divide genus numerator at n={bad}")
    g = twelve_g // 12
    if np.any(g < 0):
        bad = int(np.nonzero(g < 0)[0][0]) + lo
        raise ConsistencyError(f"negative genus at n={bad}")
    return GenusBlock(lo, hi, mu_a, nu2_a, nu3_a, nui_a, g)


def iter_blocks(lo: int, hi: int, threads: int = 1) -> Iterator[GenusBlock]:
    """Breakdown blocks covering [lo, hi] in order, one per SEGMENT.

    The range is checked at the call, before any prime is sieved: one that
    is empty or leaves [1, LEVEL_MAX] raises ValueError there, not at the
    first block.  The primes up to isqrt(hi) are sieved once for the pass.
    `threads` is ignored; it is kept only because the benchmark's trace
    wrapper (perfbench/spans.py) reads that argument.
    """
    _require_levels(lo, hi)
    primes = primes_up_to(isqrt(hi))
    return (breakdown_block(a, min(a + SEGMENT - 1, hi), primes)
            for a in range(lo, hi + 1, SEGMENT))
