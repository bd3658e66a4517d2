"""Exact genus of the modular curve X0(N).

The genus is assembled from four multiplicative quantities:

    g0(N) = 1 + mu/12 - nu2/4 - nu3/3 - nu_inf/2

where mu is the index of the level-N congruence subgroup in SL2(Z), nu2 and
nu3 count solutions in Z/NZ of x^2 + 1 = 0 and x^2 + x + 1 = 0, and nu_inf
counts cusps.  Each has a closed form over the prime factorization of N,
and breakdown_from_factorization, the one scalar routine, evaluates all
four in one pass over the factors; the test suite checks it against
brute-force counts (exhaustive residue scans and divisor sums).

All arithmetic is integer-exact: the genus is computed from the identity
12*(g - 1) = mu - 3*nu2 - 4*nu3 - 6*nu_inf, whose left side must be
divisible by 12.  A divisibility failure signals a formula bug and raises
ConsistencyError rather than rounding.

For batch ranges there is a segmented, numpy-vectorized sieve
(breakdown_block / iter_blocks) that computes all five quantities for every
level in a window, up to LEVEL_MAX.  One routine, _lift, holds the rule for
how a prime power p**j changes mu, nu2, nu3 and nu_inf, and, before the
cofactor pass, multiplies p into the product stripped from each level; the
pre-sieved period of the powers of 2, 3, 5 and 7 dividing 5040, the
small-prime pass of strided slices, the batched large-prime passes and the
cofactor pass only list the levels it applies to.  iter_blocks cuts a range
into fixed-size segments and sieves them one after another in the calling
thread; every whole-range check is one plain loop over such a pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, prod
from typing import Iterator

import numpy as np

from .arith import Factorization, factorize, multiples, primes_up_to, require_primes_up_to

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

# The highest level the block sieve accepts.  Its primes up to 1e8 still
# sieve in seconds, and int64 mu stays exact (it wraps near N = 2.09e18).
LEVEL_MAX = 10**16


class ConsistencyError(RuntimeError):
    """Internal identity 12 | mu - 3*nu2 - 4*nu3 - 6*nu_inf failed."""


@dataclass(frozen=True)
class GenusBreakdown:
    """The quintuple (mu, nu2, nu3, nu_inf, genus) for one level n."""

    n: int
    mu: int
    nu2: int
    nu3: int
    nu_inf: int
    genus: int

    def __post_init__(self):
        if 12 * (self.genus - 1) != self.mu - 3 * self.nu2 - 4 * self.nu3 - 6 * self.nu_inf:
            raise ConsistencyError(f"breakdown identity fails at n={self.n}")


def theta(p: int, r: int) -> int:
    """Cusp count contribution of one prime power p**r.

    theta(p, 2R+1) = 2 * p**R    and    theta(p, 2R) = (p+1) * p**(R-1).
    """
    if r < 1:
        raise ValueError(f"exponent must be >= 1, got {r}")
    if r % 2:
        return 2 * p ** (r // 2)
    return (p + 1) * p ** (r // 2 - 1)


def breakdown_from_factorization(f: Factorization) -> GenusBreakdown:
    """The breakdown of f.n from its closed forms, in one pass over the factors.

    mu = prod (p+1) * p**(e-1) is the index of the level-n subgroup, and
    nu_inf = prod theta(p, e) the number of cusps.  nu2, the number of
    solutions of x^2 + 1 = 0 in Z/nZ, is 0 when 4 | n or some prime factor
    is 3 mod 4, and otherwise 2**s with s the number of prime factors that
    are 1 mod 4; the prime 2 to the first power neither kills the count nor
    doubles it.  nu3, the number of solutions of x^2 + x + 1 = 0, is 0 when
    9 | n or some prime factor is 2 mod 3, and otherwise 2**t with t the
    number of prime factors that are 1 mod 3; the prime 3 behaves like 2 in
    nu2.  GenusBreakdown raises if 12 does not divide the numerator.
    """
    m = n2 = n3 = ni = 1
    for p, e in f.factors:
        m *= (p + 1) * p ** (e - 1)
        ni *= theta(p, e)
        if p == 2 and e >= 2 or p % 4 == 3:
            n2 = 0
        elif p != 2:
            n2 *= 2
        if p == 3 and e >= 2 or p % 3 == 2:
            n3 = 0
        elif p != 3:
            n3 *= 2
    twelve_g = m - 3 * n2 - 4 * n3 - 6 * ni + 12
    return GenusBreakdown(f.n, m, n2, n3, ni, twelve_g // 12)


def genus(n: int) -> GenusBreakdown:
    """Exact genus breakdown for a single level n >= 1."""
    return breakdown_from_factorization(factorize(n))


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
