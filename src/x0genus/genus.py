"""Exact genus of the modular curve X0(N).

The genus is assembled from four multiplicative quantities:

    g0(N) = 1 + mu/12 - nu2/4 - nu3/3 - nu_inf/2

where mu is the index of the level-N congruence subgroup in SL2(Z), nu2 and
nu3 count solutions in Z/NZ of x^2 + 1 = 0 and x^2 + x + 1 = 0, and nu_inf
counts cusps.  Each has a closed form over the prime factorization of N;
the test suite checks them against brute-force counts (exhaustive residue
scans and divisor sums).

All arithmetic is integer-exact: the genus is computed from the identity
12*(g - 1) = mu - 3*nu2 - 4*nu3 - 6*nu_inf, whose left side must be
divisible by 12.  A divisibility failure signals a formula bug and raises
ConsistencyError rather than rounding.

For batch ranges there is a segmented, numpy-vectorized sieve
(breakdown_block / iter_blocks) that computes all five quantities for every
level in a window, up to LEVEL_MAX.  One routine, _lift, holds the rule for
how a prime power p**j changes mu, nu2, nu3 and nu_inf; the strided
small-prime pass, the batched large-prime passes and the cofactor pass
only list the levels it applies to.  iter_blocks cuts a range into
fixed-size segments and sieves them one after another in the calling
thread; scan feeds each block of one such pass to any number of reducers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Callable, Iterator

import numpy as np

from .arith import Factorization, factorize, multiples, primes_up_to

# Fixed segment width for batch scans.  It is a constant, not a parameter,
# because some aggregates depend on where the blocks are cut: average_partial
# fsums one float sum per block, so another width could change its last bits.
SEGMENT = 1 << 17

# breakdown_block applies primes up to this one with strided index runs, one
# prime at a time; a larger prime hits a segment at most SEGMENT / 2048 = 64
# times, and all of those primes are sieved together (see multiples).
SMALL_PRIME_LIMIT = SEGMENT >> 6

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


def mu(f: Factorization) -> int:
    """Index of the level-n subgroup: prod (p+1) * p**(e-1)."""
    m = 1
    for p, e in f.factors:
        m *= (p + 1) * p ** (e - 1)
    return m


def nu2(f: Factorization) -> int:
    """Solutions of x^2 + 1 = 0 in Z/nZ.

    Zero when 4 | n or some prime factor is 3 mod 4; otherwise 2**s with
    s the number of prime factors that are 1 mod 4.  The prime 2 (to the
    first power) neither kills the count nor contributes a factor of 2.
    """
    count = 1
    for p, e in f.factors:
        if p == 2:
            if e >= 2:
                return 0
        elif p % 4 == 3:
            return 0
        else:
            count *= 2
    return count


def nu3(f: Factorization) -> int:
    """Solutions of x^2 + x + 1 = 0 in Z/nZ.

    Zero when 9 | n or some prime factor is 2 mod 3; otherwise 2**t with
    t the number of prime factors that are 1 mod 3.  The prime 3 itself
    behaves like 2 in nu2: only its square kills the count.
    """
    count = 1
    for p, e in f.factors:
        if p == 3:
            if e >= 2:
                return 0
        elif p % 3 == 2:
            return 0
        else:
            count *= 2
    return count


def theta(p: int, r: int) -> int:
    """Cusp count contribution of one prime power p**r.

    theta(p, 2R+1) = 2 * p**R    and    theta(p, 2R) = (p+1) * p**(R-1).
    """
    if r < 1:
        raise ValueError(f"exponent must be >= 1, got {r}")
    if r % 2:
        return 2 * p ** (r // 2)
    return (p + 1) * p ** (r // 2 - 1)


def nu_infinity(f: Factorization) -> int:
    """Number of cusps: prod theta(p, e) over the factorization."""
    count = 1
    for p, e in f.factors:
        count *= theta(p, e)
    return count


def breakdown_from_factorization(f: Factorization) -> GenusBreakdown:
    m = mu(f)
    n2 = nu2(f)
    n3 = nu3(f)
    ni = nu_infinity(f)
    twelve_g = m - 3 * n2 - 4 * n3 - 6 * ni + 12
    if twelve_g % 12:
        raise ConsistencyError(f"12 does not divide genus numerator at n={f.n}")
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


def _require_primes_up_to(primes: np.ndarray, root: int) -> None:
    """Refuse a prime array that misses a prime <= root.

    `primes` is taken to hold every prime up to its last entry.  The first
    integer past that entry with no factor among them is then the next
    prime, so the loop below stops at a missing prime or runs past root
    without one.  Trying the primes up to isqrt(root) settles every composite.  An
    array that stops less than one prime gap short of root, as
    primes_up_to(root) does whenever root is not prime, costs a few dozen
    tests.
    """
    last = int(primes[-1]) if len(primes) else 1
    divisors = primes[: np.searchsorted(primes, isqrt(root), side="right")]
    for c in range(last + 1, root + 1):
        if not np.any(c % divisors == 0):
            raise ValueError(f"primes stop at {last}, short of the prime {c} <= isqrt(hi)")


def _lift(mu, nu2, nu3, nu_inf, rem, idx, p, j: int) -> None:
    """Apply the prime power p**j at the window indices idx, in place.

    p is one prime or one per index, and p**(j-1) is already applied there.
    mu gains p + 1 at j = 1 and p at every higher j.  At j = 1 nu2 gains
    3 - p % 4 and nu3 (p + 1) % 3: 2 for p = 1 mod 4 (mod 3), 0 for p = 3
    mod 4 (2 mod 3), 1 for p = 2 (p = 3).  At j = 2 nu2 gains p % 2 and nu3
    sign(p % 3), 0 only for p = 2 and p = 3.  nu_inf's theta(p, j-1)
    becomes theta(p, j), and rem loses p.  ufunc.at is unbuffered, so a repeated
    index, a level that several primes divide, gets every update; the
    factors are ints because bool ones send ufunc.at down a slow path.
    """
    if j == 1:
        np.multiply.at(mu, idx, p + 1)
        np.multiply.at(nu2, idx, 3 - p % 4)
        np.multiply.at(nu3, idx, (p + 1) % 3)
    else:
        np.multiply.at(mu, idx, p)
        if j == 2:
            np.multiply.at(nu2, idx, p % 2)
            np.multiply.at(nu3, idx, np.sign(p % 3))
        np.floor_divide.at(nu_inf, idx, theta(p, j - 1))
    np.multiply.at(nu_inf, idx, theta(p, j))
    np.floor_divide.at(rem, idx, p)


def breakdown_block(lo: int, hi: int, primes: np.ndarray | None = None) -> GenusBlock:
    """Compute all five quantities for every level in [lo, hi] at once.

    A segmented multiplicative sieve: _lift applies every power p**j of
    every prime p <= sqrt(hi) at the levels it divides, and what remains of
    a level is then 1 or one prime above sqrt(hi), applied last.  Small
    primes, p <= SMALL_PRIME_LIMIT, hit many levels each and go in one
    power at a time as strided index runs.  Large primes hit a window a few
    times or not at all, so multiples lists the hits of all of them at
    once, one pass per exponent j over the primes whose p**(j-1) divides
    some level.  `primes`, when given, must hold every prime up to
    isqrt(hi) (more are ignored); one that stops short raises ValueError,
    and so does hi above LEVEL_MAX.

    Every update is exact integer arithmetic, each division exact, so the
    order in which primes, or the hits of one pass, are applied cannot
    change a value, and no intermediate exceeds the level's final value.
    """
    if lo < 1:
        raise ValueError(f"need lo >= 1, got {lo}")
    if hi < lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if hi > LEVEL_MAX:
        raise ValueError(f"levels stop at LEVEL_MAX = {LEVEL_MAX}, got hi = {hi}")
    if primes is None:
        primes = primes_up_to(isqrt(hi))
    else:
        _require_primes_up_to(primes, isqrt(hi))
    primes = primes[: np.searchsorted(primes, isqrt(hi), side="right")]
    n_small = np.searchsorted(primes, SMALL_PRIME_LIMIT, side="right")
    size = hi - lo + 1
    rem = np.arange(lo, hi + 1, dtype=np.int64)
    mu_a, nu2_a, nu3_a, nui_a = np.ones((4, size), dtype=np.int64)

    # small primes one at a time, one strided run per power p**j that hits
    for p in primes[:n_small].tolist():
        pj, j = p, 1
        while pj <= hi and (first := -lo % pj) < size:
            _lift(mu_a, nu2_a, nu3_a, nui_a, rem, np.arange(first, size, pj), p, j)
            pj, j = pj * p, j + 1

    # large primes all at once, one pass per exponent j
    large = primes[n_small:]
    pj, j = large, 1
    while large.size:
        idx, owner, hit = multiples(lo, hi, pj)
        _lift(mu_a, nu2_a, nu3_a, nui_a, rem, idx, large[owner], j)
        # p**(j+1) can divide a level only if p**j did
        large, pj = large[hit], pj[hit]
        keep = pj <= hi // large
        large, pj = large[keep], pj[keep] * large[keep]
        j += 1

    # leftover cofactor is 1 or a prime > sqrt(hi), always to the first power
    idx = np.nonzero(rem > 1)[0]
    _lift(mu_a, nu2_a, nu3_a, nui_a, rem, idx, rem[idx], 1)

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
    """Yield breakdown blocks covering [lo, hi] in order, one per SEGMENT.

    hi above LEVEL_MAX raises ValueError before any prime is sieved.
    `threads` is ignored; it is kept only because the benchmark's trace
    wrapper (perfbench/spans.py) reads that argument.
    """
    if hi < lo:
        return
    if hi > LEVEL_MAX:
        raise ValueError(f"levels stop at LEVEL_MAX = {LEVEL_MAX}, got hi = {hi}")
    primes = primes_up_to(isqrt(hi))
    for a in range(lo, hi + 1, SEGMENT):
        yield breakdown_block(a, min(a + SEGMENT - 1, hi), primes)


def scan(lo: int, hi: int, *reducers: Callable[[GenusBlock], list]) -> list[list]:
    """Sieve [lo, hi] once and pass every block to each reducer.

    A reducer maps a block to a list.  The result holds one list per
    reducer, its lists joined in level order.
    """
    out: list[list] = [[] for _ in reducers]
    for blk in iter_blocks(lo, hi):
        for acc, reduce in zip(out, reducers):
            acc.extend(reduce(blk))
    return out
