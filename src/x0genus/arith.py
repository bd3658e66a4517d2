"""Prime sieves, factorization, and elementary arithmetic functions.

Everything downstream (genus formulas, bound checks, density scans) reduces
to prime factorizations.  An isolated level 1 <= n < 2**64 is factored by
trial division by the primes below 1000, a Miller-Rabin test of what is
left and Pollard-Brent rho on composites; whole ranges never are, since the
segmented block sieve in genus.py strips the primes from every level of a
window at once, with the primes from primes_up_to.

primes_up_to sieves the odd numbers only, one cache-sized block at a time,
and writes the primes straight into the result, so its memory is bounded
by the result: 46 MB for the 5761455 primes up to 1e8.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, log

import numpy as np


@dataclass(frozen=True)
class Factorization:
    """Prime-power decomposition n = prod p**e, primes ascending.

    n = 1 is the empty product.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        m = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev or e < 1:
                raise ValueError(f"malformed factorization of {self.n}")
            prev = p
            m *= p**e
        if m != self.n:
            raise ValueError(f"factors do not multiply to {self.n}")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


# factorize's domain is 1 <= n < FACTOR_LIMIT.  Below it the Miller-Rabin
# bases are exact and Pollard-Brent rho needs about n**(1/4) = 2**16 steps.
FACTOR_LIMIT = 2**64

# trial divisors: every prime below 1000
_SMALL_PRIMES = tuple(p for p in range(2, 1000) if all(p % q for q in range(2, isqrt(p) + 1)))
# the first 12 primes are strong-pseudoprime witnesses for every composite
# below 3.18e23 (Jiang and Deng 2014; Sorenson and Webster 2015)
_MR_BASES = _SMALL_PRIMES[:12]
# rho steps multiplied together between two gcds
_RHO_BATCH = 128

# odd numbers per block of the prime sieve: 512 KB of flags, which stays in
# a core's L2 cache
PRIME_BLOCK = 1 << 19
# primes_in_progression filters the primes this many at a time, so its
# temporaries stay small however many primes there are
PROGRESSION_CHUNK = 1 << 16


def factorize(n: int) -> Factorization:
    """Factor 1 <= n < 2**64 exactly, in time bounded on that domain.

    Primes below 1000 are divided out, the cofactor is tested with
    Miller-Rabin and composites are split with Pollard-Brent rho.
    """
    n = operator.index(n)  # a numpy integer would wrap in rho's squaring
    if not 1 <= n < FACTOR_LIMIT:
        raise ValueError(f"cannot factor {n}: need 1 <= n < 2**64")
    m = n
    exponents: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            m //= p
            exponents[p] = exponents.get(p, 0) + 1
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if _is_prime(m):
            exponents[m] = exponents.get(m, 0) + 1
        else:
            d = _rho(m)
            stack += (d, m // d)
    return Factorization(n, tuple(sorted(exponents.items())))


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd n > 1 with no prime factor below 1000."""
    if n < 1000**2:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of the composite n, by Pollard-Brent rho (Brent 1980).

    Iterates y -> y**2 + c from y = 2 and multiplies _RHO_BATCH differences
    together between gcds.  When a batch's gcd is n, the batch is stepped
    again one gcd at a time; if that also meets n, c moves on.
    """
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


@lru_cache(maxsize=8)
def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as an int64 array; cached, so read-only."""
    primes = _sieve(limit)
    primes.flags.writeable = False
    return primes


def _sieve(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, by a segmented sieve of the odd numbers.

    Flag i of a block stands for the odd number 2i + 1.  Each block of
    PRIME_BLOCK flags is struck with one strided slice per odd prime
    p <= isqrt(limit), from p*p on; those primes come from this sieve one
    level down.  The primes are written into an array of the length
    1.25506 x / ln x, which exceeds pi(x) for every x > 1 (Rosser and
    Schoenfeld 1962), and cut to length in place.
    """
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    odd = _sieve(isqrt(limit))[1:]
    steps = odd.tolist()
    first = odd * odd // 2  # flag of p*p
    phase = odd // 2  # flag of p: p divides 2i + 1 exactly when i = phase mod p
    primes = np.empty(int(1.25506 * limit / log(limit)) + 1, dtype=np.int64)  # 1 for rounding
    primes[0] = 2
    count = 1
    flags = (limit + 1) // 2  # for 1, 3, 5, ... up to limit
    block = np.empty(PRIME_BLOCK, dtype=bool)
    for lo in range(0, flags, PRIME_BLOCK):
        window = block[: min(PRIME_BLOCK, flags - lo)]
        window[:] = True
        k = int(np.searchsorted(first, lo + window.size))  # primes whose square is below the end
        starts = np.maximum(first[:k], lo + (phase[:k] - lo) % odd[:k]) - lo
        for p, start in zip(steps[:k], starts.tolist()):
            window[start::p] = False
        if lo == 0:
            window[0] = False  # 1 is not prime
        found = np.flatnonzero(window)
        primes[count : count + found.size] = 2 * (found + lo) + 1
        count += found.size
    primes.resize(count, refcheck=False)
    return primes


def primes_in_progression(modulus: int, residue: int, limit: int) -> np.ndarray:
    """Primes p <= limit with p = residue (mod modulus), ascending, as an int64 array."""
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    ps = primes_up_to(limit)
    residue %= modulus
    chunks = (ps[i : i + PROGRESSION_CHUNK] for i in range(0, ps.size, PROGRESSION_CHUNK))
    return np.concatenate([ps[:0], *(c[c % modulus == residue] for c in chunks)])


def multiples(lo: int, hi: int, steps: np.ndarray):
    """Every multiple of every step in [lo, hi].

    Returns the window index of each multiple, the position in `steps` of
    the step it belongs to, and a mask of the steps with at least one
    multiple.  The multiples of one step are listed in ascending order, the
    steps one after another.
    """
    offset = -lo % steps  # window index of the first multiple
    count = (hi - lo - offset) // steps + 1  # 0 when that is past hi
    owner = np.repeat(np.arange(steps.size), count)
    # k-th multiple of its step: position in the list minus its run's start
    k = np.arange(owner.size, dtype=np.int64) - (np.cumsum(count) - count)[owner]
    return offset[owner] + k * steps[owner], owner, count > 0


def euler_phi(f: Factorization) -> int:
    """Euler's totient from a factorization: prod p**(e-1) * (p-1)."""
    phi = 1
    for p, e in f.factors:
        phi *= p ** (e - 1) * (p - 1)
    return phi

