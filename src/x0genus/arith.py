"""Prime sieves, factorization, and elementary arithmetic functions.

Everything downstream (genus formulas, bound checks, density scans) reduces
to prime factorizations.  An isolated level 1 <= n < 2**64 is factored by
trial division by the primes below 1000, a Miller-Rabin test of what is
left and Pollard-Brent rho on composites; whole ranges never are, since the
segmented block sieve in genus.py strips the primes from every level of a
window at once, with the primes from primes_up_to.

One sieve lists primes: _sieve strikes the odd members of one residue
class, one cache-sized block of flags at a time, and writes the primes
straight into a result sized by a proven prime count, so its memory is
bounded by the result.  primes_up_to is its whole-range case, the odd
numbers (46 MB for the 5761455 primes up to 1e8);
primes_in_progression sieves its class alone and never lists the other
primes.  Both take limit <= PRIME_LIMIT_MAX and refuse a larger limit
before anything is allocated.
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

# rho steps multiplied together between two gcds
_RHO_BATCH = 128

# primes_up_to's domain is limit <= PRIME_LIMIT_MAX: the 50847534 primes up
# to 1e9 take 388 MiB, and a whole-range prime list past that outgrows memory
PRIME_LIMIT_MAX = 10**9
# flags per block of the prime sieve: 512 KB, which stays in a core's L2
# cache
PRIME_BLOCK = 1 << 19


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
    """All primes <= limit, ascending, as an int64 array; cached, so read-only.

    A limit above PRIME_LIMIT_MAX is refused before anything is allocated.
    """
    _require_prime_limit(limit)
    primes = _sieve(limit)
    primes.flags.writeable = False
    return primes


def _require_prime_limit(limit: int) -> None:
    if limit > PRIME_LIMIT_MAX:
        raise ValueError(f"primes are listed up to PRIME_LIMIT_MAX = {PRIME_LIMIT_MAX}, "
                         f"got {limit}")


def _sieve(limit: int, modulus: int = 1, residue: int = 0) -> np.ndarray:
    """The primes p <= limit with p = residue (mod modulus), ascending.

    The class must be coprime, gcd(residue, modulus) = 1, with
    0 <= residue < modulus and modulus = 1 or modulus < limit.  Flag i of
    the sieve stands for the odd member c0 + i*step of the class, with
    step = lcm(2, modulus); modulus 1, the whole range, is c0 = 1, step = 2.
    Each block of PRIME_BLOCK flags is struck with one strided slice per
    odd prime p <= isqrt(limit) that does not divide step (a prime of step
    divides no member), from the first member >= p*p on; those primes come
    from this sieve one level down.  The prime 2 is put in by hand.  The
    primes are written into an array of the length 1.25506 x / ln x, which
    exceeds pi(x) for every x > 1 (Rosser and Schoenfeld 1962), or, when
    smaller, 2x / (phi(q) ln(x/q)), which bounds the primes of a class mod
    q < x (Montgomery and Vaughan 1973), and cut to length in place.
    """
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    step = modulus * (1 + modulus % 2)
    c0 = residue if residue % 2 else residue + modulus
    odd = _sieve(isqrt(limit))[1:]
    odd = odd[step % odd != 0]
    strides = odd.tolist()
    reach = (odd * odd + (step - 1 - c0)) // step  # flag of the first member >= p*p
    inverse = np.array([pow(step, -1, p) for p in strides], dtype=np.int64)
    first = reach + (-c0 * inverse - reach) % odd  # the first i >= reach with p | c0 + i*step
    size = 1.25506 * limit / log(limit)
    if modulus > 1:
        phi = modulus
        for p in factorize(modulus).primes:
            phi -= phi // p
        size = min(size, 2 * limit / (phi * log(limit / modulus)))
    primes = np.empty(int(size) + 1, dtype=np.int64)  # 1 for rounding
    count = int(2 % modulus == residue)
    primes[:count] = 2
    flags = (limit - c0) // step + 1  # for c0, c0 + step, ... up to limit
    block = np.empty(PRIME_BLOCK, dtype=bool)
    for lo in range(0, flags, PRIME_BLOCK):
        window = block[: min(PRIME_BLOCK, flags - lo)]
        window[:] = True
        k = int(np.searchsorted(reach, lo + window.size))  # primes whose square is below the end
        ahead = first[:k] - lo
        for p, start in zip(strides[:k], np.maximum(ahead, ahead % odd[:k]).tolist()):
            window[start::p] = False
        if lo == 0 and c0 == 1:
            window[0] = False  # 1 is not prime
        found = np.flatnonzero(window)
        primes[count : count + found.size] = c0 + step * (found + lo)
        count += found.size
    primes.resize(count, refcheck=False)
    return primes


# trial divisors: every prime below 1000, as Python ints so that factorize
# never computes in int64
_SMALL_PRIMES = tuple(_sieve(999).tolist())
# the first 12 primes are strong-pseudoprime witnesses for every composite
# below 3.18e23 (Jiang and Deng 2014; Sorenson and Webster 2015)
_MR_BASES = _SMALL_PRIMES[:12]


def primes_in_progression(modulus: int, residue: int, limit: int) -> np.ndarray:
    """Primes p <= limit with p = residue (mod modulus), ascending, as an int64 array.

    The class is sieved alone (_sieve), so its memory is bounded by its own
    primes and no other prime is listed: the primes = -1 (mod 7) up to 1e7
    take a seventh of the flags of primes_up_to(10**7).  A class with
    gcd(residue, modulus) = g > 1 holds at most the prime g, and a modulus
    >= limit, of any size, leaves the residue as the only member up to the
    limit; that one candidate is tested in Python ints.  limit stops at
    PRIME_LIMIT_MAX, refused before anything is allocated.
    """
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    _require_prime_limit(limit)
    residue %= modulus
    g = gcd(residue, modulus)
    if modulus < limit and g == 1:
        return _sieve(limit, modulus, residue)
    c = g if g > 1 else residue
    prime = 2 <= c <= limit and c % modulus == residue and factorize(c).factors == ((c, 1),)
    return np.array([c] if prime else [], dtype=np.int64)


def require_primes_up_to(primes: np.ndarray, bound: int) -> None:
    """Refuse a prime array that misses a prime <= bound.

    `primes` is taken to hold every prime up to its last entry, so the
    first prime past that entry is the one it misses, and the loop below
    ends there: it tests at most one prime gap, as primes_up_to(bound)
    leaves whenever bound is not prime.
    """
    last = int(primes[-1]) if len(primes) else 1
    for c in range(last + 1, bound + 1):
        if factorize(c).factors == ((c, 1),):
            raise ValueError(f"primes stop at {last}, short of the prime {c} <= {bound}")


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
