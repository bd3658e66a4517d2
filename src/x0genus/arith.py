"""Prime sieves, factorization, and elementary arithmetic functions.

Everything downstream (genus formulas, bound checks, density scans) reduces
to prime factorizations.  Isolated levels are factored by trial division up
to sqrt(n); whole ranges never are, since the segmented block sieve in
genus.py strips the primes from every level of a window at once, with the
primes from primes_up_to.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

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


def factorize(n: int) -> Factorization:
    """Factor n by trial division (suitable for isolated queries)."""
    if n < 1:
        raise ValueError(f"cannot factor {n}: need n >= 1")
    m = n
    factors = []
    for p in (2, 3):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            factors.append((p, e))
    # remaining prime factors are of the form 6k +- 1
    d = 5
    while d * d <= m:
        for q in (d, d + 2):
            e = 0
            while m % q == 0:
                m //= q
                e += 1
            if e:
                factors.append((q, e))
        d += 6
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


@lru_cache(maxsize=8)
def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as an int64 array."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    composite = np.zeros(limit + 1, dtype=bool)
    composite[:2] = True
    for p in range(2, isqrt(limit) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
    return np.nonzero(~composite)[0].astype(np.int64)


def primes_in_progression(modulus: int, residue: int, limit: int) -> list[int]:
    """Primes p <= limit with p = residue (mod modulus), ascending."""
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    ps = primes_up_to(limit)
    return [int(p) for p in ps[ps % modulus == residue % modulus]]


def euler_phi(f: Factorization) -> int:
    """Euler's totient from a factorization: prod p**(e-1) * (p-1)."""
    phi = 1
    for p, e in f.factors:
        phi *= p ** (e - 1) * (p - 1)
    return phi

