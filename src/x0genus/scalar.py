"""The genus of one level, and the domain ceilings the CLI states, in the stdlib alone.

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

A level 1 <= n < 2**64 is factored by trial division by the primes below
1000, a Miller-Rabin test of what is left and Pollard-Brent rho on
composites.  No numpy is imported here; the block sieve is in genus.py.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from math import gcd, isqrt

# The highest level the block sieve accepts.  Its primes up to 1e8 still
# sieve in seconds, and int64 mu stays exact (it wraps near N = 2.09e18).
LEVEL_MAX = 10**16

# primes_up_to's domain is limit <= PRIME_LIMIT_MAX: the 50847534 primes up
# to 1e9 take 388 MiB, and a whole-range prime list past that outgrows memory
PRIME_LIMIT_MAX = 10**9

# the most levels a scan for missed values may cover (time, not memory)
DEFAULT_SCAN_CAPACITY = 3 * 10**8

# flagged_residue_classes stores up to ell - 1 classes and residue_histogram
# keeps ell counts per block (2**20 counts take 8 MB); flagged_residue_classes
# refuses a larger ell for both
HISTOGRAM_ELL_MAX = 2**20

# Largest s of F(s) and its tail bound.  zeta_with_error's remainder is about
# s**17 * M**(-s-17), which past s = 1e18 reads inf * 0 = nan, and the tail
# bound's (s - 1)**2 overflows past 1.3e154.  zeta_identity_check takes zeta
# at 2s + 2, so zeta accepts s up to 2 S_MAX + 2, still 500 times below 1e18.
S_MAX = 1e15


def scan_limit_for(x: int) -> int:
    """Smallest level budget guaranteeing completeness for values up to x.

    ceil(12x + 18*sqrt(x) + 40) with sqrt rounded up, plus one defensively;
    the underlying inequality is strict, so rounding up is the safe side.
    """
    s = isqrt(x)
    if s * s < x:
        s += 1
    return 12 * x + 18 * s + 40 + 1


# the largest x that missed_values and attained_genera accept: the largest
# x with scan_limit_for(x) <= DEFAULT_SCAN_CAPACITY, found by bisection
# over range(DEFAULT_SCAN_CAPACITY), as scan_limit_for increases with x
# and exceeds it
MISSED_MAX = bisect_right(range(DEFAULT_SCAN_CAPACITY), DEFAULT_SCAN_CAPACITY,
                          key=scan_limit_for) - 1


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

# trial divisors: every prime below 1000, by a sieve of Eratosthenes, as
# Python ints so that factorize never computes in int64
_SMALL_PRIMES = tuple(sorted(set(range(2, 1000)) - {m for p in range(2, 32)
                                                    for m in range(p * p, 1000, p)}))
# the first 12 primes are strong-pseudoprime witnesses for every composite
# below 3.18e23 (Jiang and Deng 2014; Sorenson and Webster 2015)
_MR_BASES = _SMALL_PRIMES[:12]


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
