"""Independent oracles built from definitions, not closed forms.

mu(N) = N * prod_{p | N} (1 + 1/p) equals the divisor sum
sum_{d | N, d squarefree} N/d, and nu_inf(N) = sum_{d | N} phi(gcd(d, N/d)).
Both sums sieve over d in O(limit log limit), touching none of the
multiplicative machinery they are meant to check.  The growth constants are
solved again from their defining equations at 50 digits with mpmath.  The
block sieve's earlier form, one strided pass per prime, is kept here as the
reference for the current one; so is the trial division that factorize
used before Miller-Rabin and Pollard-Brent rho, and the whole-range bool
sieve that primes_up_to used before it sieved odd numbers in blocks.

Also here: the exhaustive residue scans and the divisor-sum cusp count for
single levels, the walk over the powers of 2 that flagged_residue_classes
made before it doubled numpy arrays, a smallest-prime-factor table with
the scalar closed forms over it, the totient of one factorization and a
totient sieve, and genus_table, which joins the blocks of [1, limit] into
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import Iterator

import numpy as np

from x0genus.arith import Factorization, factorize, primes_up_to
from x0genus.genus import (
    GenusBlock,
    GenusBreakdown,
    breakdown_from_factorization,
    iter_blocks,
    theta,
)

# Exhaustive residue scans are O(n); refuse far-too-large inputs instead of
# silently grinding.
DEFAULT_BRUTE_CEILING = 10**6
# nu2_brute and nu3_brute square every residue x < n in int64, and
# x*x + x + 1 stays below 2**63 exactly while x <= isqrt(2**63 - 1); larger
# n are refused whatever the ceiling.
RESIDUE_SCAN_LIMIT = isqrt(2**63 - 1) + 1

# One int32 per integer: a table up to 10**8 costs ~400 MB.  That is the
# practical ceiling on ordinary hardware; larger ranges should be processed
# in segments instead of through one table.
SPF_TABLE_CEILING = 2 * 10**8


def squarefree_mask(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[0] = False
    for p in range(2, isqrt(limit) + 1):
        if mask[p] and all(p % q for q in range(2, p)):
            mask[p * p :: p * p] = False
    return mask


def mu_divisor_sum(limit: int) -> np.ndarray:
    """mu(N) for all N <= limit via sum over squarefree divisors."""
    sf = squarefree_mask(limit)
    out = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        if sf[d]:
            out[d::d] += np.arange(1, limit // d + 1, dtype=np.int64)
    return out


def nu_inf_divisor_sum(limit: int) -> np.ndarray:
    """nu_inf(N) for all N <= limit via the phi-of-gcd divisor sum."""
    phi = _phi_by_counting(isqrt(limit))
    out = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        k = np.arange(1, limit // d + 1, dtype=np.int64)
        # N = d*k, so gcd(d, N/d) = gcd(d, k) <= sqrt(N)
        out[d::d] += phi[np.gcd(d, k)]
    return out


def _phi_by_counting(limit: int) -> np.ndarray:
    """phi(m) by literally counting coprime residues, m <= limit."""
    phi = np.zeros(limit + 1, dtype=np.int64)
    for m in range(1, limit + 1):
        phi[m] = sum(1 for a in range(1, m + 1) if gcd(a, m) == 1)
    return phi


def factorize_trial(n: int) -> Factorization:
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


def factor_dumb(n: int) -> tuple[tuple[int, int], ...]:
    """Factor by dividing out every d = 2, 3, 4, ... in turn."""
    m = n
    out = []
    d = 2
    while m > 1:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    return tuple(out)


# The seven-digit growth constants (a0, b, c) that acceptance gate 08 pins.
# Each is the 50-digit value from growth_constants_mp truncated to seven
# digits; test_stats checks that.
GROWTH_CONSTANT_DIGITS = {"a0": 0.8178146, "b": 0.2587966, "c": 0.2064969}


def growth_constants_mp() -> dict:
    """A, B, a0, b, c as mpmath numbers, solved at 50 digits.

    B solves 1/B + log B = 1 + log 2, A solves
    sum A^n ((n+1) log(n+1) - n log n - 1) = 1; a0 = -1/(2 log A),
    b = B log 2, c = b/(2 - 2B).  Both left-hand sides are monotone, so a
    sign change on the bracket pins the unique root.  Each A coefficient is
    below log(n+1), and for a up to the bracket top hi = 3/5 the ratio of
    successive a^n log(n+1) past term N is at most
    r = hi log(N+3)/log(N+2), so the series stops once
    hi^(N+1) log(N+2)/(1 - r) < 1e-40.
    """
    import mpmath

    with mpmath.workdps(50):
        log = mpmath.log
        b_lo, b_hi = mpmath.mpf(1) / 4, mpmath.mpf(1) / 2

        def b_equation(t):
            return 1 / t + log(t) - 1 - log(2)

        assert b_equation(b_lo) > 0 > b_equation(b_hi)
        root_b = mpmath.findroot(b_equation, (b_lo, b_hi), solver="anderson")

        a_lo, a_hi = mpmath.mpf(1) / 2, mpmath.mpf(3) / 5
        n_max = 1
        while a_hi ** (n_max + 1) * log(n_max + 2) >= mpmath.mpf("1e-40") * (
            1 - a_hi * log(n_max + 3) / log(n_max + 2)
        ):
            n_max += 1
        coeff = [(n + 1) * log(n + 1) - n * log(n) - 1 for n in range(1, n_max + 1)]

        def a_equation(a):
            return mpmath.fsum(k * a**n for n, k in enumerate(coeff, 1)) - 1

        assert a_equation(a_lo) < 0 < a_equation(a_hi)
        root_a = mpmath.findroot(a_equation, (a_lo, a_hi), solver="anderson")
        b = root_b * log(2)
        return {
            "A": root_a,
            "B": root_b,
            "a0": -1 / (2 * log(root_a)),
            "b": b,
            "c": b / (2 - 2 * root_b),
        }


def breakdown_block_strided(lo: int, hi: int, primes=None):
    """breakdown_block as one strided pass per prime p <= sqrt(hi).

    This is the package's block sieve before large primes were sieved
    together: every prime, however few levels of [lo, hi] it hits, strips
    its powers with numpy slices of stride p**j.  It returns a GenusBlock.
    """
    if primes is None:
        primes = primes_up_to(isqrt(hi))
    size = hi - lo + 1
    rem = np.arange(lo, hi + 1, dtype=np.int64)
    mu_a = rem.copy()
    nu2_a = np.ones(size, dtype=np.int64)
    nu3_a = np.ones(size, dtype=np.int64)
    nui_a = np.ones(size, dtype=np.int64)
    for p in primes:
        p = int(p)
        if p * p > hi:
            break
        start = ((lo + p - 1) // p) * p
        if start > hi:
            continue
        sl = slice(start - lo, size, p)
        mu_a[sl] = mu_a[sl] // p * (p + 1)
        if p == 2:
            s4 = ((lo + 3) // 4) * 4
            if s4 <= hi:
                nu2_a[s4 - lo :: 4] = 0
        elif p % 4 == 1:
            nu2_a[sl] *= 2
        else:
            nu2_a[sl] = 0
        if p == 3:
            s9 = ((lo + 8) // 9) * 9
            if s9 <= hi:
                nu3_a[s9 - lo :: 9] = 0
        elif p % 3 == 1:
            nu3_a[sl] *= 2
        else:
            nu3_a[sl] = 0
        pj, j, th_prev = p, 1, 1
        while pj <= hi:
            start_j = ((lo + pj - 1) // pj) * pj
            if start_j > hi:
                break
            slj = slice(start_j - lo, size, pj)
            th = theta(p, j)
            nui_a[slj] = nui_a[slj] // th_prev * th
            rem[slj] //= p
            th_prev = th
            pj *= p
            j += 1
    big = rem > 1
    r = rem[big]
    mu_a[big] = mu_a[big] // r * (r + 1)
    nui_a[big] *= 2
    nu2_a[big] *= np.where(r % 4 == 1, 2, np.where(r % 4 == 3, 0, 1))
    nu3_a[big] *= np.where(r % 3 == 1, 2, np.where(r % 3 == 2, 0, 1))
    twelve_g = mu_a - 3 * nu2_a - 4 * nu3_a - 6 * nui_a + 12
    assert not np.any(twelve_g % 12), "12 does not divide the genus numerator"
    return GenusBlock(lo, hi, mu_a, nu2_a, nu3_a, nui_a, twelve_g // 12)


def nu2_brute(n: int, ceiling: int = DEFAULT_BRUTE_CEILING) -> int:
    """Count x in Z/nZ with x^2 + 1 = 0 by exhaustive scan."""
    _check_brute(n, ceiling, RESIDUE_SCAN_LIMIT)
    x = np.arange(n, dtype=np.int64)
    return int(np.count_nonzero((x * x + 1) % n == 0))


def nu3_brute(n: int, ceiling: int = DEFAULT_BRUTE_CEILING) -> int:
    """Count x in Z/nZ with x^2 + x + 1 = 0 by exhaustive scan."""
    _check_brute(n, ceiling, RESIDUE_SCAN_LIMIT)
    x = np.arange(n, dtype=np.int64)
    return int(np.count_nonzero((x * x + x + 1) % n == 0))


def nu_infinity_brute(n: int, ceiling: int = DEFAULT_BRUTE_CEILING) -> int:
    """Cusp count via the divisor sum  sum_{d | n} phi(gcd(d, n/d))."""
    _check_brute(n, ceiling)
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += euler_phi(factorize(gcd(d, n // d)))
            q = n // d
            if q != d:
                total += euler_phi(factorize(gcd(q, d)))
    return total


def flagged_residue_classes_walk(ell: int) -> tuple[int, ...]:
    """The classes {1 - 2^k mod ell}, one Python step per power of 2."""
    classes = set()
    v = 1
    while True:
        classes.add((1 - v) % ell)
        v = v * 2 % ell
        if v == 1:
            break
    return tuple(sorted(classes))


def _check_brute(n: int, ceiling: int, int64_limit: int | None = None) -> None:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if int64_limit is not None and n > int64_limit:
        raise ValueError(
            f"n={n} exceeds {int64_limit}, the largest n whose residue scan fits int64"
        )
    if n > ceiling:
        raise ValueError(f"n={n} exceeds brute-force ceiling {ceiling}; pass a larger ceiling")


@dataclass(frozen=True)
class SpfTable:
    """Smallest-prime-factor table for 2 <= m <= limit.

    table[m] is the least prime dividing m (so table[m] == m exactly for
    primes).  Immutable after construction; safe to share across workers.
    """

    limit: int
    table: np.ndarray

    def spf(self, m: int) -> int:
        if not 2 <= m <= self.limit:
            raise ValueError(f"{m} outside table range [2, {self.limit}]")
        return int(self.table[m])

    def is_prime(self, m: int) -> bool:
        return m >= 2 and self.spf(m) == m

    def factorize(self, m: int) -> Factorization:
        """Factor m via repeated table lookups, O(log m)."""
        if m < 1:
            raise ValueError(f"cannot factor {m}: need m >= 1")
        if m > self.limit:
            raise ValueError(f"{m} exceeds table limit {self.limit}")
        n = m
        factors = []
        while m > 1:
            p = int(self.table[m])
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        return Factorization(n, tuple(factors))


def build_spf_table(limit: int) -> SpfTable:
    """Sieve smallest prime factors for every integer up to limit."""
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    if limit > SPF_TABLE_CEILING:
        raise ValueError(
            f"limit {limit} exceeds memory ceiling {SPF_TABLE_CEILING}"
        )
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == 0:
            sl = spf[p * p :: p]
            sl[sl == 0] = p
    untouched = spf == 0
    untouched[:2] = False
    spf[untouched] = np.nonzero(untouched)[0]
    spf[1] = 1
    return SpfTable(limit, spf)


def primes_up_to_dense(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array, from one bool flag per integer."""
    primes = np.empty(0, dtype=np.int64)
    if limit >= 2:
        composite = np.zeros(limit + 1, dtype=bool)
        composite[:2] = True
        for p in range(2, isqrt(limit) + 1):
            if not composite[p]:
                composite[p * p :: p] = True
        primes = np.nonzero(~composite)[0].astype(np.int64)
    return primes


def euler_phi(f: Factorization) -> int:
    """Euler's totient from a factorization: prod p**(e-1) * (p-1)."""
    phi = 1
    for p, e in f.factors:
        phi *= p ** (e - 1) * (p - 1)
    return phi


def phi_table(limit: int) -> np.ndarray:
    """phi(m) for all 0 <= m <= limit (phi[0] defined as 0)."""
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in primes_up_to(limit):
        phi[p::p] -= phi[p::p] // p
    if limit >= 0:
        phi[0] = 0
    return phi


def genus_range(lo: int, hi: int, spf: SpfTable) -> Iterator[GenusBreakdown]:
    """Breakdowns for every level in [lo, hi], ascending.

    Factorizations come from the smallest-prime-factor table, so the total
    work is O((hi - lo) * log hi).
    """
    if lo < 1:
        raise ValueError(f"need lo >= 1, got {lo}")
    if hi > spf.limit:
        raise ValueError(f"hi={hi} exceeds table limit {spf.limit}")
    for n in range(lo, hi + 1):
        yield breakdown_from_factorization(spf.factorize(n))


def genus_table(limit: int) -> GenusBlock:
    """Single block covering [1, limit] (convenience for whole-range scans)."""
    blocks = list(iter_blocks(1, limit))
    if len(blocks) == 1:
        return blocks[0]
    return GenusBlock(
        1,
        limit,
        np.concatenate([b.mu for b in blocks]),
        np.concatenate([b.nu2 for b in blocks]),
        np.concatenate([b.nu3 for b in blocks]),
        np.concatenate([b.nu_inf for b in blocks]),
        np.concatenate([b.genus for b in blocks]),
    )
