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
totient sieve, genus_table, which joins the blocks of [1, limit] into
one, and the table writer that `x0genus table` used before it encoded a
block's digits with numpy: one %d format per row.

The scalar second routes and the test data that the package once held
live here too: the lower and upper bounds of one level in exact integer
and float form (lower_bound, lower_bound_holds, lower_bound_equality and
upper_bound), which bound_reports is checked against; the per-level parity
families from a factorization (ParityFamily, _matching_families and
even_genus_family), which family_members is checked against; the count of
even attained values (even_attained_count); and the certified density
bounds that criterion 09 reads (DENSITY_BOUND_TABLE and
bound_3_over_ell_squared).  So are the filter of the whole prime list
that primes_in_progression was before it sieved its class alone
(primes_in_progression_filter), and the congruence the paper states for
the levels with a prime factor = -1 (mod 12*ell)
(restricted_congruence_check), which no command or gate reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from math import gcd, isqrt, log
from typing import Iterable, Iterator, Optional

import numpy as np

from x0genus.arith import multiples, primes_in_progression, primes_up_to
from x0genus.bounds import UPPER_BOUND_COEFF
from x0genus.genus import GenusBlock, iter_blocks
from x0genus.scalar import (
    LEVEL_MAX,
    ConsistencyError,
    Factorization,
    GenusBreakdown,
    breakdown_from_factorization,
    factorize,
    theta,
)
from x0genus.stats import DEFAULT_PRIME_LIMIT, _require_odd_prime, residue_density_exact
from x0genus.values import EXCEPTIONAL_EVEN_LEVELS, attained_genera

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
    # only the primes up to isqrt(hi) with a multiple in [lo, hi] change a level
    primes = primes[(primes <= isqrt(hi)) & (hi // primes * primes >= lo)]
    size = hi - lo + 1
    rem = np.arange(lo, hi + 1, dtype=np.int64)
    mu_a = rem.copy()
    nu2_a = np.ones(size, dtype=np.int64)
    nu3_a = np.ones(size, dtype=np.int64)
    nui_a = np.ones(size, dtype=np.int64)
    for p in primes.tolist():
        start = ((lo + p - 1) // p) * p
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


# (row format, row separator) of the table in each format
TABLE_ROW_FORMATS = {
    "plain": ("%d %d %d %d %d %d\n", ""),
    "csv": ("%d,%d,%d,%d,%d,%d\n", ""),
    "json": ("[%d, %d, %d, %d, %d, %d]", ", "),
}


def table_rows_reference(blk: GenusBlock, fmt: str) -> str:
    """The rows of one block, each through the %d row format."""
    row, sep = TABLE_ROW_FORMATS[fmt]
    rows = zip(range(blk.lo, blk.hi + 1), blk.mu.tolist(), blk.nu2.tolist(),
               blk.nu3.tolist(), blk.nu_inf.tolist(), blk.genus.tolist())
    return sep.join(map(row.__mod__, rows))


def table_reference(blocks: Iterable[GenusBlock], limit: int, fmt: str) -> str:
    """The whole output of `x0genus table --max limit` over the given blocks."""
    columns = ["n", "mu", "nu2", "nu3", "nu_inf", "genus"]
    header, trailer = {
        "plain": ("", ""),
        "csv": (",".join(columns) + "\n", ""),
        "json": ('{"max": %d, "columns": %s, "rows": [' % (limit, json.dumps(columns)), "]}\n"),
    }[fmt]
    sep = TABLE_ROW_FORMATS[fmt][1]
    return header + sep.join(table_rows_reference(b, fmt) for b in blocks) + trailer


# ---------------------------------------------------------------------------
# scalar bounds, one level at a time: the slow route bound_reports is checked
# against


def lower_bound(n: int) -> float:
    """(n - 5*sqrt(n) - 8) / 12 as a float (see the exact tests below)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return (n - 5 * math.sqrt(n) - 8) / 12


def lower_bound_holds(n: int, g: int) -> bool:
    """Exact test of 12*g >= n - 5*sqrt(n) - 8.

    Equivalent to: n - 8 - 12*g <= 0, or else (n - 8 - 12*g)^2 <= 25*n.
    """
    lhs = n - 8 - 12 * g
    return lhs <= 0 or lhs * lhs <= 25 * n


def lower_bound_equality(n: int, g: int) -> bool:
    """Exact test of 12*g = n - 5*sqrt(n) - 8 (requires n to be a square)."""
    s = math.isqrt(n)
    return s * s == n and 12 * g + 5 * s + 8 == n


def upper_bound(n: int) -> float:
    """n * e**gamma/(2*pi**2) * (loglog n + 2/loglog n), defined for n > 2."""
    if n <= 2:
        raise ValueError(f"upper bound is only stated for n > 2, got {n}")
    ll = math.log(math.log(n))
    return n * UPPER_BOUND_COEFF * (ll + 2 / ll)


# ---------------------------------------------------------------------------
# the parity families, one level at a time from its factorization: the slow
# route family_members is checked against


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


def even_attained_count(x: int) -> tuple[int, float]:
    """Count of even attained values in [1, x], and its ratio to x/log x.

    The ratio is a slow-convergence diagnostic (the count is asymptotically
    proportional to x/log x); it is reported, never gated.
    """
    attained = attained_genera(x)
    count = int(np.count_nonzero(attained[2::2]))
    return count, count / (x / log(x))


# ---------------------------------------------------------------------------
# residue densities: the certified bounds that criterion 09 checks


# upper bounds on P(ell) that residue_density_exact certifies rigorously
DENSITY_BOUND_TABLE = {
    3: 1 / 4,
    5: 1 / 78,
    7: 1 / 105,
    11: 1 / 653,
    13: 1 / 1542,
    17: 1 / 1793,
    19: 1 / 978,
    23: 1 / 5821,
}


def bound_3_over_ell_squared(ell: int, prime_limit: int = DEFAULT_PRIME_LIMIT) -> bool:
    """Certify P(ell) < 3/ell^2, truncation error included."""
    d = residue_density_exact(ell, prime_limit)
    return d.exact_value + d.truncation_error < 3.0 / ell**2


# ---------------------------------------------------------------------------
# primes of one residue class, and the congruence on the levels they divide


def primes_in_progression_filter(modulus: int, residue: int, limit: int) -> np.ndarray:
    """The primes p <= limit with p = residue (mod modulus), by filtering all of them.

    The route primes_in_progression took before it sieved the class
    alone, over the whole-range bool sieve; a modulus past int64 is
    reduced in Python ints.
    """
    ps = primes_up_to_dense(limit)
    if modulus < 2**63:
        return ps[ps % modulus == residue % modulus]
    return np.array([p for p in ps.tolist() if p % modulus == residue % modulus], dtype=np.int64)


def restricted_congruence_check(ell: int, bound: int) -> list[int]:
    """Violations of g0(N) = 1 - nu_inf/2 (mod ell) on the restricted levels.

    Restricted means N divisible by some prime q = -1 (mod 12*ell); such a
    factor forces nu2 = nu3 = 0 and 12*ell | mu, leaving only the cusp
    term.  Expected empty.
    """
    _require_odd_prime(ell)
    qs = primes_in_progression(12 * ell, 12 * ell - 1, bound)
    # g0 - 1 + nu_inf // 2 lies in [-1, N), so for an ell above LEVEL_MAX,
    # which may not fit int64, reduction mod LEVEL_MAX finds the same zeros
    m = min(ell, LEVEL_MAX)

    def violations(blk):
        sel = np.zeros(len(blk), dtype=bool)
        sel[multiples(blk.lo, blk.hi, qs)[0]] = True
        if np.any(blk.nu_inf[sel] % 2):
            raise ConsistencyError("odd cusp count on a level with a factor = -1 mod 12*ell")
        return blk.where(sel & ((blk.genus - 1 + blk.nu_inf // 2) % m != 0))

    return [n for blk in iter_blocks(1, bound) for n in violations(blk)]
