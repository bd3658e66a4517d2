"""Statistics of the genus across levels.

Averages: (1/B) sum g0(N)/N tends to 5/(4 pi^2) and (1/B^2) sum g0(N) to
5/(8 pi^2).  Behind both sits the Dirichlet series

    F(s) = sum_{N >= 1} (mu(N)/N) N^(-s) = zeta(s) zeta(s+1) / zeta(2s+2)

for s > 1, evaluated here two ways (partial sums with a rigorous tail
bound, and the zeta product via Euler-Maclaurin) so each route checks the
other.

Residue classes mod an odd prime ell: the density of levels with
g0(N) = 1 (mod ell) is

    P(ell) = 1 - (1 - 1/ell^3) prod (1 - 1/(s^2 + s)),

the product over primes s = -1 (mod ell).  Truncating the product at
L = prime_limit under-counts P(ell) by at most 1/(ell*L) + 1/L^2 (proved in
residue_density_exact), so exact_value plus truncation_error is a
certified upper bound for the true density.
For squarefree N the cusp count is a power of two, which biases g0(N)
toward the classes {1 - 2^k mod ell}; histograms expose that bias.  The
table of density bounds and the P(ell) < 3/ell^2 certificate that the
acceptance check reads from residue_density_exact are test data, kept
with the test oracles.

The growth constants a0, b, c of the attained-value counting function
are derived from roots of two transcendental equations in (0, 1), found
by bisection.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, fsum, isqrt, log, pi
from typing import Callable, Optional

import numpy as np

from .arith import primes_in_progression, primes_up_to
from .genus import GenusBlock, iter_blocks
from .scalar import FACTOR_LIMIT, HISTOGRAM_ELL_MAX, LEVEL_MAX, S_MAX, factorize

AVG_RATIO_TARGET = 5.0 / (4.0 * pi**2)  # limit of (1/B) sum g0(N)/N

DEFAULT_PRIME_LIMIT = 10**7
DEFAULT_DIRICHLET_TERMS = 10**6

# squarefree_fraction keeps one flag per level: 10**9 of them take 1 GB
SQUAREFREE_MAX = 10**9

# mu(N)/N = prod_{p | N} (1 + 1/p) first reaches 4 when N has the eleven
# primes up to 31, so mu/N < 4 for every N below their product
MU_RATIO_BELOW_FOUR_LIMIT = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31


def _require_s(s: float, what: str, ceiling: float = S_MAX) -> None:
    """Refuse s outside (1, ceiling]: the pole at 1, nan, and overflow above."""
    if not 1.0 < s <= ceiling:
        raise ValueError(f"{what} is evaluated only for 1 < s <= {ceiling:.17g}, got {s}")


def _require_odd_prime(ell: int) -> None:
    """Refuse ell unless it is an odd prime below 2**64, the domain of factorize."""
    if ell == 2:
        raise ValueError("ell = 2 is covered by the parity classification, not densities")
    if not 3 <= ell < FACTOR_LIMIT or factorize(ell).factors != ((ell, 1),):
        raise ValueError(f"ell must be an odd prime below 2**64, got {ell}")


# ---------------------------------------------------------------------------
# zeta via Euler-Maclaurin

_ZETA_CUTOFF = 32
# B_2, B_4, ..., B_16; B_18 bounds the remainder
_BERNOULLI_EVEN = (
    1 / 6,
    -1 / 30,
    1 / 42,
    -1 / 30,
    5 / 66,
    -691 / 2730,
    7 / 6,
    -3617 / 510,
)
_B18 = 43867 / 798


def zeta_with_error(s: float) -> tuple[float, float]:
    """Riemann zeta at real s > 1 with a rigorous remainder bound.

    Euler-Maclaurin with cutoff M:

        zeta(s) = sum_{n<=M} n^-s + M^(1-s)/(s-1) - M^-s/2
                  + sum_j B_2j/(2j)! * s(s+1)...(s+2j-2) * M^(-s-2j+1) + R

    For real s the remainder R is bounded by the first omitted term, which
    is what the second return value reports (far below 1e-15 here).
    """
    _require_s(s, "zeta (pole at s = 1)", 2.0 * S_MAX + 2.0)
    m = float(_ZETA_CUTOFF)
    n = np.arange(1.0, m + 1.0)
    value = float(np.sum(n ** (-s))) + m ** (1.0 - s) / (s - 1.0) - 0.5 * m ** (-s)
    rising = s  # s(s+1)...(s+2j-2), updated per term
    power = m ** (-s - 1.0)  # M^(-s-2j+1)
    for j, b2j in enumerate(_BERNOULLI_EVEN, start=1):
        value += b2j / factorial(2 * j) * rising * power
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        power /= m * m
    remainder = abs(_B18) / factorial(18) * rising * power
    return value, remainder


# ---------------------------------------------------------------------------
# averages and the Dirichlet identity


@dataclass(frozen=True)
class AverageReport:
    """Partial averages of the genus up to a bound, with their common target.

    avg_ratio is (1/B) sum g0(N)/N, converging to target = 5/(4 pi^2);
    avg_genus_over_b is (1/B^2) sum g0(N), converging to half the target.
    """

    bound: int
    avg_ratio: float
    avg_genus_over_b: float
    target: float = AVG_RATIO_TARGET


def block_genus_sum(blk: GenusBlock) -> int:
    """The exact sum of a block's genera.

    An int64 sum of a SEGMENT of genera wraps from about N = 5.5e14, so the
    high and low 32-bit halves are summed apart: below LEVEL_MAX each half
    sums to less than 2**50 over a block of up to 2**17 levels.
    """
    g = blk.genus
    return (int(np.sum(g >> 32)) << 32) + int(np.sum(g & 0xFFFFFFFF))


def average_partial(bound: int) -> AverageReport:
    """Partial averages of g0 over all levels up to bound.

    The genus sum is accumulated exactly in integers; the ratio sum uses
    pairwise block sums combined by fsum, with relative error below 1e-13.
    """
    ratio_parts, genus_sum = [], 0
    for blk in iter_blocks(1, bound):
        ratio_parts.append(float(np.sum(blk.genus / blk.levels)))
        genus_sum += block_genus_sum(blk)
    return AverageReport(
        bound=bound,
        avg_ratio=fsum(ratio_parts) / bound,
        avg_genus_over_b=genus_sum / bound**2,
    )


def dirichlet_F(s: float, n_terms: int = DEFAULT_DIRICHLET_TERMS) -> float:
    """Partial sum of F(s) = sum (mu(N)/N) N^(-s) over N <= n_terms.

    The omitted tail is positive and below dirichlet_tail_bound(s, n_terms).
    """
    _require_s(s, "F (pole at s = 1)")
    return fsum(float(np.sum(b.mu * b.levels ** (-s - 1.0))) for b in iter_blocks(1, n_terms))


def dirichlet_tail_bound(s: float, n_terms: int) -> float:
    """Upper bound for the tail sum_{N > n_terms} (mu(N)/N) N^(-s).

    Two pieces: mu/N < 4 up to the eleven-prime threshold, and
    mu(N)/N <= sum_{d | N} 1/d <= 1 + ln N beyond it; both tails are then
    bounded by integrals.
    """
    _require_s(s, "the tail bound")
    k = float(MU_RATIO_BELOW_FOUR_LIMIT - 1)
    small = 4.0 * n_terms ** (1.0 - s) / (s - 1.0)
    large = k ** (1.0 - s) * ((1.0 + log(k)) / (s - 1.0) + 1.0 / (s - 1.0) ** 2)
    return small + large


@dataclass(frozen=True)
class DirichletCheck:
    """Partial Dirichlet sum against the zeta product, with error budget."""

    s: float
    n_terms: int
    lhs: float
    rhs: float
    gap: float
    tail_bound: float
    rhs_error: float

    @property
    def ok(self) -> bool:
        # 1e-11 covers float accumulation in the partial sum
        return self.gap <= self.tail_bound + self.rhs_error + 1e-11 * (1.0 + abs(self.rhs))


def zeta_identity_check(s: float, n_terms: int = DEFAULT_DIRICHLET_TERMS) -> DirichletCheck:
    """Compare the partial sum of F(s) with zeta(s) zeta(s+1) / zeta(2s+2).

    The gap must sit inside the computed tail bound plus the zeta remainder
    budget; nothing is fitted.
    """
    lhs = dirichlet_F(s, n_terms)
    z1, e1 = zeta_with_error(s)
    z2, e2 = zeta_with_error(s + 1.0)
    z3, e3 = zeta_with_error(2.0 * s + 2.0)
    rhs = z1 * z2 / z3
    rhs_error = abs(rhs) * (e1 / z1 + e2 / z2 + e3 / z3)
    return DirichletCheck(
        s=s,
        n_terms=n_terms,
        lhs=lhs,
        rhs=rhs,
        gap=abs(rhs - lhs),
        tail_bound=dirichlet_tail_bound(s, n_terms),
        rhs_error=rhs_error,
    )


# ---------------------------------------------------------------------------
# residue densities mod ell


@dataclass(frozen=True)
class ResidueDensity:
    """Density of levels with g0(N) = 1 (mod ell), with truncation budget.

    exact_value under-counts the true density by at most truncation_error,
    so exact_value + truncation_error is a certified upper bound.
    """

    ell: int
    exact_value: float
    truncation_error: float
    prime_limit: int
    empirical_frequency: Optional[float] = None
    sample_bound: Optional[int] = None


def residue_density_exact(ell: int, prime_limit: int = DEFAULT_PRIME_LIMIT) -> ResidueDensity:
    """P(ell) from the Euler product truncated at prime_limit.

    The dropped factors multiply to at least 1 - sum 1/(s^2+s) over the
    dropped primes s, so the true P(ell) exceeds exact_value by at most
    that sum.  With L = prime_limit, the first dropped prime exceeds L and
    adds less than 1/L^2.  The later ones lie in its residue class mod
    ell, so the k-th of them is at least L + k*ell, and they add at most
    sum_{k >= 1} 1/(L + k*ell)^2 <= integral_0^inf dx/(L + x*ell)^2
    = 1/(ell*L).  So truncation_error = 1/(ell*L) + 1/L^2 holds for every
    L >= 1 and every ell.  The primes s are sieved from their class alone;
    a limit below 2, which lists no prime, is refused, and so is one above
    PRIME_LIMIT_MAX, before any sieving.  The error matters: the certified
    table bound for ell = 23 is only about 2e-8 above the true density.
    """
    _require_odd_prime(ell)
    if prime_limit < 2:
        raise ValueError(f"need prime_limit >= 2, got {prime_limit}")
    s = primes_in_progression(ell, ell - 1, prime_limit).astype(np.float64)
    # 1 - 1/(s*s + s) in place: at most two arrays as long as the class
    t = s * s
    t += s
    del s
    np.divide(1.0, t, out=t)
    np.subtract(1.0, t, out=t)
    product = float(np.prod(t))
    # product lies in [1/2, 1], so 1 - product is exact (Sterbenz) and the
    # ell^-3 term survives when the product rounds to 1
    exact = (1.0 - product) + product * float(ell) ** -3
    return ResidueDensity(
        ell=ell,
        exact_value=exact,
        truncation_error=1.0 / (ell * prime_limit) + 1.0 / prime_limit**2,
        prime_limit=prime_limit,
    )


def _genus_residue_counts(m: int, bound: int) -> np.ndarray:
    """Number of levels N <= bound with g0(N) = r (mod m), for each r < m."""
    return sum((np.bincount(b.genus % m, minlength=m) for b in iter_blocks(1, bound)),
               np.zeros(m, dtype=np.int64))


def residue_density_empirical(ell: int, bound: int) -> float:
    """Frequency of g0(N) = 1 (mod ell) over all levels N <= bound.

    Only class 1 is counted, so no array as long as ell is made.
    """
    _require_odd_prime(ell)
    # g0(N) < N <= LEVEL_MAX, so for a larger ell the int64 reduction mod
    # LEVEL_MAX leaves every genus as reduction mod ell would
    m = min(ell, LEVEL_MAX)
    return sum(int(np.count_nonzero(b.genus % m == 1)) for b in iter_blocks(1, bound)) / bound


def _order_of_two(ell: int) -> int:
    """The multiplicative order of 2 mod the odd prime ell.

    The order divides ell - 1; each prime q of ell - 1 is divided out of
    it for as long as 2 to the smaller power is still 1.
    """
    order = ell - 1
    for q in factorize(ell - 1).primes:
        while order % q == 0 and pow(2, order // q, ell) == 1:
            order //= q
    return order


def flagged_residue_classes(ell: int) -> tuple[int, ...]:
    """The classes {1 - 2^k mod ell}, enriched when N is squarefree.

    For squarefree N the cusp count is a power of two, so g0(N) lands in
    one of these classes, one per k below the order of 2.  The powers are
    built by doubling a numpy array (products stay below ell^2 <= 2^40),
    and there are up to ell - 1 of them, so ell stops at HISTOGRAM_ELL_MAX.
    """
    _require_odd_prime(ell)
    if ell > HISTOGRAM_ELL_MAX:
        raise ValueError(f"histograms take ell <= {HISTOGRAM_ELL_MAX}, got {ell}")
    order = _order_of_two(ell)
    pw = np.ones(1, dtype=np.int64)
    while pw.size < order:
        pw = np.concatenate((pw, pw * pow(2, pw.size, ell) % ell))
    return tuple(np.sort((1 - pw[:order]) % ell).tolist())


@dataclass(frozen=True)
class ResidueHistogram:
    """Counts of g0(N) mod ell over N <= bound, with the flagged classes.

    enrichment_holds compares the least flagged count against the largest
    non-flagged count; it is None when 2 is a primitive root mod ell (the
    flagged set then covers every class but one, and no enrichment claim
    is asserted).
    """

    ell: int
    bound: int
    counts: tuple[int, ...]
    flagged: tuple[int, ...]
    two_primitive_root: bool
    enrichment_holds: Optional[bool]


def residue_histogram(ell: int, bound: int) -> ResidueHistogram:
    """Histogram of g0(N) mod ell over all levels N <= bound, for ell <= HISTOGRAM_ELL_MAX."""
    flagged = flagged_residue_classes(ell)  # refuses ell before any block is sieved
    counts = _genus_residue_counts(ell, bound)
    primitive = len(flagged) == ell - 1  # one class per power of 2 below its order
    enrichment = None
    if not primitive:
        enrichment = bool(counts[list(flagged)].min() > np.delete(counts, flagged).max())
    return ResidueHistogram(
        ell=ell,
        bound=bound,
        counts=tuple(int(c) for c in counts),
        flagged=flagged,
        two_primitive_root=primitive,
        enrichment_holds=enrichment,
    )


def squarefree_fraction(bound: int) -> float:
    """Fraction of levels N <= bound free of square factors (target 6/pi^2).

    bound stops at SQUAREFREE_MAX, refused before anything is allocated.
    """
    if not 1 <= bound <= SQUAREFREE_MAX:
        raise ValueError(f"need 1 <= bound <= SQUAREFREE_MAX = {SQUAREFREE_MAX}, got {bound}")
    squarefree = np.ones(bound + 1, dtype=bool)
    for p in primes_up_to(isqrt(bound)):
        p2 = int(p) * int(p)
        squarefree[p2::p2] = False
    return int(np.count_nonzero(squarefree[1:])) / bound


# ---------------------------------------------------------------------------
# growth constants


@dataclass(frozen=True)
class AsymptoticConstants:
    """Roots A, B and the derived exponents a0, b, c.

    B solves 1/B + log B = 1 + log 2 on (0, 1); A solves
    sum A^n ((n+1) log(n+1) - n log n - 1) = 1 on (0, 1); then
    a0 = -1/(2 log A), b = B log 2, c = (B log 2)/(2 - 2B).
    """

    A: float
    B: float
    a0: float
    b: float
    c: float


def _bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """A root of f in [lo, hi] to float precision, by bisection.

    f must change sign on the bracket or vanish at an end.  The bracket is
    halved until its midpoint equals an end, about 60 steps on (0, 1).
    """
    sign_lo = np.sign(f(lo))
    if sign_lo * np.sign(f(hi)) > 0:
        raise ValueError(f"f has the same sign at both ends of [{lo}, {hi}]")
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if np.sign(f(mid)) == sign_lo:
            lo = mid
        else:
            hi = mid
    return mid


def asymptotic_constants() -> AsymptoticConstants:
    """Solve both defining equations by bisection, to float precision.

    1/B + log B - 1 - log 2 is strictly decreasing on (0, 1) with a sign
    change, so the B root is unique.  The A series has positive increasing
    coefficients (n+1)log(n+1) - n log n - 1 < log(n+1), so it is strictly
    increasing in A; it is cut where its geometric tail at the bracket top
    0.95 falls below a tenth of the float epsilon.
    """
    log2 = log(2.0)
    root_b = _bisect(lambda t: 1.0 / t + log(t) - 1.0 - log2, 1e-12, 1.0 - 1e-12)

    hi = 0.95
    n_max = 1
    while hi**n_max * log(n_max + 2.0) >= np.finfo(float).eps * (1.0 - hi) / 10.0:
        n_max += 1
    n = np.arange(1.0, n_max + 1.0)
    coeff = (n + 1.0) * np.log(n + 1.0) - n * np.log(n) - 1.0

    def series(a: float) -> float:
        return float(np.sum(a**n * coeff)) - 1.0

    root_a = _bisect(series, 1e-6, hi)
    return AsymptoticConstants(
        A=root_a,
        B=root_b,
        a0=-1.0 / (2.0 * log(root_a)),
        b=root_b * log2,
        c=root_b * log2 / (2.0 - 2.0 * root_b),
    )
