"""Independent arithmetic for the benchmark's output checks.

Nothing here calls x0genus: primality is decided by deterministic
Miller-Rabin, and the genus of a level comes from the factorization the
benchmark chose, through the definitions (nu_inf as the divisor sum
sum_{d | n} phi(gcd(d, n/d)), the genus from g = 1 + mu/12 - nu2/4 - nu3/3
- nu_inf/2 in exact rationals).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

# Miller-Rabin with the first twelve prime bases is exact below 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n >= MR_EXACT_BELOW:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin range")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    while not is_prime(n):
        n += 1
    return n


def next_prime_1_mod_12(n: int) -> int:
    """Smallest prime p >= n with p = 1 (mod 12)."""
    p = n + (1 - n) % 12
    while not is_prime(p):
        p += 12
    return p


def equality_squares(lo: int, hi: int) -> list[int]:
    """Squares of primes p = 1 (mod 12) in [lo, hi]: the lower bound's equality levels."""
    p = isqrt(max(lo, 1) - 1) + 1
    out = []
    while True:
        p = next_prime_1_mod_12(p)
        if p * p > hi:
            return out
        out.append(p * p)
        p += 1


def _phi_prime_power(p: int, k: int) -> int:
    return 1 if k == 0 else p**k - p ** (k - 1)


def breakdown(factors: dict[int, int]) -> dict[str, int]:
    """(n, mu, nu2, nu3, nu_inf, genus) of the level prod p**e, from the definitions."""
    n = mu = nu_inf = 1
    nu2 = nu3 = 1
    for p, e in factors.items():
        n *= p**e
        mu *= (p + 1) * p ** (e - 1)
        # cusps: the divisor sum is multiplicative; over d = p**i it is
        # sum_i phi(p**min(i, e - i))
        nu_inf *= sum(_phi_prime_power(p, min(i, e - i)) for i in range(e + 1))
        # nu2: x^2 + 1 = 0 mod p**e has 2 roots for p = 1 (mod 4), one mod 2,
        # none mod 4 or for p = 3 (mod 4); nu3 likewise with 3 and mod 3
        if p == 2:
            nu2 *= 1 if e == 1 else 0
        else:
            nu2 *= 2 if p % 4 == 1 else 0
        if p == 3:
            nu3 *= 1 if e == 1 else 0
        else:
            nu3 *= 2 if p % 3 == 1 else 0
    g = 1 + Fraction(mu, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(nu_inf, 2)
    if g.denominator != 1:
        raise ArithmeticError(f"non-integral genus for the level {n}")
    return {"n": n, "mu": mu, "nu2": nu2, "nu3": nu3, "nu_inf": nu_inf, "genus": int(g)}
