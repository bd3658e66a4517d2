"""Attained genus values, the missed set, and the parity classification."""

import random
import re

import numpy as np
import pytest

from x0genus.arith import factorize, primes_up_to
from x0genus.values import (
    EXCEPTIONAL_EVEN_LEVELS,
    DEFAULT_SCAN_CAPACITY,
    MISSED_MAX,
    attained_genera,
    family_members,
    missed_values,
    odd_prime_counts,
    power_of_two_congruence_check,
    scan_limit_for,
    verify_parity_classification,
)
from x0genus.genus import LEVEL_MAX, SEGMENT, genus
from oracles import build_spf_table, even_attained_count, even_genus_family


def test_scan_limit_examples():
    assert scan_limit_for(10**5) == 1205747
    assert scan_limit_for(1) == 12 + 18 + 40 + 1
    # always clears the real-valued bound 12x + 18 sqrt(x) + 40
    for x in (1, 2, 10, 99, 100, 10**4, 10**5, 10**8):
        assert scan_limit_for(x) > 12 * x + 18 * x**0.5 + 40


def test_missed_max_is_the_largest_x_within_the_scan_capacity():
    assert scan_limit_for(MISSED_MAX) <= DEFAULT_SCAN_CAPACITY < scan_limit_for(MISSED_MAX + 1)
    assert MISSED_MAX == 24992496  # the figure the module docstring states
    with pytest.raises(ValueError, match="beyond capacity"):
        attained_genera(MISSED_MAX + 1)


def test_attained_small():
    assert attained_genera(10).all()  # genera 0..10 all occur
    with pytest.raises(ValueError):
        attained_genera(0)
    with pytest.raises(ValueError, match="beyond capacity"):
        attained_genera(25_000_000)  # scans 300,090,041 levels, above 3e8


def test_first_missed_value_is_150():
    assert missed_values(149).missed == ()
    rep = missed_values(150)
    assert rep.missed == (150,)
    assert rep.attained_count == 149
    assert rep.odd_missed == ()
    assert rep.first_odd_position is None


def test_missed_report_at_1e5(missed_1e5):
    rep = missed_1e5
    assert rep.x == 10**5
    assert rep.scan_limit == 1205747
    assert len(rep.missed) == 9035
    assert rep.missed[:6] == (150, 180, 210, 286, 304, 312)
    assert rep.odd_missed == (49267, 74135, 94091, 96463)
    assert rep.first_odd_position == 3885
    assert rep.missed[3884] == 49267  # 1-based position cross-check
    assert rep.attained_count + len(rep.missed) == 10**5
    assert all(a < b for a, b in zip(rep.missed, rep.missed[1:]))


def test_attained_bitmap_against_per_level_factorization(missed_1e5):
    """Replay the whole scan through an independent route.

    Every level below the scan limit is factored via a smallest-prime-factor
    table and evaluated with scalar closed forms, no vectorized sieve.  The
    resulting attained bitmap must match the report exactly.
    """
    x = missed_1e5.x
    limit = missed_1e5.scan_limit
    spf = build_spf_table(limit)
    table = spf.table.tolist()  # plain ints, much faster in a scalar loop
    attained = np.zeros(x + 1, dtype=bool)
    for n in range(1, limit):
        m = n
        mu = 1
        n2 = 1
        n3 = 1
        ni = 1
        while m > 1:
            p = table[m]
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            mu *= (p + 1) * p ** (e - 1)
            if p == 2:
                if e >= 2:
                    n2 = 0
            elif p % 4 == 3:
                n2 = 0
            elif p % 4 == 1:
                n2 *= 2
            if p == 3:
                if e >= 2:
                    n3 = 0
            elif p % 3 == 2:
                n3 = 0
            elif p % 3 == 1:
                n3 *= 2
            if e % 2:
                ni *= 2 * p ** (e // 2)
            else:
                ni *= (p + 1) * p ** (e // 2 - 1)
        g = (mu - 3 * n2 - 4 * n3 - 6 * ni + 12) // 12
        if g <= x:
            attained[g] = True
    missed = tuple(int(v) for v in np.nonzero(~attained[1:])[0] + 1)
    assert missed == missed_1e5.missed


def test_family_examples():
    assert even_genus_family(16).family_id == 1
    assert even_genus_family(5).family_id == 2  # 5 = 5 (mod 8)
    assert even_genus_family(7).family_id == 3  # 7 = 7 (mod 8), exponent 1
    assert even_genus_family(9).family_id == 4  # 3^2, 3 = 3 (mod 8)
    assert even_genus_family(6).family_id == 5  # 2 * 3
    assert even_genus_family(10).family_id == 5  # 2 * 5
    assert even_genus_family(343).family_id == 3  # 7^3, odd exponent
    assert even_genus_family(28).family_id == 6  # 4 * 7, 7 = 3 (mod 4)
    assert even_genus_family(12).family_id == 6  # 4 * 3
    for n in (11, 15, 17, 32, 45, 49, 2 * 49):
        assert even_genus_family(n).family_id is None
    with pytest.raises(ValueError):
        even_genus_family(0)


def test_family_predicts_parity_on_examples():
    for n in (5, 6, 7, 9, 10, 12, 16, 28, 11, 15, 17, 32, 45, 49, 343, 98):
        even = genus(n).genus % 2 == 0
        assert (even_genus_family(n).family_id is not None) == even


def test_bitmap_matches_per_level_predicate():
    limit = 30000
    member = family_members(1, limit, primes_up_to(limit))
    for n in range(1, limit + 1):
        assert member[n - 1] == (even_genus_family(n).family_id is not None)


def test_exceptional_levels_are_the_even_prefix():
    assert EXCEPTIONAL_EVEN_LEVELS == {1, 2, 3, 4, 8, 16}
    for n in EXCEPTIONAL_EVEN_LEVELS:
        assert genus(n).genus % 2 == 0


def test_parity_classification_clean_at_1e5():
    assert verify_parity_classification(10**5) == []


def test_distinct_odd_prime_counts():
    counts = odd_prime_counts(1, 20000, primes_up_to(20000))
    for n in range(1, 20001):
        expected = sum(1 for p, _ in factorize(n).factors if p != 2)
        assert counts[n - 1] == expected


def _windows():
    """Windows that do not start at 1: hand-picked edges, then seeded ones."""
    rng = random.Random(8)
    # 125 = 5**3, 250 = 2 * 5**3 and 1372 = 4 * 7**3 are members at a window's end
    fixed = [(2, 2), (3, 16), (5, 5), (17, 40), (100, 125), (200, 250), (1000, 1372),
             (SEGMENT - 700, SEGMENT + 700), (2 * SEGMENT - 1, 2 * SEGMENT), (999000, 10**6)]
    seeded = []
    for _ in range(12):
        lo = rng.randint(2, 10**6)
        seeded.append((lo, lo + rng.randint(0, 2000)))
    return fixed + seeded


def test_family_members_on_windows():
    primes = primes_up_to(10**6 + 2000)  # primes past hi are ignored
    for lo, hi in _windows():
        member = family_members(lo, hi, primes)
        assert member.size == hi - lo + 1
        for n in range(lo, hi + 1):
            assert member[n - lo] == (even_genus_family(n).family_id is not None), n
        assert family_members(lo, hi, primes_up_to(hi)).tolist() == member.tolist()


def test_odd_prime_counts_on_windows():
    primes = primes_up_to(10**6 + 2000)
    for lo, hi in _windows():
        counts = odd_prime_counts(lo, hi, primes)
        assert counts.size == hi - lo + 1
        for n in range(lo, hi + 1):
            assert counts[n - lo] == sum(1 for p, _ in factorize(n).factors if p != 2), n
        assert odd_prime_counts(lo, hi, primes_up_to(hi)).tolist() == counts.tolist()


@pytest.mark.parametrize("build", [family_members, odd_prime_counts])
def test_builders_refuse_primes_short_of_hi(build):
    # unchecked, primes_up_to(10) over [1, 100] gave n = 22 no odd prime and
    # dropped 13, 22 and 23 from the families
    with pytest.raises(ValueError, match="short of the prime 11 "):
        build(1, 100, primes_up_to(10))


@pytest.mark.parametrize("check", [verify_parity_classification, power_of_two_congruence_check])
def test_checks_pass_the_prime_check_at_1e6(check):
    # the last block ends at 10**6, past the last prime 999983 of the list
    assert check(10**6) == []


def test_power_of_two_congruence_hand_cases():
    # 105 = 3*5*7: s = 3, so g = 1 (mod 2); g0(105) = 13
    assert genus(105).genus == 13
    # 1155 = 3*5*7*11: s = 4, so g = 1 (mod 4); g0(1155) = 185 = 1 + 46*4
    assert genus(1155).genus == 185
    assert (185 - 1) % 4 == 0


def test_power_of_two_congruence_clean_at_1e5():
    assert power_of_two_congruence_check(10**5) == []


@pytest.mark.parametrize("check", [verify_parity_classification, power_of_two_congruence_check])
@pytest.mark.parametrize("limit", [0, -5])
def test_checks_refuse_limit_below_one(check, limit):
    with pytest.raises(ValueError, match=re.escape(f"LEVEL_MAX = {LEVEL_MAX}, got [1, {limit}]")):
        check(limit)


def test_even_attained_counts():
    count, ratio = even_attained_count(1000)
    assert count == 471
    assert ratio == pytest.approx(3.2535527364005863, rel=1e-12)
    count4, ratio4 = even_attained_count(10**4)
    assert count4 == 4442
    assert ratio4 == pytest.approx(4.0912331932318216, rel=1e-12)
    count5, ratio5 = even_attained_count(10**5)
    assert count5 == 40969
    assert ratio5 == pytest.approx(4.716730433743653, rel=1e-12)
