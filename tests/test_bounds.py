"""Lower/upper genus bounds and equality levels, block verdicts against the scalar forms."""

import math
from dataclasses import replace

import numpy as np
import pytest

from x0genus.arith import factorize
from x0genus.bounds import (
    bound_reports,
    check_bounds_range,
    expected_equality_levels,
    mu_over_12_bound_check,
    mu_over_12_violations,
)
from x0genus.genus import breakdown_block, genus
from oracles import lower_bound, lower_bound_equality, lower_bound_holds, upper_bound


def test_lower_bound_value():
    assert lower_bound(169) == pytest.approx((169 - 5 * 13 - 8) / 12)
    assert lower_bound(169) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        lower_bound(0)


def test_lower_bound_exact_tests():
    assert lower_bound_holds(169, 8)
    assert lower_bound_equality(169, 8)
    assert not lower_bound_equality(169, 9)
    assert not lower_bound_equality(170, 8)
    # 12g slightly below n - 5*sqrt(n) - 8 must be flagged
    assert not lower_bound_holds(169, 7)


def test_exact_tests_agree_with_floats():
    for n in range(1, 4000):
        g = genus(n).genus
        float_holds = 12 * g >= n - 5 * math.sqrt(n) - 8 - 1e-9
        assert lower_bound_holds(n, g) == float_holds


def test_upper_bound_domain():
    with pytest.raises(ValueError):
        upper_bound(2)
    assert upper_bound(3) > 0.0


def test_scan_equality_levels_up_to_1e4():
    reports = check_bounds_range(1, 10**4)
    assert all(not r.is_violation for r in reports)
    equality = [r.n for r in reports if r.lower_equality]
    assert equality == [169, 1369, 3721, 5329, 9409]
    assert equality == expected_equality_levels(1, 10**4)
    # 13, 37, 61, 73, 97 are the primes = 1 (mod 12) below 100
    assert equality == [p * p for p in (13, 37, 61, 73, 97)]


def test_expected_equality_levels_window():
    assert expected_equality_levels(200, 5000) == [1369, 3721]
    assert expected_equality_levels(1, 168) == []
    # isqrt(hi) at, below and just above the modulus 12, and a window of one level
    assert expected_equality_levels(1, 143) == expected_equality_levels(1, 144) == []
    assert expected_equality_levels(169, 169) == [169]
    assert expected_equality_levels(170, 1368) == []


def test_upper_bound_margin_at_the_primorial_of_31():
    # the sampled level closest to the upper bound, as bound_reports' docstring states
    n = 200_560_490_130
    assert factorize(n).primes == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    g = genus(n).genus
    assert g == 66_886_040_577
    assert round(g / upper_bound(n), 3) == 0.954


def test_mu_over_12_check_empty(genus_1e6):
    assert mu_over_12_bound_check(1, 10**4) == []
    assert np.all(12 * genus_1e6.genus <= genus_1e6.mu)


@pytest.mark.parametrize("lo", [10**6, 10**12])
def test_planted_upper_bound_violation_is_reported(lo):
    blk = breakdown_block(lo, lo + 1023)
    n = lo + 500
    genera = blk.genus.copy()
    genera[n - lo] = math.ceil(upper_bound(n))
    reports = bound_reports(replace(blk, genus=genera))
    assert [(r.n, r.is_violation, r.lower_equality) for r in reports] == [(n, True, False)]


@pytest.mark.parametrize("lo", [10**9, 4 * 10**9, 10**12, 10**16 - 2**17])
def test_planted_genus_zero_is_reported(lo):
    # lhs = N - 8, and its int64 square wraps from lhs of about 3.04e9
    blk = breakdown_block(lo, lo + 1023)
    n = lo + 500
    genera = blk.genus.copy()
    genera[n - lo] = 0
    reports = bound_reports(replace(blk, genus=genera))
    assert [(r.n, r.is_violation) for r in reports] == [(n, True)]


@pytest.mark.parametrize("lo", [10**9, 4 * 10**9, 10**12, 10**16 - 2**17])
def test_planted_mu_over_12_violation_is_reported(lo):
    # 12*g is at most mu + 12 here, and mu/N <= 4.4 keeps it far below 2**63
    blk = breakdown_block(lo, lo + 1023)
    n = lo + 500
    edge = int(blk.mu[n - lo]) // 12
    for g, reported in ((edge, []), (edge + 1, [n])):
        genera = blk.genus.copy()
        genera[n - lo] = g
        assert mu_over_12_violations(replace(blk, genus=genera)) == reported


def test_equality_found_near_level_max():
    # the largest square of a prime p = 1 (mod 12) up to 10**16
    p = next(q for q in range(10**8 - 3, 0, -12) if factorize(q).factors == ((q, 1),))
    n = p * p
    reports = bound_reports(breakdown_block(n - 512, n + 511))
    assert [(r.n, r.lower_equality, r.is_violation) for r in reports] == [(n, True, False)]


def planted_genera(n):
    """0, the lower-bound edge and ceil(upper_bound(n)), each with its neighbours."""
    edge = -(-(n - 8 - math.isqrt(25 * n)) // 12)  # least g with 12*g >= n - 8 - 5*sqrt(n)
    upper = math.ceil(upper_bound(n))
    return (0, edge - 1, edge, edge + 1, upper - 1, upper, upper + 1)


@pytest.mark.parametrize("lo", [10**6, 10**12, 10**16 - 2**17])
def test_bound_reports_match_the_scalar_bounds(lo):
    blk = breakdown_block(lo, lo + 1023)
    genera = blk.genus.copy()
    levels = [lo + 100 * (j + 1) for j in range(7)]
    for j, n in enumerate(levels):
        genera[n - lo] = planted_genera(n)[j]
    # lo is a square at 10**6 and 10**12, so its lower edge is an equality
    genera[0] = planted_genera(lo)[2]
    expected = []
    for n, g in zip(range(lo, lo + 1024), genera.tolist()):
        bad = not lower_bound_holds(n, g) or (n > 2 and g >= upper_bound(n))
        if bad or lower_bound_equality(n, g):
            expected.append((n, g, lower_bound_equality(n, g), bad))
    reports = bound_reports(replace(blk, genus=genera))
    assert [(r.n, r.genus, r.lower_equality, r.is_violation) for r in reports] == expected
    # both edges are crossed: below the lower one and from ceil(upper_bound) up
    verdicts = {r.n: r.is_violation for r in reports}
    assert [verdicts.get(n, False) for n in levels] == [True, True, False, False, False, True, True]
    equality = [r.n for r in reports if r.lower_equality]
    assert equality == ([lo] if math.isqrt(lo) ** 2 == lo else [])
