"""Lower/upper genus bounds, equality levels, and primorial diagnostics."""

import math
from dataclasses import replace

import numpy as np
import pytest

from x0genus.arith import factorize
from x0genus.bounds import (
    MERTENS_COEFF,
    UPPER_BOUND_COEFF,
    bound_reports,
    check_bounds_range,
    expected_equality_levels,
    limsup_diagnostic,
    limsup_table,
    lower_bound,
    lower_bound_equality,
    lower_bound_holds,
    mu_over_12_bound_check,
    primorial,
    upper_bound,
)
from x0genus.genus import breakdown_block, genus


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


def test_equality_found_near_level_max():
    # the largest square of a prime p = 1 (mod 12) up to 10**16
    p = next(q for q in range(10**8 - 3, 0, -12) if factorize(q).factors == ((q, 1),))
    n = p * p
    reports = bound_reports(breakdown_block(n - 512, n + 511))
    assert [(r.n, r.lower_equality, r.is_violation) for r in reports] == [(n, True, False)]


def test_primorials():
    assert primorial(2) == 2
    assert primorial(7) == 210
    assert primorial(11) == 2310
    assert primorial(31) == 200560490130
    assert primorial(52) == primorial(47) == 614889782588491410
    with pytest.raises(ValueError):
        primorial(1)
    with pytest.raises(ValueError):
        primorial(53)


def test_limsup_diagnostic_rows():
    row = limsup_diagnostic(47)
    assert row.primorial == 614889782588491410
    assert row.mu_ratio == pytest.approx(1.142796458235486, rel=1e-12)
    assert row.genus_ratio == pytest.approx(0.09876127819884596, rel=1e-12)
    assert row.mu_limit == pytest.approx(MERTENS_COEFF)
    assert row.genus_limit == pytest.approx(UPPER_BOUND_COEFF)


def test_limsup_table_converges_downward():
    rows = limsup_table([7, 13, 23, 31, 43, 47])
    ratios = [r.mu_ratio for r in rows]
    # mu(N_x)/(N_x log x) decreases toward 6 e^gamma / pi^2 from above
    assert ratios == sorted(ratios, reverse=True)
    assert all(r.mu_ratio > MERTENS_COEFF for r in rows)
    assert all(r.genus_ratio > UPPER_BOUND_COEFF for r in rows[1:])
    assert rows[-1].mu_ratio == pytest.approx(1.142796458235486, rel=1e-12)


def test_limsup_table_default_covers_primes():
    rows = limsup_table()
    assert [r.x for r in rows][:4] == [2, 3, 5, 7]
    assert rows[-1].x == 47
