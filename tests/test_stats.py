"""Averages, the Dirichlet identity, residue densities, and growth constants."""

import re
from dataclasses import replace
from fractions import Fraction
from math import inf, isfinite, log, nextafter, pi

import numpy as np
import pytest
import scipy.special
import sympy

from x0genus import stats
from x0genus.arith import primes_in_progression, primes_up_to
from x0genus.genus import SEGMENT, breakdown_block
from x0genus.scalar import LEVEL_MAX, S_MAX, genus
from x0genus.stats import (
    AVG_RATIO_TARGET,
    MU_RATIO_BELOW_FOUR_LIMIT,
    SQUAREFREE_MAX,
    _bisect,
    _genus_residue_counts,
    _order_of_two,
    _require_odd_prime,
    asymptotic_constants,
    average_partial,
    block_genus_sum,
    dirichlet_F,
    dirichlet_tail_bound,
    flagged_residue_classes,
    residue_density_empirical,
    residue_density_exact,
    residue_histogram,
    squarefree_fraction,
    zeta_identity_check,
    zeta_with_error,
)
from x0genus.values import family_members
import oracles
from oracles import (
    DENSITY_BOUND_TABLE,
    GROWTH_CONSTANT_DIGITS,
    bound_3_over_ell_squared,
    flagged_residue_classes_walk,
    genus_table,
    growth_constants_mp,
    restricted_congruence_check,
)


# ---------------------------------------------------------------------------
# zeta


def test_zeta_closed_forms():
    assert zeta_with_error(2.0)[0] == pytest.approx(pi**2 / 6, rel=1e-14)
    assert zeta_with_error(4.0)[0] == pytest.approx(pi**4 / 90, rel=1e-14)
    assert zeta_with_error(6.0)[0] == pytest.approx(pi**6 / 945, rel=1e-14)


def test_zeta_against_scipy():
    for s in (1.05, 1.1, 1.3, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 8.5, 12.0):
        value, err = zeta_with_error(s)
        assert err < 1e-20
        assert value == pytest.approx(float(scipy.special.zeta(s, 1)), rel=1e-13)


def test_zeta_domain():
    for s in (1.0, 0.5, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            zeta_with_error(s)


# s from near the pole to where zeta(s) - 1 is below 1e-3
ZETA_CHECK_S = (1.0001, 1.5, 2.0, 3.0, 4.0, 5.0, 10.0)


@pytest.mark.parametrize("s", ZETA_CHECK_S)
def test_zeta_remainder_against_60_digits(s):
    """The claimed Euler-Maclaurin remainder bounds the true one.

    The same sum (cutoff 32, Bernoulli terms B_2 to B_16) is taken again at
    60 digits, so its distance from mpmath's zeta(s) is the method's own
    remainder, free of float rounding; that must not exceed the remainder
    zeta_with_error reports.  The float value may add rounding on top, a
    few units in the last place of zeta(s).
    """
    mpmath = pytest.importorskip("mpmath")
    value, remainder = zeta_with_error(s)
    with mpmath.workdps(60):
        x = mpmath.mpf(s)
        m = mpmath.mpf(32)
        em = mpmath.fsum(n**-x for n in range(1, 33)) + m ** (1 - x) / (x - 1) - m**-x / 2
        rising = x
        for j in range(1, 9):
            em += mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * rising * m ** (-x - 2 * j + 1)
            rising *= (x + 2 * j - 1) * (x + 2 * j)
        exact = mpmath.zeta(x)
        assert abs(em - exact) <= remainder
        eps = mpmath.mpf(np.finfo(float).eps)
        assert abs(mpmath.mpf(value) - exact) <= remainder + 4 * eps * exact


# ---------------------------------------------------------------------------
# averages


def test_average_trivial_bound():
    rep = average_partial(1)
    assert rep.avg_ratio == 0.0
    assert rep.avg_genus_over_b == 0.0
    with pytest.raises(ValueError):
        average_partial(0)


def test_average_regressions():
    rep = average_partial(10**4)
    assert rep.avg_ratio == pytest.approx(0.1237620906667493, rel=1e-13)
    assert rep.avg_genus_over_b == pytest.approx(0.0626844, rel=1e-13)
    assert rep.target == AVG_RATIO_TARGET


@pytest.mark.parametrize("lo", [6 * 10**14, 10**16 - 2**17])
def test_block_genus_sum_is_exact_near_level_max(lo):
    blk = breakdown_block(lo, lo + SEGMENT - 1)
    exact = sum(blk.genus.tolist())
    assert exact >= 2**63  # an int64 sum would wrap
    assert block_genus_sum(blk) == exact


def test_average_targets():
    assert AVG_RATIO_TARGET == pytest.approx(0.126651, abs=1e-6)
    # AverageReport's avg_genus_over_b converges to half the target, 5/(8 pi^2)
    assert AVG_RATIO_TARGET / 2 == pytest.approx(5.0 / (8.0 * pi**2), rel=1e-15)


# ---------------------------------------------------------------------------
# Dirichlet identity


def test_dirichlet_partial_sums_increase_within_tail_bound():
    for s in (1.5, 2.0, 3.0):
        f3 = dirichlet_F(s, 10**3)
        f4 = dirichlet_F(s, 10**4)
        f5 = dirichlet_F(s, 10**5)
        assert f3 < f4 < f5
        assert f5 - f3 <= dirichlet_tail_bound(s, 10**3)
        assert f5 - f4 <= dirichlet_tail_bound(s, 10**4)


def test_dirichlet_identity_small_and_regression():
    for s in (1.5, 2.0, 3.0):
        chk = zeta_identity_check(s, n_terms=10**4)
        assert chk.ok
        assert chk.gap <= chk.tail_bound + chk.rhs_error + 1e-11 * (1 + abs(chk.rhs))
    chk = zeta_identity_check(2.0, n_terms=10**6)
    assert chk.ok
    assert chk.lhs == pytest.approx(1.943594917004289, rel=1e-13)
    assert chk.rhs == pytest.approx(1.9435964368207594, rel=1e-13)


def test_dirichlet_validations():
    with pytest.raises(ValueError):
        dirichlet_F(1.0)
    with pytest.raises(ValueError):
        dirichlet_F(2.0, 0)
    with pytest.raises(ValueError):
        dirichlet_tail_bound(1.0, 100)
    for s in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            dirichlet_F(s)
        with pytest.raises(ValueError):
            dirichlet_tail_bound(s, 100)


def test_s_ceiling():
    chk = zeta_identity_check(S_MAX, n_terms=1000)
    fields = (chk.lhs, chk.rhs, chk.gap, chk.tail_bound, chk.rhs_error)
    assert all(isfinite(v) for v in fields) and chk.ok
    # zeta_identity_check takes zeta at 2s + 2
    assert all(isfinite(v) for v in zeta_with_error(2 * S_MAX + 2))
    above = nextafter(S_MAX, inf)
    for s in (above, 1e19, 1e30, 1e200):
        for call in (
            lambda: dirichlet_F(s, 10),
            lambda: dirichlet_tail_bound(s, 10),
            lambda: zeta_identity_check(s, 10),
        ):
            with pytest.raises(ValueError, match="1 < s <= 1000000000000000,"):
                call()
    for s in (nextafter(2 * S_MAX + 2, inf), 1e19, 1e30):
        with pytest.raises(ValueError, match="1 < s <= 2000000000000002,"):
            zeta_with_error(s)


def test_tail_bound_monotone():
    assert dirichlet_tail_bound(2.0, 10**4) < dirichlet_tail_bound(2.0, 10**3)
    assert dirichlet_tail_bound(3.0, 10**4) < dirichlet_tail_bound(2.0, 10**4)


def test_mu_ratio_four_threshold():
    # prod (1 + 1/p) over p <= 29 is still under 4; adding 31 crosses it
    ratio = Fraction(1)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        ratio *= Fraction(p + 1, p)
    assert ratio < 4
    assert ratio * Fraction(32, 31) >= 4
    assert MU_RATIO_BELOW_FOUR_LIMIT == 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31


# ---------------------------------------------------------------------------
# residue densities


def test_density_rejects_bad_ell():
    for bad in (2, 1, 9, 15):
        with pytest.raises(ValueError):
            residue_density_exact(bad, 10**4)
    for limit in (1, 0):  # no prime up to the limit
        with pytest.raises(ValueError, match="prime_limit >= 2"):
            residue_density_exact(7, limit)


@pytest.mark.parametrize("ell", [7, 13, 23])
def test_density_certificate_holds_at_small_limits(ell):
    # the truncation bound needs no relation between ell and the limit
    deep = residue_density_exact(ell, 10**8).exact_value
    for limit in (10, 2 * ell - 1):
        d = residue_density_exact(ell, limit)
        assert d.exact_value + d.truncation_error >= deep, limit


def test_density_hand_computation():
    # primes = 2 (mod 3) up to 100, straight off a prime list
    ss = [2, 5, 11, 17, 23, 29, 41, 47, 53, 59, 71, 83, 89]
    prod = 1.0
    for s in ss:
        prod *= 1.0 - 1.0 / (s * s + s)
    expected = 1.0 - (1.0 - 3.0**-3) * prod
    d = residue_density_exact(3, 100)
    assert d.exact_value == pytest.approx(expected, rel=1e-15)
    assert d.truncation_error == pytest.approx(1 / 300 + 1e-4, rel=1e-15)


def test_density_increases_and_brackets():
    limits = (100, 10**3, 10**4, 10**5)
    ds = [residue_density_exact(7, L) for L in limits]
    for a, b in zip(ds, ds[1:]):
        assert a.exact_value <= b.exact_value  # truncation under-counts
        assert b.exact_value <= a.exact_value + a.truncation_error
    assert all(0 < d.exact_value < 1 for d in ds)


def test_density_regressions():
    assert residue_density_exact(3, 10**6).exact_value == pytest.approx(
        0.23728853602658517, rel=1e-13
    )
    assert residue_density_exact(7, 10**6).exact_value == pytest.approx(
        0.00945881393406689, rel=1e-13
    )


def test_density_keeps_ell_cubed_when_the_product_is_1():
    # no prime = -1 (mod ell) lies below the default limit, so the product
    # is 1 and P(ell) is ell^-3 alone, far below the float spacing at 1
    d = residue_density_exact(10000019)
    assert d.exact_value == 10000019.0**-3


@pytest.mark.parametrize("ell", [3, 13, 23])
def test_density_within_an_ulp_of_its_product(ell):
    # 1 - (1 - ell^-3) * product, evaluated exactly at the float product
    s = primes_in_progression(ell, ell - 1, 10**6).astype(np.float64)
    product = Fraction(float(np.prod(1.0 - 1.0 / (s * s + s))))
    exact = 1 - (1 - Fraction(1, ell**3)) * product
    got = residue_density_exact(ell, 10**6).exact_value
    assert abs(Fraction(got) - exact) <= Fraction(float(np.spacing(float(exact))))


def test_density_table_bounds_easy_cases():
    for ell in (3, 7):
        d = residue_density_exact(ell, 10**6)
        assert d.exact_value + d.truncation_error < DENSITY_BOUND_TABLE[ell]


def test_three_over_ell_squared_bound():
    for ell in (3, 5, 7, 11, 13, 29, 97):
        assert bound_3_over_ell_squared(ell, 10**5)


def test_flagged_classes():
    assert flagged_residue_classes(3) == (0, 2)
    assert flagged_residue_classes(5) == (0, 2, 3, 4)
    assert flagged_residue_classes(7) == (0, 4, 6)
    for ell in primes_up_to(3000)[1:].tolist():  # every odd prime below 3000
        flagged = flagged_residue_classes(ell)
        assert 1 not in flagged  # 1 - 2^k is never 1 mod ell
        assert flagged == flagged_residue_classes_walk(ell), ell
        # one class per power of 2 below its order
        assert (_order_of_two(ell) == ell - 1) == (len(flagged) == ell - 1), ell


def test_flagged_classes_near_the_ceiling():
    # 2 is a primitive root mod 1048573 but has order (ell - 1) / 2 mod 786433
    for ell, order in ((1048573, 1048572), (786433, 393216)):
        flagged = flagged_residue_classes(ell)
        assert len(flagged) == order
        assert flagged == flagged_residue_classes_walk(ell), ell


def test_two_primitive_root_values():
    def primitive(ell):  # 2 generates the whole group mod ell
        return _order_of_two(ell) == ell - 1

    assert primitive(3)
    assert primitive(5)
    assert not primitive(7)
    assert primitive(11)
    assert primitive(13)
    assert not primitive(17)
    assert not primitive(23)
    # the order test reads no residue classes, so it answers far above the walk's ceiling
    pinned = {1048573: True, 10**9 + 7: False, 2**61 - 1: False, 2**64 - 59: True}
    for ell, expected in pinned.items():
        assert primitive(ell) is expected, ell
        assert sympy.is_primitive_root(2, ell) is expected, ell
    for n in (1, 9, 2**64 - 1):
        with pytest.raises(ValueError, match="odd prime"):
            _require_odd_prime(n)
    with pytest.raises(ValueError):
        _require_odd_prime(2)


def test_flagged_classes_refuse_above_the_ceiling():
    with pytest.raises(ValueError, match="ell <="):
        flagged_residue_classes(10**9 + 7)
    with pytest.raises(ValueError, match="ell <="):
        flagged_residue_classes(1048583)  # the first prime above 2**20


def test_histogram_small():
    h = residue_histogram(5, 10**4)
    assert sum(h.counts) == 10**4
    assert h.flagged == (0, 2, 3, 4)
    assert h.two_primitive_root
    assert h.enrichment_holds is None
    with pytest.raises(ValueError):
        residue_histogram(5, 0)


def test_histogram_matches_empirical_route():
    bound = 10**5
    h = residue_histogram(3, bound)
    assert h.counts[1] / bound == residue_density_empirical(3, bound)


def test_histogram_refuses_ell_above_ceiling(monkeypatch):
    def must_not_run(*args):
        raise AssertionError("ran before the refusal")

    # flagged_residue_classes holds the refusal; the classes and the counts come after it
    monkeypatch.setattr(stats, "_genus_residue_counts", must_not_run)
    monkeypatch.setattr(stats, "_order_of_two", must_not_run)
    with pytest.raises(ValueError, match="ell <="):
        residue_histogram(1048583, 10)  # the first prime above 2**20


def test_empirical_density_counts_only_class_1(monkeypatch):
    genera = genus_table(10**4).genus.tolist()
    monkeypatch.setattr(stats, "_genus_residue_counts", None)  # no ell-long counts
    for ell in (3, 13, 1048583, 2**64 - 59):  # 2**64 - 59 does not fit in int64
        expected = sum(1 for g in genera if g % ell == 1) / 10**4
        assert residue_density_empirical(ell, 10**4) == expected, ell


def test_histogram_mod_7_regression():
    h = residue_histogram(7, 10**6)
    assert h.counts == (158585, 129747, 137553, 132881, 149710, 136735, 154789)
    assert h.flagged == (0, 4, 6)
    assert not h.two_primitive_root
    assert h.enrichment_holds is True


def test_empirical_frequencies_need_a_level():
    for bound in (0, -5):
        with pytest.raises(ValueError):
            residue_density_empirical(7, bound)
        with pytest.raises(ValueError):
            _genus_residue_counts(2, bound)


def test_empirical_density_regressions():
    assert residue_density_empirical(3, 10**6) == pytest.approx(0.342351, abs=1e-12)
    assert residue_density_empirical(5, 10**6) == pytest.approx(0.180205, abs=1e-12)


def test_even_genus_frequency_matches_family_count():
    freq = int(_genus_residue_counts(2, 10**6)[0]) / 10**6  # even genera
    assert freq == pytest.approx(0.071388, abs=1e-12)
    # independent route: count members of the six families directly
    members = int(np.count_nonzero(family_members(1, 10**6, primes_up_to(10**6))))
    assert freq == members / 10**6


def test_restricted_congruence_hand_cases():
    # 59 = -1 (mod 60): g0(59) = 5 = 1 - 2/2 = 0 (mod 5)
    assert genus(59).genus % 5 == (1 - genus(59).nu_inf // 2) % 5
    # 71 = -1 (mod 36): g0(71) = 6 = 0 (mod 3)
    assert genus(71).genus % 3 == (1 - genus(71).nu_inf // 2) % 3


def test_restricted_congruence_clean():
    assert restricted_congruence_check(3, 10**5) == []
    assert restricted_congruence_check(5, 3 * 10**4) == []
    # the scans above are not vacuous
    assert primes_in_progression(36, 35, 10**5).size
    assert primes_in_progression(60, 59, 3 * 10**4).size
    # 12*ell past int64: no prime up to the bound is -1 mod 12*ell
    assert restricted_congruence_check(2**61 - 1, 1000) == []
    assert restricted_congruence_check(2**64 - 59, 1000) == []  # the last prime below 2**64


def test_restricted_congruence_selects_the_restricted_levels(monkeypatch):
    # with every genus shifted by one, each restricted level breaks the
    # congruence mod 3, so the check returns exactly those levels
    real_iter_blocks = oracles.iter_blocks

    def shifted_blocks(lo, hi):
        return (replace(b, genus=b.genus + 1) for b in real_iter_blocks(lo, hi))

    monkeypatch.setattr(oracles, "iter_blocks", shifted_blocks)
    bound = SEGMENT + 5000
    qs = primes_in_progression(36, 35, bound).tolist()
    expected = sorted({n for q in qs for n in range(q, bound + 1, q)})
    assert restricted_congruence_check(3, bound) == expected

@pytest.mark.parametrize("bound", [0, -5])
def test_restricted_congruence_refuses_bound_below_one(bound):
    with pytest.raises(ValueError, match=re.escape(f"LEVEL_MAX = {LEVEL_MAX}, got [1, {bound}]")):
        restricted_congruence_check(3, bound)


# ---------------------------------------------------------------------------
# squarefree density


def test_squarefree_small():
    # 1..10 minus {4, 8, 9} leaves 7 squarefree
    assert squarefree_fraction(10) == 0.7
    with pytest.raises(ValueError):
        squarefree_fraction(0)


def test_squarefree_refuses_above_its_ceiling(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("allocated before the refusal")

    monkeypatch.setattr(stats.np, "ones", must_not_run)
    with pytest.raises(ValueError, match="SQUAREFREE_MAX"):
        squarefree_fraction(SQUAREFREE_MAX + 1)


def test_squarefree_regression_and_target():
    assert squarefree_fraction(10**6) == pytest.approx(0.607926, abs=1e-12)
    assert 6 / pi**2 == pytest.approx(0.607927, abs=1e-6)  # the target criterion 11 prints


# ---------------------------------------------------------------------------
# growth constants


def test_constants_satisfy_defining_equations():
    c = asymptotic_constants()
    assert abs(1.0 / c.B + log(c.B) - 1.0 - log(2.0)) < 1e-9
    total = 0.0
    for n in range(1, 121):  # A**120 is ~1e-32, far past any 1e-9 budget
        total += c.A**n * ((n + 1) * log(n + 1) - n * log(n) - 1.0)
    assert abs(total - 1.0) < 1e-9
    assert c.a0 == pytest.approx(-1.0 / (2.0 * log(c.A)), rel=1e-14)
    assert c.b == pytest.approx(c.B * log(2.0), rel=1e-14)
    assert c.c == pytest.approx(c.b / (2.0 - 2.0 * c.B), rel=1e-14)


def test_constants_regressions():
    c = asymptotic_constants()
    assert c.A == pytest.approx(0.5425985860993182, abs=1e-9)
    assert c.B == pytest.approx(0.3733646177016741, abs=1e-9)
    assert c.a0 == pytest.approx(0.8178146400857208, abs=1e-9)
    assert c.b == pytest.approx(0.25879663208075726, abs=1e-9)
    assert c.c == pytest.approx(0.2064969832469103, abs=1e-9)


def test_constants_against_50_digit_roots():
    mpmath = pytest.importorskip("mpmath")
    ref = growth_constants_mp()
    c = asymptotic_constants()
    for name in ("A", "B", "a0", "b", "c"):
        assert abs(getattr(c, name) - float(ref[name])) < 1e-10, name
    # the digits acceptance gate 08 pins are the seven-digit truncations
    with mpmath.workdps(50):
        for name, pinned in GROWTH_CONSTANT_DIGITS.items():
            assert int(mpmath.floor(ref[name] * 10**7)) == round(pinned * 10**7), name


def test_bisect_needs_a_sign_change():
    for lo, hi in ((0.6, 0.9), (0.1, 0.4)):
        with pytest.raises(ValueError, match="same sign"):
            _bisect(lambda t: t - 0.5, lo, hi)
    assert _bisect(lambda t: t - 0.5, 0.0, 1.0) == 0.5
    assert _bisect(lambda t: 0.25 - t * t, 0.0, 1.0) == 0.5
    # a root at either end is found, not refused
    assert _bisect(lambda t: t, 0.0, 1.0) == 0.0
    assert _bisect(lambda t: 1.0 - t, 0.0, 1.0) == 1.0
