"""End-to-end acceptance gates at full scale.

One test per gate, numbered; each prints a single [acceptance] PASS/FAIL
line (shown with -rA or -s; the verbose test name carries the same verdict)
and then asserts.  Tolerances are stated inline, never adjusted to fit.
"""

from math import log, pi

import numpy as np

from x0genus import arith, bounds, stats, values
from oracles import (
    GROWTH_CONSTANT_DIGITS,
    mu_divisor_sum,
    nu2_brute,
    nu3_brute,
    nu_inf_divisor_sum,
)


def _gate(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {num:02d}: {verdict} - {detail}"
    print(line)
    assert ok, line


def test_c01_missed_values_at_1e5(missed_1e5):
    rep = missed_1e5
    ok = (
        len(rep.missed) == 9035
        and rep.missed[:6] == (150, 180, 210, 286, 304, 312)
        and rep.odd_missed == (49267, 74135, 94091, 96463)
        and rep.first_odd_position == 3885
    )
    _gate(
        1,
        ok,
        f"{len(rep.missed)} missed values up to 1e5, first six {rep.missed[:6]}, "
        f"odd ones {rep.odd_missed} starting at entry {rep.first_odd_position}",
    )


def test_c02_parity_classification_at_1e6():
    mismatches = values.verify_parity_classification(10**6)
    _gate(2, mismatches == [], f"{len(mismatches)} parity mismatches for N <= 1e6")


def test_c03_bounds_at_1e6(genus_1e6):
    reports = bounds.check_bounds_range(1, 10**6)
    violations = [r.n for r in reports if r.is_violation]
    equality = [r.n for r in reports if r.lower_equality]
    expected = bounds.expected_equality_levels(1, 10**6)
    mu12_bad = int(np.count_nonzero(12 * genus_1e6.genus > genus_1e6.mu))
    ok = (
        violations == []
        and equality == expected
        and equality[:5] == [169, 1369, 3721, 5329, 9409]
        and mu12_bad == 0
    )
    _gate(
        3,
        ok,
        f"{len(violations)} bound violations, {len(equality)} lower-bound equality "
        f"levels matching the {len(expected)} squares of primes = 1 (mod 12), "
        f"{mu12_bad} failures of 12*g <= mu",
    )


def test_c04_oracle_equivalences(genus_1e6):
    scan2 = np.array([nu2_brute(n) for n in range(1, 10**4 + 1)])
    scan3 = np.array([nu3_brute(n) for n in range(1, 10**4 + 1)])
    nu2_ok = np.array_equal(scan2, genus_1e6.nu2[: 10**4])
    nu3_ok = np.array_equal(scan3, genus_1e6.nu3[: 10**4])
    mu_ok = np.array_equal(mu_divisor_sum(10**5)[1:], genus_1e6.mu[: 10**5])
    ni_ok = np.array_equal(nu_inf_divisor_sum(10**5)[1:], genus_1e6.nu_inf[: 10**5])
    _gate(
        4,
        nu2_ok and nu3_ok and mu_ok and ni_ok,
        f"residue scans to 1e4 (nu2 {nu2_ok}, nu3 {nu3_ok}), "
        f"divisor sums to 1e5 (mu {mu_ok}, nu_inf {ni_ok})",
    )


def test_c05_average_at_1e6():
    rep = stats.average_partial(10**6)
    gap = abs(rep.avg_ratio - stats.AVG_RATIO_TARGET)
    ok = gap < 1e-3 and abs(stats.AVG_RATIO_TARGET - 0.126651) < 1e-6
    _gate(
        5,
        ok,
        f"(1/B) sum g/N = {rep.avg_ratio:.9f} vs 5/(4 pi^2) = "
        f"{stats.AVG_RATIO_TARGET:.9f}, gap {gap:.2e} (tolerance 1e-3)",
    )


def test_c06_dirichlet_identity():
    checks = [stats.zeta_identity_check(s) for s in (1.5, 2.0, 3.0)]
    ok = all(c.ok for c in checks)
    worst = max(c.gap / (c.tail_bound + c.rhs_error) for c in checks)
    _gate(
        6,
        ok,
        f"partial F(s) vs zeta(s) zeta(s+1)/zeta(2s+2) at s in (1.5, 2, 3): "
        f"every gap within its computed tail bound (worst ratio {worst:.3f})",
    )


def test_c07_power_of_two_congruence_at_1e6():
    bad = values.power_of_two_congruence_check(10**6)
    counts = values.odd_prime_counts(1, 10**6, arith.primes_up_to(10**6))
    in_scope = int(np.count_nonzero(counts > 2))
    _gate(
        7,
        bad == [] and in_scope > 0,
        f"{len(bad)} violations of g = 1 (mod 2^(s-2)) across {in_scope} levels "
        f"with s > 2 odd prime factors",
    )


def test_c08_growth_constants():
    c = stats.asymptotic_constants()
    # The a0 target read 0.8168146 until the 50-digit check in test_stats
    # showed a one-digit slip: A = exp(-1/(2 * 0.8168146)) leaves an
    # A-series residual of -2.3e-3.
    targets = GROWTH_CONSTANT_DIGITS
    gaps = {k: abs(getattr(c, k) - v) for k, v in targets.items()}
    digits_ok = all(g <= 1e-6 for g in gaps.values())

    res_b = abs(1.0 / c.B + log(c.B) - 1.0 - log(2.0))
    series = sum(
        c.A**n * ((n + 1) * log(n + 1) - n * log(n) - 1.0) for n in range(1, 121)
    )
    res_a = abs(series - 1.0)
    res_rel = max(
        abs(c.a0 + 1.0 / (2.0 * log(c.A))),
        abs(c.b - c.B * log(2.0)),
        abs(c.c - c.b / (2.0 - 2.0 * c.B)),
    )
    equations_ok = res_b < 1e-9 and res_a < 1e-9 and res_rel < 1e-9

    _gate(
        8,
        digits_ok and equations_ok,
        f"a0={c.a0:.10f} b={c.b:.10f} c={c.c:.10f} vs targets {targets} "
        f"(gaps {gaps['a0']:.2e}, {gaps['b']:.2e}, {gaps['c']:.2e}, tolerance 1e-6); "
        f"equation residuals B {res_b:.2e}, A-series {res_a:.2e}, relations "
        f"{res_rel:.2e} (tolerance 1e-9)",
    )


def test_c09_residue_density_bounds():
    small_ok = all(stats.bound_3_over_ell_squared(ell, 10**7) for ell in
                   (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                    59, 61, 67, 71, 73, 79, 83, 89, 97))
    margins = {}
    for ell, bound in stats.DENSITY_BOUND_TABLE.items():
        d = stats.residue_density_exact(ell, prime_limit=10**8)
        margins[ell] = bound - (d.exact_value + d.truncation_error)
    table_ok = all(m > 0 for m in margins.values())
    tightest = min(margins, key=margins.get)
    _gate(
        9,
        small_ok and table_ok,
        f"P(ell) + truncation below the table bound for all eight ell "
        f"(tightest: ell={tightest}, margin {margins[tightest]:.2e}); "
        f"P(ell) < 3/ell^2 for all 24 odd primes up to 100: {small_ok}",
    )


def test_c10_histogram_enrichment_mod_7():
    h = stats.residue_histogram(7, 10**6)
    low = min(h.counts[r] for r in (0, 4, 6))
    high = max(h.counts[r] for r in (2, 3, 5))
    ok = low > high and h.enrichment_holds is True
    _gate(
        10,
        ok,
        f"counts mod 7 {h.counts}: min of classes (0,4,6) = {low} > "
        f"max of classes (2,3,5) = {high}",
    )


def test_c11_squarefree_density_at_1e6():
    frac = stats.squarefree_fraction(10**6)
    gap = abs(frac - 0.607927)
    _gate(
        11,
        gap < 0.002,
        f"squarefree fraction {frac:.6f} vs 6/pi^2 = {6 / pi**2:.6f}, "
        f"gap {gap:.2e} (tolerance 0.002)",
    )
