"""Closed forms for mu, nu2, nu3, nu_inf, and the assembled genus.

Three routes must agree: breakdown_from_factorization over the
Miller-Rabin and Pollard-Brent factorization, the vectorized block sieve,
and definition-level oracles (exhaustive residue scans, divisor sums).
"""

import re
import tracemalloc
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import x0genus.genus as genus_module
from x0genus.arith import Factorization, primes_up_to, require_primes_up_to
from x0genus.genus import (
    LEVEL_MAX,
    PERIOD,
    SEGMENT,
    SMALL_PRIME_LIMIT,
    ConsistencyError,
    GenusBreakdown,
    breakdown_block,
    breakdown_from_factorization,
    genus,
    iter_blocks,
    theta,
)
import oracles
from oracles import (
    RESIDUE_SCAN_LIMIT,
    breakdown_block_strided,
    build_spf_table,
    genus_range,
    genus_table,
    mu_divisor_sum,
    nu2_brute,
    nu3_brute,
    nu_inf_divisor_sum,
    nu_infinity_brute,
)

FIELDS = ("mu", "nu2", "nu3", "nu_inf", "genus")

# (n, mu, nu2, nu3, nu_inf, genus), each checked by hand via
# 12*(g - 1) = mu - 3*nu2 - 4*nu3 - 6*nu_inf
KNOWN = [
    (1, 1, 1, 1, 1, 0),
    (2, 3, 1, 0, 2, 0),
    (11, 12, 0, 0, 2, 1),
    (22, 36, 0, 0, 4, 2),
    (23, 24, 0, 0, 2, 2),
    (37, 38, 2, 2, 2, 2),
    (59, 60, 0, 0, 2, 5),
    (169, 182, 2, 2, 14, 8),
    (1155, 2304, 0, 0, 16, 185),
]

GENUS_ZERO_LEVELS = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 25}


def test_known_breakdowns():
    for n, m, n2, n3, ni, g in KNOWN:
        b = genus(n)
        assert (b.n, b.mu, b.nu2, b.nu3, b.nu_inf, b.genus) == (n, m, n2, n3, ni, g)


def test_genus_zero_levels():
    got = {n for n in range(1, 72) if genus(n).genus == 0}
    assert got == GENUS_ZERO_LEVELS


def test_theta_values():
    assert theta(2, 1) == 2
    assert theta(2, 2) == 3
    assert theta(3, 2) == 4
    assert theta(5, 3) == 10
    assert theta(7, 4) == 56
    with pytest.raises(ValueError):
        theta(2, 0)


def test_breakdown_identity_enforced():
    with pytest.raises(Exception):
        GenusBreakdown(11, 12, 0, 0, 2, 7)


def test_identity_holds_on_range():
    spf = build_spf_table(5000)
    for b in genus_range(1, 5000, spf):
        assert 12 * (b.genus - 1) == b.mu - 3 * b.nu2 - 4 * b.nu3 - 6 * b.nu_inf
        assert b.genus >= 0


def test_nu2_nu3_against_residue_scans():
    for n in range(1, 2000):
        b = genus(n)
        assert b.nu2 == nu2_brute(n)
        assert b.nu3 == nu3_brute(n)


def test_mu_and_nu_inf_against_divisor_sums():
    limit = 20000
    mu_oracle = mu_divisor_sum(limit)
    ni_oracle = nu_inf_divisor_sum(limit)
    blk = breakdown_block(1, limit)
    assert np.array_equal(blk.mu, mu_oracle[1:])
    assert np.array_equal(blk.nu_inf, ni_oracle[1:])


def test_nu_infinity_brute_matches_closed_form():
    for n in range(1, 300):
        assert genus(n).nu_inf == nu_infinity_brute(n)


def test_brute_ceiling(monkeypatch):
    with pytest.raises(ValueError):
        nu2_brute(10, ceiling=5)
    with pytest.raises(ValueError):
        nu2_brute(0)
    with pytest.raises(ValueError):
        nu3_brute(51, ceiling=50)
    assert nu3_brute(49, ceiling=50) == genus(49).nu3
    assert nu2_brute(51, ceiling=100) == genus(51).nu2


def test_scalar_matches_block_low_and_high():
    blk = breakdown_block(1, 3000)
    for n in range(1, 3001):
        assert blk.breakdown(n) == genus(n)
    hi = breakdown_block(999500, 1000000)
    for n in range(999500, 1000001):
        assert hi.breakdown(n) == genus(n)


def test_block_argument_validation():
    with pytest.raises(ValueError):
        breakdown_block(0, 10)
    with pytest.raises(ValueError):
        breakdown_block(7, 6)
    blk = breakdown_block(10, 20)
    with pytest.raises(ValueError):
        blk.breakdown(9)
    assert len(blk) == 11
    assert blk.levels[0] == 10


def test_every_window_up_to_40_matches_scalar():
    # below 9 the cofactor pass meets the primes 2 and 3, and these windows
    # also hold the squares 4 and 9 that zero nu2 and nu3
    for hi in range(1, 41):
        for lo in range(1, hi + 1):
            blk = breakdown_block(lo, hi)
            for n in range(lo, hi + 1):
                assert blk.breakdown(n) == genus(n), (lo, hi, n)


def test_levels_above_level_max_refused(monkeypatch):
    with pytest.raises(ValueError, match="LEVEL_MAX"):
        breakdown_block(LEVEL_MAX, LEVEL_MAX + 1, primes_up_to(10))

    def no_sieve(limit):
        raise AssertionError("primes sieved before the level check")

    monkeypatch.setattr(genus_module, "primes_up_to", no_sieve)
    # refused at the call, with no next()
    for lo, hi in [(LEVEL_MAX - 10, LEVEL_MAX + 1), (1, 0), (1, LEVEL_MAX + 1)]:
        with pytest.raises(ValueError, match=re.escape(f"LEVEL_MAX = {LEVEL_MAX}, got [{lo}, {hi}]")):
            iter_blocks(lo, hi)


def test_planted_cusp_fault_raises_consistency_error(monkeypatch):
    # one cusp too many at every prime power breaks 12 | mu - 3nu2 - 4nu3 - 6nu_inf
    # (at n = 11: 12 - 6*3 + 12 = 6), on the scalar route and in the block sieve
    monkeypatch.setattr(genus_module, "theta", lambda p, r: theta(p, r) + 1)
    with pytest.raises(ConsistencyError):
        genus(11)
    with pytest.raises(ConsistencyError):
        breakdown_block(1, 100)


def test_block_refuses_primes_short_of_sqrt_hi():
    # 11 <= isqrt(10**6 + 100) is missing; unchecked, 58 of the 101 levels came out wrong
    with pytest.raises(ValueError, match="short of the prime 11 "):
        breakdown_block(10**6, 10**6 + 100, primes_up_to(10))
    with pytest.raises(ValueError, match="short of the prime 999983 "):
        breakdown_block(999983**2 - 100, 999983**2, primes_up_to(999982))
    with pytest.raises(ValueError, match="short of the prime 2 "):
        breakdown_block(4, 8, primes_up_to(1))


def test_prime_check_spans_the_largest_gap_below_1e8():
    # 47326693 -> 47326913 is the largest prime gap below 1e8: every root
    # inside it is covered, and the first one past it is not
    primes = primes_up_to(47326912)
    assert primes[-1] == 47326693
    require_primes_up_to(primes, 47326912)
    with pytest.raises(ValueError, match="short of the prime 47326913 "):
        require_primes_up_to(primes, 47326913)


def test_block_divides_its_cofactor_into_stripped():
    # the cofactor reuses stripped's buffer, so one block's traced peak is
    # 7.90 int64 arrays of its length; a cofactor array of its own adds one
    lo, size = 10**8, 2**17
    primes = primes_up_to(isqrt(lo + size - 1))
    breakdown_block(lo, lo + size - 1, primes)
    tracemalloc.start()
    try:
        breakdown_block(lo, lo + size - 1, primes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.5 * 8 * size


# the primes up to isqrt(hi) end below it unless it is prime: at 999983
# for isqrt(hi) = 10**6, and below the square isqrt(hi) = 1009**2
@pytest.mark.parametrize("hi", [10**12 + 2**17, 1009**4])
def test_block_accepts_primes_ending_in_a_prime_gap(hi):
    primes = primes_up_to(isqrt(hi))
    assert primes[-1] < isqrt(hi)
    lo = hi - 2000
    _assert_blocks_equal(breakdown_block(lo, hi, primes), breakdown_block_strided(lo, hi))


def test_genus_range_validation():
    spf = build_spf_table(100)
    with pytest.raises(ValueError):
        list(genus_range(0, 10, spf))
    with pytest.raises(ValueError):
        list(genus_range(1, 101, spf))


def test_iter_blocks_segmentation():
    hi = 3 * SEGMENT + 123
    blocks = list(iter_blocks(1, hi))
    assert [(b.lo, b.hi) for b in blocks] == [(a, min(a + SEGMENT - 1, hi))
                                              for a in range(1, hi + 1, SEGMENT)]
    with pytest.raises(ValueError, match=re.escape(f"LEVEL_MAX = {LEVEL_MAX}, got [5, 4]")):
        iter_blocks(5, 4)  # refused at the call, with no next()


def test_genus_table_concatenates():
    t = genus_table(SEGMENT + 77)
    assert (t.lo, t.hi) == (1, SEGMENT + 77)
    assert t.breakdown(SEGMENT + 77) == genus(SEGMENT + 77)


def test_brute_scans_refuse_int64_overflow(monkeypatch):
    def no_alloc(*args, **kwargs):
        raise AssertionError("residue array allocated before the refusal")

    monkeypatch.setattr(oracles.np, "arange", no_alloc)
    for scan in (nu2_brute, nu3_brute):
        with pytest.raises(ValueError, match=str(RESIDUE_SCAN_LIMIT)):
            scan(RESIDUE_SCAN_LIMIT + 1)
        with pytest.raises(ValueError, match=str(RESIDUE_SCAN_LIMIT)):
            scan(RESIDUE_SCAN_LIMIT + 1, ceiling=10**12)
    # the largest residue the scan squares still fits: (n-1)^2 + (n-1) + 1 < 2^63
    x = RESIDUE_SCAN_LIMIT - 1
    assert x * x + x + 1 < 2**63 <= (x + 1) ** 2


def _assert_blocks_equal(got, want):
    assert (got.lo, got.hi) == (want.lo, want.hi)
    for name in FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _assert_block_matches_scalar(blk, levels):
    for n in levels:
        assert blk.breakdown(n) == genus(n), n


def _period_edges(lo, hi):
    """The levels of [lo, hi] that are 0, 1 or -1 mod PERIOD, and lo and hi."""
    first = lo - lo % PERIOD
    edges = (m + d for m in range(first, hi + 2, PERIOD) for d in (-1, 0, 1))
    return sorted({lo, hi, *(n for n in edges if lo <= n <= hi)})


# first levels of iter_blocks(1, ...) segments: a window around one of them
# straddles a segment cut
def _cut_near(height):
    return 1 + (height // SEGMENT) * SEGMENT


@pytest.mark.parametrize(
    "lo, hi",
    [
        (_cut_near(10**8) - 4000, _cut_near(10**8) + 4000),
        (_cut_near(10**10) - 2500, _cut_near(10**10) + 1500),
        (_cut_near(10**12), _cut_near(10**12) + SEGMENT - 1),
        (LEVEL_MAX - SEGMENT, LEVEL_MAX - 1),  # the strided oracle takes seconds here
    ],
)
def test_block_matches_strided_oracle_at_height(lo, hi):
    primes = primes_up_to(isqrt(hi))
    blk = breakdown_block(lo, hi, primes)
    _assert_blocks_equal(blk, breakdown_block_strided(lo, hi, primes))
    _assert_block_matches_scalar(blk, _period_edges(lo, hi))


def test_iter_blocks_match_strided_oracle_across_a_cut():
    lo = 10**10 - 3000
    hi = lo + SEGMENT + 2999
    blocks = list(iter_blocks(lo, hi))
    assert len(blocks) == 2
    want = breakdown_block_strided(lo, hi)
    for name in FIELDS:
        got = np.concatenate([getattr(b, name) for b in blocks])
        assert np.array_equal(got, getattr(want, name)), name


def test_period_is_read_only_and_resieving_repeats_a_window():
    period = genus_module._PERIOD
    assert period.shape == (5, 2 * PERIOD) and not period.flags.writeable
    assert np.array_equal(period[4], np.gcd(np.arange(2 * PERIOD), PERIOD))
    lo, hi = 10**9 - 3 * PERIOD, 10**9 + 2 * PERIOD
    first, second = breakdown_block(lo, hi), breakdown_block(lo, hi)
    _assert_blocks_equal(first, second)
    assert not any(np.shares_memory(getattr(first, name), period) for name in FIELDS)
    first.mu[:] = 0  # a block's arrays are its own, so the next block is unchanged
    _assert_blocks_equal(breakdown_block(lo, hi), second)
    with pytest.raises(ValueError, match="read-only"):
        period[0, 0] = 2
    with pytest.raises(ValueError, match="read-only"):
        period[4] //= 2


@pytest.mark.parametrize("p", [2, 3, 5, 11, 2039])
@pytest.mark.parametrize("j", range(1, 6))
def test_lift_on_a_slice_equals_lift_on_its_index_array(p, j):
    # a window whose first multiple of p**j is at index 5, with the lower
    # powers of p already applied, as the sieve leaves it
    lo, size = p**j - 5, 3000
    state = np.ones((5, size), dtype=np.int64)
    for i in range(1, j):
        genus_module._lift(tuple(state), slice(-lo % p**i, size, p**i), p, i)
    by_slice, by_index = state.copy(), state.copy()
    genus_module._lift(tuple(by_slice), slice(5, size, p**j), p, j)
    genus_module._lift(tuple(by_index), np.arange(5, size, p**j), p, j)
    assert not np.array_equal(by_slice, state)
    assert np.array_equal(by_slice, by_index)
    # stripped holds the powers of p applied: p**j at each hit
    assert np.all(by_slice[4][5::p**j] == p**j)
    # a four-row state, as the cofactor pass gives, gets the same four rows
    for idx in (slice(5, size, p**j), np.arange(5, size, p**j)):
        four = state[:4].copy()
        genus_module._lift(four, idx, p, j)
        assert np.array_equal(four, by_slice[:4])


@pytest.mark.parametrize("base", [PERIOD, 198413 * PERIOD, 10**12 // PERIOD * PERIOD])
@pytest.mark.parametrize("residue", [0, 1, PERIOD - 1])
@pytest.mark.parametrize("width", [1, 97, PERIOD - 1, PERIOD + 2, 3 * PERIOD])
def test_windows_around_the_period_match_strided_and_scalar(base, residue, width):
    # lo at 0, 1 and -1 mod PERIOD, so the tiled period starts at its first,
    # second or last column, near 5040, 1e9 and 1e12; windows shorter than
    # a period and windows crossing one to three period ends
    lo = base + residue
    hi = lo + width - 1
    blk = breakdown_block(lo, hi)
    _assert_blocks_equal(blk, breakdown_block_strided(lo, hi))
    _assert_block_matches_scalar(blk, _period_edges(lo, hi))


def test_windows_below_49_match_strided_and_scalar():
    # below 16 (49) a pre-sieved power of 2 (of 7) lies above hi, and below
    # 4, 9, 25 and 49 a pre-sieved prime lies above isqrt(hi)
    for hi in range(1, 61):
        for lo in range(1, hi + 1):
            blk = breakdown_block(lo, hi)
            _assert_blocks_equal(blk, breakdown_block_strided(lo, hi))
            _assert_block_matches_scalar(blk, range(lo, hi + 1))


# levels whose large prime factors (p > SMALL_PRIME_LIMIT) share a level or
# divide it more than once, up to two large squares in one level; 2053, 2089
# and 2113 are 1 mod 12, so they keep nu2 and nu3 alive, while 2063 (3 mod 4,
# 2 mod 3) and 2069 (2 mod 3) zero them
LARGE_PRIME_LEVELS = [
    ((2053, 1), (2063, 1)),
    ((2053, 1), (2089, 1), (2113, 1)),
    ((13, 1), (2053, 1), (2089, 1)),
    ((2053, 1), (2069, 1), (2113, 1)),
    ((999979, 1), (999983, 1)),
    ((2053, 2),),
    ((2053, 2), (2063, 1)),
    ((2053, 3),),
    ((2, 1), (2053, 3)),
    ((2053, 3), (2089, 1)),
    ((2053, 4),),
    ((2053, 2), (2063, 2)),
    ((999983, 2),),
    ((5, 2), (4099, 2)),
]


@pytest.mark.parametrize("factors", LARGE_PRIME_LEVELS)
def test_levels_with_several_large_prime_factors(factors):
    assert max(p for p, _ in factors) > SMALL_PRIME_LIMIT
    n = 1
    for p, e in factors:
        n *= p**e
    want = breakdown_from_factorization(Factorization(n, factors))
    blk = breakdown_block(n - 40, n + 40)
    assert blk.breakdown(n) == want
    if n < 10**11:
        _assert_blocks_equal(blk, breakdown_block_strided(n - 40, n + 40))


# a height of d + 1 digits for a drawn d, so every decade from 1e6 (where
# the other block tests stop) to 1e12 is hit
HEIGHTS = st.integers(6, 11).flatmap(lambda d: st.integers(10**d, 10**(d + 1)))
# short windows, and windows a little past SEGMENT that iter_blocks cuts in two
WIDTHS = st.one_of(st.integers(1, 3000), st.integers(SEGMENT - 50, SEGMENT + 3000))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(HEIGHTS, WIDTHS, st.data())
def test_blocks_match_independent_factorization(lo, width, data):
    sympy = pytest.importorskip("sympy")
    picks = st.lists(st.integers(0, width - 1), min_size=1, max_size=40)
    offsets = {0, width - 1, *data.draw(picks)}
    blocks = list(iter_blocks(lo, lo + width - 1))
    for off in sorted(offsets):
        n = lo + off
        blk = blocks[off // SEGMENT]
        f = Factorization(n, tuple(sorted(sympy.factorint(n).items())))
        assert blk.breakdown(n) == breakdown_from_factorization(f)


def test_import_of_the_genus_submodule_binds_the_module():
    import x0genus.genus as G

    assert G.genus(11).genus == 1
    assert G.SEGMENT == 1 << 17
