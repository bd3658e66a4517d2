"""Factorization, sieves, and totients against dumb-but-sure oracles."""

import json
import random
import subprocess
import sys
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from x0genus import arith
from x0genus.arith import (
    FACTOR_LIMIT,
    PRIME_BLOCK,
    PRIME_LIMIT_MAX,
    Factorization,
    factorize,
    multiples,
    primes_in_progression,
    primes_up_to,
)
from x0genus.stats import residue_density_exact
from oracles import (
    DENSITY_BOUND_TABLE,
    build_spf_table,
    euler_phi,
    factor_dumb,
    factorize_trial,
    phi_table,
    primes_in_progression_filter,
    primes_up_to_dense,
)
from test_cli import checkout_env


def test_factorize_small_known():
    assert factorize(1).factors == ()
    assert factorize(2).factors == ((2, 1),)
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))
    assert factorize(97).factors == ((97, 1),)
    assert factorize(2**20).factors == ((2, 20),)
    assert factorize(np.int64(999983 * 1000003)).factors == ((999983, 1), (1000003, 1))


def test_factorize_matches_dumb_oracle():
    for n in range(1, 3000):
        assert factorize(n).factors == factor_dumb(n)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_factorize_refuses_2_to_the_64_and_above():
    assert FACTOR_LIMIT == 2**64
    for n in (2**64, 2**64 + 13, 10**30):
        with pytest.raises(ValueError, match=r"2\*\*64"):
            factorize(n)
    assert factorize(2**64 - 1).n == 2**64 - 1


# each with its known factorization
ADVERSARIAL = {
    # strong pseudoprimes: to base 2; to bases 2, 3, 5, 7; to the first nine primes
    2047: ((23, 1), (89, 1)),
    3215031751: ((151, 1), (751, 1), (28351, 1)),
    3825123056546413051: ((149491, 1), (747451, 1), (34233211, 1)),
    # Carmichael numbers
    561: ((3, 1), (11, 1), (17, 1)),
    41041: ((7, 1), (11, 1), (13, 1), (41, 1)),
    # a square and a cube of primes
    4294967291**2: ((4294967291, 2),),
    2097143**3: ((2097143, 3),),
    2**63: ((2, 63),),
    2**64 - 1: ((3, 1), (5, 1), (17, 1), (257, 1), (641, 1), (65537, 1), (6700417, 1)),
    # the largest prime below 2**64
    18446744073709551557: ((18446744073709551557, 1),),
}


@pytest.mark.parametrize("n", sorted(ADVERSARIAL))
def test_factorize_adversarial_cases(n):
    assert factorize(n).factors == ADVERSARIAL[n]


def test_factorize_matches_trial_division_up_to_1e12():
    rng = random.Random(20140)
    for n in [rng.randrange(1, 10**k) for k in (4, 6, 8, 10, 12) for _ in range(40)]:
        assert factorize(n) == factorize_trial(n)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.integers(1, FACTOR_LIMIT - 1),
        st.integers(2**62, FACTOR_LIMIT - 1),
        # a balanced product of two primes near 2**32, the hardest case for rho
        st.tuples(st.integers(2**31, 2**32), st.integers(2**31, 2**32)),
    )
)
def test_factorize_matches_sympy_below_2_to_the_64(drawn):
    """factorint for plain integers; a product is checked against the two
    primes sympy chose, since factorint takes 0.2 s to split one."""
    sympy = pytest.importorskip("sympy")
    if isinstance(drawn, int):
        n, expected = drawn, sympy.factorint(drawn)
    else:
        p, q = map(sympy.prevprime, drawn)
        n, expected = p * q, {p: 2} if p == q else {p: 1, q: 1}
    assert factorize(n).factors == tuple(sorted(expected.items()))


def test_factorization_validates_shape():
    with pytest.raises(ValueError):
        Factorization(12, ((3, 1), (2, 2)))  # primes out of order
    with pytest.raises(ValueError):
        Factorization(12, ((2, 2),))  # wrong product
    with pytest.raises(ValueError):
        Factorization(12, ((2, 0), (3, 1)))  # zero exponent
    f = Factorization(12, ((2, 2), (3, 1)))
    assert f.primes == (2, 3)


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_round_trip(n):
    f = factorize(n)
    prod = 1
    for p, e in f.factors:
        prod *= p**e
    assert prod == n


def test_spf_table_agrees_with_trial_division():
    spf = build_spf_table(30000)
    for n in range(1, 30001):
        assert spf.factorize(n).factors == factorize(n).factors
    assert spf.is_prime(29989) == (factorize(29989).factors == ((29989, 1),))


def test_spf_table_bounds():
    spf = build_spf_table(100)
    assert spf.spf(2) == 2
    assert spf.spf(91) == 7
    with pytest.raises(ValueError):
        spf.spf(1)
    with pytest.raises(ValueError):
        spf.spf(101)
    with pytest.raises(ValueError):
        spf.factorize(101)
    assert spf.factorize(1).factors == ()
    with pytest.raises(ValueError):
        build_spf_table(1)


def test_primes_up_to_small():
    assert primes_up_to(1).tolist() == []
    assert primes_up_to(2).tolist() == [2]
    assert primes_up_to(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_primes_up_to_refuses_above_its_ceiling(monkeypatch):
    def must_not_run(limit):
        raise AssertionError("sieved before the refusal")

    monkeypatch.setattr(arith, "_sieve", must_not_run)
    for limit in (PRIME_LIMIT_MAX + 1, 10**12, 10**16):
        with pytest.raises(ValueError, match="PRIME_LIMIT_MAX"):
            primes_up_to(limit)
        with pytest.raises(ValueError, match="PRIME_LIMIT_MAX"):
            primes_in_progression(4, 3, limit)
        with pytest.raises(ValueError, match="PRIME_LIMIT_MAX"):
            primes_in_progression(2**70, 7, limit)  # the one-candidate route too
        with pytest.raises(ValueError, match="PRIME_LIMIT_MAX"):
            residue_density_exact(3, limit)


def test_primes_up_to_is_read_only():
    ps = primes_up_to(1000)
    with pytest.raises(ValueError):
        ps[5] = 15
    with pytest.raises(ValueError):
        ps[:] = ps[::-1].copy()
    assert not primes_up_to(1).flags.writeable
    # the cached array is unchanged for the next caller
    again = primes_up_to(1000)
    assert again[:6].tolist() == [2, 3, 5, 7, 11, 13]
    assert again.tolist() == [n for n in range(2, 1001) if factorize(n).factors == ((n, 1),)]


def _multiples_brute(lo, hi, steps):
    idx, owner = [], []
    for i, s in enumerate(steps):
        for n in range(lo, hi + 1):
            if n % s == 0:
                idx.append(n - lo)
                owner.append(i)
    return idx, owner, [i in owner for i in range(len(steps))]


def test_multiples_matches_brute_force():
    cases = [
        (1, 1, [1, 2, 3]),  # lo = 1, a one-level window
        (1, 40, [2, 3, 7, 41, 100]),  # lo = 1, steps wider than the window
        (10, 19, [10, 20, 5, 7]),  # a step equal to the width
        (11, 20, [10, 9, 4]),
        (101, 103, [7, 50, 1000]),  # no multiple at all
    ]
    rng = random.Random(20)
    for _ in range(100):
        lo = rng.randint(1, 10**6)
        hi = lo + rng.randint(0, 200)
        cases.append((lo, hi, rng.sample(range(1, 500), 12)))
    for lo, hi, steps in cases:
        idx, owner, hit = multiples(lo, hi, np.array(steps, dtype=np.int64))
        assert (idx.tolist(), owner.tolist(), hit.tolist()) == _multiples_brute(lo, hi, steps)


def test_prime_count_against_trial_division():
    def is_prime(n):
        return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

    expected = sum(1 for n in range(2, 10001) if is_prime(n))
    assert len(primes_up_to(10000)) == expected == 1229


def test_primes_up_to_matches_dense_sieve():
    for limit in range(3001):
        ps = primes_up_to(limit)
        assert ps.dtype == np.int64 and not ps.flags.writeable
        assert np.array_equal(ps, primes_up_to_dense(limit)), limit


def test_primes_up_to_at_block_edges():
    # block k ends at the odd number 2 * k * PRIME_BLOCK - 1
    edges = [2 * k * PRIME_BLOCK for k in (1, 2, 3)]
    limits = [e + d for e in edges for d in range(-3, 4)]
    # the sieving primes next to isqrt(edge) start striking around the edge
    dense = primes_up_to_dense((isqrt(edges[-1]) + 100) ** 2)
    for e in edges:
        i = int(np.searchsorted(dense, isqrt(e)))
        limits += [int(p) ** 2 + d for p in dense[i - 2 : i + 2] for d in (-1, 0, 1)]
    for limit in limits:
        expected = dense[: np.searchsorted(dense, limit, side="right")]
        assert np.array_equal(primes_up_to.__wrapped__(limit), expected), limit


def test_primes_up_to_with_small_blocks(monkeypatch):
    # 8-flag blocks put a block edge within 16 of every square of a prime
    monkeypatch.setattr(arith, "PRIME_BLOCK", 8)
    for limit in [*range(600), 10**5]:
        assert np.array_equal(primes_up_to.__wrapped__(limit), primes_up_to_dense(limit)), limit


def test_prime_counts_at_powers_of_ten():
    ps = primes_up_to(10**8)
    counts = [int(np.searchsorted(ps, 10**k, side="right")) for k in range(1, 9)]
    assert counts == [4, 25, 168, 1229, 9592, 78498, 664579, 5761455]
    assert ps.size == 5761455


# residue_density_exact(ell, 10**8).exact_value for the eight table primes,
# as the whole-range bool sieve (oracles.primes_up_to_dense) gives them
# through (1 - product) + product * ell**-3, each within 0.7 ulp of that
# expression's exact value at the float product
DENSITIES_AT_1E8 = [
    "0.23728856172746465",
    "0.012709862855867627",
    "0.009458825044671253",
    "0.0015300196742611262",
    "0.0006485039949905547",
    "0.0005577043720963552",
    "0.001022058418274186",
    "0.00017177522663099057",
]

_SIEVE_MEMORY = """
import json, resource, sys
from x0genus.arith import primes_up_to
from x0genus.stats import residue_density_exact
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
ps = primes_up_to(10**8)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
densities = [repr(residue_density_exact(int(ell), 10**8).exact_value) for ell in sys.argv[1:]]
print(json.dumps({"grew": (after - before) * 1024, "nbytes": ps.nbytes, "densities": densities}))
"""


def test_sieve_memory_stays_near_the_result():
    """Sieving to 1e8 raises peak RSS by less than three times the result.

    A fresh interpreter, so no earlier test has set the peak.  ru_maxrss is
    in KiB on Linux.  The whole-range bool sieve took five times the result.
    """
    argv = [sys.executable, "-c", _SIEVE_MEMORY, *map(str, DENSITY_BOUND_TABLE)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=checkout_env(), check=True)
    got = json.loads(proc.stdout)
    assert got["grew"] < 3 * got["nbytes"], got
    assert got["densities"] == DENSITIES_AT_1E8


_CLASS_SIEVE = """
import json, resource
from x0genus import arith, bounds, genus, stats, values
limits = []
real = arith.primes_up_to
def recording(limit):
    limits.append(limit)
    return real(limit)
for module in (arith, bounds, genus, stats, values):
    if getattr(module, "primes_up_to", None) is real:
        module.primes_up_to = recording
peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
before = peak()
nbytes = arith.primes_in_progression(3, 2, 10**8).nbytes
sieved = peak()
stats.residue_density_exact(3, 10**8)
print(json.dumps({"sieve": sieved - before, "density": peak() - before, "nbytes": nbytes,
                  "limits": limits}))
"""


def test_density_sieves_only_its_class():
    """The primes = 2 (mod 3) up to 1e8 cost about their own memory.

    A fresh interpreter, so no earlier test has set the peak (ru_maxrss is
    in KiB on Linux).  No prime list longer than the sieving primes up to
    isqrt(1e8) is asked for.  The class sieve raises peak RSS by its result
    and its block buffers, where listing every prime up to 1e8 first took
    twice the class, and four times with the filter's temporaries.  The
    density's float product is evaluated in place, so it holds at most two
    arrays of the class's length at once (the primes as floats and 1 -
    1/(s*s + s)), and the whole call grows by about twice the class,
    against five when it filtered the whole prime list.
    """
    argv = [sys.executable, "-c", _CLASS_SIEVE]
    proc = subprocess.run(argv, capture_output=True, text=True, env=checkout_env(), check=True)
    got = json.loads(proc.stdout)
    assert all(limit <= isqrt(10**8) for limit in got["limits"]), got["limits"]
    assert got["sieve"] < 1.5 * got["nbytes"], got
    assert got["density"] < 2.5 * got["nbytes"], got


# the classes (modulus, residue) checked against the filter: even and odd
# moduli, a class holding only the prime gcd(residue, modulus) (or none),
# and moduli past the limit and past int64
PROGRESSION_CLASSES = [
    (1, 0), (2, 1), (2, 0), (3, 2), (3, 0), (4, 2), (4, 3), (6, 3), (9, 3), (10, 5), (12, 1),
    (12, -1), (36, 35), (276, 275), (1009, 1008), (10**7, 3), (2**62, -1), (2**70, 7),
]


def test_primes_in_progression_matches_the_filter(monkeypatch):
    # 61-flag blocks put block edges all through every class
    for block in (PRIME_BLOCK, 61):
        monkeypatch.setattr(arith, "PRIME_BLOCK", block)
        for limit in (0, 1, 2, 3, 100, 10**6 + 7):
            for modulus, residue in PROGRESSION_CLASSES:
                got = primes_in_progression(modulus, residue, limit)
                assert got.dtype == np.int64
                expected = primes_in_progression_filter(modulus, residue, limit)
                assert np.array_equal(got, expected), (block, limit, modulus, residue)


def test_primes_in_progression():
    assert primes_in_progression(4, 3, 50).tolist() == [3, 7, 11, 19, 23, 31, 43, 47]
    # residue is reduced mod modulus
    assert primes_in_progression(4, 7, 50).tolist() == primes_in_progression(4, 3, 50).tolist()
    ps = primes_in_progression(12, 11, 10**4)
    assert ps.dtype == np.int64
    assert all(p % 12 == 11 for p in ps)
    assert ps.tolist() == sorted(ps.tolist())
    # a modulus that does not fit int64: the residue is the only candidate
    assert primes_in_progression(2**70, 7, 100).tolist() == [7]
    assert primes_in_progression(2**70, 8, 100).size == 0
    assert primes_in_progression(2**70, 2**69 + 7, 100).size == 0  # residue above the limit
    with pytest.raises(ValueError):
        primes_in_progression(0, 1, 100)


def test_euler_phi_against_coprime_count():
    for n in range(1, 500):
        direct = sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)
        assert euler_phi(factorize(n)) == direct


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=1000), st.integers(min_value=1, max_value=1000))
def test_euler_phi_multiplicative(a, b):
    if gcd(a, b) == 1:
        assert euler_phi(factorize(a * b)) == euler_phi(factorize(a)) * euler_phi(factorize(b))


def test_phi_table_matches_scalar():
    limit = 3000
    table = phi_table(limit)
    assert table[0] == 0
    assert table[1] == 1
    expected = np.array([0] + [euler_phi(factorize(n)) for n in range(1, limit + 1)])
    assert np.array_equal(table, expected)
