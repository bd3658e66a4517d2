"""Factorization, sieves, and totients against dumb-but-sure oracles."""

from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from x0genus.arith import (
    Factorization,
    euler_phi,
    factorize,
    primes_in_progression,
    primes_up_to,
)
from oracles import build_spf_table, factor_dumb, phi_table


def test_factorize_small_known():
    assert factorize(1).factors == ()
    assert factorize(2).factors == ((2, 1),)
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))
    assert factorize(97).factors == ((97, 1),)
    assert factorize(2**20).factors == ((2, 20),)


def test_factorize_matches_dumb_oracle():
    for n in range(1, 3000):
        assert factorize(n).factors == factor_dumb(n)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


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


def test_prime_count_against_trial_division():
    def is_prime(n):
        return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

    expected = sum(1 for n in range(2, 10001) if is_prime(n))
    assert len(primes_up_to(10000)) == expected == 1229


def test_primes_in_progression():
    assert primes_in_progression(4, 3, 50) == [3, 7, 11, 19, 23, 31, 43, 47]
    # residue is reduced mod modulus
    assert primes_in_progression(4, 7, 50) == primes_in_progression(4, 3, 50)
    ps = primes_in_progression(12, 11, 10**4)
    assert all(p % 12 == 11 for p in ps)
    assert ps == sorted(ps)
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
