import random

import pytest

import oracles
from brandtkit.orders import maximal_order
from brandtkit.quatalg import (ConstructionError, QuaternionAlgebra,
                               construct_algebra, is_prime, legendre, mul4,
                               norm4)
from oracles import OO, hilbert_symbol, ramified_primes


def test_is_prime_matches_sieve():
    sieve = set(oracles.primes_upto(500))
    for n in range(500):
        assert is_prime(n) == (n in sieve)


def test_legendre_matches_euler():
    for p in (3, 5, 7, 11, 13, 31, 97):
        for u in range(-8, 40):
            assert legendre(u, p) == oracles.legendre_euler(u, p)


def test_hilbert_symbol_against_conic_search():
    # squarefree coefficients keep the search modulus honest
    rng = random.Random(1)
    squarefree = [n for n in range(1, 35)
                  if all(n % (q * q) for q in (2, 3, 5))]
    cases = 0
    while cases < 60:
        a = rng.choice(squarefree) * rng.choice((1, -1))
        b = rng.choice(squarefree) * rng.choice((1, -1))
        p = rng.choice((2, 3, 5, 7))
        want = 1 if oracles.conic_has_point(a, b, p) else -1
        assert hilbert_symbol(a, b, p) == want, (a, b, p)
        cases += 1


def test_hilbert_symbol_at_infinity():
    assert hilbert_symbol(-1, -1, OO) == -1
    assert hilbert_symbol(-1, 2, OO) == 1
    assert hilbert_symbol(3, 5, OO) == 1


def test_hilbert_product_formula():
    # product over all places of (a,b)_v equals 1
    rng = random.Random(2)
    for _ in range(40):
        a = rng.randint(1, 60) * rng.choice((1, -1))
        b = rng.randint(1, 60) * rng.choice((1, -1))
        places = {2, OO}
        for n in (abs(a), abs(b)):
            d = 2
            while d * d <= n:
                while n % d == 0:
                    places.add(d)
                    n //= d
                d += 1
            if n > 1:
                places.add(n)
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1, (a, b)


def test_hilbert_symbol_bilinearity_in_squares():
    rng = random.Random(3)
    for _ in range(30):
        a = rng.randint(1, 30) * rng.choice((1, -1))
        b = rng.randint(1, 30) * rng.choice((1, -1))
        c = rng.randint(1, 9)
        p = rng.choice((2, 3, 5, 7, 11))
        assert hilbert_symbol(a * c * c, b, p) == hilbert_symbol(a, b, p)
        assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)


def test_ramified_primes_examples():
    assert ramified_primes(-1, -1) == [2]
    assert ramified_primes(-1, -11) == [11]
    assert ramified_primes(-2, -5) == [5]


def test_construct_algebra_is_ramified_exactly_at_level():
    # the order's discriminant is the library's certificate of the algebra;
    # the Hilbert symbols check the recipe independently
    for N in oracles.primes_upto(5000):
        alg = construct_algebra(N)
        assert ramified_primes(alg.a, alg.b) == [N]
        assert hilbert_symbol(alg.a, alg.b, OO) == -1
        assert alg.level == N
        assert maximal_order(alg).reduced_discriminant() == N


def test_order_discriminant_certifies_the_algebra():
    # a wrong algebra for the level never yields an order of discriminant N
    for N in oracles.primes_upto(29):
        for a in range(-12, 0):
            for b in range(-3 * N, 0):
                try:
                    maximal_order(QuaternionAlgebra(a, b, level=N))
                except ConstructionError:
                    continue
                assert ramified_primes(a, b) == [N], (a, b, N)


def test_construct_algebra_recipe_by_residue_class():
    assert (construct_algebra(2).a, construct_algebra(2).b) == (-1, -1)
    for N in (3, 7, 11, 19, 23):
        assert (construct_algebra(N).a, construct_algebra(N).b) == (-1, -N)
    for N in (5, 13, 29, 37):
        assert (construct_algebra(N).a, construct_algebra(N).b) == (-2, -N)
    for N in (17, 41, 73, 89, 97):
        alg = construct_algebra(N)
        r = -alg.a
        assert is_prime(r) and r % 4 == 3 and alg.b == -N


def test_algebra_level_certification_rejects_wrong_level():
    # (-1, -11) ramifies at 11: the order for level 7 is not certified
    alg = QuaternionAlgebra(-1, -11, level=7)
    with pytest.raises(ConstructionError):
        maximal_order(alg)
    with pytest.raises(ValueError):
        QuaternionAlgebra(-1, -15, level=15)


def test_element_ring_axioms():
    alg = construct_algebra(11)
    a, b = alg.a, alg.b

    def mul(x, y):
        return mul4(a, b, x, y)

    def add(x, y):
        return tuple(s + t for s, t in zip(x, y))

    def conj(x):
        return (x[0], -x[1], -x[2], -x[3])

    i, j, k = (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    assert mul(i, i) == (a, 0, 0, 0)
    assert mul(j, j) == (b, 0, 0, 0)
    assert mul(i, j) == k and mul(j, i) == (0, 0, 0, -1)
    rng = random.Random(4)
    for _ in range(60):
        x, y, z = (tuple(rng.randint(-5, 5) for _ in range(4))
                   for _ in range(3))
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
        assert mul(add(y, z), x) == add(mul(y, x), mul(z, x))
        assert norm4(a, b, mul(x, y)) == norm4(a, b, x) * norm4(a, b, y)
        assert conj(mul(x, y)) == mul(conj(y), conj(x))
        assert add(x, conj(x)) == (2 * x[0], 0, 0, 0)  # the reduced trace
        assert mul(x, conj(x)) == (norm4(a, b, x), 0, 0, 0)


def test_norm_positive_definite():
    rng = random.Random(5)
    for N in (2, 11, 17, 37):
        alg = construct_algebra(N)
        for _ in range(40):
            x = tuple(rng.randint(-6, 6) for _ in range(4))
            assert norm4(alg.a, alg.b, x) > 0 or not any(x)
