"""The two product kernels, the Bareiss rank and the rank-based decisions
(irreducible mod p, reduced discriminant) against references."""

import random
from fractions import Fraction
from math import isqrt
from operator import mul

import pytest

import oracles
from brandtkit.ideals import enumerate_classes
from brandtkit.intmat import (charpoly, charpoly_irreducible_mod, exact_rank,
                              hnf, identity, mat_mul, rank_mod, sparse_mul,
                              transpose)
from brandtkit.orders import maximal_order, reduced_discriminant
from brandtkit.quatalg import ConsistencyError, construct_algebra, mul4


def random_matrix(rng, rows, cols, density, top):
    """Entries in [-top, top] \\ {0} with probability density, else 0; a
    third of the nonzeros are 1, so both branches of sparse_mul run."""
    def entry():
        if rng.random() >= density:
            return 0
        return 1 if rng.random() < 1 / 3 else rng.choice(
            [-1, 1]) * rng.randint(1, top)
    return [[entry() for _ in range(cols)] for _ in range(rows)]


def test_sparse_mul_matches_mat_mul():
    rng = random.Random(23)
    for _ in range(200):
        r, k, c = (rng.randint(1, 9) for _ in range(3))
        density = rng.choice([0.0, 0.1, 0.3, 0.7, 1.0])
        A = random_matrix(rng, r, k, density, 50)
        B = random_matrix(rng, k, c, rng.choice([0.3, 1.0]), 10 ** 6)
        assert sparse_mul(A, B) == mat_mul(A, B), (A, B)


def test_sparse_mul_on_the_right_through_the_transpose():
    # B T = (T^t B^t)^t, with the sparse T the left factor on the right side
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randint(1, 8)
        T = random_matrix(rng, n, n, 0.25, 7)
        B = random_matrix(rng, n, n, 1.0, 100)
        assert transpose(sparse_mul(transpose(T), transpose(B))) == \
            mat_mul(B, T)


def test_sparse_mul_shapes():
    assert sparse_mul([[0, 0]], [[1, 2, 3], [4, 5, 6]]) == [[0, 0, 0]]
    assert sparse_mul([[1, 0], [0, 1]], [[1, 2], [3, 4]]) == [[1, 2], [3, 4]]
    assert sparse_mul([], [[1]]) == []
    # rows of the result are distinct lists, even when A has a zero row
    out = sparse_mul([[0], [0]], [[5]])
    out[0][0] = 1
    assert out == [[1], [0]]


def test_mat_mul_float_entries_are_left_folds():
    # from Python 3.12 the builtin sum compensates float sums and would
    # keep the 1.0; a record's floats must not depend on the version
    assert mat_mul([[1e16, 1.0, -1e16]], [[1.0], [1.0], [1.0]]) == [[0.0]]


def low_rank(rng, rows, cols, rank, top):
    """A rows x cols integer matrix of rank at most rank: a product of
    random factors, with two columns zeroed and a row repeated."""
    L = [[rng.randint(-top, top) for _ in range(rank)] for _ in range(rows)]
    R = [[rng.randint(-top, top) for _ in range(cols)] for _ in range(rank)]
    A = mat_mul(L, R)
    for c in rng.sample(range(cols), 2):
        for row in A:
            row[c] = 0
    A[rng.randrange(rows)] = A[0][:]
    return A


def test_exact_rank_matches_rational_rank_on_large_entries():
    rng = random.Random(31)
    assert exact_rank([[0] * 12 for _ in range(8)]) == 0
    for rank in range(1, 9):
        for _ in range(3):
            A = low_rank(rng, 8, 12, rank, 1000)  # entries of order 10^6
            want = oracles.rational_rank(A)
            assert want <= rank
            assert exact_rank(A) == want
            assert exact_rank(transpose(A)) == want
            assert oracles.bareiss_rank(A) == want


def test_hnf_matches_least_pivot_reference():
    rng = random.Random(37)
    assert hnf([]) == [] and hnf([[0, 0], [0, 0]]) == []
    cases = []
    for _ in range(1000):
        r, c = rng.randint(1, 9), rng.randint(1, 6)
        top = rng.choice([1, 5, 1000, 2 ** 40])
        density = rng.choice([0.2, 0.6, 1.0])
        A = random_matrix(rng, r, c, density, top)
        if rng.random() < 0.3:
            A[rng.randrange(r)] = [0] * c
        cases.append(A)
    for _ in range(200):
        r, c = rng.randint(3, 9), rng.randint(3, 6)
        cases.append(low_rank(rng, r, c, rng.randint(1, min(r, c) - 1),
                              rng.choice([3, 1000])))
    # 16 x 4: the products of the basis rows of two lattices, as ideal
    # products and right orders hand them to QuatLattice.from_rows
    for _ in range(200):
        a, b = -rng.randint(1, 50), -rng.randint(1, 500)
        I, J = (random_matrix(rng, 4, 4, 0.8, rng.choice([4, 60]))
                for _ in range(2))
        cases.append([list(mul4(a, b, x, y)) for x in I for y in J])
    for A in cases:
        assert hnf(A) == oracles.hnf_by_least_pivot(A), A


def unimodular(rng, d):
    """A random d x d integer matrix of determinant 1 and its inverse, both
    built from elementary row operations."""
    U, V = identity(d), identity(d)
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        U[i] = [x + c * y for x, y in zip(U[i], U[j])]
        V = [[row[k] - c * row[i] if k == j else row[k] for k in range(d)]
             for row in V]
    return U, V


def companion(f):
    """The companion matrix of a monic f, ascending coefficients: e_1 is
    cyclic and its charpoly is f."""
    d = len(f) - 1
    return [[int(i == j + 1) if j < d - 1 else -f[i] for j in range(d)]
            for i in range(d)]


def random_square(rng):
    """A d x d integer matrix, d <= 6, of one of four kinds, conjugated by
    a unimodular matrix: dense; triangular (charpoly split over Z); two
    equal blocks (f = g^2, no cyclic vector); the companion matrix of g^2 h
    (a cyclic vector, a squared factor)."""
    kind = rng.randrange(4)
    if kind == 0:
        d = rng.randint(1, 6)
        A = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
    elif kind == 1:
        d = rng.randint(1, 6)
        A = [[rng.randint(-9, 9) if j <= i else 0 for j in range(d)]
             for i in range(d)]
    elif kind == 2:
        k = rng.randint(1, 3)
        B = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
        A = [row + [0] * k for row in B] + [[0] * k + row for row in B]
    else:
        g = [rng.randint(-3, 3) for _ in range(rng.randint(1, 2))] + [1]
        h = [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))] + [1]
        A = companion(oracles.poly_mul(oracles.poly_mul(g, g), h))
    U, V = unimodular(rng, len(A))
    return mat_mul(mat_mul(U, A), V)


def test_unimodular_pairs_are_inverse():
    rng = random.Random(5)
    for d in range(1, 7):
        U, V = unimodular(rng, d)
        assert mat_mul(U, V) == identity(d)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_charpoly_irreducible_mod_matches_trial_division(p):
    rng = random.Random(41 + p)
    outcomes = set()
    for _ in range(120):
        A = random_square(rng)
        want = oracles.irreducible_by_trial_division(charpoly(A), p)
        assert charpoly_irreducible_mod(A, p) == want, A
        if len(A) > 1:
            outcomes.add(want)
    assert outcomes == {False, True}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 281])
def test_charpoly_irreducible_mod_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(43 + p)
    outcomes = set()
    for _ in range(150):
        A = random_square(rng)
        f = sympy.Poly(charpoly(A)[::-1], x, modulus=p)
        _, factors = f.factor_list()
        want = len(factors) == 1 and factors[0][1] == 1
        assert charpoly_irreducible_mod(A, p) == want, A
        outcomes.add(want)
    assert outcomes == {False, True}


def test_charpoly_irreducible_mod_needs_the_last_power():
    # f = (x - 1)^2 and f = (x^2 + 1)^2 mod 3: e_1 is cyclic and the
    # Frobenius vectors have rank d - 1 (f is a power of one irreducible),
    # so only A^(p^d) e_1 = A e_1 rejects the squared factor
    for A, p in (([[1, 0], [1, 1]], 5), (companion([1, 0, 2, 0, 1]), 3)):
        d = len(A)
        krylov = [[int(k == 0) for k in range(d)]]
        frobenius = [krylov[0]]
        Ap = identity(d)
        for _ in range(p):
            Ap = mat_mul(Ap, A)
        for _ in range(d - 1):
            krylov.append([sum(map(mul, row, krylov[-1])) for row in A])
            frobenius.append([sum(map(mul, row, frobenius[-1]))
                              for row in Ap])
        assert rank_mod(krylov, p) == d
        assert rank_mod([[x - y for x, y in zip(u, v)]
                         for u, v in zip(frobenius, krylov)], p) == d - 1
        assert not oracles.irreducible_by_trial_division(charpoly(A), p)
        assert charpoly_irreducible_mod(A, p) is False
    assert charpoly_irreducible_mod([[0, -1], [1, 0]], 3) is True  # x^2 + 1


def _lattices():
    """Every maximal order with N < 1100 and every right order of a class
    with N <= 139."""
    for N in oracles.primes_upto(1100):
        order = maximal_order(construct_algebra(N))
        yield order.lattice
        if N <= 139:
            classes = enumerate_classes(order)
            for i in range(classes.n):
                yield classes.translation_module(i, i)


def _disc_by_det(lattice):
    """isqrt(16 |det gram_int|) / den^4, a Fraction."""
    t = 16 * abs(oracles.rational_det(lattice.gram_int()))
    assert t.denominator == 1
    root = isqrt(int(t))
    assert root * root == t
    return Fraction(root, lattice.den ** 4)


def test_reduced_discriminant_matches_gram_determinant():
    raised = integral = 0
    for lattice in _lattices():
        for c in (1, Fraction(1, 2), Fraction(2, 3), 2):
            L = lattice if c == 1 else lattice.scaled(c)
            want = _disc_by_det(L)
            if want.denominator == 1:
                assert reduced_discriminant(L) == want
                integral += 1
            else:
                with pytest.raises(ConsistencyError, match="not an integer"):
                    reduced_discriminant(L)
                raised += 1
    assert raised > 700 and integral > 700
