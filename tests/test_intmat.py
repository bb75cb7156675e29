"""The two product kernels, the Bareiss rank and the rank-based decisions
(irreducible mod p, reduced discriminant) against references."""

import random
from fractions import Fraction
from math import isqrt

import pytest

import oracles
from brandtkit.ideals import enumerate_classes
from brandtkit.intmat import (exact_rank, hnf, is_irreducible_mod, mat_mul,
                              sparse_mul, transpose)
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


def poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def random_poly(rng, d):
    """Degree d, coefficients in [-9, 9], leading coefficient nonzero and
    often not 1."""
    lead = rng.choice([1, 1, -1, 2, 3, -4, 6, 10])
    return [rng.randint(-9, 9) for _ in range(d)] + [lead]


def random_polys(rng, count, p):
    """Integer polynomials in ascending order, of degree 0..10 (0..p when
    p > 10, so that p divides some degrees): a third with a squared factor
    (over Z, or only mod p: g^2 h plus p times a polynomial of lower
    degree), some with a leading coefficient divisible by p, some with
    zeros past the leading coefficient."""
    for _ in range(count):
        d = rng.randint(0, max(10, p))
        if d >= 2 and rng.random() < 1 / 3:
            g = random_poly(rng, rng.randint(1, d // 2))
            f = poly_mul(poly_mul(g, g), random_poly(rng, d - 2 * (len(g) - 1)))
            if rng.random() < 0.5:
                f = [c + p * rng.randint(-3, 3) for c in f[:-1]] + f[-1:]
        else:
            f = random_poly(rng, d)
        if d >= 1 and rng.random() < 0.1:
            f[-1] = p * rng.choice([1, -2])
        if rng.random() < 0.2:
            f = f + [0] * rng.randint(1, 3)
        yield f


def test_constant_and_zero_polynomials():
    for p in (2, 3, 7):
        assert is_irreducible_mod([5 * p + 1], p) is False
        assert is_irreducible_mod([0], p) is False
        assert is_irreducible_mod([p, 2 * p, 0], p) is False  # zero mod p
        assert is_irreducible_mod([1, p], p) is False  # constant mod p
        assert is_irreducible_mod([1, 1 + p, 0], p) is True  # degree 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_is_irreducible_mod_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(43 + p)
    outcomes = set()
    for f in random_polys(rng, 300, p):
        fp = [c % p for c in f]
        while fp and fp[-1] == 0:
            fp.pop()
        d = len(fp) - 1
        want = d >= 1 and sympy.Poly(fp[::-1], x, modulus=p).is_irreducible
        assert is_irreducible_mod(f, p) == want, f
        outcomes.add((want, d % p == 0))
    assert outcomes == {(False, False), (False, True), (True, False),
                        (True, True)}


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
