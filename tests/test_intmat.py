"""The two product kernels and the Bareiss rank against references."""

import random

import oracles
from brandtkit.intmat import exact_rank, mat_mul, sparse_mul, transpose


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
