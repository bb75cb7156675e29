import random
from fractions import Fraction
from operator import mul

import pytest

import oracles
from brandtkit.analysis import analyze
from brandtkit.ideals import enumerate_classes
from brandtkit.intmat import hnf
from brandtkit.lattices import (QuatLattice, _count_by_value, _lll_gram,
                                product_lattice)
from brandtkit.orders import maximal_order
from brandtkit.quatalg import ConsistencyError, bilin4, construct_algebra


def order_lattice(N):
    return maximal_order(construct_algebra(N)).lattice


def random_sublattice(rng, lat, det_cap=4):
    # multiply by an integer upper triangular matrix with unit-ish pivots
    while True:
        T = [[0] * 4 for _ in range(4)]
        for r in range(4):
            T[r][r] = rng.randint(1, 2)
            for c in range(r + 1, 4):
                T[r][c] = rng.randint(-1, 1)
        det = T[0][0] * T[1][1] * T[2][2] * T[3][3]
        if det <= det_cap:
            rows = [[sum(T[r][k] * lat.mat[k][c] for k in range(4))
                     for c in range(4)] for r in range(4)]
            return QuatLattice(lat.alg, rows, lat.den)


def test_counts_match_box_oracle_on_orders():
    for N in (2, 3, 11, 13, 37):
        lat = order_lattice(N)
        got = lat.counts_up_to(6)
        want = oracles.box_count(lat.gram_int(), lat.content_int(), 6)
        for m in range(1, 7):
            assert got.get(m, 0) == want.get(m, 0), (N, m)


def test_counts_match_box_oracle_on_random_sublattices():
    rng = random.Random(11)
    lat = order_lattice(11)
    for _ in range(8):
        sub = random_sublattice(rng, lat)
        got = sub.counts_up_to(5)
        want = oracles.box_count(sub.gram_int(), sub.content_int(), 5)
        for m in range(1, 6):
            assert got.get(m, 0) == want.get(m, 0)


def test_count_vectors_even_and_cached():
    lat = order_lattice(11)
    for m in (1, 2, 3, 5, 8):
        c = lat.count_vectors(m)
        assert c % 2 == 0  # vectors come in +- pairs
    assert lat.count_vectors(1) == lat.counts_up_to(4).get(1, 0)


def test_theta_coefficients_prefix():
    lat = order_lattice(11)
    theta = lat.theta_coefficients(6)
    assert theta[0] == 1  # only the zero vector at norm 0
    assert theta[1:] == [lat.count_vectors(m) for m in range(1, 7)]


def test_content_of_maximal_orders_is_one():
    for N in (2, 5, 11, 37, 101):
        lat = order_lattice(N)
        assert lat.content() == 1
        assert lat.norm_value(lat.mat[0]) == \
            lat.gram_int()[0][0] // lat.content_int()


def test_norm_value_requires_divisibility():
    lat = order_lattice(11)
    doubled = lat.scaled(2)
    # content scales by 4, values stay multiples of it
    assert doubled.content() == 4 * lat.content()
    for row in doubled.mat:
        doubled.norm_value(row)


def test_gram_positive_definite():
    rng = random.Random(12)
    for N in (2, 11, 37):
        lat = order_lattice(N)
        G = lat.gram_int()
        for _ in range(25):
            u = [rng.randint(-3, 3) for _ in range(4)]
            q = sum(u[r] * G[r][c] * u[c] for r in range(4) for c in range(4))
            assert q > 0 or all(x == 0 for x in u)


def test_contains_matches_inverse_reference():
    rng = random.Random(14)
    verdicts = []
    for N in (11, 37):
        order = maximal_order(construct_algebra(N))
        for lat in enumerate_classes(order).ideals:
            for _ in range(80):
                u = [rng.randint(-5, 5) for _ in range(4)]
                row = [sum(u[r] * lat.mat[r][c] for r in range(4))
                       for c in range(4)]
                assert lat.coordinates(row) == u
                coords = [Fraction(x, lat.den) for x in row]
                if rng.random() < 0.7:  # shift off the member, often out
                    coords = [x + Fraction(rng.randint(-2, 2),
                                           rng.choice((1, 2, 3, lat.den)))
                              for x in coords]
                want = oracles.contains_by_inverse(lat, coords)
                # a point whose row over den is not integral is not in
                scaled = [x * lat.den for x in coords]
                got = (all(x.denominator == 1 for x in scaled) and
                       lat.coordinates([int(x) for x in scaled]) is not None)
                assert got == want
                verdicts.append(want)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


def test_canonical_form_identifies_equal_lattices():
    lat = order_lattice(11)
    rng = random.Random(13)
    rows = [row[:] for row in lat.mat]
    # random unimodular row operations preserve the lattice
    for _ in range(20):
        r, s = rng.randrange(4), rng.randrange(4)
        if r != s:
            f = rng.randint(-2, 2)
            rows[r] = [x + f * y for x, y in zip(rows[r], rows[s])]
    again = QuatLattice.from_rows(lat.alg, rows, lat.den)
    assert again == lat
    assert hash(again) == hash(lat)


def test_degenerate_rows_rejected():
    alg = construct_algebra(11)
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 1]]
    with pytest.raises((ConsistencyError, AssertionError, ValueError)):
        QuatLattice.from_rows(alg, rows)
    # membership back-substitutes on the rows, so they must be triangular
    swapped = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(ValueError, match="upper triangular"):
        QuatLattice(alg, swapped, 1)


def test_product_lattice_of_order_is_order():
    for N in (11, 37):
        lat = order_lattice(N)
        assert product_lattice(lat, lat) == lat


def gram(rows):
    return [[sum(map(mul, r, s)) for s in rows] for r in rows]


def random_spd_basis(rng, scale=6):
    # T T^t is positive definite for any nonsingular integer T
    while True:
        T = [[rng.randint(-scale, scale) for _ in range(4)] for _ in range(4)]
        if oracles.rational_det(T) != 0:
            return T


def test_lll_gram_preserves_determinant_and_reduces():
    rng = random.Random(21)
    for _ in range(12):
        T = random_spd_basis(rng)
        G, rows = gram(T), [row[:] for row in T]
        R, L, D = _lll_gram(G, rows)
        assert gram(rows) == R and hnf(rows) == hnf(T)
        assert oracles.rational_det(R) == oracles.rational_det(G)
        assert all(R[i][j] == R[j][i] for i in range(4) for j in range(4))
        assert min(R[i][i] for i in range(4)) <= min(G[i][i] for i in range(4))
        assert min(D) > 0


def translation_modules(N):
    classes = enumerate_classes(maximal_order(construct_algebra(N)))
    return [classes.translation_module(i, j)
            for i in range(classes.n) for j in range(classes.n)]


def test_lll_gram_output_is_reduced():
    # exact check of |mu| <= 0.51 and Lovasz at 0.99 on the returned Gram,
    # and of the float LDL^T against it
    for N in (11, 37):
        for lat in translation_modules(N):
            A, L, D = _lll_gram(lat.gram_int(), [list(r) for r in lat.mat])
            mu, B = oracles.gram_schmidt(A)
            for k in range(4):
                assert all(abs(mu[k][j]) <= Fraction(51, 100)
                           for j in range(k)), (N, A)
                if k:
                    assert B[k] >= (Fraction(99, 100) - mu[k][k - 1] ** 2) \
                        * B[k - 1], (N, A)
                for t in range(4):
                    ldl = sum(L[k][s] * D[s] * L[t][s] for s in range(4))
                    scale = (A[k][k] * A[t][t]) ** 0.5
                    assert abs(ldl - A[k][t]) <= 1e-9 * scale, (N, A)


def test_counts_on_skew_bases():
    # shear the order basis hard and count on the sheared Gram itself; the
    # largest shears give Gram entries of about 1e100
    lat = order_lattice(11)
    a, b = lat.alg.a, lat.alg.b
    want = lat.counts_up_to(8)
    rng = random.Random(4)
    for digits in (2, 2, 5, 10, 20, 50):
        rows = [list(r) for r in lat.mat]
        while max(abs(x) for row in rows for x in row) < 10 ** digits:
            r, s = rng.sample(range(4), 2)
            f = rng.randint(20, 90)
            rows[r] = [x + f * y for x, y in zip(rows[r], rows[s])]
        G = [[bilin4(a, b, ri, rj) for rj in rows] for ri in rows]
        assert _count_by_value(_lll_gram(G, rows), lat.content_int(),
                               8) == want, digits


def test_lll_runs_once_per_lattice(monkeypatch):
    import brandtkit.lattices as lattices

    calls = []
    lll = lattices._lll_gram

    def counted(G, rows):
        calls.append(G)
        return lll(G, rows)

    monkeypatch.setattr(lattices, "_lll_gram", counted)
    lat = order_lattice(37)
    small = dict(lat.counts_up_to(3))
    big = lat.counts_up_to(9)
    assert len(calls) == 1
    assert {m: c for m, c in big.items() if m <= 3} == small
    want = oracles.box_count(lat.gram_int(), lat.content_int(), 9)
    assert all(big.get(m, 0) == want.get(m, 0) for m in range(1, 10))


@pytest.mark.parametrize("N", [37, 101, 197])
def test_lll_carries_the_reduced_basis(N, monkeypatch):
    # on every lattice the pipeline reduces, the carried rows span the
    # lattice and have exactly the reduced Gram matrix
    seen = {}
    reduced_basis = QuatLattice.reduced_basis

    def recorded(lat):
        seen[id(lat)] = lat
        return reduced_basis(lat)

    monkeypatch.setattr(QuatLattice, "reduced_basis", recorded)
    analyze(N)
    assert seen
    for lat in seen.values():
        rows = reduced_basis(lat)
        a, b = lat.alg.a, lat.alg.b
        assert ([[bilin4(a, b, r, s) for s in rows] for r in rows]
                == lat._reduced[0])
        assert hnf(rows) == [list(r) for r in lat.mat]


def test_vectors_of_value_match_the_counts():
    # one of each pair +-x, every x in the lattice and of the given value
    for lat in translation_modules(37) + [order_lattice(101)]:
        counts = lat.counts_up_to(4)
        for m in range(1, 5):
            found = lat.vectors_of_value(m)
            assert 2 * len(found) == counts.get(m, 0)
            assert all(lat.norm_value(x) == m
                       and lat.coordinates(x) is not None for x in found)
            signed = {tuple(x) for x in found}
            signed |= {tuple(-v for v in x) for x in found}
            assert len(signed) == 2 * len(found)
            assert lat.vectors_of_value(m) is found


def test_extreme_translation_module_count():
    # ideal products at large levels produce very skew HNF bases; the count
    # at m = N must still be a multiple of 2 w_i (here 6)
    classes = enumerate_classes(maximal_order(construct_algebra(179)))
    i = classes.weights.index(3)
    lat = classes.translation_module(i, i)
    assert lat.counts_up_to(179).get(179, 0) % 6 == 0
