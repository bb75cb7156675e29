import random

import pytest

import oracles
from brandtkit.brandt import BrandtCollection
from brandtkit.ideals import enumerate_classes
from brandtkit.orders import maximal_order
from brandtkit.quatalg import ConsistencyError, construct_algebra
import brandtkit.ssoracle as ssoracle
from brandtkit.ssoracle import (QuadField, cross_validate, curve_from_j,
                                is_supersingular, point_count,
                                supersingular_polynomial, supersingular_set)


def pipeline(N):
    classes = enumerate_classes(maximal_order(construct_algebra(N)))
    return classes, BrandtCollection(classes, bound=max(5, (N + 1) // 6 + 1))


def minpoly_pairs(ss, N):
    """Model-independent (trace, norm) fingerprints of a j-list over
    F_N(sqrt(c)): trace 2s, norm s^2 - c t^2."""
    c = QuadField(N).c if N >= 5 else 0
    return sorted(((2 * s) % N, (s * s - c * t * t) % N)
                  for s, t in ss.j_list)


def test_supersingular_sets_match_brute_scan():
    for N in (5, 7, 11, 13, 17, 19, 23):
        ss = supersingular_set(N)
        assert minpoly_pairs(ss, N) == oracles.brute_supersingular_minpolys(N)


def test_small_characteristic_tables():
    assert is_supersingular(0, 2)
    assert not is_supersingular(1, 2)
    assert is_supersingular(0, 3)
    assert is_supersingular(1728, 3)  # 1728 = 0 mod 3
    assert len(supersingular_set(2)) == 1
    assert len(supersingular_set(3)) == 1


def test_known_rational_j_values():
    # mod 11 exactly j = 0 and j = 1728 = 1 are supersingular
    assert sorted(supersingular_set(11).j_list) == [(0, 0), (1, 0)]
    for j in range(11):
        assert is_supersingular(j, 11) == (j in (0, 1))
    # mod 13 the single supersingular j is 5
    assert supersingular_set(13).j_list == [(5, 0)]
    assert is_supersingular(5, 13)


def test_set_invariants():
    for N in (11, 23, 37, 43):
        ss = supersingular_set(N)
        assert ss.frobenius_closed()
        assert ss.rational_count <= len(ss)
        assert len(set(ss.j_list)) == len(ss)


def test_hasse_polynomial_shape():
    for N in (5, 11, 37):
        H = oracles.hasse_polynomial(N)
        assert len(H) == (N - 1) // 2 + 1
        assert H[0] == 1
        assert H[-1] == 1
    assert oracles.supersingular_j_by_hasse(13) == [(5, 0)]


def test_j_lists_match_hasse_scan():
    for N in oracles.primes_upto(100)[2:]:
        assert supersingular_set(N).j_list == \
            oracles.supersingular_j_by_hasse(N), N


def test_supersingular_polynomial_degree_is_class_number():
    for N in oracles.primes_upto(1000)[2:]:
        P = supersingular_polynomial(N)
        assert P[-1] == 1, N
        assert len(P) - 1 == oracles.eichler_class_number(N), N
        assert all(0 <= x < N for x in P), N


def test_point_count_matches_element_loop():
    # every j in F_{N^2}: the j in F_N take the F_N path, the rest the full
    # sum; the mixed pairs (A in F_N, B not, and back) take the full sum
    for N in oracles.primes_upto(23)[2:]:
        F, G = QuadField(N), oracles.ElementQuadField(N)
        for j in G.elements():
            A, B = curve_from_j(F, j)
            assert point_count(F, A, B) == \
                oracles.point_count_by_elements(G, A, B), (N, j)
        for A, B in (((1, 0), (0, 1)), ((0, 2), (3, 0)), ((1, 1), (1, 0))):
            assert point_count(F, A, B) == \
                oracles.point_count_by_elements(G, A, B), (N, A, B)


def test_unreduced_tuples_match_ints():
    for N in (13, 37):
        for x in (N, 1728, 1728 + N):
            assert is_supersingular((x, 0), N) == is_supersingular(x, N)
    assert is_supersingular((5 + 13, 13), 13)
    assert is_supersingular((3, 0), 3)


def test_wrong_root_count_is_refused(monkeypatch):
    # (j - 5)^2 has the single supersingular root 5 but degree 2
    monkeypatch.setattr(ssoracle, "supersingular_polynomial",
                        lambda N: [25 % N, -10 % N, 1])
    with pytest.raises(ConsistencyError):
        supersingular_set(13)


def power(F, x, e):
    r = (1, 0)
    for _ in range(e):
        r = F.mul(r, x)
    return r


def test_quadfield_axioms():
    F = QuadField(13)
    rng = random.Random(3)
    assert F.c == oracles.ElementQuadField(13).c
    assert F.legendre == [oracles.legendre_euler(u, 13) for u in range(13)]
    one, zero = (1, 0), (0, 0)
    for _ in range(40):
        x = (rng.randrange(13), rng.randrange(13))
        y = (rng.randrange(13), rng.randrange(13))
        z = (rng.randrange(13), rng.randrange(13))
        assert F.mul(x, y) == F.mul(y, x)
        assert F.mul(x, F.mul(y, z)) == F.mul(F.mul(x, y), z)
        assert F.mul(x, F.sub(y, z)) == F.sub(F.mul(x, y), F.mul(x, z))
        assert F.smul(5, x) == F.mul((5, 0), x)
        xbar = (x[0], -x[1] % 13)
        xy = F.mul(x, y)
        assert (xy[0], -xy[1] % 13) == F.mul(xbar, (y[0], -y[1] % 13))
        assert power(F, x, 13) == xbar  # Frobenius
        assert F.mul(x, xbar)[1] == 0  # the norm lies in F_N
    assert power(F, (0, 1), F.q - 1) == one
    assert power(F, (0, 1), (F.q - 1) // 2) != one  # sqrt(c) is no square
    assert F.sub(zero, one) == (12, 0)


def test_curve_from_j_round_trip():
    F = QuadField(11)
    rng = random.Random(9)
    for _ in range(20):
        j = (rng.randrange(11), rng.randrange(11))
        if j in ((0, 0), (1728 % 11, 0)):
            continue
        A, B = curve_from_j(F, j)
        # j(E) = 1728 * 4A^3 / (4A^3 + 27B^2), checked without dividing
        a3 = F.smul(4, F.mul(A, F.mul(A, A)))
        disc = F.sub(a3, F.smul(-27, F.mul(B, B)))
        assert disc != (0, 0)
        assert F.mul(j, disc) == F.smul(1728, a3)


def test_point_count_supersingular_trace():
    # j = 0 is supersingular mod 5; over F_25 the trace must be +-10
    F = QuadField(5)
    A, B = curve_from_j(F, (0, 0))
    assert point_count(F, A, B) in (16, 36)


def test_cross_validate_matching_levels():
    for N in (11, 23, 37):
        classes, coll = pipeline(N)
        rep = cross_validate(classes, coll)
        assert rep["j_count"] == classes.n
        assert rep["level_fixed_points"] == rep["rational_count"]
        assert len(rep["j_invariants"]) == classes.n
        assert rep["automorphism_match"]["j0"] == (N % 3 == 2)
        assert rep["automorphism_match"]["j1728"] == (N % 4 == 3)


def test_cross_validate_level_23_rational_points():
    classes, coll = pipeline(23)
    rep = cross_validate(classes, coll)
    # weights 1, 2, 3 pair with three rational j, including 0 and 1728
    assert rep["rational_count"] == 3
    assert sorted(classes.weights) == [1, 2, 3]


def test_cross_validate_rejects_wrong_set():
    classes, coll = pipeline(11)
    with pytest.raises(ConsistencyError):
        cross_validate(classes, coll, ss=supersingular_set(13))
