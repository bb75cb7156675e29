import random
from fractions import Fraction
from itertools import permutations

import pytest

import oracles
from brandtkit.brandt import (BrandtCollection, check_column_sums,
                              check_commutativity, check_weighted_row_sums,
                              check_weighted_symmetry, cyclic_operator,
                              structural_checks)
from brandtkit.ideals import (ClassList, enumerate_classes, ideal_inverse,
                              right_order, unit_weight)
from brandtkit.intmat import combination, mat_mul
from brandtkit.lattices import product_lattice
from brandtkit.orders import maximal_order
from brandtkit.quatalg import ConsistencyError, construct_algebra, is_prime
from brandtkit.spectral import sigma_level, sturm_bound
from conftest import cached_analysis


def classes_for(N):
    return enumerate_classes(maximal_order(construct_algebra(N)))


def collection_for(N, bound=1):
    return BrandtCollection(classes_for(N), bound)


def stored_matrices(coll):
    return {m: coll.matrix(m) for m in coll.available()}


def permuted(B, perm):
    n = len(B)
    return [[B[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def test_b3_level_11_matches_published_matrix():
    coll = collection_for(11, bound=3)
    B3 = coll.matrix(3)
    # align classes by weight: the published matrix has (w1, w2) = (2, 3)
    perm = sorted(range(2), key=lambda i: coll.weights[i])
    assert permuted(B3, perm) == [[2, 3], [2, 1]]


def test_b3_level_37_permutation_equivalent_to_published():
    B3 = collection_for(37, bound=3).matrix(3)
    target = [[2, 1, 1], [1, 0, 3], [1, 3, 0]]
    assert any(permuted(B3, p) == target for p in permutations(range(3)))


def test_b0_entries():
    coll = collection_for(11)
    B0 = coll.b0()
    for i in range(2):
        for j in range(2):
            assert B0[i][j] == Fraction(1, 2 * coll.weights[i])


def test_b1_is_identity():
    for N in (2, 11, 37):
        coll = collection_for(N)
        n = coll.n
        assert coll.matrix(1) == \
            [[int(i == j) for j in range(n)] for i in range(n)]


def test_structural_battery():
    for N in (2, 3, 5, 11, 13, 37, 43):
        coll = collection_for(N, bound=10)
        for name, ok, detail in structural_checks(
                coll.level, coll.weights, coll.bound, stored_matrices(coll)):
            assert ok, (N, name, detail)


def test_column_sums_are_sigma():
    coll = collection_for(37, bound=74)
    for m in (1, 2, 3, 4, 5, 6, 12, 37, 74):
        B = coll.matrix(m)
        for j in range(coll.n):
            assert sum(B[i][j] for i in range(coll.n)) == \
                sigma_level(m, 37), m


def test_weighted_symmetry_exact():
    coll = collection_for(11, bound=11)
    w = coll.weights
    for m in range(1, 12):
        B = coll.matrix(m)
        for i in range(2):
            for j in range(2):
                assert w[i] * B[i][j] == w[j] * B[j][i]


def test_hecke_recursion_away_from_level():
    coll = collection_for(11, bound=8)
    B2 = coll.matrix(2)
    B4 = coll.matrix(4)
    B8 = coll.matrix(8)
    two = [[2 * x for x in row] for row in coll.matrix(1)]
    assert mat_mul(B2, B2) == [[a + b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(B4, two)]
    twoB2 = [[2 * x for x in row] for row in B2]
    assert mat_mul(B2, B4) == [[a + b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(B8, twoB2)]


def test_multiplicative_coprime_indices():
    coll = collection_for(11, bound=6)
    assert mat_mul(coll.matrix(2), coll.matrix(3)) == coll.matrix(6)


def test_level_matrix_involution():
    for N in (11, 37, 43):
        coll = collection_for(N)
        BN = coll.matrix(N)
        n = coll.n
        assert all(x in (0, 1) for row in BN for x in row)
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        assert mat_mul(BN, BN) == ident
        if N == 43:  # counting B(43^2) takes seconds; the read-off B(43)
            continue  # is pinned by test_level_matrix_needs_every_class
        # B(N^2) = B(N)^2 = I, counted from the translation modules
        classes, w = coll.classes, coll.weights
        counted = [[classes.translation_module(min(i, j), max(i, j))
                    .count_vectors(N * N) // (2 * w[i]) for j in range(n)]
                   for i in range(n)]
        assert counted == ident


def test_theta_constant_term():
    # theta_i1(q) = 1/(2 w_i) + [i = 1] q + ..., classes counted from 1:
    # the first column of B(0) and of B(1)
    coll = collection_for(37)
    for i in range(3):
        assert coll.b0()[i][0] == Fraction(1, 2 * coll.weights[i])
        assert coll.matrix(1)[i][0] == (1 if i == 0 else 0)


def test_cusp_form_as_theta_difference():
    # theta_11 - theta_12 = q - 2q^2 - q^3 + 2q^4 + q^5 + 2q^6 - 2q^7 - 2q^9
    classes = classes_for(11)
    perm = sorted(range(2), key=lambda i: classes.weights[i])
    i1, i2 = perm[0], perm[1]
    coll = BrandtCollection(classes, bound=9)
    want = [1, -2, -1, 2, 1, 2, -2, 0, -2]
    got = [coll.matrix(m)[i1][i1] - coll.matrix(m)[i1][i2]
           for m in range(1, 10)]
    assert got == want


def test_collection_covers_level_matrix():
    classes = classes_for(37)
    coll = BrandtCollection(classes, bound=5)
    assert 37 in coll.available()
    counted = [[classes.translation_module(i, j).count_vectors(37)
                // (2 * classes.weights[i]) for j in range(3)]
               for i in range(3)]
    assert coll.matrix(37) == counted


def test_brandt_matrices_commute():
    coll = collection_for(43, bound=7)
    mats = [coll.matrix(m) for m in range(1, 8)]
    for A in mats:
        for B in mats:
            assert mat_mul(A, B) == mat_mul(B, A)


def test_commutativity_certificate_detects_failures():
    coll = collection_for(37, bound=12)
    args = (coll.level, coll.weights, coll.bound)
    ok, detail = check_commutativity(*args, stored_matrices(coll))
    assert ok, detail
    mats = stored_matrices(coll)
    mats[3] = [[2, 2, 0], [2, 0, 2], [0, 2, 2]]
    ok, detail = check_commutativity(*args, mats)
    assert not ok and detail == "B(2) and B(3) do not commute"
    mats = stored_matrices(coll)
    mats[12] = [row[::-1] for row in mats[12]]
    ok, detail = check_commutativity(*args, mats)
    assert not ok and detail == "B(12) != B(4) B(3)"


def diag(*entries):
    return [[x if i == j else 0 for j, _ in enumerate(entries)]
            for i, x in enumerate(entries)]


def test_commutativity_falls_back_when_every_t_is_derogatory(product_calls):
    # every T_k has the double eigenvalue of classes 1 and 2, so no vector
    # is cyclic and the pairwise loop decides
    mats = {1: diag(1, 1, 1), 2: diag(1, 1, 2), 3: diag(2, 2, 1),
            5: diag(0, 0, 3), 6: diag(2, 2, 2), 7: diag(1, 1, 1)}
    ok, detail = check_commutativity(7, [1, 1, 1], 6, mats)
    assert ok and detail == ("4 prime-index matrices commute pairwise, "
                             "1 products B(m) = B(q) B(m/q) verified")
    # 2 products per pair, and B(6) = B(2) B(3)
    assert len(product_calls) == 4 * 3 + 1


def test_commutativity_certificate_at_227_takes_t4(product_calls):
    # no T_1..T_3 has the fixed vector cyclic at 227, T_4 (adding 4 B(7))
    # has, so the pairwise loop never runs: 2 products per prime index
    coll = collection_for(227, bound=sturm_bound(227) + 2)
    mats = stored_matrices(coll)
    primes = [m for m in mats if is_prime(m)]
    assert cyclic_operator({p: mats[p] for p in (2, 3, 5)}, coll.n) is None
    assert cyclic_operator(mats, coll.n) == combination(
        (1, 2, 3, 4), [mats[p] for p in (2, 3, 5, 7)])
    ok, detail = check_commutativity(
        coll.level, coll.weights, coll.bound, mats)
    assert ok, detail
    products = int(detail.split(", ")[1].split()[0])
    assert len(primes) == 14  # the pairwise loop makes 182 products
    assert len(product_calls) == 2 * len(primes) + products


def test_commutativity_names_the_failing_pair_after_the_certificate():
    # T_1 = B(2) is scalar, so T_2 = B(2) + 2 B(3) is tried, and B(5) does
    # not commute with it; the pairwise loop names the pair
    mats = {1: diag(1, 1), 2: diag(3, 3), 3: [[0, 1], [1, 0]],
            5: diag(1, 2)}
    ok, detail = check_commutativity(5, [1, 1], 4, mats)
    assert not ok and detail == "B(3) and B(5) do not commute"


def test_weighted_row_sums_detail_is_the_rational_sum():
    coll = collection_for(37, bound=4)
    mats = stored_matrices(coll)
    w = coll.weights
    mats[2] = [row[:] for row in mats[2]]
    mats[2][1][0] += 1
    s = sum(Fraction(mats[2][1][j], w[j]) for j in range(coll.n))
    ok, detail = check_weighted_row_sums(coll.level, w, coll.bound, mats)
    assert not ok and detail == f"failed at m=2, row 2: weighted sum is {s}"


def first_entry_failures(level, weights, mats):
    """The first failing m and entry, column or row of weighted symmetry,
    column sums and weighted row sums, found entry by entry, or None."""
    n = len(weights)
    asym = cols = rows = None
    for m, B in sorted(mats.items()):
        target = sigma_level(m, level)
        for i in range(n):
            for j in range(n):
                if (asym is None
                        and weights[i] * B[i][j] != weights[j] * B[j][i]):
                    asym = (m, i, j)
            if cols is None and sum(B[k][i] for k in range(n)) != target:
                cols = (m, i)
            s = sum(Fraction(B[i][j], weights[j]) for j in range(n))
            if rows is None and s != Fraction(target, weights[i]):
                rows = (m, i, s)
    return asym, cols, rows


def test_entry_checks_name_the_first_failure():
    coll = collection_for(61, bound=8)
    args = (coll.level, coll.weights, coll.bound)
    rng = random.Random(37)
    seen = []
    for _ in range(60):
        mats = {m: [row[:] for row in B]
                for m, B in stored_matrices(coll).items()}
        for _ in range(2):
            B = mats[rng.choice(sorted(mats))]
            B[rng.randrange(coll.n)][rng.randrange(coll.n)] += rng.choice(
                [-2, -1, 1, 3])
        asym, cols, rows = first_entry_failures(coll.level, coll.weights,
                                                mats)
        seen.append((asym, cols, rows))
        ok, detail = check_weighted_symmetry(*args, mats)
        if asym is None:
            assert ok
        else:
            m, i, j = asym
            assert not ok and detail == (
                f"failed at m={m}, (i,j)=({i + 1},{j + 1})")
        ok, detail = check_column_sums(*args, mats)
        if cols is None:
            assert ok
        else:
            m, j = cols
            assert not ok and detail == (
                f"column {j + 1} of B({m}) does not sum to "
                f"{sigma_level(m, coll.level)}")
        ok, detail = check_weighted_row_sums(*args, mats)
        if rows is None:
            assert ok
        else:
            m, i, s = rows
            assert not ok and detail == (
                f"failed at m={m}, row {i + 1}: weighted sum is {s}")
    # each check failed in most draws, often at two places
    assert all(sum(f[k] is not None for f in seen) > 40 for k in range(3))


@pytest.mark.parametrize("N", [37, 101, 139])
def test_both_halves_reference(N):
    # B(1..M) and B(N) from all n^2 translation modules, each built afresh
    # and counted up to max(M, N), as in the textbook definition
    classes = classes_for(N)
    M = sturm_bound(N) + 2
    coll = BrandtCollection(classes, M)
    n, w = classes.n, classes.weights
    top = max(M, N)
    counts = [[product_lattice(ideal_inverse(classes.ideals[j]),
                               classes.ideals[i]).counts_up_to(top)
               for j in range(n)] for i in range(n)]
    assert coll.available() == sorted({*range(1, M + 1), N})
    for m in coll.available():
        ref = [[Fraction(counts[i][j].get(m, 0), 2 * w[i]) for j in range(n)]
               for i in range(n)]
        assert all(x.denominator == 1 for row in ref for x in row), m
        assert all(w[i] * ref[i][j] == w[j] * ref[j][i]
                   for i in range(n) for j in range(n)), m
        assert coll.matrix(m) == ref, m


@pytest.mark.parametrize("N", [2, 11, 37, 101])
def test_diagonal_module_is_the_right_order(N):
    # I^-1 I = conj(I) I / nrd(I): ClassList.add stores the right order as
    # the module, and takes the class's weight from it
    classes = classes_for(N)
    for i, I in enumerate(classes.ideals):
        ro = right_order(I)
        assert (classes.translation_module(i, i) == ro.lattice
                == product_lattice(ideal_inverse(I), I))
        assert classes.weights[i] == unit_weight(ro)


def test_level_matrix_needs_every_class():
    # at N = 43, B(N) swaps the last two classes; without the last one,
    # P I_3 lies in no known class
    classes = classes_for(43)
    assert collection_for(43).matrix(43)[2] == [0, 0, 0, 1]
    dropped = ClassList(classes.order)
    for I in classes.ideals[1:3]:
        dropped.add(I)
    with pytest.raises(ConsistencyError, match="P I_3 lies in no known class"):
        BrandtCollection(dropped, 1)


def pair_orbit(sigma, i, j):
    """The orbit of the pair (i, j) under <sigma, transpose>."""
    return frozenset({frozenset({i, j}), frozenset({sigma[i], sigma[j]})})


@pytest.mark.parametrize("N, orbits", [(101, 37), (139, 51), (197, 87)])
def test_one_module_counted_per_orbit(N, orbits, monkeypatch):
    classes = classes_for(N)
    called = []
    translation_module = ClassList.translation_module

    def recorded(self, i, j):
        called.append((i, j))
        return translation_module(self, i, j)

    monkeypatch.setattr(ClassList, "translation_module", recorded)
    coll = BrandtCollection(classes, sturm_bound(N) + 2)
    sigma = [row.index(1) for row in coll.matrix(N)]
    every = {pair_orbit(sigma, i, j)
             for i in range(coll.n) for j in range(coll.n)}
    assert len(called) == len(every) == orbits
    assert {pair_orbit(sigma, i, j) for i, j in called} == every


def test_counted_level_matrix_must_match_the_involution(monkeypatch):
    # with the bound at N, B(N) is counted, and a P I_i that find puts in
    # the wrong class makes it differ from the permutation of find's answers
    classes = classes_for(37)
    assert BrandtCollection(classes, 37).matrix(37) == [
        [1, 0, 0], [0, 0, 1], [0, 1, 0]]
    find = ClassList.find
    for wrong in range(3):
        for shift in (1, 2):
            looked_up = []

            def misplaced(self, ideal, key=None):
                j = find(self, ideal, key)
                looked_up.append(j)
                if len(looked_up) == wrong + 1:
                    return (j + shift) % self.n
                return j

            monkeypatch.setattr(ClassList, "find", misplaced)
            with pytest.raises(ConsistencyError,
                               match=r"B\(N\) from the counts is not"):
                BrandtCollection(classes, 37)


def test_trace_formula_at_level_401():
    coll = cached_analysis(401).collection
    assert oracles.trace_mismatches(401, stored_matrices(coll)) == []


def test_trace_formula_catches_a_bumped_diagonal_entry():
    coll = collection_for(37, bound=10)
    mats = stored_matrices(coll)
    assert oracles.trace_mismatches(37, mats) == []
    mats[5] = [row[:] for row in mats[5]]
    mats[5][1][1] += 1
    assert oracles.trace_mismatches(37, mats) == [5]
