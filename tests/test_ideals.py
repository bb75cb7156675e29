import hashlib
import json
import random
from fractions import Fraction

import pytest

import oracles
from brandtkit import ideals as ideals_module
from brandtkit import orders
from brandtkit.brandt import BrandtCollection
from brandtkit.ideals import (ClassList, class_key, enumerate_classes,
                              ideal_inverse, is_equivalent, p_neighbors,
                              pi_times, right_order, two_sided_ideal,
                              unit_weight)
from brandtkit.lattices import QuatLattice, product_lattice
from brandtkit.orders import QuatOrder, maximal_order
from brandtkit.quatalg import (ConsistencyError, ConstructionError,
                               construct_algebra, mul4)
from brandtkit.spectral import sturm_bound


def classes_for(N):
    return enumerate_classes(maximal_order(construct_algebra(N)))


def test_maximal_order_discriminant():
    # every residue class of N, and 401, 601, 1009 among the larger levels
    for N in oracles.primes_upto(1100):
        order = maximal_order(construct_algebra(N))
        assert order.reduced_discriminant() == N


# Z<1, i, j, k, (1 + j + k)/2> as integer rows over the denominator 2
UNCLOSED_SEED = ([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2],
                  [1, 0, 1, 1]], 2)
LIPSCHITZ = ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 1)


@pytest.mark.parametrize("N, basis", [
    # Z<1, i, j, k, (1 + j + k)/2>: reduced discriminant 4N, not closed
    (13, lambda alg: UNCLOSED_SEED),
    # the Lipschitz order Z<1, i, j, k>: an order of discriminant 4N
    (11, lambda alg: LIPSCHITZ),
], ids=["unclosed-seed", "lipschitz-order"])
def test_non_maximal_basis_is_refused(monkeypatch, N, basis):
    monkeypatch.setattr(orders, "_pizer_basis", basis)
    with pytest.raises(ConstructionError):
        maximal_order(construct_algebra(N))


@pytest.mark.parametrize("N, lattice, message", [
    (11, lambda O: O.lattice.scaled(2), "order does not contain 1"),
    (13, lambda O: QuatLattice.from_rows(O.alg, *UNCLOSED_SEED),
     "order basis is not multiplicatively closed"),
], ids=["twice-the-order", "unclosed-seed"])
def test_order_checks_refuse(N, lattice, message):
    order = maximal_order(construct_algebra(N))
    with pytest.raises(ConsistencyError, match=message):
        QuatOrder(lattice(order))


@pytest.mark.parametrize("rows", [
    # Lipschitz lattice Z<1, i, j, k>: (1 + j)/2 * 1 has odd coordinates
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    # 2 Z<1, i, j, k>: every product is even, but (1 + j)/2 * 2 = 1 + j
    # is not in it
    [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]],
], ids=["lipschitz", "twice-lipschitz"])
def test_p_neighbors_refuse_unstable_lattice(rows):
    order = maximal_order(construct_algebra(11))
    lat = QuatLattice.from_rows(order.alg, rows)
    with pytest.raises(ConsistencyError, match="lattice is not left-stable"):
        p_neighbors(order, lat, 3)


def test_each_class_inverse_is_built_once(monkeypatch):
    # ClassList.add builds one inverse per class; neither the rest of the
    # walk nor the Brandt counts build another
    calls = []

    def counted(lattice):
        calls.append(lattice)
        return ideal_inverse(lattice)

    monkeypatch.setattr(ideals_module, "ideal_inverse", counted)
    classes = classes_for(101)
    BrandtCollection(classes, sturm_bound(101) + 2)
    assert 0 < len(calls) <= classes.n


def test_unit_weight_small_levels():
    # unit group orders 24, 12, 6, 4, 2 give weights 12, 6, 3, 2, 1
    assert unit_weight(maximal_order(construct_algebra(2))) == 12
    assert unit_weight(maximal_order(construct_algebra(3))) == 6
    assert unit_weight(maximal_order(construct_algebra(5))) == 3
    assert unit_weight(maximal_order(construct_algebra(7))) == 2
    assert unit_weight(maximal_order(construct_algebra(13))) == 1


def ideals_with_neighbours(N):
    """The class representatives at level N and the p = 3 neighbours of the
    last one, all left ideals of the same maximal order."""
    classes = classes_for(N)
    return classes, classes.ideals + p_neighbors(classes.order,
                                                 classes.ideals[-1], 3)


def test_right_order_of_unit_ideal_is_order():
    for N in (11, 37, 101):
        order = maximal_order(construct_algebra(N))
        assert right_order(order.lattice).lattice == order.lattice
        _, ideals = ideals_with_neighbours(N)
        for I in ideals:
            assert product_lattice(I, right_order(I).lattice) == I


def test_ideal_inverse_and_product():
    for N in (11, 37, 101):
        order = maximal_order(construct_algebra(N))
        lat = order.lattice
        assert ideal_inverse(lat) == lat
        assert product_lattice(lat, lat) == lat
        classes, ideals = ideals_with_neighbours(N)
        for I in ideals:
            inv = ideal_inverse(I)
            assert inv.content() * I.content() == \
                product_lattice(I, inv).content()
            assert product_lattice(I, inv) == classes.order.lattice
            assert product_lattice(inv, I) == right_order(I).lattice


@pytest.mark.parametrize(
    "N", [p for p in oracles.primes_upto(139) if p >= 5] + [401])
def test_two_sided_ideal(N):
    classes = classes_for(N)
    O = classes.order.lattice
    P = two_sided_ideal(classes.order)
    assert P.content() == N
    assert product_lattice(O, P) == P
    assert product_lattice(P, O) == P
    assert product_lattice(P, P) == O.scaled(N)
    for I in classes.ideals:
        assert product_lattice(P, I).content() == N * I.content()


@pytest.mark.parametrize("N", oracles.primes_upto(200) + [401])
def test_pi_times_is_the_product_with_p(N):
    # P I = pi I, and x -> pi x keeps the normalized norm form, so the key
    # of I serves P I in the B(N) read-off
    classes = classes_for(N)
    P = two_sided_ideal(classes.order)
    for i, I in enumerate(classes.ideals):
        PI = pi_times(I)
        assert PI == product_lattice(P, I)
        assert class_key(PI) == class_key(I) == classes.keys[i]


@pytest.mark.parametrize("N", [2, 11, 37, 101])
def test_closure_by_membership_matches_product_equality(N):
    # each closure check reads L1 L2 = L as "the 16 products of basis rows
    # lie in L", which needs 1 in one factor and L in {L1, L2}
    order = maximal_order(construct_algebra(N))
    O = order.lattice
    P = two_sided_ideal(order)
    _, ideals = ideals_with_neighbours(N)
    cases = [(O, O, O), (P, O, P), (O, P, P)]
    cases += [(O, I, I) for I in ideals]
    cases += [(O, lat, lat) for lat in (
        QuatLattice.from_rows(order.alg, *UNCLOSED_SEED),
        QuatLattice.from_rows(order.alg, *LIPSCHITZ),
        QuatLattice.from_rows(order.alg, *LIPSCHITZ).scaled(2))]
    seed = QuatLattice.from_rows(order.alg, *UNCLOSED_SEED)
    cases.append((seed, seed, seed))
    answers = set()
    for L1, L2, L in cases:
        inside = L.contains_products(L1.mat, L2.mat, L1.den * L2.den)
        assert inside == (product_lattice(L1, L2) == L)
        answers.add(inside)
    assert answers == {True, False}


def test_two_sided_ideal_is_n_times_dual():
    for N in oracles.primes_upto(1100):
        order = maximal_order(construct_algebra(N))
        assert two_sided_ideal(order) == oracles.two_sided_ideal_by_dual(order)


def test_p_neighbors_shape():
    for N, p in ((11, 2), (11, 3), (37, 2)):
        order = maximal_order(construct_algebra(N))
        nbrs = p_neighbors(order, order.lattice, p)
        assert len(nbrs) == p + 1
        for lat in nbrs:
            assert lat.content() == p * order.lattice.content()
            ro = right_order(lat)
            assert ro.reduced_discriminant() == N


def test_p_neighbors_rejects_level():
    order = maximal_order(construct_algebra(11))
    with pytest.raises(ValueError):
        p_neighbors(order, order.lattice, 11)



@pytest.mark.parametrize("N", [11, 37, 101, 197])
def test_p_neighbors_match_the_plane_search(N):
    # the same neighbours in the same order: the order fixes the class walk
    classes = classes_for(N)
    for I in classes.ideals:
        for p in (2, 3, 5):
            if p != N:
                assert (p_neighbors(classes.order, I, p)
                        == oracles.p_neighbors_by_planes(classes.order, I,
                                                         p)), (N, p)


# SHA-256 of json.dumps of the record's "ideal_bases" list, taken from the
# class walk of the plane-search p_neighbors; the stored records end at 307
WALK_DIGESTS = {
    401: "5b1335f565295a601c56b51e8bc77f545b62f46f14b1ead6aea9270fca6634e1",
    601: "976e375af3d090db5591cbd07a7398cf526339e2b6534dddf8bbb9011dfaf8a0",
    1009: "a979f1ee0d0417f43f8fe4a0c737697abf6df1e5e6624b0904633a9dfd3d756a",
}


@pytest.mark.parametrize("N", sorted(WALK_DIGESTS))
def test_class_representatives_are_pinned(N):
    bases = [{"den": I.den, "rows": [list(r) for r in I.mat]}
             for I in classes_for(N).ideals]
    digest = hashlib.sha256(json.dumps(bases).encode()).hexdigest()
    assert digest == WALK_DIGESTS[N]

def test_class_numbers_match_eichler_formula():
    for N in oracles.primes_upto(97):
        classes = classes_for(N)
        assert classes.n == oracles.eichler_class_number(N), N


def test_mass_formula_and_weight_product():
    for N in (2, 3, 11, 37, 59, 97):
        classes = classes_for(N)
        mass = Fraction(N - 1, 12)
        assert classes.mass() == mass
        prod = 1
        for w in classes.weights:
            prod *= w
        assert prod == mass.denominator


def test_known_weight_multisets():
    assert sorted(classes_for(11).weights) == [2, 3]
    assert sorted(classes_for(37).weights) == [1, 1, 1]
    assert sorted(classes_for(2).weights) == [12]
    assert sorted(classes_for(23).weights) == [1, 2, 3]


def test_class_list_starts_at_the_order():
    order = maximal_order(construct_algebra(37))
    classes = ClassList(order)
    assert classes.n == 1
    assert classes.ideals[0] == order.lattice
    assert classes.weights[0] == unit_weight(order)
    assert classes.translation_module(0, 0) == order.lattice


def test_class_representatives_are_inequivalent():
    for N in (11, 37, 43):
        classes = classes_for(N)
        for i in range(classes.n):
            for j in range(i + 1, classes.n):
                assert not is_equivalent(classes.ideals[i], classes.ideals[j])


@pytest.mark.parametrize("N", [11, 37, 101, 197])
def test_keyed_walk_matches_unkeyed_walk(N, monkeypatch, checked_equivalence):
    # with one key for every ideal, find() tests each known class in turn,
    # as the walk did before it had keys; every test, keyed or not, agrees
    # with the product test
    keyed = classes_for(N)
    keyed_level_matrix = BrandtCollection(keyed, 1).matrix(N)
    monkeypatch.setattr(ideals_module, "class_key", lambda ideal: ())
    plain = classes_for(N)
    assert plain.ideals == keyed.ideals
    assert plain.weights == keyed.weights
    assert BrandtCollection(plain, 1).matrix(N) == keyed_level_matrix
    assert set(checked_equivalence) == {True, False}


@pytest.mark.parametrize("N", oracles.primes_upto(200) + [401])
def test_equivalence_matches_product_test(N, checked_equivalence):
    # every pair that find tests in the keyed walk and the B(N) read-off;
    # each P I_i is found, so at least n answers are True
    classes = classes_for(N)
    BrandtCollection(classes, 1)
    assert checked_equivalence.count(True) >= classes.n


@pytest.mark.parametrize("N", [37, 101, 197])
def test_class_key_is_a_class_invariant(N):
    classes = classes_for(N)
    order = classes.order
    alg = order.alg
    rng = random.Random(N)
    for i, I in enumerate(classes.ideals):
        for _ in range(3):
            alpha = [0, 0, 0, 0]
            while not any(alpha):  # a random nonzero element of the order
                coeffs = [rng.randint(-5, 5) for _ in range(4)]
                alpha = [sum(c * row[k] for c, row in
                             zip(coeffs, order.lattice.mat)) for k in range(4)]
            rows = [mul4(alg.a, alg.b, row, alpha) for row in I.mat]
            J = QuatLattice.from_rows(alg, rows, I.den * order.lattice.den)
            assert class_key(J) == class_key(I)
            assert classes.find(J) == i


@pytest.mark.parametrize("N", [197, 307])
def test_equivalence_tests_within_budget(N, is_equivalent_calls):
    # the walk and the B(N) read-off; keyed by nothing they make 536 at
    # N = 197 and 878 at N = 307
    classes = classes_for(N)
    BrandtCollection(classes, 1)
    assert len(is_equivalent_calls) <= 5 * classes.n


def test_translation_modules_are_integral_counts():
    # diagonal translation module is the right order itself
    for N in (11, 37):
        classes = classes_for(N)
        for i in range(classes.n):
            M = classes.translation_module(i, i)
            assert M.count_vectors(1) == 2 * classes.weights[i]


@pytest.mark.parametrize("N, message", [
    (23, "mass overshot"),
    # at 11 the duplicates reach the mass exactly; P I_1 then finds no class
    (11, "P I_1 lies in no known class"),
])
def test_a_missed_equivalence_is_a_consistency_error(N, message, monkeypatch):
    monkeypatch.setattr(ideals_module, "is_equivalent", lambda I, J: False)
    with pytest.raises(ConsistencyError, match=message):
        BrandtCollection(classes_for(N), 1)


def test_right_order_must_be_maximal():
    # the Lipschitz lattice is its own right order, of discriminant 4N
    order = maximal_order(construct_algebra(11))
    lat = QuatLattice.from_rows(order.alg, *LIPSCHITZ)
    with pytest.raises(ConsistencyError, match="right order of an ideal is "
                       "not maximal"):
        right_order(lat)


def test_walk_that_finds_no_new_class_is_a_consistency_error(monkeypatch):
    # the neighbour graph is connected, so a walk that closes below the
    # mass (N-1)/12 is a bug, reported as such and not as an IndexError
    monkeypatch.setattr(ideals_module, "p_neighbors",
                        lambda order, ideal, p: [ideal] * (p + 1))
    with pytest.raises(ConsistencyError, match="closed at mass"):
        classes_for(37)
