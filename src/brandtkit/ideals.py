"""Left ideal classes of a maximal order.

Ideals are lattices closed under left multiplication by the order R, and
a left ideal is its QuatLattice: R is the same for every class, so
p_neighbors, the one function that multiplies by R, takes it as an
argument.  The class set is produced by a breadth-first walk over
p-neighbors: for a prime p away from the level, the ideals of norm
p*N(I) directly below I are the p+1 lattices R x + pI, x in I of reduced
norm 0 mod p, in closed form because R/pR is the matrix ring M_2(F_p).
The walk uses only the least prime p other than N: the p-neighbour graph
is connected (Kirschmer and Voight 2010), as B(p)'s eigenvalue p + 1
belongs to the Eisenstein vector alone.  It terminates exactly when the mass sum(1/w_i) reaches (N-1)/12.

A ClassList keys each class by an invariant, the theta prefix of its own
normalized norm form (class_key), and find() runs the exact is_equivalent
only against known classes with the key of the ideal it looks up; the
class walk and the B(N) read-off both go through it (Kirschmer and
Voight, "Algorithmic enumeration of ideal classes for quaternion orders",
SIAM J. Comput. 2010).  The key only filters: two classes may share it,
and equivalence is still decided by is_equivalent, with no product
lattice: alpha = x^-1 y for y the first row of I's reduced basis and x
each vector of J of y's normalized value, then J alpha = I by membership.

Every ideal here is an invertible lattice, so inverses and right orders
have closed forms: I^-1 = conj(I) / nrd(I) and O_R(I) = conj(I) I / nrd(I),
where nrd(I) is the normalized content of the norm form on I (Voight,
Quaternion Algebras, GTM 288, the chapter on invertible lattices).  The
two-sided ideal P of norm N is closed form as well: P = O pi for one
element pi of reduced norm N that the order contains (j, or 1 + i at
N = 2).  It equals N O^#, with O^# the dual of the order under the reduced
trace form: P is the only two-sided ideal of norm N, so it is the different
of O and conj(P) = P, and O^# = P^-1 = conj(P) / N.  P I = pi O I = pi I
has four generating rows.  Where 1 lies in one factor (L L = L for an
order, O I = I, O P = P), a product equals the other factor exactly when
it lies inside it, and QuatLattice.contains_products checks that.

Etymology of the weights: w_i is the unit group of the right order R_i of
I_i modulo {+-1}, i.e. half the number of norm-1 vectors of R_i.
"""

from collections import deque
from fractions import Fraction
from itertools import product

from .intmat import hnf, mat_mul
from .lattices import QuatLattice, product_lattice
from .orders import QuatOrder
from .quatalg import ConsistencyError, mul4, norm4


def right_order(ideal):
    """The right order conj(I) I / nrd(I) of a left ideal; maximal here."""
    order = QuatOrder(product_lattice(ideal.conjugated(), ideal)
                      .scaled(1 / ideal.content()))
    if order.reduced_discriminant() != ideal.alg.level:
        raise ConsistencyError("right order of an ideal is not maximal")
    return order


def ideal_inverse(lattice):
    """The inverse conj(I) / nrd(I) of the lattice I of a left ideal.

    Satisfies N(I^-1) N(I) = 1 and I^-1 I = the right order of I.
    """
    return lattice.conjugated().scaled(1 / lattice.content())


def two_sided_ideal(order):
    """The two-sided ideal P of reduced norm N of a maximal order of level N.

    P = pi O with pi = j, of reduced norm N in every algebra (a, -N) that
    `construct_algebra` returns for odd N, and pi = 1 + i in (-1, -1) at
    N = 2; each Pizer basis contains pi.  O is maximal and B ramifies only
    at N, so pi O is the unique two-sided ideal of norm N: at N, O is the
    valuation ring of a division algebra, with one maximal ideal, and at
    every other p it is M_2(Z_p), whose two-sided ideals are p^k O.  P is
    therefore the different of O, and it equals N O^#, O^# the dual of O
    under the reduced trace form.  P^2 = N O, and [I] -> [P I] is the
    permutation B(N) of the left ideal classes (Pizer, "An algorithm for
    computing modular forms on Gamma_0(N)", J. Algebra 1980).
    """
    lat = order.lattice
    N = lat.alg.level
    P = pi_times(lat)
    if P.content() != N:
        raise ConsistencyError(f"two-sided ideal has norm {P.content()}, not {N}")
    if not P.contains_products(lat.mat, P.mat, lat.den * P.den):
        raise ConsistencyError("pi O is not a left ideal of the order")
    return P


def pi_times(lattice):
    """pi L for the pi of two_sided_ideal.  For a left ideal I this is
    P I = pi O I, and x -> pi x scales every reduced norm by N, so P I has
    the normalized norm form, and the class_key, of I."""
    alg = lattice.alg
    pi = (1, 1, 0, 0) if alg.level == 2 else (0, 0, 1, 0)
    return QuatLattice.from_rows(
        alg, [mul4(alg.a, alg.b, pi, r) for r in lattice.mat], lattice.den)


def is_equivalent(I, J):
    """Same left ideal class: I = J alpha for some alpha in B^x.

    Let y be the first row of I's reduced basis, of normalized value m.  If
    I = J beta, then x = y beta^-1 lies in J with normalized value m, and
    beta = x^-1 y.  So it is enough to try alpha = x^-1 y for each x of J
    of value m, one of each pair +-x.  J alpha <= I and I alpha^-1 <= J
    give I = J alpha, four exact memberships each; the floats of the LLL
    pass and the enumeration only choose y and list the x.
    """
    a, b = I.alg.a, I.alg.b
    y = I.reduced_basis()[0]
    ybar = (y[0], -y[1], -y[2], -y[3])
    for x in J.vectors_of_value(I.norm_value(y)):
        # r alpha = r conj(x) y / nrd(x), s alpha^-1 = s conj(y) x / nrd(y)
        xbar = (x[0], -x[1], -x[2], -x[3])
        if (I.contains_products(J.mat, [mul4(a, b, xbar, y)],
                                norm4(a, b, x) * I.den)
                and J.contains_products(I.mat, [mul4(a, b, ybar, x)],
                                        norm4(a, b, y) * J.den)):
            return True
    return False


def unit_weight(order):
    """|O^x / {+-1}|: half the number of norm-1 vectors of the order."""
    if order.lattice.content() != 1:
        raise ConsistencyError("order norm form has nontrivial content")
    cnt = order.lattice.count_vectors(1)
    if cnt % 2:
        raise ConsistencyError("odd count of norm-1 units")
    return cnt // 2


# ---------------------------------------------------------------------------

def p_neighbors(order, I, p):
    """The p + 1 left ideals J of the order with pI < J < I and
    N(J) = p N(I).

    O/pO is M_2(F_p), and I/pI is free of rank one over it, so an element x
    of I/pI of reduced norm 0 mod p is a matrix of rank one, and O x is the
    2-dimensional left ideal of the matrices whose kernel contains ker x.
    The neighbours are therefore the J = O x + pI, one for each of the p + 1
    kernels (Pizer 1980; Kirschmer and Voight 2010).  Each x is taken once
    up to scalars, as a coefficient row on I's basis with leading entry 1.
    The neighbours come ordered by the reduced row echelon form mod p of
    J/pI in I's coordinates: pivot columns first, then the rows.
    """
    alg = I.alg
    if p == alg.level:
        raise ValueError("neighbor prime must differ from the level")
    olat = order.lattice
    if not I.contains_products(olat.mat, I.mat, olat.den * I.den):
        raise ConsistencyError("lattice is not left-stable")
    pI = [[p * (r == c) for c in range(4)] for r in range(4)]
    planes = {}
    for lead in range(4):
        for tail in product(range(p), repeat=3 - lead):
            x = mat_mul([(0,) * lead + (1,) + tail], I.mat)[0]
            if I.norm_value(x) % p:
                continue
            # O x in I's coordinates; integral because O I = I
            Ox = [[c % p for c in I.coordinates(
                [y // olat.den for y in mul4(alg.a, alg.b, r, x)])]
                for r in olat.mat]
            # J/pI in the HNF of J's coordinates on I: its rows with
            # pivot 1 are the echelon form mod p, entries in [0, p)
            H = hnf(Ox + pI)
            pivots = tuple(r for r in range(4) if H[r][r] == 1)
            planes[pivots, tuple(tuple(H[r]) for r in pivots)] = H
    found = []
    for key in sorted(planes):
        nb = QuatLattice.from_rows(alg, mat_mul(planes[key], I.mat), I.den)
        if nb.content() != p * I.content():
            raise ConsistencyError("neighbor has unexpected norm")
        found.append(nb)
    if len(found) != p + 1:
        raise ConsistencyError(
            f"expected {p + 1} neighbors at p={p}, found {len(found)}")
    return found


def class_key(ideal):
    """The theta prefix theta_0 .. theta_K of the normalized norm form of
    the ideal, K = floor(N/12) + 1: a class invariant.

    For J = I alpha, nrd(x alpha) / nrd(J) = nrd(x) / nrd(I), so I and J
    have the same normalized norm form up to the change of variables
    x -> x alpha, and the same theta series.  It costs one LLL of the
    ideal's own basis and a short enumeration, with no product lattice.
    Short prefixes separate classes poorly: with K = 8 one key holds 21
    of the 50 classes at N = 601 and 42 of the 84 at N = 1009.  With this
    K no key holds more than two classes at N = 197, 401, 601 or 1009.
    """
    return tuple(ideal.theta_coefficients(ideal.alg.level // 12 + 1))


class ClassList:
    """Representatives of the left ideal classes of a maximal order O,
    class 0 being O itself.

    add() derives what the Brandt matrices need of a class once: its
    class_key, its inverse, its right order (the module M_ii) and its
    weight.  The classes are indexed by class_key, so find() runs the exact
    is_equivalent only against known classes with the same key; keys[i]
    is the key of class i.
    """

    def __init__(self, order):
        self.order = order
        self.level = order.alg.level
        self.ideals = []
        self.weights = []
        self.keys = []
        self._inverses = []
        self._by_key = {}
        self._translations = {}
        self.add(order.lattice)

    @property
    def n(self):
        return len(self.ideals)

    def add(self, ideal):
        """Append a new class; the caller knows that it is new."""
        i = self.n
        key = class_key(ideal)
        ro = right_order(ideal)
        self._by_key.setdefault(key, []).append(i)
        self.keys.append(key)
        # I_0 = O, so M_i0 = O I = I; and conj(I) I / nrd(I) is I^-1 I,
        # the same canonical lattice
        self._translations[i, 0] = ideal
        self._translations[i, i] = ro.lattice
        self.ideals.append(ideal)
        self._inverses.append(ideal_inverse(ideal))
        self.weights.append(unit_weight(ro))

    def find(self, ideal, key=None):
        """The index of the known class that contains ideal, or None; key
        is the ideal's class_key when the caller already knows it."""
        if key is None:
            key = class_key(ideal)
        for i in self._by_key.get(key, ()):
            if is_equivalent(ideal, self.ideals[i]):
                return i
        return None

    def mass(self):
        return sum(Fraction(1, w) for w in self.weights)

    def translation_module(self, i, j):
        """M_ij = I_j^-1 I_i, the lattice whose theta series feeds B(m)_ij."""
        key = (i, j)
        if key not in self._translations:
            self._translations[key] = product_lattice(
                self._inverses[j], self.ideals[i])
        return self._translations[key]


def enumerate_classes(order):
    """All left ideal classes of a maximal order, mass-formula terminated.

    A breadth-first walk over p-neighbours, p the least prime other than
    the level.  Each neighbour is looked up with ClassList.find, so it gets
    the exact equivalence test only against known classes with its
    class_key; a neighbour in no known class is a new class.  The graph is
    connected, so a walk that closes below the mass is a ConsistencyError.
    """
    level = order.alg.level
    if order.reduced_discriminant() != level:
        raise ValueError("order is not maximal of its algebra's level")
    target = Fraction(level - 1, 12)
    classes = ClassList(order)
    mass = Fraction(1, classes.weights[0])
    p = 3 if level == 2 else 2
    frontier = deque(classes.ideals)
    while mass < target:
        if not frontier:
            raise ConsistencyError(
                f"the {p}-neighbour walk closed at mass {mass} < {target}")
        for nb in p_neighbors(order, frontier.popleft(), p):
            if classes.find(nb) is not None:
                continue
            classes.add(nb)
            mass += Fraction(1, classes.weights[-1])
            frontier.append(nb)
            if mass == target:
                break
        if mass > target:
            raise ConsistencyError("mass overshot (N-1)/12; duplicate classes?")
    # the walk ends at mass >= target and an overshoot raises, so it leaves
    # at mass == target; the weight product is a separate fact
    prod = 1
    for w in classes.weights:
        prod *= w
    if prod != target.denominator:
        raise ConsistencyError(
            f"weight product {prod} != mass denominator {target.denominator}")
    return classes
