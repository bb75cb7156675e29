"""Orders in definite quaternion algebras, and certified maximal ones.

`maximal_order` writes down Pizer's maximal order for the residue class of
the prime level (Pizer, "An algorithm for computing modular forms on
Gamma_0(N)", J. Algebra 1980), in the algebra that `construct_algebra`
picks for that class:

    N = 2:        (-1, -1)   <1, i, j, (1 + i + j + k)/2>
    N = 3 mod 4:  (-1, -N)   <(1 + j)/2, (i + k)/2, j, k>
    N = 5 mod 8:  (-2, -N)   <(1 + j + k)/2, (i + 2j + k)/4, j, k>
    N = 1 mod 8:  (-r, -N)   <(1 + i)/2, (j + k)/2, (c i + k)/r, k>,
                             c^2 = -N mod r (Pizer's (-N, -r) basis with
                             the roles of i and j exchanged)

Each generator is written as an integer coordinate row over the one
denominator of its class (2, 2, 4 and 2r), 1, i, j, k as den times a unit
row, and `QuatLattice.from_rows` puts them in HNF.  Nothing is searched
for.  The lattice is built as a `QuatOrder`, which checks in integers that
it contains 1 and is integral and closed under multiplication (L L = L,
since 1 in L gives L inside L L, so the 16 products of basis rows must lie
in L), and its reduced discriminant must equal
N.  That discriminant is a closed form, 4 |a b| times the product of the
HNF pivots over den^4, with no determinant taken.  It is the one
certificate of the algebra as well: an order of reduced discriminant N, N
prime, in a definite algebra is maximal, and the algebra ramifies exactly
at {N, oo} (disc(B) divides discrd(O), with equality only for a maximal
order, and disc(B) = 1 would leave oo the only ramified place, against
Hilbert reciprocity; Voight, Quaternion Algebras, GTM 288, ch. 15).  A
slip in a basis or in the algebra's recipe is therefore a loud
`ConstructionError`, never a silently wrong order downstream.
"""

from math import prod

from .lattices import QuatLattice
from .quatalg import ConsistencyError, ConstructionError, norm4


class QuatOrder:
    """An order: a unital, multiplicatively closed full lattice."""

    def __init__(self, lattice):
        self.alg = lattice.alg
        self.lattice = lattice
        self._disc = None
        if lattice.coordinates([lattice.den, 0, 0, 0]) is None:
            raise ConsistencyError("order does not contain 1")
        if not lattice.contains_products(lattice.mat, lattice.mat,
                                         lattice.den ** 2):
            raise ConsistencyError("order basis is not multiplicatively closed")
        # row r / den has trace 2 r[0] / den and norm norm4(r) / den^2
        a, b, den = self.alg.a, self.alg.b, lattice.den
        for r in lattice.mat:
            if 2 * r[0] % den or norm4(a, b, r) % (den * den):
                raise ConsistencyError("order basis is not integral")

    def reduced_discriminant(self):
        if self._disc is None:
            self._disc = reduced_discriminant(self.lattice)
        return self._disc

    def __eq__(self, other):
        return isinstance(other, QuatOrder) and self.lattice == other.lattice

    def __hash__(self):
        return hash(self.lattice)

    def __repr__(self):
        return f"QuatOrder({self.lattice!r})"


def reduced_discriminant(lattice):
    """sqrt |det Tr(b_i * conj(b_j))| of a lattice basis, in closed form.

    The integer Gram matrix of the norm form is R diag(1, -a, -b, ab) R^T
    for the triangular basis R, the norm-form Gram is that over den^2 and
    the trace form twice it, so the root is 4 |a b prod R_rr| / den^4.  For
    an order this is a positive integer; a remainder means the input was
    not what it claimed to be.
    """
    alg = lattice.alg
    pivots = prod(row[r] for r, row in enumerate(lattice.mat))
    disc, rem = divmod(4 * abs(alg.a * alg.b * pivots), lattice.den ** 4)
    if rem:
        raise ConsistencyError("reduced discriminant is not an integer")
    return disc


def _pizer_basis(alg):
    """Generators of Pizer's maximal order for the residue class of the level
    as (rows, den): integer coordinate rows over the denominator den, with
    1, i, j, k thrown in (they lie in every one of these orders)."""
    N = alg.level
    if N == 2:
        den, rows = 2, [[1, 1, 1, 1]]
    elif N % 4 == 3:
        den, rows = 2, [[1, 0, 1, 0], [0, 1, 0, 1]]
    elif N % 8 == 5:  # algebra (-2, -N)
        den, rows = 4, [[2, 0, 2, 2], [0, 1, 2, 1]]
    else:  # N = 1 mod 8, algebra (-r, -N)
        r = -alg.a
        c = pow(-N % r, (r + 1) // 4, r)
        if (c * c + N) % r:
            raise ConstructionError(f"c^2 = -N mod {r} has no root")
        den, rows = 2 * r, [[r, r, 0, 0], [0, 0, r, r], [0, 2 * c, 0, 2]]
    units = [[den * (s == t) for t in range(4)] for s in range(4)]
    return units + rows, den


def maximal_order(alg):
    """Pizer's maximal order of the algebra, certified by disc = level;
    the same equation certifies that the algebra ramifies at {level, oo}."""
    N = alg.level
    if N is None:
        raise ValueError("algebra has no level attached")
    try:
        order = QuatOrder(QuatLattice.from_rows(alg, *_pizer_basis(alg)))
    except ConsistencyError as exc:
        raise ConstructionError(
            f"basis for level {N} does not span an order: {exc}") from exc
    disc = order.reduced_discriminant()
    if disc != N:
        raise ConstructionError(
            f"order for level {N} has reduced discriminant {disc}, not {N}")
    return order
