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

Nothing is searched for.  The Z-span is built as a `QuatOrder`, which checks
that it contains 1 and is integral and closed under multiplication (L L = L,
since 1 in L gives L inside L L), and its reduced discriminant must equal N.
A slip in a basis is therefore a loud `ConstructionError`, never a silently
wrong order downstream.
"""

from fractions import Fraction
from math import isqrt

from .intmat import mat_det
from .lattices import QuatLattice, product_lattice
from .quatalg import ConsistencyError, ConstructionError


class QuatOrder:
    """An order: a unital, multiplicatively closed full lattice."""

    def __init__(self, lattice):
        self.alg = lattice.alg
        self.lattice = lattice
        self._disc = None
        one = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
        if not lattice.contains(one):
            raise ConsistencyError("order does not contain 1")
        if product_lattice(lattice, lattice) != lattice:
            raise ConsistencyError("order basis is not multiplicatively closed")
        for e in lattice.basis_elements():
            if not e.is_integral():
                raise ConsistencyError("order basis is not integral")

    def basis(self):
        return self.lattice.basis_elements()

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
    """sqrt |det Tr(b_i * conj(b_j))| of a lattice basis, exact.

    For an order this is a positive integer; the square root must be exact or
    the input was not what it claimed to be.
    """
    # norm-form Gram is gram_int / den^2; the trace form is twice it
    t = Fraction(abs(mat_det(lattice.gram_int())) * 16, lattice.den ** 8)
    num, den = t.numerator, t.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ConsistencyError("trace form determinant is not a perfect square")
    val = Fraction(rn, rd)
    if val.denominator != 1:
        raise ConsistencyError("reduced discriminant is not an integer")
    return int(val)


def _pizer_basis(alg):
    """Generators of Pizer's maximal order for the residue class of the level
    (with 1, i, j, k thrown in; they lie in every one of these orders)."""
    N = alg.level
    one = alg.element(1)
    i, j, k = alg.gens()
    half = Fraction(1, 2)
    gens = [one, i, j, k]
    if N == 2:
        gens.append((one + i + j + k) * half)
    elif N % 4 == 3:
        gens.append((one + j) * half)
        gens.append((i + k) * half)
    elif N % 8 == 5:  # algebra (-2, -N)
        gens.append((one + j + k) * half)
        gens.append((i + 2 * j + k) * Fraction(1, 4))
    else:  # N = 1 mod 8, algebra (-r, -N)
        r = -alg.a
        c = pow(-N % r, (r + 1) // 4, r)
        if (c * c + N) % r:
            raise ConstructionError(f"c^2 = -N mod {r} has no root")
        gens.append((one + i) * half)
        gens.append((j + k) * half)
        gens.append((alg.element(0, c, 0, 1)) * Fraction(1, r))
    return gens


def maximal_order(alg):
    """Pizer's maximal order of the algebra, certified by disc = level."""
    N = alg.level
    if N is None:
        raise ValueError("algebra has no level attached")
    try:
        order = QuatOrder(QuatLattice.from_generators(alg, _pizer_basis(alg)))
    except ConsistencyError as exc:
        raise ConstructionError(
            f"basis for level {N} does not span an order: {exc}") from exc
    disc = order.reduced_discriminant()
    if disc != N:
        raise ConstructionError(
            f"order for level {N} has reduced discriminant {disc}, not {N}")
    return order
