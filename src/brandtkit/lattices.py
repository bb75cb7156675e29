"""Rank-4 lattices inside a definite quaternion algebra.

A lattice is stored as a primitive pair (mat, den): four HNF basis rows of
integers over the coordinate basis 1, i, j, k, divided by a common positive
denominator.  That representation is canonical, so lattice equality is just
tuple equality.  Quaternions enter and leave as integer rows over the
lattice's den: `from_rows` builds a lattice from generating rows, and
`coordinates` writes a row on the basis.  The HNF rows are upper
triangular, so membership is one back-substitution in integers: the
pivots, taken column by column, fix the coordinates on the basis, and the
row lies in the lattice exactly when every pivot division is exact.

Vector counting follows the usual hybrid.  One L^2-style LLL pass decides
its steps in floats and updates the Gram matrix by exact integer operations;
it mirrors every step on the basis rows, which the lattice keeps.  Its
float LDL^T proposes candidate boxes (slightly inflated), and every
candidate is accepted or rejected with an exact integer evaluation of the
reduced norm form.  Counts are cached per lattice up to the largest bound
requested so far, and the same descent lists the rows of one value
(vectors_of_value), cached per value; the LLL pass runs once per lattice.
"""

from fractions import Fraction
from math import ceil, floor, gcd, sqrt
from operator import mul

from .intmat import hnf, left_sum
from .quatalg import ConsistencyError, bilin4, mul4, norm4


class QuatLattice:
    """Full lattice (rank 4) in a definite quaternion algebra."""

    __slots__ = ("alg", "mat", "den", "_content", "_gram_int",
                 "_reduced", "_rows", "_count_bound", "_counts", "_by_value")

    def __init__(self, alg, mat, den):
        if den == 0:
            raise ValueError("denominator must be nonzero")
        if den < 0:
            den = -den
        g = den
        for row in mat:
            for x in row:
                g = gcd(g, x)
        if g > 1:
            den //= g
            mat = [[x // g for x in row] for row in mat]
        if len(mat) != 4 or not all(row[r] and not any(row[:r])
                                    for r, row in enumerate(mat)):
            raise ValueError("basis rows must be upper triangular with "
                             "nonzero pivots; from_rows puts them in HNF")
        self.alg = alg
        self.mat = tuple(tuple(row) for row in mat)
        self.den = den
        self._content = None
        self._gram_int = None
        self._reduced = None
        self._rows = None
        self._count_bound = -1
        self._counts = None
        self._by_value = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(cls, alg, rows, den=1):
        """Lattice spanned by integer coordinate rows / den."""
        reduced = hnf(rows)
        if len(reduced) != 4:
            raise ValueError("generators span a rank-deficient lattice")
        return cls(alg, reduced, den)

    # -- basic accessors ----------------------------------------------------

    def gram_int(self):
        """Integer Gram matrix of the norm form on the rows of mat
        (denominator den^2 is carried separately)."""
        if self._gram_int is None:
            a, b = self.alg.a, self.alg.b
            self._gram_int = [[bilin4(a, b, ri, rj) for rj in self.mat]
                              for ri in self.mat]
        return self._gram_int

    def content_int(self):
        """gcd of the integer norm form values on the row lattice."""
        if self._content is None:
            a, b = self.alg.a, self.alg.b
            g = 0
            G = self.gram_int()
            for r in range(4):
                g = gcd(g, G[r][r])
                for s in range(r):
                    g = gcd(g, 2 * G[r][s])
            if g == 0:
                raise ConsistencyError("degenerate norm form on a lattice")
            self._content = g
        return self._content

    def content(self):
        """Normalized content: the positive rational c with N(x)/c integral
        and coprime over the lattice."""
        return Fraction(self.content_int(), self.den * self.den)

    def norm_value(self, introw):
        """Q(x)/content for an integer coordinate row of this lattice."""
        v = norm4(self.alg.a, self.alg.b, introw)
        c = self.content_int()
        if v % c:
            raise ConsistencyError("norm value not divisible by the content")
        return v // c

    def coordinates(self, row):
        """The integers c with sum_r c[r] * mat[r] = row, for an integer
        coordinate row over this lattice's den; None if row/den is not in
        the lattice.  mat is upper triangular (an HNF of full rank), so
        column r involves rows 0..r only and fixes c[r] exactly."""
        rest = list(row)
        coeffs = []
        for r, brow in enumerate(self.mat):
            c, rem = divmod(rest[r], brow[r])
            if rem:
                return None
            if c:
                for s in range(r + 1, 4):
                    rest[s] -= c * brow[s]
            coeffs.append(c)
        return coeffs

    def contains_products(self, xs, ys, den):
        """Every x * y / den, x in xs and y in ys integer rows, lies in the
        lattice.  When one factor contains 1 and L is the other, L1 L2 = L
        exactly when the products of the two bases lie in L: L <= L1 L2."""
        a, b = self.alg.a, self.alg.b
        for x in xs:
            for y in ys:
                row = [v * self.den for v in mul4(a, b, x, y)]
                if (any(v % den for v in row)
                        or self.coordinates([v // den for v in row]) is None):
                    return False
        return True

    def scaled(self, c):
        c = Fraction(c)
        mat = [[x * c.numerator for x in row] for row in self.mat]
        return QuatLattice(self.alg, mat, self.den * c.denominator)

    def conjugated(self):
        rows = [(r[0], -r[1], -r[2], -r[3]) for r in self.mat]
        return QuatLattice.from_rows(self.alg, [list(r) for r in rows], self.den)

    def __eq__(self, other):
        return (isinstance(other, QuatLattice) and self.alg == other.alg
                and self.den == other.den and self.mat == other.mat)

    def __hash__(self):
        return hash((self.alg, self.den, self.mat))

    def __repr__(self):
        return f"QuatLattice(den={self.den}, mat={[list(r) for r in self.mat]})"

    # -- vector counting ----------------------------------------------------

    def reduced_basis(self):
        """LLL-reduced basis rows over den, with the Gram matrix that the
        counts use: one LLL pass per lattice."""
        if self._rows is None:
            rows = [list(r) for r in self.mat]
            self._reduced = _lll_gram(self.gram_int(), rows)
            self._rows = rows
        return self._rows

    def counts_up_to(self, bound):
        """dict m -> #{x in L : Q(x)/content = m} for 0 <= m <= bound."""
        if bound <= self._count_bound:
            return self._counts
        self.reduced_basis()
        counts = _count_by_value(self._reduced, self.content_int(), bound)
        self._count_bound = bound
        self._counts = counts
        return counts

    def count_vectors(self, m):
        """#{x in L : Q(x) = m * content}."""
        if m < 0:
            return 0
        bound = m if m > self._count_bound else self._count_bound
        return self.counts_up_to(bound).get(m, 0)

    def vectors_of_value(self, m):
        """The rows x of the lattice with norm_value(x) = m >= 1, one of
        each pair +-x, as integer rows over den; enumerated once per m."""
        if m not in self._by_value:
            rows, found = self.reduced_basis(), []
            _count_by_value(self._reduced, self.content_int(), m, found)
            self._by_value[m] = [[sum(map(mul, u, col)) for col in zip(*rows)]
                                 for u in found]
        return self._by_value[m]

    def theta_coefficients(self, bound):
        counts = self.counts_up_to(bound)
        return [counts.get(m, 0) for m in range(bound + 1)]


DELTA = 0.99  # Lovasz constant
ETA = 0.51  # size-reduction bound on |mu|


def _lll_gram(G, rows):
    """LLL-reduced Gram matrix with its float LDL^T: (A, L, D), A ~ L D L^T.

    An L^2-style loop (Nguyen-Stehle, "An LLL algorithm with quadratic
    complexity", SIAM J. Comput. 2009) on the Gram matrix alone.  For each
    row k, r_kj = <b_k, b*_j> and mu_kj = r_kj / D_j are recomputed in floats
    from the exact row k of A and the stored data of the rows above it; b_k
    is size-reduced by exact integer row and column operations until every
    |mu_kj| <= ETA, and then D_k decides the Lovasz test at DELTA: swap and
    go back one row, or move on.  While the input is still unreduced a D_k
    can read <= 0; that fails the test and swaps.

    The floats only decide which steps to take.  Every change to A is an
    integer unimodular operation, so A is exactly the Gram matrix of a basis
    of the same lattice whatever they decide, and the enumeration accepts
    each candidate with the exact integer form A.  The entries of G must
    convert to floats (below about 1e308).  rows, basis rows with Gram
    matrix G, get every step mirrored on them in place.
    """
    A = [list(row) for row in G]
    n = len(A)
    L = [[float(i == j) for j in range(n)] for i in range(n)]  # the mu_kj
    D = [0.0] * n
    k = 0
    while k < n:
        Ak, Lk, rk = A[k], L[k], [0.0] * n
        while True:
            reduced = True
            for j in range(k):
                s = float(Ak[j])
                for t in range(j):
                    s -= L[j][t] * rk[t]
                rk[j] = s
                Lk[j] = s / D[j]
                if not -ETA <= Lk[j] <= ETA:
                    reduced = False
            if reduced:
                break
            for j in range(k - 1, -1, -1):
                x = round(Lk[j])
                if x:  # b_k <- b_k - x b_j
                    for t in range(j):
                        Lk[t] -= x * L[j][t]
                    for t in range(n):
                        Ak[t] -= x * A[j][t]
                    for t in range(n):
                        A[t][k] -= x * A[t][j]
                    rows[k] = [p - x * q for p, q in zip(rows[k], rows[j])]
        D[k] = float(Ak[k]) - left_sum(Lk[j] * rk[j] for j in range(k))
        if k == 0 or D[k] >= (DELTA - Lk[k - 1] ** 2) * D[k - 1]:
            k += 1
        else:
            A[k], A[k - 1] = A[k - 1], A[k]
            for row in A:
                row[k], row[k - 1] = row[k - 1], row[k]
            rows[k], rows[k - 1] = rows[k - 1], rows[k]
            k -= 1
    if min(D) <= 0.0:
        raise ConsistencyError("norm form is not positive definite")
    return A, L, D


def _count_by_value(reduced, cint, bound, found=None):
    """Exact histogram of Q/cint values <= bound on Z^4, given the output
    (G, L, D) of _lll_gram: G the reduced Gram matrix, G ~ L D L^T.  A list
    found collects the coefficient vectors of value exactly bound, one of
    each pair +-u.

    The float descent only proposes candidates; each one is checked with the
    exact integer form G, so the counts are exact as long as the inflated
    boxes do not truncate.  The boxes come from the float L D L^T: HNF bases
    of ideal products can be skew (entries ~N^2 apart), and on the reduced
    basis the descent works at harmless error levels.
    """
    G, L, D = reduced
    target = bound * cint
    budget = float(target) * (1.0 + 1e-7) + 1e-6
    counts = {}
    g00, g01, g02, g03 = G[0][0], G[0][1], G[0][2], G[0][3]
    g11, g12, g13 = G[1][1], G[1][2], G[1][3]
    g22, g23 = G[2][2], G[2][3]
    g33 = G[3][3]

    # descend coordinates 3,2,1,0; only the half-space with last nonzero
    # coordinate positive is walked, every nonzero vector counts double
    def rng(center, r, dk, nonneg):
        if r < 0.0:
            r = 0.0
        s = sqrt(r / dk) * (1.0 + 1e-9) + 1e-9
        lo_i = ceil(-center - s - 1e-9)
        hi_i = floor(-center + s + 1e-9)
        if nonneg and lo_i < 0:
            lo_i = 0
        return lo_i, hi_i

    lo3, hi3 = rng(0.0, budget, D[3], True)
    for u3 in range(lo3, hi3 + 1):
        r3 = budget - D[3] * u3 * u3
        c2 = L[3][2] * u3
        lo2, hi2 = rng(c2, r3, D[2], u3 == 0)
        for u2 in range(lo2, hi2 + 1):
            t2 = u2 + c2
            r2 = r3 - D[2] * t2 * t2
            c1 = L[2][1] * u2 + L[3][1] * u3
            lo1, hi1 = rng(c1, r2, D[1], u3 == 0 and u2 == 0)
            for u1 in range(lo1, hi1 + 1):
                t1 = u1 + c1
                r1 = r2 - D[1] * t1 * t1
                c0 = L[1][0] * u1 + L[2][0] * u2 + L[3][0] * u3
                lo0, hi0 = rng(c0, r1, D[0], u3 == 0 and u2 == 0 and u1 == 0)
                for u0 in range(lo0, hi0 + 1):
                    q = (g00 * u0 * u0 + g11 * u1 * u1 + g22 * u2 * u2
                         + g33 * u3 * u3
                         + 2 * (g01 * u0 * u1 + g02 * u0 * u2 + g03 * u0 * u3
                                + g12 * u1 * u2 + g13 * u1 * u3
                                + g23 * u2 * u3))
                    if q <= target:
                        m, rem = divmod(q, cint)
                        if rem:
                            raise ConsistencyError(
                                "lattice value escaped its content")
                        if found is not None and m == bound:
                            found.append((u0, u1, u2, u3))
                        if u0 or u1 or u2 or u3:
                            counts[m] = counts.get(m, 0) + 2
                        else:
                            counts[m] = counts.get(m, 0) + 1
    return counts


def product_lattice(L1, L2):
    """Lattice generated by all pairwise products x*y, x in L1, y in L2."""
    if L1.alg != L2.alg:
        raise ValueError("lattices live in different algebras")
    a, b = L1.alg.a, L1.alg.b
    rows = []
    for x in L1.mat:
        for y in L2.mat:
            rows.append(list(mul4(a, b, x, y)))
    return QuatLattice.from_rows(L1.alg, rows, L1.den * L2.den)
