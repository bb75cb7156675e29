"""Exact linear algebra on small matrices.

Everything here works on plain lists of row lists.  There are two product
kernels.  `mat_mul` is the dense one: each entry is one `left_sum` over a
row and a column; it takes ints, Fractions or floats.  Its callers are the
float frame of `spectral`, `ideals.p_neighbors` and
`charpoly_irreducible_mod`; `charpoly`, which uses it too, is kept only
for the tests and for perfbench's tracer, which wraps it.  Every float sum
of the package is a `left_sum`, so a record's floats do not depend on the
Python version.  `sparse_mul` builds row i of A B as a sum of the rows B_t
over the t with A_it != 0; it is exact for any A, and fast when the rows
of A are sparse, as those of B(p) are (at most sigma(p) nonzeros per
row), so the Brandt identity battery uses it.  `combination` takes ints,
Fractions or floats as well.  Everything else stays in integers, and
every exact decision is a rank: `exact_rank` (fraction-free Bareiss, the
one elimination over Q) and `rank_mod` over F_p.  Irreducibility of a
characteristic polynomial mod p is decided on the matrix, by one rank mod
p and one matrix power mod p (Berlekamp's criterion), with no polynomial
arithmetic.  Matrices run from 4x4 up to 171x84 (one class's
theta rows at N = 1009).
"""

import sys
from itertools import compress
from operator import mul

if sys.version_info < (3, 12):
    left_sum = sum
else:  # the builtin compensates float sums (Neumaier) from 3.12 on
    def left_sum(terms):
        """((0 + t_0) + t_1) + ...: the builtin sum of Python <= 3.11."""
        total = 0
        for t in terms:
            total += t
        return total


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    """A B: entry (i, j) is the left_sum of A_it B_tj over t = 0, 1, ..."""
    cols = list(zip(*B))
    return [[left_sum(map(mul, row, col)) for col in cols] for row in A]


def sparse_mul(A, B):
    """A B with row i the sum of A_it B_t over the t with A_it != 0.

    Exact for any A; the cost grows with the nonzeros of A, not with its
    size, so the sparse factor goes on the left.  The selected rows, each
    scaled unless A_it = 1, are summed column by column in one pass.
    """
    width = len(B[0]) if B else 0
    out = []
    for row in A:
        terms = [Bt if a == 1 else [a * x for x in Bt]
                 for a, Bt in compress(zip(row, B), row)]
        out.append(list(map(sum, zip(*terms))) if terms else [0] * width)
    return out


def transpose(A):
    return [list(col) for col in zip(*A)]


def combination(coeffs, mats):
    """sum_k c_k M_k for one or more matrices of one shape, accumulated
    entrywise from 0 in the order given."""
    out = [[0] * len(row) for row in mats[0]]
    for c, M in zip(coeffs, mats):
        out = [[t + c * x for t, x in zip(trow, row)]
               for trow, row in zip(out, M)]
    return out


def _xgcd(a, b):
    """(g, s, t) with s a + t b = g, where g is gcd(a, b) up to sign."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def hnf(rows):
    """Row Hermite normal form of an integer matrix; returns the nonzero rows.

    Pivots positive, entries above each pivot reduced into [0, pivot).  The
    output is canonical: any generating set of the same row lattice gives the
    identical matrix.  Each row is folded into a triangular basis, one pivot
    column at a time: where the basis already has a row b with its pivot in
    the column of the row v's leading entry, the unimodular pair step
    (b, v) -> (s b + t v, (b_c/g) v - (v_c/g) b), with s b_c + t v_c = g,
    leaves g in b and clears v's entry.
    """
    basis = {}  # pivot column -> the basis row whose leading entry is there
    for v in rows:
        c, n = 0, len(v)
        while c < n:
            a = v[c]
            if a:
                b = basis.get(c)
                if b is None:
                    basis[c] = list(v)
                    break
                p = b[c]
                q, r = divmod(a, p)
                if r:
                    g, s, t = _xgcd(p, a)
                    p, a = p // g, a // g
                    basis[c] = [s * x + t * y for x, y in zip(b, v)]
                    v = [p * y - a * x for x, y in zip(b, v)]
                else:
                    v = [y - q * x for x, y in zip(b, v)]
            c += 1
    out = []
    for c in sorted(basis):
        row = basis[c]
        if row[c] < 0:
            row = [-x for x in row]
        p = row[c]
        for r, above in enumerate(out):
            q = above[c] // p
            if q:
                out[r] = [x - q * y for x, y in zip(above, row)]
        out.append(row)
    return out


def exact_rank(rows):
    """Rank over Q of an integer matrix, by fraction-free Bareiss elimination.

    The rows not yet used as pivots are kept from the current column on.
    Each pivot row is taken out, and each remaining row is updated as one
    list operation over the columns to the right of the pivot.
    """
    a = [list(map(int, r)) for r in rows]
    rank, prev, col = 0, 1, 0
    while a and col < len(a[0]):
        piv = next((k for k, r in enumerate(a) if r[col]), None)
        if piv is None:
            col += 1
            continue
        prow = a.pop(piv)
        pv, tail = prow[col], prow[col + 1:]
        for k, r in enumerate(a):
            f = r[col]
            # Sylvester identity: this division is exact
            a[k] = [(x * pv - f * y) // prev
                    for x, y in zip(r[col + 1:], tail)]
        rank, prev, col = rank + 1, pv, 0
    return rank


def rank_mod(rows, p):
    """Rank over F_p of an integer matrix, p prime, by Gaussian elimination.

    Reduction mod p can only lose rank, so this is a lower bound for the
    rank over Q; full rank mod p proves full rank over Q.
    """
    a = [[x % p for x in r] for r in rows]
    nr = len(a)
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, nr) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        prow = a[rank] = [x * inv % p for x in a[rank]]
        for r in range(rank + 1, nr):
            f = a[r][col]
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], prow)]
        rank += 1
        if rank == nr:
            break
    return rank


def charpoly(rows):
    """det(xI - A) of a square integer matrix.

    Faddeev-LeVerrier in integers: c_k = -tr(A M_(k-1))/k is a coefficient
    of the characteristic polynomial, so the division is exact, and
    M_k = A M_(k-1) + c_k I stays integral.  Returns the coefficients in
    ascending order, monic leading 1.
    """
    n = len(rows)
    coeffs = [1]  # descending: x^n first
    M = identity(n)
    for k in range(1, n + 1):
        AM = mat_mul(rows, M)
        c, rem = divmod(-sum(AM[i][i] for i in range(n)), k)
        if rem:
            raise ArithmeticError("characteristic polynomial came out non-integral")
        coeffs.append(c)
        for i in range(n):
            AM[i][i] += c
        M = AM
    return coeffs[::-1]


def charpoly_irreducible_mod(A, p):
    """Is f = det(xI - A) irreducible mod p, for a square integer matrix A
    of size d >= 1?

    With x acting as A, the orbit of e_1 in F_p^d is F_p[x]/(m), m the
    monic polynomial of least degree with m(A) e_1 = 0, a factor of f.
    The vectors A^(kp) e_1 - A^k e_1, k < d, span the image of Frobenius
    minus the identity on F_p[x]/(m), of rank deg m less the number of
    distinct irreducible factors of m (Berlekamp 1967).  Rank d - 1
    therefore makes m = f, with e_1 cyclic, and f a power of one
    irreducible; f is that irreducible when it divides the squarefree
    x^(p^d) - x, that is when A^(p^d) e_1 = A e_1.  An irreducible f
    passes both tests.
    """
    d = len(A)

    def power(M, e):
        out = identity(d)
        while e:
            if e & 1:
                out = [[x % p for x in row] for row in mat_mul(out, M)]
            M = [[x % p for x in row] for row in mat_mul(M, M)]
            e >>= 1
        return out

    def orbit(M):  # e_1, M e_1, ..., M^(d-1) e_1 mod p
        vecs = [[1] + [0] * (d - 1)]
        for _ in range(d - 1):
            vecs.append([sum(map(mul, row, vecs[-1])) % p for row in M])
        return vecs

    moved = [[x - y for x, y in zip(u, v)]
             for u, v in zip(orbit(power(A, p)), orbit(A))]
    return (rank_mod(moved, p) == d - 1
            and [row[0] for row in power(A, p ** d)]
            == [row[0] % p for row in A])
