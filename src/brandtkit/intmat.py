"""Exact linear algebra on small matrices.

Everything here works on plain lists of row lists.  There are two product
kernels.  `mat_mul` is the dense one: each entry is one `left_sum` over a
row and a column; it takes ints, Fractions or floats and serves the float
layer and `charpoly`.  Every float sum of the package is a `left_sum`, so
a record's floats do not depend on the Python version.  `sparse_mul`
builds row i of A B as a sum of the rows B_t over the t with A_it != 0;
it is exact for any A, and fast when the rows of A are sparse, as those
of B(p) are (at most sigma(p) nonzeros per row), so the Brandt identity
battery uses it.  `combination` takes
ints, Fractions or floats as well.  Everything else stays in integers,
and every exact decision is a rank: `exact_rank` (fraction-free Bareiss,
the one elimination over Q) and `rank_mod` over F_p.  A polynomial is
irreducible mod p by Berlekamp's criterion, so no polynomial gcd is
taken.  Matrices run from 4x4 up to 171x84 (one class's theta rows at
N = 1009).
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


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient lists, ascending order)

def poly_trim(f):
    while len(f) > 1 and f[-1] == 0:
        f = f[:-1]
    return f


def poly_derivative(f):
    return [i * c for i, c in enumerate(f)][1:] or [0]


def sylvester(f, g):
    """Sylvester matrix of f and g, of formal degrees len(f) - 1 and
    len(g) - 1: the rows x^s f for s < deg g, then x^s g for s < deg f.
    Over a field it is singular exactly when f and g have a common factor
    of positive degree, or when both leading coefficients vanish."""
    m, n = len(f) - 1, len(g) - 1
    return ([[0] * s + list(f) + [0] * (n - 1 - s) for s in range(n)]
            + [[0] * s + list(g) + [0] * (m - 1 - s) for s in range(m)])


# --- arithmetic mod a prime -------------------------------------------------

def _polmul_mod(f, g, h, p):
    prod = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                prod[i + j] = (prod[i + j] + a * b) % p
    return _polrem_mod(prod, h, p)


def _polrem_mod(f, h, p):
    f = [c % p for c in f]
    dh = len(h) - 1
    inv = pow(h[-1], -1, p)
    while len(f) > dh:
        c = (f[-1] * inv) % p
        if c:
            off = len(f) - 1 - dh
            for i in range(dh + 1):
                f[off + i] = (f[off + i] - c * h[i]) % p
        f.pop()
    return poly_trim(f)


def _polpow_mod(base, e, h, p):
    result = [1]
    base = _polrem_mod(base, h, p)
    while e:
        if e & 1:
            result = _polmul_mod(result, base, h, p)
        base = _polmul_mod(base, base, h, p)
        e >>= 1
    return result


def is_irreducible_mod(f, p):
    """Berlekamp's criterion: is the integer polynomial f irreducible mod p?

    f mod p, of degree d >= 1, is irreducible when it is squarefree (its
    Sylvester matrix with f' has full rank mod p) and Q - I has nullity 1,
    where row i of Q is x^(ip) mod f: for a squarefree f that nullity is
    the number of distinct irreducible factors (Berlekamp 1967).
    """
    f = poly_trim([c % p for c in f])
    d = len(f) - 1
    if d < 1:
        return False
    S = sylvester(f, poly_derivative(f))
    if rank_mod(S, p) < len(S):
        return False
    xp = _polpow_mod([0, 1], p, f, p)
    Q, row = [], [1]
    for i in range(d):
        Q.append(row + [0] * (d - len(row)))
        Q[i][i] -= 1
        row = _polmul_mod(row, xp, f, p)
    return rank_mod(Q, p) == d - 1
