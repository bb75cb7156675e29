"""Independent reference implementations used only by the tests.

Everything here is deliberately naive and written against different
primary sources than the library code: rational Gauss elimination instead
of fraction-free elimination, box scans instead of recursive enumeration,
conic solvability by residue search instead of symbol formulas, full
point-count scans instead of character sums.  The Hilbert symbol by its
closed formulas is the reference for which primes an algebra ramifies at;
the library certifies its algebra by the order's discriminant instead, and
the symbol itself is tested against conic search.
"""

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from math import comb, gcd, isqrt, sqrt
from operator import add

from brandtkit.ideals import ideal_inverse
from brandtkit.intmat import mat_mul
from brandtkit.lattices import QuatLattice, product_lattice
from brandtkit.quatalg import is_prime, legendre, mul4


def primes_upto(bound):
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(bound ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = b"\x00" * len(sieve[p * p::p])
    return [p for p in range(bound + 1) if sieve[p]]


def rational_rank(rows):
    """Rank over Q by straightforward Gauss elimination on Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    if not a:
        return 0
    nrows, ncols = len(a), len(a[0])
    rank = 0
    col = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for r in range(nrows):
            if r != rank and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def bareiss_rank(rows):
    """Rank over Q by fraction-free Bareiss elimination, one entry at a
    time, rows swapped into place (the library kernel before its rows
    were updated as list operations)."""
    a = [[int(x) for x in r] for r in rows]
    if not a:
        return 0
    nr, nc = len(a), len(a[0])
    rank = 0
    row = 0
    prev = 1
    for col in range(nc):
        piv = None
        for r in range(row, nr):
            if a[r][col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != row:
            a[row], a[piv] = a[piv], a[row]
        pv = a[row][col]
        for r in range(row + 1, nr):
            arc = a[r][col]
            for c2 in range(col + 1, nc):
                a[r][c2] = (a[r][c2] * pv - arc * a[row][c2]) // prev
            a[r][col] = 0
        prev = pv
        rank += 1
        row += 1
        if row == nr:
            break
    return rank


def theta_rank(mats, n, i):
    """Rank of the n x M matrix whose row j holds B(1)_ij .. B(M)_ij,
    mats = [B(1), .., B(M)], every row kept, by bareiss_rank."""
    return bareiss_rank([[B[i][j] for B in mats] for j in range(n)])


def hnf_by_least_pivot(rows):
    """Row Hermite normal form, nonzero rows only, column by column: the
    entry of least absolute value becomes the pivot and reduces the rows
    below it until they are zero in that column (the library kernel before
    it folded each row in by extended-gcd steps)."""
    rows = [list(r) for r in rows]
    if not rows:
        return []
    nrows = len(rows)
    ncols = len(rows[0])
    pr = 0
    for c in range(ncols):
        if pr >= nrows:
            break
        while True:
            nz = [r for r in range(pr, nrows) if rows[r][c] != 0]
            if not nz:
                break
            r0 = min(nz, key=lambda r: abs(rows[r][c]))
            if r0 != pr:
                rows[pr], rows[r0] = rows[r0], rows[pr]
            p = rows[pr][c]
            reduced = True
            for r in range(pr + 1, nrows):
                if rows[r][c]:
                    q = rows[r][c] // p
                    if q:
                        rows[r] = [x - q * y for x, y in zip(rows[r], rows[pr])]
                    if rows[r][c]:
                        reduced = False
            if reduced:
                break
        if pr < nrows and rows[pr][c] != 0:
            if rows[pr][c] < 0:
                rows[pr] = [-x for x in rows[pr]]
            p = rows[pr][c]
            for r in range(pr):
                q = rows[r][c] // p
                if q:
                    rows[r] = [x - q * y for x, y in zip(rows[r], rows[pr])]
            pr += 1
    return rows[:pr]


def rational_det(rows):
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            if a[r][c] != 0:
                f = a[r][c] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def charpoly_by_interpolation(rows):
    """det(xI - A) through d+1 exact evaluations and Lagrange interpolation."""
    n = len(rows)
    xs = list(range(n + 1))
    ys = [rational_det([[ (x if r == c else 0) - rows[r][c]
                          for c in range(n)] for r in range(n)]) for x in xs]
    # Lagrange basis, assembled coefficient by coefficient
    coeffs = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(xs):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            nxt = [Fraction(0)] * (len(basis) + 1)
            for t, c in enumerate(basis):
                nxt[t + 1] += c
                nxt[t] -= xj * c
            basis = nxt
            denom *= xi - xj
        scale = ys[i] / denom
        for k in range(len(basis)):
            coeffs[k] += scale * basis[k]
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def poly_mul(f, g):
    """f g for coefficient lists in ascending order."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def irreducible_by_trial_division(f, p):
    """Whether the monic integer polynomial f (ascending, degree d >= 1)
    is irreducible mod p: no monic g of degree 1 .. d/2 over F_p divides
    it, found by trying every g."""
    d = len(f) - 1
    for k in range(1, d // 2 + 1):
        for tail in product(range(p), repeat=k):
            r = [c % p for c in f]
            for top in range(d, k - 1, -1):  # r mod x^k + tail
                c = r.pop()
                for t, a in enumerate(tail):
                    r[top - k + t] = (r[top - k + t] - c * a) % p
            if not any(r):
                return False
    return True


def left_fold(terms):
    """((0 + t_0) + t_1) + ...: the float sum of the builtin sum of Python
    <= 3.11, which from 3.12 compensates float sums instead."""
    return reduce(add, terms, 0)


def characters_row_by_row(sym, frame):
    """Rayleigh quotients and residuals of unit vectors under symmetric
    float matrices, one pair (k, m) at a time and one entry of S_m u_k at
    a time.

    sym maps m to S_m, frame lists the u_k.  Returns the list over k of
    {m: (alpha, ||S_m u_k - alpha u_k||)}, alpha = u_k . S_m u_k, with the
    Euclidean norm.
    """
    n = len(frame)
    chars = []
    for u in frame:
        row = {}
        for m, S in sym.items():
            Su = [left_fold(S[i][j] * u[j] for j in range(n))
                  for i in range(n)]
            alpha = left_fold(u[i] * Su[i] for i in range(n))
            row[m] = (alpha, sqrt(left_fold((Su[i] - alpha * u[i]) ** 2
                                            for i in range(n))))
        chars.append(row)
    return chars


def legendre_euler(u, p):
    """Quadratic residue symbol by Euler's criterion."""
    u %= p
    if u == 0:
        return 0
    r = pow(u, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def eichler_class_number(N):
    """(N-1)/12 + (1/4)(1 - (-4|N)) + (1/3)(1 - (-3|N)) for prime N."""
    if N == 2:
        k4, k3 = 0, -1
    elif N == 3:
        k4, k3 = -1, 0
    else:
        k4 = legendre_euler(-4, N)
        k3 = legendre_euler(-3, N)
    n = Fraction(N - 1, 12) + Fraction(1 - k4, 4) + Fraction(1 - k3, 3)
    assert n.denominator == 1
    return int(n)


def kronecker(d, N):
    """Kronecker symbol (d/N) for a prime N."""
    if N == 2:
        return 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
    return legendre_euler(d, N)


@lru_cache(maxsize=None)
def primitive_class_number(d):
    """Number of primitive reduced forms ax^2 + bxy + cy^2 of discriminant
    d < 0: |b| <= a <= c, and b >= 0 when |b| = a or a = c."""
    h = 0
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            if (b * b - d) % (4 * a):
                continue
            c = (b * b - d) // (4 * a)
            if (c > a or (c == a and b >= 0)) and gcd(a, b, c) == 1:
                h += 1
        a += 1
    return h


def fundamental_discriminant(d):
    """(d_K, f) with d = d_K f^2 and d_K a fundamental discriminant."""
    f = max(g for g in range(1, isqrt(-d) + 1)
            if d % (g * g) == 0 and d // (g * g) % 4 in (0, 1))
    return d // (f * f), f


def hurwitz_level(D, N):
    """The modified Hurwitz class number H_N(D) of Gross 1987, N prime."""
    if D == 0:
        return Fraction(N - 1, 24)
    total = Fraction(0)
    for f in range(1, isqrt(D) + 1):
        if D % (f * f):
            continue
        d = -D // (f * f)
        if d % 4 not in (0, 1):
            continue
        d_K, conductor = fundamental_discriminant(d)
        if conductor % N == 0:
            continue
        u = {-3: 3, -4: 2}.get(d, 1)
        total += Fraction(primitive_class_number(d) * (1 - kronecker(d_K, N)),
                          2 * u)
    return total


def brandt_trace(m, N):
    """tr B(m) at prime level N by the trace formula (Gross, "Heights and
    the special values of L-series", 1987, Prop. 1.9, after Eichler):
    the sum of H_N(4m - s^2) over the integers s with s^2 <= 4m."""
    r = isqrt(4 * m)
    return sum(hurwitz_level(4 * m - s * s, N) for s in range(-r, r + 1))


def trace_mismatches(N, mats):
    """The m of mats = {m: B(m)} whose trace is not brandt_trace(m, N)."""
    return [m for m, B in sorted(mats.items())
            if sum(B[i][i] for i in range(len(B))) != brandt_trace(m, N)]


def conic_has_point(a, b, p):
    """Primitive solution of z^2 = a x^2 + b y^2 over Z/p^k, k large enough
    to decide p-adic solvability for squarefree a, b."""
    k = 6 if p == 2 else 3
    pk = p ** k
    roots = {}
    for z in range(pk):
        roots.setdefault(z * z % pk, []).append(z)
    for x in range(pk):
        axx = a * x * x % pk
        for y in range(pk):
            v = (axx + b * y * y) % pk
            for z in roots.get(v, ()):
                if x % p or y % p or z % p:
                    return True
    return False


OO = float("inf")  # the archimedean place


def _split_p(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def hilbert_symbol(a, b, place):
    """Hilbert symbol (a,b)_v at a finite prime or at OO.

    Uses the classical closed formulas (quadratic-symbol bookkeeping on the
    p-parts of a and b); see any standard treatment of quadratic forms over
    the p-adics.
    """
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol needs nonzero arguments")
    if place == OO:
        return -1 if (a < 0 and b < 0) else 1
    p = place
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"place must be a prime or OO, got {place!r}")
    if p == 2:
        al, u = _split_p(a, 2)
        be, v = _split_p(b, 2)
        eps_u = ((u - 1) // 2) % 2
        eps_v = ((v - 1) // 2) % 2
        om_u = ((u * u - 1) // 8) % 2
        om_v = ((v * v - 1) // 8) % 2
        e = eps_u * eps_v + al * om_v + be * om_u
        return -1 if e % 2 else 1
    al, u = _split_p(a, p)
    be, v = _split_p(b, p)
    s = 1
    if (al % 2) and (be % 2) and p % 4 == 3:
        s = -s
    if be % 2:
        s *= legendre(u, p)
    if al % 2:
        s *= legendre(v, p)
    return s


def ramified_primes(a, b):
    """Finite primes where (a,b) ramifies."""
    cand = set()
    for n in (2, abs(a), abs(b)):
        n = abs(n)
        d = 2
        while d * d <= n:
            if n % d == 0:
                cand.add(d)
                while n % d == 0:
                    n //= d
            d += 1
        if n > 1:
            cand.add(n)
    cand.add(2)
    return sorted(p for p in cand if hilbert_symbol(a, b, p) == -1)


def box_count(gram, cint, bound):
    """Vector counts by scanning an explicit box.

    gram is an integer Gram matrix, cint its content; returns a dict
    m -> #{u != 0 : u gram u^T = m * cint} for 1 <= m <= bound.
    """
    n = len(gram)
    inv = rational_inverse(gram)
    budget = bound * cint
    limits = [int(float(budget * inv[i][i]) ** 0.5) + 1 for i in range(n)]
    counts = {}

    def q(u):
        return sum(u[r] * gram[r][c] * u[c] for r in range(n)
                   for c in range(n))

    ranges = [range(-L, L + 1) for L in limits]
    for u0 in ranges[0]:
        for u1 in ranges[1]:
            for u2 in ranges[2]:
                for u3 in ranges[3]:
                    u = (u0, u1, u2, u3)
                    if u == (0, 0, 0, 0):
                        continue
                    val = q(u)
                    if 0 < val <= budget:
                        assert val % cint == 0
                        m = val // cint
                        counts[m] = counts.get(m, 0) + 1
    return counts


def rational_inverse(rows):
    """Inverse over Q by Gauss-Jordan elimination on Fractions."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                       for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def contains_by_inverse(lattice, coords):
    """Is the rational point coords in the lattice?  Its coordinates on the
    basis mat / den are coords * den * mat^-1, which must be integers."""
    inv = rational_inverse(lattice.mat)
    return all(sum(Fraction(coords[k]) * lattice.den * inv[k][c]
                   for k in range(4)).denominator == 1 for c in range(4))


def two_sided_ideal_by_dual(order):
    """P = N O^#, O^# the dual of the order under the reduced trace form
    trd(x conj(y)) = 2 <x, y>: on the basis of O, P has the coordinate rows
    N T^-1, T the Gram matrix of that form, which must be integral."""
    lat = order.lattice
    N = lat.alg.level
    scale = Fraction(N * lat.den * lat.den, 2)  # N T^-1 = scale * Gram^-1
    coeffs = [[scale * x for x in row]
              for row in rational_inverse(lat.gram_int())]
    assert all(x.denominator == 1 for row in coeffs for x in row)
    rows = [[sum(int(coeffs[r][t]) * lat.mat[t][c] for t in range(4))
             for c in range(4)] for r in range(4)]
    return QuatLattice.from_rows(lat.alg, rows, lat.den)


def is_equivalent_by_product(I, J):
    """Same left ideal class by the product test: I = J alpha exactly when
    J^-1 I = conj(J) I / nrd(J) holds an alpha of nrd(alpha) = nrd(I) /
    nrd(J), i.e. its normalized norm form represents 1."""
    return product_lattice(ideal_inverse(J), I).count_vectors(1) > 0


def _two_dim_subspaces(p):
    """All 2-dimensional subspaces of F_p^4 as RREF row pairs."""
    cols = range(4)
    out = []
    for c1 in cols:
        for c2 in range(c1 + 1, 4):
            free1 = [c for c in cols if c > c1 and c != c2]
            free2 = [c for c in cols if c > c2]
            for vals1 in product(range(p), repeat=len(free1)):
                w1 = [0, 0, 0, 0]
                w1[c1] = 1
                for c, v in zip(free1, vals1):
                    w1[c] = v
                for vals2 in product(range(p), repeat=len(free2)):
                    w2 = [0, 0, 0, 0]
                    w2[c2] = 1
                    for c, v in zip(free2, vals2):
                        w2[c] = v
                    out.append((w1[:], w2, c1, c2))
    return out


def p_neighbors_by_planes(order, lat, p):
    """The p-neighbours of a left ideal I = lat of the order by search:
    every 2-dimensional subspace W of I/pI, in RREF order, that is
    isotropic for the norm form mod p and stable under left multiplication
    by the order gives the neighbour pI + W.  Stability is read off the integer matrices of left
    multiplication by the order basis on I's coordinates."""
    alg = lat.alg
    olat = order.lattice
    mats = []
    for r in olat.mat:
        out = []
        for y in lat.mat:
            prod = mul4(alg.a, alg.b, r, y)
            coords = (None if any(x % olat.den for x in prod)
                      else lat.coordinates([x // olat.den for x in prod]))
            assert coords is not None, "lattice is not left-stable"
            out.append([x % p for x in coords])
        mats.append(out)

    def qbar(u):
        x = [sum(u[r] * lat.mat[r][c] for r in range(4)) for c in range(4)]
        return lat.norm_value(x) % p

    def in_span(v, w1, w2, c1, c2):
        return not any((x - v[c1] * y1 - v[c2] * y2) % p
                       for x, y1, y2 in zip(v, w1, w2))

    found = []
    for w1, w2, c1, c2 in _two_dim_subspaces(p):
        w12 = [(x + y) % p for x, y in zip(w1, w2)]
        if qbar(w1) or qbar(w2) or qbar(w12):
            continue
        if not all(in_span([sum(w[r] * T[r][c] for r in range(4)) % p
                            for c in range(4)], w1, w2, c1, c2)
                   for T in mats for w in (w1, w2)):
            continue
        rows = [[x * p for x in row] for row in lat.mat]
        for w in (w1, w2):
            rows.append([sum(w[r] * lat.mat[r][c] for r in range(4))
                         for c in range(4)])
        found.append(QuatLattice.from_rows(alg, rows, lat.den))
    return found

class BruteQuadField:
    """F_{N^2} as F_N[x]/(x^2 + u x + v), the first irreducible monic
    quadratic in lexicographic order.  Different model than the library."""

    def __init__(self, N):
        self.N = N
        self.u, self.v = next(
            (u, v) for u in range(N) for v in range(N)
            if all((x * x + u * x + v) % N for x in range(N)))
        self.q = N * N

    def mul(self, a, c):
        N, u, v = self.N, self.u, self.v
        # (a0 + a1 x)(c0 + c1 x) with x^2 = -u x - v
        hi = a[1] * c[1]
        return ((a[0] * c[0] - v * hi) % N,
                (a[0] * c[1] + a[1] * c[0] - u * hi) % N)

    def add(self, a, c):
        return ((a[0] + c[0]) % self.N, (a[1] + c[1]) % self.N)

    def smul(self, k, a):
        return (k * a[0] % self.N, k * a[1] % self.N)

    def pow(self, a, e):
        r = (1, 0)
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a):
        return self.pow(a, self.q - 2)

    def minpoly_pair(self, a):
        """(trace, norm) of a over F_N: model-independent fingerprint."""
        # conjugate of a0 + a1 x is a0 + a1 (-u - x)
        cj = ((a[0] - a[1] * self.u) % self.N, (-a[1]) % self.N)
        s = self.add(a, cj)
        n = self.mul(a, cj)
        assert s[1] == 0 and n[1] == 0
        return (s[0], n[0])

    def sub(self, a, c):
        return ((a[0] - c[0]) % self.N, (a[1] - c[1]) % self.N)

    def elements(self):
        for s in range(self.N):
            for t in range(self.N):
                yield (s, t)


def brute_supersingular_minpolys(N):
    """Multiset of (trace, norm) pairs of all supersingular j over F_{N^2},
    found by scanning every j and counting points with a double loop."""
    F = BruteQuadField(N)
    zero, one = (0, 0), (1, 0)
    j1728 = (1728 % N, 0)
    result = []
    squares = {}
    for y in F.elements():
        squares.setdefault(F.mul(y, y), 0)
        squares[F.mul(y, y)] += 1
    for j in F.elements():
        if j == zero:
            A, B = zero, one
        elif j == j1728:
            A, B = one, zero
        else:
            d = F.sub(j1728, j)
            A = F.smul(3, F.mul(j, d))
            B = F.smul(2, F.mul(j, F.mul(d, d)))
        count = 1
        for x in F.elements():
            fx = F.add(F.mul(F.mul(x, x), x), F.add(F.mul(A, x), B))
            count += squares.get(fx, 0)
        if (F.q + 1 - count) % N == 0:
            result.append(F.minpoly_pair(j))
    return sorted(result)


class ElementQuadField:
    """F_{N^2} as F_N(sqrt(c)), c the least quadratic nonresidue, found by
    Euler's criterion: the library's model, so elements compare directly,
    with element-by-element arithmetic."""

    def __init__(self, N):
        self.N = N
        self.c = next(u for u in range(2, N) if legendre_euler(u, N) == -1)
        self.q = N * N

    def add(self, x, y):
        return ((x[0] + y[0]) % self.N, (x[1] + y[1]) % self.N)

    def sub(self, x, y):
        return ((x[0] - y[0]) % self.N, (x[1] - y[1]) % self.N)

    def mul(self, x, y):
        N = self.N
        return ((x[0] * y[0] + self.c * x[1] * y[1]) % N,
                (x[0] * y[1] + x[1] * y[0]) % N)

    def smul(self, a, x):
        return (a * x[0] % self.N, a * x[1] % self.N)

    def inv(self, x):
        # norm(x) = s^2 - c t^2 lies in F_N*, and 1/x = conj(x)/norm(x)
        N = self.N
        ninv = pow((x[0] * x[0] - self.c * x[1] * x[1]) % N, N - 2, N)
        return (x[0] * ninv % N, -x[1] * ninv % N)

    def conj(self, x):
        return (x[0], -x[1] % self.N)

    def chi(self, x):
        """Quadratic character of F_{N^2}: the symbol of the norm on F_N."""
        return legendre_euler(x[0] * x[0] - self.c * x[1] * x[1], self.N)

    def elements(self):
        for s in range(self.N):
            for t in range(self.N):
                yield (s, t)


def point_count_by_elements(F, A, B):
    """#E(F_{N^2}) for y^2 = x^3 + Ax + B, one character per element of
    F = ElementQuadField(N)."""
    total = F.q + 1
    for x in F.elements():
        val = F.add(F.mul(F.mul(x, x), x), F.add(F.mul(A, x), B))
        total += F.chi(val)
    return total


def hasse_polynomial(N):
    """sum_i C(m,i)^2 x^i mod N, m = (N-1)/2, ascending coefficients."""
    m = (N - 1) // 2
    return [comb(m, i) ** 2 % N for i in range(m + 1)]


def _legendre_j(F, lam):
    """j-invariant 256 (l^2 - l + 1)^3 / (l^2 (l - 1)^2) of the
    curve y^2 = x(x - 1)(x - lam)."""
    one = (1, 0)
    l2 = F.mul(lam, lam)
    num = F.add(F.sub(l2, lam), one)
    num = F.mul(F.mul(num, num), num)
    den = F.mul(l2, F.mul(F.sub(lam, one), F.sub(lam, one)))
    return F.smul(256, F.mul(num, F.inv(den)))


def supersingular_j_by_hasse(N):
    """Sorted supersingular j over F_{N^2} in the library's model, N >= 5:
    the j of every root lambda of the Hasse polynomial, the supersingular
    Legendre parameters, with its conjugate."""
    F = ElementQuadField(N)
    H = hasse_polynomial(N)
    zero, one = (0, 0), (1, 0)
    found = set()
    for s in range(N):
        for t in range((N + 1) // 2):
            lam = (s, t)
            if lam in (zero, one):
                continue
            acc = (H[-1] % N, 0)
            for coeff in reversed(H[:-1]):
                acc = F.mul(acc, lam)
                acc = ((acc[0] + coeff) % N, acc[1])
            if acc == zero:
                j = _legendre_j(F, lam)
                found.add(j)
                found.add(F.conj(j))
    return sorted(found)


def gram_schmidt(gram):
    """Exact Gram-Schmidt data (mu, B) of a positive definite Gram matrix.

    Read off leading principal minors: with d_j the determinant of the top
    left j x j block, B_j = d_{j+1} / d_j, and mu_ij is the determinant of
    rows 0..j-1, i and columns 0..j of the Gram matrix over d_{j+1}.
    """
    n = len(gram)
    d = [rational_det([row[:j] for row in gram[:j]]) for j in range(n + 1)]
    B = [d[j + 1] / d[j] for j in range(n)]
    mu = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            rows = gram[:j] + [gram[i]]
            mu[i][j] = rational_det([row[:j + 1] for row in rows]) / d[j + 1]
    return mu, B


def expansion_identities_direct(coll, spec):
    """Both expansion identities evaluated at every m, per (i, j): the
    table of (residual, scale) that report.verify_expansion_identities
    bounds.

    Identity (2): w_i B(m)_ij = sum_k ([j],f_k)([i],f_k) alpha_k(T_m).
    Identity (1): ([i],f_k) alpha_k(T_m) = w_i sum_l (f_k)_l B(m)_il.
    The residual is the largest of both identities over m = 1..M (identity
    (1) does not depend on j), the scale max |w_i B(m)_ij| over m, at
    least 1.  Row i is two products over all m, each sum in the order
    written above (in (2) the pair product is formed first).
    """
    n = spec.n
    w = spec.weights
    vec = spec.eigenvectors
    ms = range(1, coll.bound + 1)
    mats = [coll.matrices[m] for m in ms]
    alpha = [[spec.character(k, m) for k in range(n)] for m in ms]
    pair = [[w[i] * vec[k][i] for i in range(n)] for k in range(n)]
    frame = list(zip(*vec))  # column k is f_k
    table = []
    for i in range(n):
        rows = [B[i] for B in mats]
        one = mat_mul(rows, frame)
        row_resid = max(abs(pair[k][i] * a[k] - w[i] * s[k])
                        for a, s in zip(alpha, one) for k in range(n))
        two = mat_mul(alpha, [[p[j] * p[i] for j in range(n)] for p in pair])
        cells = []
        for j in range(n):
            lhs = [float(w[i] * row[j]) for row in rows]
            resid = max(abs(x - t[j]) for x, t in zip(lhs, two))
            cells.append((max(resid, row_resid), max(1.0, *map(abs, lhs))))
        table.append(cells)
    return table
