"""Supersingular j-invariants by exhaustive point counting.

This is a cross-check that never touches the quaternion side.  Candidates
are the roots of the supersingular polynomial ss_N(j), which is squarefree
and vanishes exactly at the supersingular j; it is written down in closed
form (Kaneko-Zagier) as a truncated 2F1(1/12, 5/12; 1; 1728/j), and every
root over F_{N^2} is found by a scan.  Every candidate j is then confirmed
by counting the points of an explicit curve with that invariant.  A curve
over F_q is supersingular iff its trace q + 1 - #E(F_q) is divisible by N.
A curve defined over F_N is counted over F_N and its trace lifted to
F_{N^2}; any other curve is counted over all of F_{N^2}.

The field F_{N^2} is F_N[x]/(x^2 - c) with c the smallest quadratic
nonresidue; elements are pairs (s, t) meaning s + t*sqrt(c).
"""

from .quatalg import ConsistencyError, is_prime

SS_TABLE_SMALL = {2: [(0, 0)], 3: [(0, 0)]}


class QuadField:
    """F_{N^2} as F_N(sqrt(c)), c the least quadratic nonresidue."""

    def __init__(self, N):
        assert is_prime(N) and N >= 3
        self.N = N
        # legendre[u] is the quadratic character of u in F_N
        self.legendre = [0] + [-1] * (N - 1)
        for x in range(1, (N + 1) // 2):
            self.legendre[x * x % N] = 1
        self.c = self.legendre.index(-1)
        self.q = N * N

    def sub(self, x, y):
        N = self.N
        return ((x[0] - y[0]) % N, (x[1] - y[1]) % N)

    def mul(self, x, y):
        N = self.N
        return ((x[0] * y[0] + self.c * x[1] * y[1]) % N,
                (x[0] * y[1] + x[1] * y[0]) % N)

    def smul(self, a, x):
        N = self.N
        return (a * x[0] % N, a * x[1] % N)


def curve_from_j(F, j):
    """Coefficients (A, B) of a curve y^2 = x^3 + Ax + B with invariant j."""
    zero = (0, 0)
    if j == zero:
        return zero, (1, 0)
    if j == (1728 % F.N, 0):
        return (1, 0), zero
    # 3j(1728 - j), 2j(1728 - j)^2
    d = F.sub((1728 % F.N, 0), j)
    return F.smul(3, F.mul(j, d)), F.smul(2, F.mul(j, F.mul(d, d)))


def point_count(F, A, B):
    """#E(F_{N^2}) for the nonsingular y^2 = x^3 + Ax + B by an
    exhaustive character sum.

    When A and B lie in F_N the sum runs over F_N only: with
    a = N + 1 - #E(F_N), the trace over F_{N^2} is a^2 - 2N.
    """
    N, c, leg = F.N, F.c, F.legendre
    (a0, a1), (b0, b1) = A, B
    if a1 == b1 == 0:
        a = -sum(leg[(x * x * x + a0 * x + b0) % N] for x in range(N))
        return F.q + 1 - (a * a - 2 * N)
    # at x = s + t sqrt(c), x^3 + Ax + B = v0 + v1 sqrt(c) with
    # v0 = s^3 + a0 s + b0 + t (c a1 + 3cs t),
    # v1 = a1 s + b1 + t (3s^2 + a0 + c t^2), and its character is that of
    # the norm v0^2 - c v1^2; that norm is sq[v0] - csq[v1] in (-N, N),
    # and a negative index u into leg reads leg[N + u], the class of u.
    sq = [v * v % N for v in range(N)]
    csq = [c * v % N for v in sq]
    tu = [(t, c * t * t % N) for t in range(N)]
    k0 = c * a1 % N
    total = F.q + 1
    for s in range(N):
        p0, l0 = ((s * s + a0) * s + b0) % N, 3 * c * s % N
        p1, q1 = (a1 * s + b1) % N, (3 * s * s + a0) % N
        total += sum(leg[sq[(p0 + t * (k0 + l0 * t)) % N]
                         - csq[(p1 + t * (q1 + u)) % N]] for t, u in tu)
    return total


def is_supersingular(j, N, field=None):
    """Exhaustive decision: trace of Frobenius divisible by N."""
    j = (j % N, 0) if isinstance(j, int) else (j[0] % N, j[1] % N)
    if N in (2, 3):
        return j in SS_TABLE_SMALL[N]
    F = field or QuadField(N)
    A, B = curve_from_j(F, j)
    trace = F.q + 1 - point_count(F, A, B)
    return trace % N == 0


def supersingular_polynomial(N):
    """ss_N(j) mod N for a prime N >= 5, ascending coefficients, monic.

    ss_N = j^d (j - 1728)^e sum_k c_k j^(n-k) with d = [N = 2 mod 3],
    e = [N = 3 mod 4], n = (N - 1 - 4d - 6e)/12, c_0 = 1 and
    c_(k+1) = 12 (12k + a)(12k + b) c_k / (k + 1)^2, where (a, b) is
    (1, 5), or (7, 11) (the Euler transform) when e = 1.
    """
    d, e = int(N % 3 == 2), int(N % 4 == 3)
    n = (N - 1 - 4 * d - 6 * e) // 12
    a, b = (7, 11) if e else (1, 5)
    coeffs = [1]  # c_0, ..., c_n: ascending powers of 1/j
    for k in range(n):
        coeffs.append(12 * (12 * k + a) * (12 * k + b) * coeffs[-1]
                      * pow((k + 1) ** 2, -1, N) % N)
    poly = [0] * d + coeffs[::-1]
    if e:  # times (j - 1728)
        poly = [(lo - 1728 * hi) % N for lo, hi in zip([0] + poly, poly + [0])]
    return poly


class SupersingularSet:
    """All supersingular j-invariants in characteristic N."""

    def __init__(self, N, j_list):
        self.N = N
        self.j_list = sorted(j_list)
        self.rational_count = sum(1 for j in self.j_list if j[1] == 0)

    def __len__(self):
        return len(self.j_list)

    def frobenius_closed(self):
        pool = set(self.j_list)
        return all((j[0], (self.N - j[1]) % self.N) in pool for j in pool)


def supersingular_set(N):
    """Enumerate every supersingular j over F_{N^2}, each one confirmed
    by an independent point count."""
    if N in SS_TABLE_SMALL:
        return SupersingularSet(N, list(SS_TABLE_SMALL[N]))
    F = QuadField(N)
    c = F.c
    coeffs = supersingular_polynomial(N)[::-1]
    found = set()
    # roots come in conjugate pairs, so scanning t <= (N-1)/2 suffices
    for s in range(N):
        for t in range((N + 1) // 2):
            v0, v1 = 0, 0
            for coeff in coeffs:
                v0, v1 = ((v0 * s + c * v1 * t + coeff) % N,
                          (v0 * t + v1 * s) % N)
            if v0 == v1 == 0:
                found.update(((s, t), (s, -t % N)))
    # ss_N is squarefree and splits over F_{N^2}
    if len(found) != len(coeffs) - 1:
        raise ConsistencyError(f"{len(found)} roots of ss_{N}, which has "
                               f"degree {len(coeffs) - 1}")
    for j in sorted(found):
        if not is_supersingular(j, N, field=F):
            raise ConsistencyError(f"candidate j={j} fails point counting")
    return SupersingularSet(N, found)


def cross_validate(classes, coll, ss=None):
    """Match the geometric picture against the quaternion computation.

    Checks: #j-invariants = class number; Frobenius-fixed j count = trace
    of the level permutation B(N); the special automorphisms line up
    (j=0 supersingular iff some weight is 3, j=1728 iff some weight is 2,
    at most one of each for N >= 5).  Raises on any mismatch.
    """
    N = classes.level
    if ss is None:
        ss = supersingular_set(N)
    report = {"level": N, "j_count": len(ss), "class_number": classes.n,
              "rational_count": ss.rational_count,
              "j_invariants": [list(j) for j in ss.j_list]}
    if len(ss) != classes.n:
        raise ConsistencyError(
            f"{len(ss)} supersingular j but class number {classes.n}")
    if not ss.frobenius_closed():
        raise ConsistencyError("j-list not closed under Frobenius")
    BN = coll.matrices[N]
    fixed = sum(BN[i][i] for i in range(classes.n))
    report["level_fixed_points"] = fixed
    if fixed != ss.rational_count:
        raise ConsistencyError(
            f"B(N) has {fixed} fixed points but {ss.rational_count} "
            "rational supersingular j")
    if N >= 5:
        w = classes.weights
        has_j0 = (0, 0) in ss.j_list
        has_j1728 = (1728 % N, 0) in ss.j_list
        if has_j0 != (3 in w) or (has_j0 and w.count(3) != 1):
            raise ConsistencyError("j=0 does not match the weight-3 count")
        if has_j1728 != (2 in w) or (has_j1728 and w.count(2) != 1):
            raise ConsistencyError("j=1728 does not match the weight-2 count")
        if has_j0 != (N % 3 == 2) or has_j1728 != (N % 4 == 3):
            raise ConsistencyError("special j presence contradicts N mod 12")
        report["automorphism_match"] = {"j0": has_j0, "j1728": has_j1728}
    return report
