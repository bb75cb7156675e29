"""Brandt matrices: the q-coefficients of the theta series of the classes.

With classes I_1..I_n and weights w_i, entry (i,j) of B(m) counts the
vectors of normalized norm m in M_ij = I_j^-1 I_i, divided by 2w_i.  The
division must come out exact; a remainder means the classes or weights are
wrong, and that is treated as an internal error rather than rounded away.
B(N) comes from the two-sided ideal P of norm N: [I] -> [P I] is a
permutation sigma of the classes, and B(N)_ij = 1 exactly when P I_i lies
in the class of I_j (Pizer 1980).  P I_i = pi I_i has the theta-prefix
key of I_i (ideals.pi_times), and ClassList.find looks the class up under
that key, with the exact equivalence test run only against the classes
that share it.

Only one module per orbit of <sigma, transpose> on the pairs is counted,
and only up to the coefficient bound M.  Conjugation maps M_ji onto a
rational multiple of M_ij with the same normalized norm form.  With
P I_i = I_sigma(i) a_i, M_sigma(i)sigma(j) = a_j^-1 M_ij a_i, because
P^-1 P = O; it has the same normalized norm form as well.  So the counts
of M_ij fill (i, j), (j, i), (sigma(i), sigma(j)) and (sigma(j), sigma(i)).
The pair {0, j} is counted on M_j0 = O I_j = I_j, the class's own lattice,
already reduced for its key.
When N > M, B(N) is the permutation matrix of sigma; when N <= M it comes
from the counts like every other B(m), and must equal that matrix.

theta_ij(q) = 1/(2 w_i) + sum_m B(m)_ij q^m: B(0) = b0() holds the constant
terms, and a BrandtCollection stores B(1)..B(M) and B(N), nothing else.

structural_checks, the one battery of Brandt identities, takes {m: B(m)}:
analyze runs it on a BrandtCollection, verify on a stored record.
"""

import random
from fractions import Fraction
from math import lcm
from operator import mul

from .ideals import pi_times, two_sided_ideal
from .intmat import combination, identity, rank_mod, sparse_mul, transpose
from .quatalg import ConsistencyError, is_prime


def sigma_level(m, N):
    """Sum of divisors of m that are prime to N."""
    s = 0
    for d in range(1, m + 1):
        if m % d == 0 and d % N != 0:
            s += d
    return s


class BrandtCollection:
    """All Brandt matrices of one level up to a coefficient bound M,
    plus B(N) itself (needed for the Atkin-Lehner involution)."""

    def __init__(self, classes, bound):
        self.classes = classes
        self.level = classes.level
        self.n = classes.n
        self.weights = list(classes.weights)
        self.bound = bound
        self._matrices = {}
        self._compute()

    def _compute(self):
        sigma = self._level_involution()
        counts = {}
        for i in range(self.n):
            for j in range(i, self.n):
                if (i, j) in counts:
                    continue
                c = self.classes.translation_module(j, i).counts_up_to(
                    self.bound)
                for a, b in ((i, j), (sigma[i], sigma[j])):
                    counts[a, b] = counts[b, a] = c
        for m in range(1, self.bound + 1):
            self._matrices[m] = self._assemble(counts, m)
        perm = [[int(k == s) for k in range(self.n)] for s in sigma]
        if self.level > self.bound:
            self._matrices[self.level] = perm
        elif self._matrices[self.level] != perm:
            raise ConsistencyError(
                "B(N) from the counts is not the permutation [I] -> [P I]")

    def _level_involution(self):
        """sigma with P I_i = pi I_i in the class of I_sigma(i)."""
        classes = self.classes
        two_sided_ideal(classes.order)  # certifies pi
        sigma = []
        for i, I in enumerate(classes.ideals):
            j = classes.find(pi_times(I), classes.keys[i])
            if j is None:
                raise ConsistencyError(f"P I_{i + 1} lies in no known class")
            sigma.append(j)
        return sigma

    def _assemble(self, counts, m):
        """B(m) from counts[i, j] = {norm: #vectors of M_ij of that
        normalized norm}."""
        out = []
        for i in range(self.n):
            wi2 = 2 * self.weights[i]
            row = []
            for j in range(self.n):
                cnt = counts[i, j].get(m, 0)
                q, r = divmod(cnt, wi2)
                if r:
                    raise ConsistencyError(
                        f"vector count {cnt} not divisible by 2w_{i + 1}={wi2}")
                row.append(q)
            out.append(row)
        return out

    def matrix(self, m):
        """B(m) for a stored m: 1..bound and the level."""
        return self._matrices[m]

    def b0(self):
        """B(0): row i is constant 1/(2 w_i)."""
        return [[Fraction(1, 2 * w)] * self.n for w in self.weights]

    def available(self):
        return sorted(self._matrices)


# ---------------------------------------------------------------------------
# structural identities of {m: B(m)} over m = 1..bound plus the level;
# each check takes (level, weights, bound, mats) and returns (ok, detail)

def check_b1_identity(level, weights, bound, mats):
    ok = mats[1] == identity(len(weights))
    return ok, "B(1) = I" if ok else f"B(1) = {mats[1]}"


def weighted_asymmetry(B, weights):
    """The first (i, j) with w_i B_ij != w_j B_ji, or None: W B, row i
    scaled by w_i, against its own transpose, row by row."""
    WB = [[w * x for x in row] for w, row in zip(weights, B)]
    for i, (row, col) in enumerate(zip(WB, transpose(WB))):
        if row != col:
            return i, next(j for j, (a, b) in enumerate(zip(row, col))
                           if a != b)
    return None


def check_weighted_symmetry(level, weights, bound, mats):
    """Eq-style symmetry w_i B(m)_ij = w_j B(m)_ji for all stored m."""
    for m, B in sorted(mats.items()):
        failed = weighted_asymmetry(B, weights)
        if failed is not None:
            i, j = failed
            return False, f"failed at m={m}, (i,j)=({i + 1},{j + 1})"
    return True, f"checked m in {{1..{bound}}} and m={level}"


def check_column_sums(level, weights, bound, mats):
    """Columns of B(m) sum to sigma(m) with divisors prime to N omitted."""
    for m, B in sorted(mats.items()):
        target = sigma_level(m, level)
        for j, s in enumerate(map(sum, zip(*B))):
            if s != target:
                return False, f"column {j + 1} of B({m}) does not sum to {target}"
    return True, "column sums equal sigma(m)"


def check_weighted_row_sums(level, weights, bound, mats):
    """sum_j B(m)_ij / w_j = sigma(m) / w_i, the Eisenstein identity.

    Checked in integers: with L = lcm(w), sum_j B(m)_ij (L/w_j) w_i must
    equal sigma(m) L.
    """
    L = lcm(*weights)
    scaled = [L // w for w in weights]
    for m, B in sorted(mats.items()):
        target = sigma_level(m, level) * L
        for i, (row, w) in enumerate(zip(B, weights)):
            s = sum(map(mul, row, scaled))
            if s * w != target:
                return False, (f"failed at m={m}, row {i + 1}: weighted "
                               f"sum is {Fraction(s, L)}")
    return True, "weighted row sums equal sigma(m)/w_i"


# v is cyclic for T when [v, Tv, ..., T^(n-1) v] has full rank modulo this
# prime; v is the same pseudo-random vector at every level
KRYLOV_PRIME = 2 ** 61 - 1


def cyclic_operator(mats, n):
    """The first T_k = B(p_1) + 2 B(p_2) + ... + k B(p_k), with
    p_1 < p_2 < ... the prime indices of mats, for which the fixed vector v
    is cyclic, or None.  report.hecke_field_probe takes the same T."""
    primes = [m for m in sorted(mats) if is_prime(m)]
    rng = random.Random(0)
    v = [rng.randrange(KRYLOV_PRIME) for _ in range(n)]
    T = [[0] * n for _ in range(n)]
    for k, p in enumerate(primes, 1):
        T = combination((1, k), (T, mats[p]))
        krylov = [v]
        for _ in range(n - 1):
            u = krylov[-1]
            krylov.append([sum(map(mul, row, u)) % KRYLOV_PRIME
                           for row in T])
        if rank_mod(krylov, KRYLOV_PRIME) == n:
            return T
    return None


def _commutes_with(T, mats):
    """T B = B T for every B of mats, with T the sparse factor of both
    products: B T is (T^t B^t)^t."""
    Tt = transpose(T)
    return all(sparse_mul(T, B) == transpose(sparse_mul(Tt, transpose(B)))
               for B in mats)


def check_commutativity(level, weights, bound, mats):
    """Certificate that all stored B(m) commute pairwise.

    The B(p) of prime index, B(N) included, must commute pairwise, and
    B(m) = B(q) B(m/q) must hold for every stored m with two or more
    distinct prime factors, q the full power of m's smallest prime.  With
    B(1) = I, the Hecke recursion and the level powers write each stored
    B(p^k) as a polynomial in B(p), so every stored B(m) lies in the
    commutative algebra that the B(p) generate (Pizer 1980): a ledger on
    which this check, brandt-b1-identity, brandt-hecke-recursion and
    brandt-level-powers pass certifies that every stored pair commutes.

    The B(p) commute pairwise as soon as each commutes with one
    nonderogatory T: its centralizer is then Q[T], a commutative algebra.
    The Brandt module is free of rank 1 over the Hecke algebra
    (multiplicity one: Gross 1987, Emerton 2002), so a generic Hecke
    operator has a cyclic vector.  With p_1 < p_2 < ... the prime
    indices, T_k = B(p_1) + 2 B(p_2) + ... + k B(p_k) is tried for
    k = 1, 2, ..., and the first one for which a fixed pseudo-random v is
    cyclic (its Krylov matrix has full rank mod a prime, so its
    determinant is not 0) is used: 2 products per B(p) instead of one per
    pair.  When no T_k has v cyclic, or some B(p) does not commute with T,
    the pairwise loop decides and names the first failing pair.

    The products go through intmat.sparse_mul with a sparse left factor.
    B(q) has nonnegative entries and columns summing to sigma(q), and by
    weighted symmetry each row has the zero pattern of the matching column,
    so B(q) has at most sigma(q) nonzeros per row: T_1 = B(2) at most 3,
    T_2 = B(2) + 2 B(3) at most 7.  T B(r) is sparse_mul(T, B(r)) and
    B(r) T is (T^t B(r)^t)^t.  B(m) = B(q) B(m/q) takes B(q) on the left,
    and the pairwise fallback multiplies the B(p) in both orders.
    """
    primes = [m for m in sorted(mats) if is_prime(m)]
    T = cyclic_operator(mats, len(weights))
    if T is None or not _commutes_with(T, [mats[r] for r in primes]):
        for x, p in enumerate(primes):
            for r in primes[x + 1:]:
                if sparse_mul(mats[p], mats[r]) != sparse_mul(mats[r], mats[p]):
                    return False, f"B({p}) and B({r}) do not commute"
    products = 0
    for m in sorted(mats)[1:]:  # skip B(1)
        p = next(p for p in primes if m % p == 0)
        q = p
        while m % (q * p) == 0:
            q *= p
        if q == m:
            continue
        if mats[m] != sparse_mul(mats[q], mats[m // q]):
            return False, f"B({m}) != B({q}) B({m // q})"
        products += 1
    return True, (f"{len(primes)} prime-index matrices commute pairwise, "
                  f"{products} products B(m) = B(q) B(m/q) verified")


def check_hecke_recursion(level, weights, bound, mats):
    """B(p) B(p^k) = B(p^{k+1}) + p B(p^{k-1}) for p prime to the level."""
    checked = 0
    for p in range(2, bound + 1):
        if not is_prime(p) or p == level:
            continue
        pk = p
        while pk * p <= bound:
            lhs = sparse_mul(mats[p], mats[pk])
            if lhs != combination((1, p), (mats[pk * p], mats[pk // p])):
                return False, f"recursion failed at p={p}, p^k={pk}"
            checked += 1
            pk *= p
    return True, f"{checked} prime-power recursions verified"


def check_level_involution(level, weights, bound, mats):
    """B(N) is a permutation matrix squaring to the identity."""
    B = mats[level]
    # 0/1 rows summing to 1 make a map of the classes, and B^2 = I makes
    # it a bijection
    if any(sum(row) != 1 or any(x not in (0, 1) for x in row) for row in B):
        return False, "B(N) is not a 0/1 permutation matrix"
    if sparse_mul(B, B) != identity(len(weights)):
        return False, "B(N)^2 is not the identity"
    return True, "B(N) is a permutation involution"


def check_level_powers(level, weights, bound, mats):
    """B(N^k) = B(N)^k for the stored range (usually vacuous: N^2 > M)."""
    power = mats[level]
    k = 1
    while level ** (k + 1) <= bound:
        k += 1
        power = sparse_mul(power, mats[level])
        if mats[level ** k] != power:
            return False, f"B({level ** k}) != B({level})^{k}"
    return True, f"{k - 1} level-power identities verified"


def structural_checks(level, weights, bound, mats):
    """Run the whole battery on mats = {m: B(m)} over 1..bound plus the
    level; list of (name, ok, detail)."""
    battery = [
        ("brandt-b1-identity", check_b1_identity),
        ("brandt-weighted-symmetry", check_weighted_symmetry),
        ("brandt-column-sums", check_column_sums),
        ("brandt-weighted-row-sums", check_weighted_row_sums),
        ("brandt-commutativity", check_commutativity),
        ("brandt-hecke-recursion", check_hecke_recursion),
        ("brandt-level-involution", check_level_involution),
        ("brandt-level-powers", check_level_powers),
    ]
    return [(name, *fn(level, weights, bound, mats)) for name, fn in battery]
