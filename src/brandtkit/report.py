"""Dimensions and eigenform bases of the theta spaces.

For each class index i the row space of (theta_ij)_j inside the space of
weight-2 forms has an exactly computable dimension: the rank of the integer
coefficient matrix (B(m)_ij)_{j,m}.  The spectral side predicts the same
number as |Sigma(i)| = #{k : ([i], f_k) != 0}; the two must agree, and the
eigenforms labelled by Sigma(i) are a basis.

All headline dimensions come from fraction-free integer rank; the numeric
set Sigma(i) is picked once and only checked against that rank, never
trusted on its own.

The count rho of cusp forms with B(N)-eigenvalue -1 is exact as well:
B(N) is 1 on the Eisenstein vector and +-1 on the cusp forms, so
rho = (n - tr B(N))/2.  It is the probe's first certificate: when
0 < rho < n - 1 the idempotents (1 +- B(N))/2 split the cuspidal Hecke
algebra, which is then a product, and no charpoly is needed.  At the
seven levels with rho = 0 and n >= 3 the probe takes the generator that
the Brandt battery certified, the cyclic T of brandt-commutativity, and
the verdict is exact too: "product" by a class difference whose T-orbit
is a proper subspace (`exact_rank`), else "field" by irreducibility mod p
of its kernel charpoly, decided on T's matrix (ranks over F_p).  The
same certificate bounds the full span: every B(m) lies in Q[T], of
dimension n, so a class with dims[i] = n decides the joint rank n with no
elimination.

The expansion identities are not evaluated: verify_expansion_identities
bounds their residuals from the frame's residuals and its orthonormality
defect (spectral), in O(M n^2) for the whole table.
"""

from fractions import Fraction
from math import sqrt

from .brandt import cyclic_operator, sigma_level
from .intmat import charpoly_irreducible_mod, exact_rank, left_sum
from .quatalg import is_prime
from .spectral import sturm_bound

SIGMA_TOL = 1e-6
SERIES_TOL = 1e-6


def _theta_rows(mats, i):
    """Rows of the n x M integer matrix X_i, mats = [B(1), .., B(M)]:
    row j holds the coefficients B(1)_ij .. B(M)_ij of theta_ij."""
    return list(zip(*[B[i] for B in mats]))


def theta_ranks(mats, n):
    """Ranks over Q of X_1 .. X_n, mats = [B(1), .., B(M)]: the exact
    dimensions of the n theta spaces.

    The rank of X_i depends only on its set of distinct rows, so each
    distinct set is eliminated once, without its duplicate rows.  B(N)
    commutes with every B(m), so for the level involution sigma,
    X_sigma(i) is a row permutation of X_i, and a class fixed by sigma has
    rows j and sigma(j) equal.  Nothing here trusts sigma: rows merge only
    when they are equal as integer rows.
    """
    ranks = {}
    out = []
    for i in range(n):
        rows = list(dict.fromkeys(_theta_rows(mats, i)))
        key = frozenset(rows)
        if key not in ranks:
            ranks[key] = exact_rank(rows)
        out.append(ranks[key])
    return out


def _theta_series(coll):
    """[B(1), .., B(M)]; ValueError when M is below the Sturm bound."""
    M = coll.bound
    if M < sturm_bound(coll.level):
        raise ValueError(
            f"need at least {sturm_bound(coll.level)} coefficients, have {M}")
    return [coll.matrices[m] for m in range(1, M + 1)]


def dim_theta_exact(coll, i):
    """Exact dimension of the span of row i's theta series.

    The rank of X_i from B(1) .. B(M) (see theta_ranks); constant terms are
    determined by the rest and carry no information.
    """
    return exact_rank(_theta_rows(_theta_series(coll), i))


def full_span_check(coll, dims):
    """All n^2 theta series together span the full n-dimensional space.

    Their joint rank is dim span{B(m)}, at least each exact dims[i] (the
    theta_ranks) and, when brandt-commutativity passes, at most n: every
    B(m) then lies in Q[T], of dimension n.  So a class with dims[i] = n
    decides the rank n with no elimination.  Otherwise the rank is
    eliminated: by weighted symmetry theta_ji = (w_i/w_j) theta_ij, so the
    n(n+1)/2 series with i <= j have the same span, and a series that
    occurs twice (theta_sigma(i)sigma(j) = theta_ij) enters the rank once.
    """
    mats = _theta_series(coll)
    if max(dims) == coll.n:
        return True, coll.n
    rows = dict.fromkeys(row for i in range(coll.n)
                         for row in _theta_rows(mats, i)[i:])
    rank = exact_rank(list(rows))
    return rank == coll.n, rank


def sigma_set(spec, i):
    """Labels k (1-based) with ([i], f_k) != 0, decided at SIGMA_TOL.

    The pairing values are w_i * f_ik; a value counts as nonzero when it
    exceeds SIGMA_TOL times the largest pairing value of that eigenvector.
    The set is a float proposal: theta-rank-consistency compares its size
    with the exact rank.
    """
    w = spec.weights
    labels = set()
    for k, f in enumerate(spec.eigenvectors):
        vals = [abs(wa * fa) for wa, fa in zip(w, f)]
        if vals[i] > SIGMA_TOL * max(vals):
            labels.add(k + 1)
    return labels


def verify_expansion_identities(coll, spec):
    """Bounds on the coefficient residuals of the two expansion identities,
    per (i, j).

    Identity (2): w_i B(m)_ij = sum_k ([j],f_k)([i],f_k) alpha_k(T_m).
    Identity (1): ([i],f_k) alpha_k(T_m) = w_i sum_l (f_k)_l B(m)_il.
    Returns the n x n table of (bound, scale): the bound is at least the
    residual of both identities over m = 1..M, the scale max |w_i B(m)_ij|
    over m, at least 1.

    With u_k = D^{1/2} f_k the rows of U, R_m = S_m U^T - U^T A_m has the
    columns r_k(m) that spec.residuals bounds, and S_m - U^T A_m U =
    S_m (I - U^T U) + R_m U.  So identity (1) at (i, k, m) is
    sqrt(w_i) |r_k(m)_i| <= sqrt(w_i) ||r_k(m)||, and identity (2) at
    (i, j, m) is at most sqrt(w_i w_j) (sigma(m) ||I - U^T U|| +
    ||R_m|| ||U||), with ||S_m|| = sigma(m), ||I - U^T U|| <= d =
    spec.frame_defect, ||U|| <= sqrt(1 + d) and ||R_m|| at most the root
    sum of squares of the ||r_k(m)||.
    """
    w = spec.weights
    mats = [coll.matrices[m] for m in range(1, coll.bound + 1)]
    d = spec.frame_defect
    one = max(map(max, spec.residuals))
    two = max(sigma_level(m, coll.level) * d
              + sqrt(left_sum(r * r for r in col) * (1 + d))
              for m, col in enumerate(zip(*spec.residuals), 1))
    table = []
    for i, wi in enumerate(w):
        rows = [B[i] for B in mats]
        table.append([(max(sqrt(wi) * one, sqrt(wi * wj) * two),
                       max(1.0, *(abs(wi * row[j]) for row in rows)))
                      for j, wj in enumerate(w)])
    return table


def exact_rho(BN):
    """rho = (n - tr B(N))/2, the number of cusp forms with B(N) = -1.

    B(N) is 1 on the Eisenstein vector and +-1 on the cusp forms, so its
    trace is n - 2 rho.  A Fraction, integral whenever B(N) is an
    involution (its trace then counts fixed points).
    """
    return Fraction(len(BN) - sum(BN[i][i] for i in range(len(BN))), 2)


def atkin_lehner_bound(BN, dims, rho):
    """(i, n - dim_i >= rho) for every class i fixed by the level
    involution (B(N)_ii = 1): its theta space must miss at least rho
    eigenforms."""
    n = len(BN)
    return [(i, n - dims[i] >= rho) for i in range(n) if BN[i][i] == 1]


def hecke_field_probe(coll):
    """Decide whether the cuspidal Hecke algebra spans a single field.

    Returns ("field", detail), ("product", detail) or ("inconclusive",
    detail).  With n <= 2 the kernel algebra has degree at most 1 and the
    verdict is "field" by convention.  Otherwise "product" is certified
    first by rho = (n - tr B(N))/2: B(N) lies in the Hecke algebra (Pizer
    1980), so when rho > 0 the idempotents (1 +- B(N))/2 split it into
    parts of degree n - 1 - rho and rho.  tr B(N) counts the fixed points
    of the level involution, so rho <= n/2 < n - 1 and both parts are
    proper.  rho = 0 with n >= 3 happens only at N = 23, 29, 31, 41, 47,
    59 and 71 (Ogg 1975).  There T is the cyclic T_k of
    brandt-commutativity (brandt.cyclic_operator): Q[T] is the Hecke
    algebra (multiplicity one, Emerton 2002), and T is self-adjoint, so
    its charpoly f on the augmentation kernel is squarefree.
    "product" comes before "field" here too: a class difference e_i - e_j
    whose T-orbit has exact rank r < n - 1 certifies it, its minimal
    polynomial being an exact factor of f of degree r; then irreducibility
    of f mod p (intmat.charpoly_irreducible_mod) certifies "field".  The
    order changes no verdict: an f that factors over Q factors mod every
    p.  Anything else is "inconclusive".
    """
    n = coll.n
    N = coll.level
    if n <= 2:
        return "field", f"degree {n - 1} is trivially a field"
    rho = exact_rho(coll.matrices[N])
    if rho > 0:
        return "product", (f"rho = {rho}: idempotents (1 +- B(N))/2 split "
                           f"the kernel into degrees {n - 1 - rho} and {rho}")
    cyclic = cyclic_operator(coll.matrices, n)
    if cyclic is None:
        return "inconclusive", "no T_k has a cyclic vector"
    T = cyclic[0]
    for i in range(n):
        for j in range(i + 1, n):
            orbit = [[(a == i) - (a == j) for a in range(n)]]
            for _ in range(n - 2):
                orbit.append([sum(t * x for t, x in zip(row, orbit[-1]))
                              for row in T])
            r = exact_rank(orbit)
            if r < n - 1:
                return "product", f"charpoly has exact factor of degree {r}"
    # T on ker(sum of coordinates), in the basis e_1 - e_k, k = 2..n
    A = [[T[l][k] - T[l][0] for k in range(1, n)] for l in range(1, n)]
    for p in filter(is_prime, range(2, 282)):  # the first 60 primes
        if charpoly_irreducible_mod(A, p):
            return "field", f"charpoly irreducible mod {p}"
    return "inconclusive", "every class difference generates the cusp space"


class ThetaReport:
    """Per-level digest of the theta-space structure."""

    def __init__(self, n, dims, sigma_sets, rho, frobenius_fixed,
                 field_verdict, field_detail, checks):
        self.n = n
        self.dims = dims
        self.sigma_sets = sigma_sets
        self.rho = rho
        self.frobenius_fixed = frobenius_fixed
        self.field_verdict = field_verdict
        self.field_detail = field_detail
        self.checks = checks

    @property
    def hecke_conjecture_holds(self):
        return all(d == self.n for d in self.dims)


def build_report(coll, spec):
    """Assemble the full report, checking numeric sets against exact ranks."""
    n = coll.n
    checks = []

    dims = theta_ranks(_theta_series(coll), n)
    sigma_sets = [sigma_set(spec, i) for i in range(n)]
    wrong = [f"|Sigma({i + 1})| = {len(s)} but dim {d}"
             for i, (s, d) in enumerate(zip(sigma_sets, dims)) if len(s) != d]
    checks.append(("theta-rank-consistency", not wrong,
                   "; ".join(wrong) or f"dims {dims}"))

    eis_label = spec.eisenstein_index + 1
    eis_ok = all(eis_label in s for s in sigma_sets)
    checks.append(("theta-eisenstein-membership", eis_ok,
                   f"label {eis_label} present in every Sigma(i)"))

    table = [cell for row in verify_expansion_identities(coll, spec)
             for cell in row]
    worst = max(resid / scale for resid, scale in table)
    ok32 = all(resid <= SERIES_TOL * scale for resid, scale in table)
    checks.append(("eigenform-expansion", ok32,
                   f"max scaled residual {worst:.2e}"))

    span_ok, rank = full_span_check(coll, dims)
    checks.append(("theta-full-span", span_ok, f"joint rank {rank} of n={n}"))

    # an integer: B(N) is the permutation matrix of an involution
    # (brandt-level-involution; spectral.eigendecompose refuses any other)
    BN = coll.matrices[coll.level]
    rho = int(exact_rho(BN))
    bound_checks = atkin_lehner_bound(BN, dims, rho)
    fixed = [i for i, _ in bound_checks]
    checks.append(("atkin-lehner-bound", all(ok for _, ok in bound_checks),
                   f"rho={rho}, fixed classes {[i + 1 for i in fixed]}"))

    verdict, detail = hecke_field_probe(coll)
    if verdict == "field":
        field_ok = all(d == n for d in dims)
        checks.append(("field-verdict-dimensions", field_ok,
                       "field verdict forces full theta spaces"))

    return ThetaReport(n, dims, [sorted(s) for s in sigma_sets], rho,
                       [i + 1 for i in fixed], verdict, detail, checks)
