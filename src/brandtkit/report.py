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
expansion identities are checked row by row: for class i, two products
(intmat.mat_mul) evaluate both identities at every m and every column j.
The right side of identity (2) is symmetric in i and j, so it is formed
once for (i, j) and (j, i), in row min(i, j).
"""

from fractions import Fraction

from .brandt import cyclic_operator
from .intmat import charpoly_irreducible_mod, exact_rank, mat_mul
from .quatalg import ConsistencyError, is_prime
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
    return [coll.matrix(m) for m in range(1, M + 1)]


def dim_theta_exact(coll, i):
    """Exact dimension of the span of row i's theta series.

    The rank of X_i from B(1) .. B(M) (see theta_ranks); constant terms are
    determined by the rest and carry no information.
    """
    return exact_rank(_theta_rows(_theta_series(coll), i))


def full_span_check(coll):
    """All n^2 theta series together span the full n-dimensional space.

    By weighted symmetry theta_ji = (w_i/w_j) theta_ij, so the n(n+1)/2
    series with i <= j have the same span, and a series that occurs twice
    (theta_sigma(i)sigma(j) = theta_ij) enters the rank once.
    """
    mats = _theta_series(coll)
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
    """Coefficient residuals of the two expansion identities, per (i, j).

    Identity (2): w_i B(m)_ij = sum_k ([j],f_k)([i],f_k) alpha_k(T_m).
    Identity (1): ([i],f_k) alpha_k(T_m) = w_i sum_l (f_k)_l B(m)_il.
    Returns the n x n table of (residual, scale): the residual is the
    largest of both identities over m = 1..M (identity (1) does not depend
    on j and is evaluated once per row), the scale max |w_i B(m)_ij| over
    m, at least 1.
    Row i is two products over all m, each sum in the order written above
    (in (2) the pair product is formed first).  The right side of (2) is
    symmetric in i and j: the float products p_i p_j and p_j p_i are equal
    and the sum over k runs in the same order, so row i forms it only for
    j >= i, and cell (j, i) reads the same column.
    """
    n = spec.n
    w = spec.weights
    vec = spec.eigenvectors
    ms = range(1, coll.bound + 1)
    mats = [coll.matrix(m) for m in ms]
    alpha = [[spec.character(k, m) for k in range(n)] for m in ms]
    pair = [[w[i] * vec[k][i] for i in range(n)] for k in range(n)]
    frame = list(zip(*vec))  # column k is f_k
    shared = {}  # (i, j), i < j -> the (2) column of row i for class j
    table = []
    for i in range(n):
        rows = [B[i] for B in mats]
        one = mat_mul(rows, frame)
        row_resid = max(abs(pair[k][i] * a[k] - w[i] * s[k])
                        for a, s in zip(alpha, one) for k in range(n))
        two = mat_mul(alpha, [[p[j] * p[i] for j in range(i, n)]
                              for p in pair])
        cols = [shared.pop((j, i)) for j in range(i)] + list(zip(*two))
        for j in range(i + 1, n):
            shared[i, j] = cols[j]
        cells = []
        for j, col in enumerate(cols):
            lhs = [float(w[i] * row[j]) for row in rows]
            resid = max(abs(x - t) for x, t in zip(lhs, col))
            cells.append((max(resid, row_resid), max(1.0, *map(abs, lhs))))
        table.append(cells)
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


def atkin_lehner_rho(spec, coll, dims):
    """rho and the per-fixed-point dimension bound.

    rho counts cuspidal eigenforms with B(N)-eigenvalue -1; the exact
    (n - tr B(N))/2 must equal the count of numeric -1 signs, otherwise
    ConsistencyError.  The bound is atkin_lehner_bound.
    """
    BN = coll.matrix(coll.level)
    rho = sum(1 for s in spec.tn_signs if s == -1)
    exact = exact_rho(BN)
    if exact != rho:
        raise ConsistencyError(f"(n - tr B(N))/2 = {exact} but {rho} "
                               "numeric B(N)-eigenvalues are -1")
    return rho, atkin_lehner_bound(BN, dims, rho)


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
    rho = exact_rho(coll.matrix(N))
    if rho > 0:
        return "product", (f"rho = {rho}: idempotents (1 +- B(N))/2 split "
                           f"the kernel into degrees {n - 1 - rho} and {rho}")
    T = cyclic_operator({m: coll.matrix(m) for m in coll.available()}, n)
    if T is None:
        return "inconclusive", "no T_k has a cyclic vector"
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

    def __init__(self, level, n, weights, dims, sigma_sets, rho,
                 frobenius_fixed, field_verdict, field_detail, checks):
        self.level = level
        self.n = n
        self.weights = weights
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
    checks.append(("theta-rank-consistency",
                   all(len(sigma_sets[i]) == dims[i] for i in range(n)),
                   f"dims {dims}"))

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

    span_ok, rank = full_span_check(coll)
    checks.append(("theta-full-span", span_ok, f"joint rank {rank} of n={n}"))

    rho, bound_checks = atkin_lehner_rho(spec, coll, dims)
    fixed = [i for i, _ in bound_checks]
    checks.append(("atkin-lehner-bound", all(ok for _, ok in bound_checks),
                   f"rho={rho}, fixed classes {[i + 1 for i in fixed]}"))

    verdict, detail = hecke_field_probe(coll)
    if verdict == "field":
        field_ok = all(d == n for d in dims)
        checks.append(("field-verdict-dimensions", field_ok,
                       "field verdict forces full theta spaces"))

    return ThetaReport(coll.level, n, coll.weights, dims,
                       [sorted(s) for s in sigma_sets], rho,
                       [i + 1 for i in fixed], verdict, detail, checks)
