"""Spectral decomposition of the Brandt matrix family.

The class module carries the pairing ([i],[j]) = w_i delta_ij.  All B(m)
are self-adjoint for it, so D^{1/2} B D^{-1/2} with D = diag(w) is an honest
symmetric matrix.  The frame is the eigenbasis of the cyclic T_k that the
Brandt battery certifies (brandt.cyclic_operator): T is nonderogatory and
self-adjoint, so its eigenvalues are distinct and its frame is unique, and
every stored B(m) lies in Q[T] (brandt-commutativity), so the frame is the
frame of the whole family.

B(N) is the permutation of the level involution sigma, with w_sigma(i) =
w_i, and commutes with every B(m).  In the Atkin-Lehner basis, e_i for a
class that sigma fixes and (e_i +- e_sigma(i))/sqrt(2) for a 2-cycle, T and
every B(m) are block-diagonal: the + block is B acting on sigma-invariant
vectors (the orbit matrix, self-adjoint for the weights |orbit| w_i), the
- block B acting on the differences e_i - e_sigma(i).  Jacobi runs on the
two blocks of T, and the B(N)-eigenvalue of a cusp form is its block's
sign, exactly.

The characters take one block product per prime index p: a_k(p) is a
Rayleigh quotient and r_k(p) = S_p u_k - a_k(p) u_k its residual.  Composite
m follow from the relations that the battery certifies for the matrices:
a_ab = a_a a_b for coprime a, b, a_p^(k+1) = a_p a_p^k - p a_p^(k-1) and
a_N^k = a_N^k.  The same relations carry the residual norms, as bounds:
||r(ab)|| <= sigma(a) ||r(b)|| + |a_b| ||r(a)||, and
||r(p^(k+1))|| <= sigma(p) ||r(p^k)|| + |a_p^k| ||r(p)|| + p ||r(p^(k-1))||,
with ||S_m|| = sigma(m) by Perron-Frobenius.  report.verify_expansion_
identities reads its bounds off these residuals and the frame's
orthonormality defect.

Everything numeric is double precision with explicit residual checks at
1e-8.  The Eisenstein eigenvector is known in closed form, coordinates
1/w_i, and is certified in exact arithmetic by the battery's
brandt-weighted-row-sums; the frame takes its unit vector.
"""

from fractions import Fraction
from math import sqrt
from operator import mul

from .brandt import (check_weighted_row_sums, cyclic_operator, prime_power,
                     sigma_level, weighted_asymmetry)
from .intmat import left_sum, mat_mul
from .quatalg import ConsistencyError, is_prime

RESIDUAL_TOL = 1e-8
ORTHO_TOL = 1e-9
JACOBI_TOL = 1e-13  # largest off-diagonal entry / largest entry at the end
JACOBI_MAX_SWEEPS = 64
EPS = 2.0 ** -52


def sturm_bound(N):
    """Coefficient prefix length that pins down a weight-2 form of level N."""
    return (N + 1) // 6 + 1


def eisenstein_vector(weights):
    """The unit vector of the ray sum_i (1/w_i)[i]: float coordinates
    1/w_i, normalized to pairing-norm 1 (all positive)."""
    norm2 = sum(Fraction(1, w) for w in weights)  # sum w*(1/w)^2
    scale = 1.0 / sqrt(float(norm2))
    return [1 / w * scale for w in weights]


def eisenstein_exact_check(coll):
    """B(m) (1/w_j)_j = sigma(m) (1/w_i)_i in exact rationals, every stored m.

    This is the weighted-row-sum identity of brandt.check_weighted_row_sums,
    run on the collection's stored matrices (it reads no bound).
    """
    ok, detail = check_weighted_row_sums(coll.level, coll.weights, None,
                                         coll.matrices)
    if not ok:
        return False, f"Eisenstein identity {detail}"
    return True, "exact rational eigenvector for every stored B(m)"


def symmetrize(B, weights):
    """D^{1/2} B D^{-1/2}; exact weighted symmetry
    (brandt.weighted_asymmetry) is checked first."""
    n = len(weights)
    if weighted_asymmetry(B, weights) is not None:
        raise ConsistencyError("matrix is not self-adjoint for the pairing")
    roots = [sqrt(float(wi)) for wi in weights]
    return [[roots[i] * float(B[i][j]) / roots[j] for j in range(n)]
            for i in range(n)]


def jacobi_eigensystem(S):
    """Cyclic Jacobi on a symmetric matrix: (eigenvalues, eigenvector columns)."""
    n = len(S)
    A = [row[:] for row in S]
    V = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    scale = max(abs(A[i][j]) for i in range(n) for j in range(n)) or 1.0
    for _ in range(JACOBI_MAX_SWEEPS):
        off = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                off = max(off, abs(A[i][j]))
        if off <= JACOBI_TOL * scale:
            break
        for p in range(n):
            for q in range(p + 1, n):
                if abs(A[p][q]) <= 1e-300:
                    continue
                theta = (A[q][q] - A[p][p]) / (2.0 * A[p][q])
                t = (1.0 if theta >= 0 else -1.0) / (
                    abs(theta) + sqrt(theta * theta + 1.0))
                c = 1.0 / sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    akp, akq = A[k][p], A[k][q]
                    A[k][p] = c * akp - s * akq
                    A[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = A[p][k], A[q][k]
                    A[p][k] = c * apk - s * aqk
                    A[q][k] = s * apk + c * aqk
                for k in range(n):
                    vkp, vkq = V[k][p], V[k][q]
                    V[k][p] = c * vkp - s * vkq
                    V[k][q] = s * vkp + c * vkq
    eigvals = [A[i][i] for i in range(n)]
    eigvecs = [[V[i][k] for i in range(n)] for k in range(n)]
    return eigvals, eigvecs


class SpectralData:
    """Shared eigenframe of a Brandt family.

    eigenvectors[k] is f_k in class coordinates (pairing-orthonormal), with
    the Eisenstein vector last, at eisenstein_index = n - 1.
    characters[k][m-1] approximates the eigenvalue of B(m) on f_k;
    tn_signs[k] is the exact +-1 eigenvalue of B(N) on a cuspidal f_k (None
    for the Eisenstein one).  residuals[k][m-1] bounds ||S_m u_k - a_k(m)
    u_k|| for u_k = D^{1/2} f_k, and frame_defect bounds ||I - U U^T||, U
    the matrix of rows u_k.  combo holds the prime indices and coefficients
    of the T whose frame this is, as brandt.cyclic_operator gives them.
    """

    def __init__(self, weights, eigenvectors, characters, tn_signs,
                 max_residual, combo, residuals, frame_defect):
        self.weights = weights
        self.eigenvectors = eigenvectors
        self.characters = characters
        self.tn_signs = tn_signs
        self.max_residual = max_residual
        self.combo = combo
        self.residuals = residuals
        self.frame_defect = frame_defect

    @property
    def n(self):
        return len(self.weights)

    @property
    def eisenstein_index(self):
        return self.n - 1

    def character(self, k, m):
        """Eigenvalue of B(m) on f_k, 1 <= m <= bound; that of B(N) is
        tn_signs[k]."""
        return self.characters[k][m - 1]


def atkin_lehner_orbits(BN, weights):
    """The orbits of sigma, each a tuple of classes led by its least one,
    for the permutation matrix B(N) of sigma: (all orbits, the 2-cycles).

    ConsistencyError unless B(N) is the matrix of an involution sigma with
    w_sigma(i) = w_i (the battery's brandt-level-involution and
    brandt-weighted-symmetry).
    """
    n = len(BN)
    sigma = [row.index(1) if 1 in row else None for row in BN]
    if (BN != [[int(t == s) for t in range(n)] for s in sigma]
            or any(sigma[s] != i or weights[s] != weights[i]
                   for i, s in enumerate(sigma))):
        raise ConsistencyError("B(N) is not a weight-preserving involution")
    orbits = [(i,) if s == i else (i, s) for i, s in enumerate(sigma) if i <= s]
    return orbits, [o for o in orbits if len(o) == 2]


def al_blocks(B, plus, minus):
    """B in the Atkin-Lehner basis, for a B that commutes with sigma: on
    the orbit sums (plus, row A the sum over each orbit of row A[0]) and on
    the differences e_a - e_sigma(a) of the 2-cycles (minus)."""
    return ([[sum(B[A[0]][y] for y in O) for O in plus] for A in plus],
            [[B[A[0]][O[0]] - B[A[0]][O[1]] for O in minus] for A in minus])


def eigendecompose(coll):
    """Diagonalize the whole family on the frame of the cyclic T.

    T is cyclic_operator's for the collection's stored matrices.  A frame
    that fails its checks (no cyclic T, residuals, orthonormality, a shared
    character, the Eisenstein ray, the Ramanujan bound) raises
    ConsistencyError.
    """
    n, N, M = coll.n, coll.level, coll.bound
    w = coll.weights
    operator = cyclic_operator(coll.matrices, n)
    if operator is None:
        raise ConsistencyError("no T_k has a cyclic vector")
    T, combo = operator
    plus, minus = atkin_lehner_orbits(coll.matrices[N], w)
    primes = [p for p in range(2, M + 1) if is_prime(p) and p != N]
    sig = [sigma_level(m, N) for m in range(M + 1)]
    block_mats = {p: al_blocks(coll.matrices[p], plus, minus)
                  for p in primes}
    eis_unit = eisenstein_vector(w)
    eis_value = sum(row[0] for row in T)  # T's eigenvalue on 1/w

    forms = []  # (f, B(N)-sign or None, {p: a_p}, {p: ||r(p)||})
    max_residual = 0.0
    defect = 0.0
    for b, (sign, orbits, T_block) in enumerate(
            zip((1, -1), (plus, minus), al_blocks(T, plus, minus))):
        if not orbits:
            continue
        bw = [len(A) * w[A[0]] if sign == 1 else 2 * w[A[0]]
              for A in orbits]
        roots = [sqrt(float(x)) for x in bw]
        vals, vecs = jacobi_eigensystem(symmetrize(T_block, bw))
        lifted = []  # (f on the orbits, v = f * roots, is Eisenstein)
        for lam, v in zip(vals, vecs):
            g = [x / r for x, r in zip(v, roots)]
            # the Eisenstein ray: all coordinates strictly positive; the
            # exact closed form replaces the numeric copy
            if sign == 1 and all(x > 0 for x in g):
                if abs(lam - eis_value) > 1e-6 * eis_value:
                    raise ConsistencyError("Eisenstein character mismatch")
                g = [eis_unit[A[0]] for A in orbits]
                lifted.append((g, [x * r for x, r in zip(g, roots)], True))
                continue
            lead = max(abs(x) for x in g)
            if next(x for x in g if abs(x) > 1e-8 * lead) < 0:
                g, v = [-x for x in g], [-x for x in v]
            lifted.append((g, v, False))
        # the pairing Gram matrix of the lifted vectors, orbit by orbit;
        # vectors of the two blocks are orthogonal exactly
        for a, (g, _, _) in enumerate(lifted):
            for c, (h, _, _) in enumerate(lifted[a:], a):
                dot = left_sum(map(mul, map(mul, bw, g), h)) - (a == c)
                if abs(dot) > ORTHO_TOL:
                    raise ConsistencyError("Jacobi frame is not orthonormal")
                defect += dot * dot * (1 + (a != c))
        frame = [v for _, v, _ in lifted]
        chars = [{} for _ in lifted]
        resid = [{} for _ in lifted]
        for p in primes:
            S = symmetrize(block_mats[p][b], bw)
            images = zip(*mat_mul(S, list(zip(*frame))))
            for k, (v, Sv) in enumerate(zip(frame, images)):
                a = (float(sig[p]) if lifted[k][2]
                     else left_sum(map(mul, v, Sv)))
                r = sqrt(left_sum((s - a * x) ** 2 for s, x in zip(Sv, v)))
                if r > RESIDUAL_TOL * sig[p]:
                    raise ConsistencyError(
                        f"residual {r:.2e} too large at m={p}")
                max_residual = max(max_residual, r / sig[p])
                chars[k][p], resid[k][p] = a, r
        for (g, _, eis), a, r in zip(lifted, chars, resid):
            f = [0.0] * n
            for A, x in zip(orbits, g):
                f[A[0]] = x
                if len(A) == 2:
                    f[A[1]] = x * sign
            forms.append((f, None if eis else sign, a, r))

    eis = sum(s is None for _, s, _, _ in forms)
    if eis != 1:
        raise ConsistencyError(f"{eis} all-positive eigenvectors, wanted 1")
    # multiplicity one: no two forms share every prime character
    for x, (_, s, a, _) in enumerate(forms):
        for _, t, c, _ in forms[x + 1:]:
            if s == t and all(abs(a[p] - c[p]) < 1e-6 for p in primes):
                raise ConsistencyError("two eigenvectors share a character")
    # Ramanujan bound for cuspidal characters at primes away from N
    for _, s, a, _ in forms:
        if s is not None and any(abs(a[p]) > 2 * sqrt(p) + 1e-6
                                 for p in primes):
            raise ConsistencyError("cuspidal eigenvalue breaks the "
                                   "Ramanujan bound")

    # rounding: of the products above, of the stored frame against the
    # block coordinates, and of any float evaluation of the identities
    slack = 4 * (n + 4) * EPS
    rows = [_extend(s, a, r, sig, N, slack) for _, s, a, r in forms]

    # deterministic ordering: cusp forms sorted by character, Eisenstein
    # last; rounding the key keeps ties immune to eigensolver noise
    order = sorted(range(n), key=lambda k: (
        forms[k][1] is None, tuple(round(x, 9) for x in rows[k][0]),
        forms[k][1] or 0))
    return SpectralData(
        w, [forms[k][0] for k in order], [rows[k][0] for k in order],
        [forms[k][1] for k in order], max_residual, combo,
        [rows[k][1] for k in order], sqrt(defect) + n * n * EPS)


def _extend(sign, a, r, sig, N, slack):
    """Characters and residual bounds at m = 1..M from those at the prime
    indices: a_p, ||r(p)|| given for p != N, a_N = sign (1 for the
    Eisenstein form) with r(N) = 0.  Each bound gains slack * sigma(m) for
    rounding."""
    M = len(sig) - 1
    chars = [0.0, 1.0] + [0.0] * (M - 1)
    bound = [0.0, slack] + [0.0] * (M - 1)
    for m in range(2, M + 1):
        p, q = prime_power(m)
        if q < m:
            x = chars[q] * chars[m // q]
            e = sig[q] * bound[m // q] + abs(chars[m // q]) * bound[q]
        elif m == p:
            x, e = (float(sign or 1), 0.0) if p == N else (a[p], r[p])
        else:  # B(p) B(p^(k-1)), less p B(p^(k-2)) for p != N
            x = chars[p] * chars[m // p]
            e = sig[p] * bound[m // p] + abs(chars[m // p]) * bound[p]
            if p != N:
                x -= p * chars[m // (p * p)]
                e += p * bound[m // (p * p)]
        chars[m] = x
        bound[m] = e + slack * sig[m]
    return chars[1:], bound[1:]
