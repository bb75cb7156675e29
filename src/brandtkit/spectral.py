"""Spectral decomposition of the Brandt matrix family.

The class module carries the pairing ([i],[j]) = w_i delta_ij.  All B(m)
are self-adjoint for it, so D^{1/2} B D^{-1/2} with D = diag(w) is an honest
symmetric matrix.  A generic integer combination of the B(p)
(intmat.combination) is diagonalized with a cyclic Jacobi sweep and the
resulting frame U is shared by the whole family; eigenvalues of the
individual B(m) come back as Rayleigh quotients.  One product S_m U^T per
stored m (intmat.mat_mul) gives every S_m u_k at once, and with it the
character and the residual of each pair (k, m); U U^T checks the frame.

Everything numeric is double precision with explicit residual checks at
1e-8; the Eisenstein eigenvector is additionally verified in exact rational
arithmetic, since it is known in closed form: coordinates 1/w_i.
"""

import random
from fractions import Fraction
from math import sqrt
from operator import mul

from .brandt import check_weighted_row_sums, sigma_level, weighted_asymmetry
from .intmat import combination, left_sum, mat_mul
from .quatalg import ConsistencyError, is_prime

RESIDUAL_TOL = 1e-8
ORTHO_TOL = 1e-9
JACOBI_TOL = 1e-13  # largest off-diagonal entry / largest entry at the end
JACOBI_MAX_SWEEPS = 64


def sturm_bound(N):
    """Coefficient prefix length that pins down a weight-2 form of level N."""
    return (N + 1) // 6 + 1


def eisenstein_vector(weights):
    """The exact ray spanned by sum_i (1/w_i)[i], plus its unit vector.

    Returns (exact, unit): exact has Fraction coordinates 1/w_i, unit is the
    float vector normalized to pairing-norm 1 (all coordinates positive).
    """
    exact = [Fraction(1, w) for w in weights]
    norm2 = sum(Fraction(1, w) for w in weights)  # sum w*(1/w)^2
    scale = 1.0 / sqrt(float(norm2))
    unit = [float(x) * scale for x in exact]
    return exact, unit


def eisenstein_exact_check(coll):
    """B(m) (1/w_j)_j = sigma(m) (1/w_i)_i in exact rationals, every stored m.

    This is the weighted-row-sum identity of brandt.check_weighted_row_sums,
    run on the collection's stored matrices (it reads no bound).
    """
    mats = {m: coll.matrix(m) for m in coll.available()}
    ok, detail = check_weighted_row_sums(coll.level, coll.weights, None, mats)
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
    the Eisenstein vector last.  characters[k][m-1] approximates the
    eigenvalue of B(m) on f_k; tn_signs[k] is the exact +-1 eigenvalue of
    B(N) on a cuspidal f_k (None for the Eisenstein one).
    """

    def __init__(self, level, weights, eigenvectors, characters, tn_signs,
                 eisenstein_index, max_residual, combo):
        self.level = level
        self.weights = weights
        self.eigenvectors = eigenvectors
        self.characters = characters
        self.tn_signs = tn_signs
        self.eisenstein_index = eisenstein_index
        self.max_residual = max_residual
        self.combo = combo

    @property
    def n(self):
        return len(self.weights)

    def character(self, k, m):
        """Eigenvalue of B(m) on f_k, 1 <= m <= bound; that of B(N) is
        tn_signs[k]."""
        return self.characters[k][m - 1]


def eigendecompose(coll, seed=0):
    """Diagonalize the whole family off one generic combination of the B(p).

    Retries with fresh pseudo-random combinations (still derived from the
    seed) up to three times if the frame fails its residual checks, then
    gives up loudly.
    """
    n = coll.n
    N = coll.level
    primes = [p for p in range(2, coll.bound + 1) if is_prime(p) and p != N]
    if not primes and n > 1:
        raise ConsistencyError("no primes available for the generic combination")
    rng = random.Random(seed)
    last_err = None
    for _ in range(3):
        coeffs = [rng.randrange(1, 10) for _ in primes[:4]]
        try:
            return _decompose_once(coll, primes[:4], coeffs)
        except ConsistencyError as err:
            last_err = err
    raise ConsistencyError(f"eigenframe failed three attempts: {last_err}")


def _decompose_once(coll, primes, coeffs):
    n = coll.n
    N = coll.level
    weights = coll.weights
    roots = [sqrt(float(w)) for w in weights]

    if n == 1:
        vec = [1.0 / roots[0]]
        chars = [[float(sigma_level(m, N)) for m in range(1, coll.bound + 1)]]
        return SpectralData(N, weights, [vec], chars, [None], 0, 0.0,
                            {"primes": [], "coeffs": []})

    ms = coll.available()
    sym = {m: symmetrize(coll.matrix(m), weights) for m in ms}
    _, eigvecs = jacobi_eigensystem(
        combination(coeffs, [sym[p] for p in primes]))
    frame = list(zip(*eigvecs))  # column k is u_k

    # orthonormality of the returned frame
    gram = mat_mul(eigvecs, frame)
    if any(abs(gram[a][b] - (a == b)) > ORTHO_TOL
           for a in range(n) for b in range(a, n)):
        raise ConsistencyError("Jacobi frame is not orthonormal")

    # back to class coordinates, sign-fixed
    vectors = []
    for u in eigvecs:
        f = [u[i] / roots[i] for i in range(n)]
        lead = max(abs(x) for x in f)
        for x in f:
            if abs(x) > 1e-8 * lead:
                if x < 0:
                    f = [-y for y in f]
                break
        vectors.append(f)

    # characters for every stored matrix, with residual control: row k of
    # the transposed product S_m U^T is S_m u_k
    max_residual = 0.0
    char_map = [{} for _ in range(n)]
    for m in ms:
        norm = max(left_sum(map(abs, row)) for row in sym[m]) or 1.0
        images = zip(*mat_mul(sym[m], frame))
        for k, (u, Su) in enumerate(zip(eigvecs, images)):
            alpha = left_sum(map(mul, u, Su))
            resid = max(abs(s - alpha * x) for s, x in zip(Su, u))
            if resid > RESIDUAL_TOL * norm:
                raise ConsistencyError(
                    f"residual {resid:.2e} too large at m={m} (combination "
                    "not generic enough)")
            max_residual = max(max_residual, resid / norm)
            char_map[k][m] = alpha

    # the characters must be pairwise distinct on the stored range
    for a in range(n):
        for b in range(a + 1, n):
            gap = max(abs(char_map[a][m] - char_map[b][m]) for m in ms)
            if gap < 1e-6:
                raise ConsistencyError("two eigenvectors share a character")

    # locate the Eisenstein ray: all coordinates strictly positive
    eis = [k for k, f in enumerate(vectors) if all(x > 0 for x in f)]
    if len(eis) != 1:
        raise ConsistencyError(f"{len(eis)} all-positive eigenvectors, wanted 1")
    eis_k = eis[0]
    for m in ms:
        if abs(char_map[eis_k][m] - sigma_level(m, N)) > 1e-6 * max(
                1.0, sigma_level(m, N)):
            raise ConsistencyError("Eisenstein character mismatch")

    # exact closed form beats the numeric copy
    _, eis_unit = eisenstein_vector(weights)
    vectors[eis_k] = eis_unit
    for m in ms:
        char_map[eis_k][m] = float(sigma_level(m, N))

    # cuspidal T_N eigenvalues must be +-1
    tn = {}
    for k in range(n):
        if k == eis_k:
            tn[k] = None
            continue
        val = char_map[k][N]
        sign = 1 if val > 0 else -1
        if abs(val - sign) > 1e-6:
            raise ConsistencyError(f"B(N) eigenvalue {val} is not +-1")
        tn[k] = sign

    # Ramanujan bound for cuspidal characters at primes away from N
    for k in range(n):
        if k == eis_k:
            continue
        for p in range(2, coll.bound + 1):
            if is_prime(p) and p != N:
                if abs(char_map[k][p]) > 2 * sqrt(p) + 1e-6:
                    raise ConsistencyError(
                        f"cuspidal eigenvalue at p={p} breaks the Ramanujan bound")

    # deterministic ordering: cusp forms sorted by character, Eisenstein
    # last; rounding the key keeps ties immune to eigensolver noise
    order = [k for k in range(n) if k != eis_k]
    order.sort(key=lambda k: tuple(round(char_map[k][m], 9) for m in ms))
    order.append(eis_k)

    eigenvectors = [vectors[k] for k in order]
    characters = [[char_map[k][m] for m in range(1, coll.bound + 1)]
                  for k in order]
    tn_signs = [tn[k] for k in order]
    return SpectralData(N, weights, eigenvectors, characters, tn_signs,
                        n - 1, max_residual,
                        {"primes": list(primes), "coeffs": list(coeffs)})
