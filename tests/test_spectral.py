import random
from fractions import Fraction
from math import sqrt
from operator import mul

import pytest

import brandtkit.spectral as spectral
import oracles
from brandtkit.brandt import BrandtCollection
from brandtkit.ideals import enumerate_classes
from brandtkit.intmat import (charpoly, combination, exact_rank, mat_mul,
                              rank_mod)
from brandtkit.orders import maximal_order
from brandtkit.quatalg import ConsistencyError, construct_algebra
from brandtkit.quatalg import is_prime
from brandtkit.spectral import (RESIDUAL_TOL, al_blocks, atkin_lehner_orbits,
                                eigendecompose, eisenstein_exact_check,
                                eisenstein_vector, jacobi_eigensystem,
                                sigma_level, sturm_bound, symmetrize)
from conftest import cached_analysis

_colls = {}


def collection(N, bound=9):
    key = (N, bound)
    if key not in _colls:
        classes = enumerate_classes(maximal_order(construct_algebra(N)))
        _colls[key] = BrandtCollection(classes, bound=bound)
    return _colls[key]


def test_sigma_level_values():
    assert sigma_level(1, 11) == 1
    assert sigma_level(3, 11) == 4
    assert sigma_level(11, 11) == 1
    assert sigma_level(22, 11) == 3
    assert sigma_level(6, 5) == 12
    assert sigma_level(12, 37) == 28
    assert [sigma_level(m, 11) for m in range(1, 10)] == \
        [1, 3, 4, 7, 6, 12, 8, 15, 13]


def test_sturm_bound_values():
    assert sturm_bound(2) == 1
    assert sturm_bound(11) == 3
    assert sturm_bound(37) == 7


def test_charpoly_matches_interpolation_oracle():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 5)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert charpoly(A) == oracles.charpoly_by_interpolation(A)
    # entries near 10^6: the integer recursion runs far past 64 bits
    A = [[10 ** 6 - rng.randint(0, 99) * (-1) ** (i + j) for j in range(8)]
         for i in range(8)]
    assert charpoly(A) == oracles.charpoly_by_interpolation(A)
    assert charpoly([[3]]) == [-3, 1]
    assert charpoly([[0, 1], [1, 0]]) == [-1, 0, 1]


def test_b3_charpoly_level_11():
    # eigenvalues {-1, 4}: (x + 1)(x - 4) = x^2 - 3x - 4
    assert charpoly(collection(11).matrices[3]) == [-4, -3, 1]


def test_b3_charpoly_level_37():
    # eigenvalues {1, -3, 4}: (x - 1)(x + 3)(x - 4)
    assert charpoly(collection(37).matrices[3]) == [12, -11, -2, 1]


def test_exact_rank_matches_rational_rank():
    rng = random.Random(11)
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        A = [[rng.randint(-10, 10) for _ in range(cols)] for _ in range(rows)]
        assert exact_rank(A) == oracles.rational_rank(A)
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[0, 0], [0, 0]]) == 0


def test_rank_mod_matches_exact_rank():
    rng = random.Random(13)
    p = 2 ** 61 - 1
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        A = [[rng.randint(-10, 10) for _ in range(cols)] for _ in range(rows)]
        assert rank_mod(A, p) == exact_rank(A)
    # reduction mod p only loses rank: a lower bound for the rank over Q
    assert rank_mod([[1, 0], [0, 7]], 7) == 1
    assert exact_rank([[1, 0], [0, 7]]) == 2
    assert rank_mod([], 7) == 0


def test_mat_mul_matches_triple_loop():
    rng = random.Random(17)
    for make in (int, lambda x: Fraction(x, 3)):
        for _ in range(10):
            r, k, c = (rng.randint(1, 5) for _ in range(3))
            A = [[make(rng.randint(-9, 9)) for _ in range(k)] for _ in range(r)]
            B = [[make(rng.randint(-9, 9)) for _ in range(c)] for _ in range(k)]
            ref = [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(c)]
                   for i in range(r)]
            got = mat_mul(A, B)
            assert got == ref
            assert [type(x) for row in got for x in row] == \
                [type(x) for row in ref for x in row]


def _accumulated(coeffs, mats):
    """sum_k c_k M_k by the += loop over (i, j), from 0."""
    out = [[0] * len(row) for row in mats[0]]
    for c, M in zip(coeffs, mats):
        for i, row in enumerate(M):
            for j, x in enumerate(row):
                out[i][j] += c * x
    return out


def test_combination_matches_accumulation():
    rng = random.Random(29)
    for make in (int, lambda x: x * 0.1 + rng.random()):
        for _ in range(10):
            r, c, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(3, 5)
            coeffs = [rng.randint(1, 9) for _ in range(k)]
            mats = [[[make(rng.randint(-9, 9)) for _ in range(c)]
                     for _ in range(r)] for _ in range(k)]
            got = combination(coeffs, mats)
            want = _accumulated(coeffs, mats)
            # bit for bit, and ints stay ints
            assert [[(type(x), repr(x)) for x in row] for row in got] == \
                [[(type(x), repr(x)) for x in row] for row in want]


@pytest.mark.parametrize("N", [37, 43, 101])
def test_characters_match_row_by_row_oracle(N, monkeypatch):
    # the prime-index characters are the per-(k, p) Rayleigh quotients of
    # the oracle, to the last bit, on the block frames that Jacobi
    # returned, and the residual bounds hold the oracle's residuals
    coll = cached_analysis(N).collection
    frames = []

    def recorded(S):
        result = jacobi_eigensystem(S)
        frames.append(result[1])
        return result

    monkeypatch.setattr(spectral, "jacobi_eigensystem", recorded)
    spec = spectral.eigendecompose(coll)
    plus, minus = atkin_lehner_orbits(coll.matrices[N], coll.weights)
    assert len(frames) == 2 and [len(f) for f in frames] == [
        len(plus), len(minus)]
    primes = [p for p in range(2, coll.bound + 1) if is_prime(p)]
    got = {}
    for k in range(spec.n - 1):
        row = tuple(spec.character(k, p) for p in primes)
        got[row] = (spec.tn_signs[k], [spec.residuals[k][p - 1]
                                       for p in primes])
    want = []
    for b, (sign, orbits, frame) in enumerate(zip((1, -1), (plus, minus),
                                                  frames)):
        bw = [len(A) * coll.weights[A[0]] if sign == 1
              else 2 * coll.weights[A[0]] for A in orbits]
        sym = {p: symmetrize(al_blocks(coll.matrices[p], plus, minus)[b], bw)
               for p in primes}
        # the Eisenstein vector, the one of constant sign, is replaced by
        # its closed form; the sign fix negates a vector exactly
        for u, row in zip(frame, oracles.characters_row_by_row(sym, frame)):
            if sign == 1 and min(u) > 0:
                continue
            chars = tuple(row[p][0] for p in primes)
            assert got[chars][0] == sign
            assert all(r <= bound for (_, r), bound in zip(
                (row[p] for p in primes), got[chars][1]))
            want.append(chars)
    assert sorted(want) == sorted(got)


def test_jacobi_reconstructs_symmetric_matrices():
    rng = random.Random(7)
    for _ in range(15):
        n = rng.randint(2, 6)
        A = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                A[i][j] = A[j][i] = float(rng.randint(-8, 8))
        vals, vecs = jacobi_eigensystem(A)
        for a in range(n):
            for b in range(n):
                dot = sum(vecs[a][i] * vecs[b][i] for i in range(n))
                assert abs(dot - (1.0 if a == b else 0.0)) < 1e-10
        for i in range(n):
            for j in range(n):
                back = sum(vecs[k][i] * vals[k] * vecs[k][j] for k in range(n))
                assert abs(back - A[i][j]) < 1e-8


def test_symmetrize_level_11_golden():
    coll = collection(11)
    perm = sorted(range(2), key=lambda i: coll.weights[i])
    B = coll.matrices[3]
    Bp = [[B[perm[i]][perm[j]] for j in range(2)] for i in range(2)]
    S = symmetrize(Bp, [coll.weights[p] for p in perm])
    r6 = sqrt(6.0)
    assert abs(S[0][0] - 2.0) < 1e-12
    assert abs(S[1][1] - 1.0) < 1e-12
    assert abs(S[0][1] - r6) < 1e-12
    assert abs(S[1][0] - r6) < 1e-12


def test_symmetrize_rejects_non_adjoint():
    with pytest.raises(ConsistencyError):
        symmetrize([[0, 1], [0, 0]], [1, 1])


def test_eisenstein_vector_closed_form():
    # the unit vector of the ray of coordinates 1/w_i
    unit = eisenstein_vector([2, 3])
    assert abs(unit[0] / unit[1] - 3.0 / 2.0) < 1e-12
    assert abs(unit[0] - 3.0 / sqrt(30.0)) < 1e-12
    assert abs(unit[1] - 2.0 / sqrt(30.0)) < 1e-12
    assert abs(sum(w * x * x for w, x in zip([2, 3], unit)) - 1.0) < 1e-12


def test_eisenstein_exact_check_detects_corruption():
    coll = collection(11)

    class Tampered:
        level = coll.level
        n = coll.n
        weights = coll.weights
        matrices = {m: [row[:] for row in B]
                    for m, B in coll.matrices.items()}
        matrices[2][0][0] += 1

    ok, _ = eisenstein_exact_check(coll)
    assert ok
    bad, detail = eisenstein_exact_check(Tampered())
    assert not bad
    assert "m=2" in detail


def test_spectral_invariants():
    for N in (11, 37, 43, 67):
        coll = collection(N)
        spec = eigendecompose(coll)
        n = spec.n
        assert spec.max_residual <= RESIDUAL_TOL
        assert spec.eisenstein_index == n - 1
        # pairing-orthonormal frame
        for a in range(n):
            for b in range(a, n):
                dot = sum(w * x * y for w, x, y in zip(
                    spec.weights, spec.eigenvectors[a], spec.eigenvectors[b]))
                assert abs(dot - (1.0 if a == b else 0.0)) < 1e-7
        eis = eisenstein_vector(spec.weights)
        assert spec.eigenvectors[n - 1] == eis
        for k in range(n):
            assert abs(spec.character(k, 1) - 1.0) < 1e-9
        BN = coll.matrices[N]
        for k in range(n - 1):
            assert spec.tn_signs[k] in (-1, 1)
            f = spec.eigenvectors[k]
            image = [sum(map(mul, row, f)) for row in BN]
            assert max(abs(y - spec.tn_signs[k] * x)
                       for x, y in zip(f, image)) < 1e-6
            for p in (2, 3, 5, 7):
                if p != N:
                    assert abs(spec.character(k, p)) <= 2 * sqrt(p) + 1e-6
        assert spec.tn_signs[n - 1] is None
        for m in range(1, coll.bound + 1):
            assert spec.character(n - 1, m) == float(sigma_level(m, N))


def test_cusp_form_prefix_level_11():
    spec = eigendecompose(collection(11))
    got = [round(x) for x in spec.characters[0][:9]]
    assert got == [1, -2, -1, 2, 1, 2, -2, 0, -2]
    assert max(abs(a - r) for a, r in zip(spec.characters[0][:9], got)) < 1e-8
    eis = [round(x) for x in spec.characters[1][:9]]
    assert eis == [1, 3, 4, 7, 6, 12, 8, 15, 13]


def test_cusp_form_prefixes_level_37():
    spec = eigendecompose(collection(37))
    rows = [[round(x) for x in spec.characters[k][:9]] for k in range(3)]
    assert rows[0] == [1, -2, -3, 2, -2, 6, -1, 0, 6]
    assert rows[1] == [1, 0, 1, -2, 0, 0, -1, 0, -2]
    assert rows[2] == [1, 3, 4, 7, 6, 12, 8, 15, 13]
    assert spec.tn_signs[0] == -1
    assert spec.tn_signs[1] == 1


def test_eigenvector_lines_level_11():
    coll = collection(11)
    spec = eigendecompose(coll)
    perm = sorted(range(2), key=lambda i: coll.weights[i])
    f1 = [spec.eigenvectors[0][i] for i in perm]
    assert abs(f1[0] - 1.0 / sqrt(5.0)) < 1e-9
    assert abs(f1[1] + 1.0 / sqrt(5.0)) < 1e-9
    f2 = [spec.eigenvectors[1][i] for i in perm]
    assert abs(f2[0] - 3.0 / sqrt(30.0)) < 1e-12
    assert abs(f2[1] - 2.0 / sqrt(30.0)) < 1e-12


def test_eigenvector_lines_level_37():
    coll = collection(37)
    spec = eigendecompose(coll)
    BN = coll.matrices[37]
    fixed = [i for i in range(3) if BN[i][i] == 1]
    assert len(fixed) == 1
    star = fixed[0]
    others = [i for i in range(3) if i != star]
    # the a_2 = -2 form vanishes on the distinguished class
    f = spec.eigenvectors[0]
    assert abs(f[star]) < 1e-9
    assert abs(abs(f[others[0]]) - 1.0 / sqrt(2.0)) < 1e-9
    assert abs(f[others[0]] + f[others[1]]) < 1e-9
    # the a_2 = 0 form has the (2, -1, -1)/sqrt(6) shape
    g = spec.eigenvectors[1]
    assert abs(abs(g[star]) - 2.0 / sqrt(6.0)) < 1e-9
    for i in others:
        assert abs(abs(g[i]) - 1.0 / sqrt(6.0)) < 1e-9
        assert g[i] * g[star] < 0
    # Eisenstein: all weights are 1
    for x in spec.eigenvectors[2]:
        assert abs(x - 1.0 / sqrt(3.0)) < 1e-12


def test_eigendecompose_deterministic_and_seed_stable():
    # the frame is T's, so the seed that analyze records changes nothing
    coll = collection(37)
    a, b = eigendecompose(coll), eigendecompose(coll)
    assert a.eigenvectors == b.eigenvectors
    assert a.characters == b.characters
    assert a.residuals == b.residuals
    for seed in (7, 42):
        c = cached_analysis(37, seed=seed).spectral
        assert c.eigenvectors == cached_analysis(37).spectral.eigenvectors
        assert c.characters == cached_analysis(37).spectral.characters


class _ScalarFamily:
    """Three classes of weight 1 at level 11 with every B(m) scalar, so
    that no T_k has a cyclic vector."""

    level, n, weights, bound = 11, 3, [1, 1, 1], 3
    matrices = {m: [[sigma_level(m, 11) * (a == b) for b in range(3)]
                    for a in range(3)] for m in (1, 2, 3, 11)}


def test_eigendecompose_raises_without_a_cyclic_operator():
    # no seeded retries: a frame that cannot be built is a ConsistencyError
    with pytest.raises(ConsistencyError, match="no T_k has a cyclic vector"):
        eigendecompose(_ScalarFamily())


def test_single_class_shortcut():
    coll = collection(2, bound=4)
    spec = eigendecompose(coll)
    assert spec.n == 1
    assert spec.eisenstein_index == 0
    assert spec.tn_signs == [None]
    assert spec.characters[0] == \
        [float(sigma_level(m, 2)) for m in range(1, 5)]
