"""Acceptance battery: one test per criterion, printed as a single line.

Shared pipelines come from the conftest cache, so the battery also warms the
cache for the rest of the suite.  Timed criteria run on a cold cache entry;
this file executes first (alphabetical collection order).
"""

import json
import time
from fractions import Fraction
from itertools import permutations
from math import sqrt

import oracles
from brandtkit.brandt import structural_checks
from brandtkit.cli import main
from brandtkit.ideals import enumerate_classes
from brandtkit.intmat import charpoly
from brandtkit.orders import maximal_order
from brandtkit.quatalg import construct_algebra, is_prime
from brandtkit.report import verify_expansion_identities
from brandtkit.spectral import eisenstein_exact_check, sigma_level
from brandtkit.ssoracle import cross_validate

import conftest
from conftest import cached_analysis

PRIMES_200 = oracles.primes_upto(200)
PRIMES_100 = oracles.primes_upto(100)


def _permuted(B, perm):
    n = len(B)
    return [[B[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def _report(k, title):
    line = f"ACCEPTANCE {k} ({title}): PASS"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


def test_acceptance_01_level_11_golden():
    t0 = time.perf_counter()
    res = cached_analysis(11, coeffs=9)
    elapsed = time.perf_counter() - t0
    assert res.classes.n == 2
    assert sorted(res.classes.weights) == [2, 3]
    perm = sorted(range(2), key=lambda i: res.classes.weights[i])
    assert _permuted(res.collection.matrix(3), perm) == [[2, 3], [2, 1]]
    # eigenvalues of B(3) exactly {-1, 4}: (x + 1)(x - 4)
    assert charpoly(res.collection.matrix(3)) == [-4, -3, 1]
    prefix = [round(x) for x in res.spectral.characters[0][:9]]
    assert prefix == [1, -2, -1, 2, 1, 2, -2, 0, -2]
    assert max(abs(a - round(a)) for a in res.spectral.characters[0][:9]) < 1e-8
    assert res.report.dims == [2, 2]
    assert res.spectral.max_residual < 1e-8
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    _report(1, f"N=11 golden, {elapsed:.2f}s")


def test_acceptance_02_level_37_golden():
    t0 = time.perf_counter()
    res = cached_analysis(37, coeffs=9)
    elapsed = time.perf_counter() - t0
    assert res.classes.n == 3
    assert res.classes.weights == [1, 1, 1]
    B3 = res.collection.matrix(3)
    target = [[2, 1, 1], [1, 0, 3], [1, 3, 0]]
    assert any(_permuted(B3, p) == target for p in permutations(range(3)))
    # eigenvalues {1, -3, 4}: (x - 1)(x + 3)(x - 4)
    assert charpoly(B3) == [12, -11, -2, 1]
    assert sorted(res.report.dims) == [2, 3, 3]
    deficient = res.report.dims.index(2)
    missing = {1, 2, 3} - set(res.report.sigma_sets[deficient])
    assert len(missing) == 1
    k = missing.pop() - 1
    assert abs(res.spectral.character(k, 2) + 2.0) < 1e-8
    rows = [[round(x) for x in res.spectral.characters[k][:9]]
            for k in range(3)]
    assert [1, 0, 1, -2, 0, 0, -1, 0, -2] in rows
    assert [1, -2, -3, 2, -2, 6, -1, 0, 6] in rows
    assert elapsed < 2.0, f"{elapsed:.2f}s"
    _report(2, f"N=37 golden, {elapsed:.2f}s")


def test_acceptance_03_mass_formula_and_class_numbers():
    t0 = time.perf_counter()
    for N in PRIMES_200:
        classes = enumerate_classes(maximal_order(construct_algebra(N)))
        mass = Fraction(N - 1, 12)
        assert classes.mass() == mass, N
        prod = 1
        for w in classes.weights:
            prod *= w
        assert prod == mass.denominator, N
        assert classes.n == oracles.eichler_class_number(N), N
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"{elapsed:.1f}s"
    _report(3, f"mass/class numbers N<=200, {elapsed:.1f}s")


def test_acceptance_04_structural_identities():
    for N in PRIMES_100:
        res = cached_analysis(N)
        coll = res.collection
        mats = {m: coll.matrix(m) for m in coll.available()}
        for name, ok, detail in structural_checks(coll.level, coll.weights,
                                                  coll.bound, mats):
            assert ok, (N, name, detail)
    _report(4, "Brandt identities N<=100")


def test_acceptance_05_spectral_checks():
    for N in PRIMES_100:
        res = cached_analysis(N)
        spec = res.spectral
        coll = res.collection
        n = spec.n
        roots = [sqrt(float(w)) for w in spec.weights]
        for a in range(n):
            for b in range(a, n):
                dot = sum(roots[i] * spec.eigenvectors[a][i] *
                          roots[i] * spec.eigenvectors[b][i]
                          for i in range(n))
                assert abs(dot - (1.0 if a == b else 0.0)) < 1e-9, N
        assert spec.max_residual < 1e-8, N
        for k in range(n):
            if k == spec.eisenstein_index:
                continue
            for p in range(2, coll.bound + 1):
                if is_prime(p) and p != N:
                    assert abs(spec.character(k, p)) <= 2 * sqrt(p) + 1e-6, N
            assert spec.tn_signs[k] in (-1, 1), N
        positive = [k for k in range(n)
                    if all(x > 0 for x in spec.eigenvectors[k])]
        assert positive == [spec.eisenstein_index], N
        ok, detail = eisenstein_exact_check(coll)
        assert ok, (N, detail)
    _report(5, "spectral checks N<=100")


def test_acceptance_06_sigma_matches_rank():
    for N in PRIMES_200:
        res = cached_analysis(N)
        for i in range(res.classes.n):
            assert len(res.report.sigma_sets[i]) == res.report.dims[i], (N, i)
        span = [c for c in res.checks if c[0] == "theta-full-span"]
        assert span and span[0][1], N
    _report(6, "|Sigma(i)| = exact dim and full span N<=200")


def test_acceptance_07_hecke_conjecture_ledger():
    for N in PRIMES_200:
        if N < 37:
            res = cached_analysis(N)
            assert all(d == res.classes.n for d in res.report.dims), N
    res37 = cached_analysis(37)
    assert any(d < 3 for d in res37.report.dims)
    for N in (41, 47, 59):
        res = cached_analysis(N)
        assert all(d == res.classes.n for d in res.report.dims), N
        assert res.report.field_verdict == "field", N
    res71 = cached_analysis(71)
    assert res71.report.field_verdict == "product"
    _report(7, "conjecture ledger: <37 hold, 37 fails, 41/47/59 field, "
               "71 product")


def test_acceptance_08_involution_dimension_bound():
    for N in PRIMES_200:
        res = cached_analysis(N)
        n = res.classes.n
        BN = res.collection.matrix(N)
        rho = res.report.rho
        assert rho == sum(1 for s in res.spectral.tn_signs if s == -1), N
        for i in range(n):
            if BN[i][i] == 1:
                assert n - res.report.dims[i] >= rho, (N, i)
    _report(8, "n - dim >= rho at fixed classes N<=200")


def test_acceptance_09_expansion_identities():
    for N in (11, 37):
        res = cached_analysis(N, coeffs=9)
        coll, spec = res.collection, res.spectral
        table = verify_expansion_identities(coll, spec)
        for i in range(coll.n):
            for j in range(coll.n):
                resid, scale = table[i][j]
                assert resid < 1e-6 * scale, (N, i, j)
    res = cached_analysis(11, coeffs=9)
    coll, spec = res.collection, res.spectral
    perm = sorted(range(2), key=lambda i: coll.weights[i])
    i1, i2 = perm
    for m in range(1, 10):
        a = spec.characters[0][m - 1]
        s = sigma_level(m, 11)
        coeff_max = max(1.0, abs(coll.matrix(m)[i1][i1]))
        assert abs(coll.matrix(m)[i1][i1] - (0.4 * a + 0.6 * s)) < \
            1e-6 * coeff_max
        # 2 theta_12 = 3 theta_21, exactly
        assert 2 * coll.matrix(m)[i1][i2] == 3 * coll.matrix(m)[i2][i1]
    _report(9, "expansion identities at N=11, 37")


def test_acceptance_10_supersingular_oracle():
    for N in PRIMES_100:
        if N < 5:
            continue
        res = cached_analysis(N)
        rep = cross_validate(res.classes, res.collection)
        assert rep["j_count"] == res.classes.n, N
        assert rep["level_fixed_points"] == rep["rational_count"], N
    rep11 = cross_validate(cached_analysis(11).classes,
                           cached_analysis(11).collection)
    assert rep11["automorphism_match"] == {"j0": True, "j1728": True}
    assert sorted(cached_analysis(11).classes.weights) == [2, 3]
    _report(10, "supersingular cross-check 5<=N<=100")


def test_acceptance_11_determinism(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["analyze", "37", "--seed", "42", "--json",
                 "--cache-dir", str(d1)]) == 0
    assert main(["analyze", "37", "--seed", "42", "--json",
                 "--cache-dir", str(d2)]) == 0

    def body(p):
        return [line for line in (p / "level-37.json").read_bytes().splitlines()
                if b"generated_at" not in line]

    assert body(d1) == body(d2)
    record = json.loads((d1 / "level-37.json").read_text())
    assert record["seed"] == 42
    _report(11, "byte-identical records for seed 42")
