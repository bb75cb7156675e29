import copy
import json
import random
from fractions import Fraction

import pytest

import oracles
from brandtkit.brandt import BrandtCollection
from brandtkit.ideals import enumerate_classes
from brandtkit.orders import maximal_order
from brandtkit.quatalg import ConsistencyError, construct_algebra
from brandtkit.records import build_record, to_json, verify_record
from brandtkit.report import (SERIES_TOL, atkin_lehner_rho, build_report,
                              dim_theta_exact, exact_rho, full_span_check,
                              hecke_field_probe, sigma_set, theta_ranks,
                              verify_expansion_identities)
from brandtkit.spectral import eigendecompose, sigma_level, sturm_bound
from conftest import cached_analysis

_cache = {}


def pipeline(N, bound=9):
    key = (N, bound)
    if key not in _cache:
        classes = enumerate_classes(maximal_order(construct_algebra(N)))
        coll = BrandtCollection(classes, bound=bound)
        _cache[key] = (coll, eigendecompose(coll, seed=0))
    return _cache[key]


def star_class(coll):
    """The class fixed by the level involution (unique at N=37)."""
    BN = coll.matrix(coll.level)
    fixed = [i for i in range(coll.n) if BN[i][i] == 1]
    assert len(fixed) == 1
    return fixed[0]


def test_dims_level_11():
    coll, _ = pipeline(11)
    assert [dim_theta_exact(coll, i) for i in range(2)] == [2, 2]


def test_dims_level_37():
    coll, _ = pipeline(37)
    star = star_class(coll)
    dims = [dim_theta_exact(coll, i) for i in range(3)]
    assert dims[star] == 2
    assert sorted(dims) == [2, 3, 3]


def test_dim_raises_below_sturm():
    classes = enumerate_classes(maximal_order(construct_algebra(11)))
    thin = BrandtCollection(classes, bound=2)
    with pytest.raises(ValueError):
        dim_theta_exact(thin, 0)
    with pytest.raises(ValueError):
        full_span_check(thin)


def test_sigma_sets_level_37():
    coll, spec = pipeline(37)
    star = star_class(coll)
    # label 1 is the a_2 = -2 eigenform; the fixed class omits exactly it
    assert sigma_set(spec, star) == {2, 3}
    for i in range(3):
        if i != star:
            assert sigma_set(spec, i) == {1, 2, 3}


def test_sigma_set_size_mismatch_fails_the_ledger_and_verify():
    # Sigma(i) is picked once; a set whose size is not the exact rank is a
    # failing ledger entry in a written record, not an exception.  At N = 37
    # the fixed class pairs to zero with one cusp form: push it off zero
    coll, spec = pipeline(37)
    star = star_class(coll)
    bad = copy.deepcopy(spec)
    (k,) = set(range(1, 4)) - sigma_set(spec, star)
    bad.eigenvectors[k - 1][star] = 0.5
    assert sigma_set(bad, star) == {1, 2, 3}
    report = build_report(coll, bad)
    ledger = {name: ok for name, ok, _ in report.checks}
    assert ledger["theta-rank-consistency"] is False
    record = json.loads(to_json(build_record(coll, bad, report, 0, "now",
                                             report.checks)))
    replay = {name: ok for name, ok, _ in verify_record(record)}
    assert replay["sigma-set-sizes"] is False
    assert replay["theta-dims"] is True


def test_expansion_identities_within_tolerance():
    for N in (11, 37):
        coll, spec = pipeline(N)
        table = verify_expansion_identities(coll, spec)
        for i in range(coll.n):
            for j in range(coll.n):
                resid, scale = table[i][j]
                assert resid <= SERIES_TOL * scale, (N, i, j, resid)


def _expansion_cell(coll, spec, i, j):
    """Both identities evaluated directly at one (i, j), term by term."""
    n = spec.n
    w = spec.weights
    worst = 0.0
    scale = 1.0
    for m in range(1, coll.bound + 1):
        B = coll.matrix(m)
        lhs = float(w[i] * B[i][j])
        scale = max(scale, abs(lhs))
        rhs = oracles.left_fold((w[j] * spec.eigenvectors[k][j]) *
                                (w[i] * spec.eigenvectors[k][i]) *
                                spec.character(k, m) for k in range(n))
        worst = max(worst, abs(lhs - rhs))
        for k in range(n):
            one_lhs = w[i] * spec.eigenvectors[k][i] * spec.character(k, m)
            one_rhs = w[i] * oracles.left_fold(spec.eigenvectors[k][l] *
                                               B[i][l] for l in range(n))
            worst = max(worst, abs(one_lhs - one_rhs))
    return worst, scale


def test_expansion_table_matches_direct_evaluation():
    # the same floats as the per-(i, j) evaluation, to the last bit
    for N in (11, 37, 43, 101):
        coll, spec = pipeline(N)
        table = verify_expansion_identities(coll, spec)
        assert [[_expansion_cell(coll, spec, i, j) for j in range(coll.n)]
                for i in range(coll.n)] == table, N


@pytest.mark.parametrize("N", [37, 101, 113, 139, 197])
def test_expansion_table_equals_the_all_pairs_table(N):
    # the shared half of identity (2) gives the same floats, to the last bit
    coll = cached_analysis(N).collection
    for seed in (0, 1):
        spec = eigendecompose(coll, seed=seed)
        assert verify_expansion_identities(coll, spec) == \
            oracles.expansion_identities_all_pairs(coll, spec), (N, seed)


class _MatrixList:
    """B(1) .. B(M) as a collection."""

    def __init__(self, mats):
        self.bound = len(mats)
        self._mats = mats

    def matrix(self, m):
        return self._mats[m - 1]


class _StubSpectrum:
    """Weights, eigenvectors and characters given outright."""

    def __init__(self, weights, eigenvectors, characters):
        self.n = len(weights)
        self.weights = weights
        self.eigenvectors = eigenvectors
        self._characters = characters

    def character(self, k, m):
        return self._characters[k][m - 1]


def test_expansion_table_without_weighted_symmetry():
    # random integer matrices and floats: no symmetry for the shared half
    # to lean on, and still the all-pairs floats
    rng = random.Random(5)
    n, M = 6, 7
    w = [rng.randrange(1, 4) for _ in range(n)]
    mats = [[[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
            for _ in range(M)]
    assert any(w[i] * B[i][j] != w[j] * B[j][i] for B in mats
               for i in range(n) for j in range(n))
    spec = _StubSpectrum(w,
                         [[rng.uniform(-1, 1) for _ in range(n)]
                          for _ in range(n)],
                         [[rng.uniform(-5, 5) for _ in range(M)]
                          for _ in range(n)])
    coll = _MatrixList(mats)
    assert verify_expansion_identities(coll, spec) == \
        oracles.expansion_identities_all_pairs(coll, spec)


def test_explicit_relations_level_11():
    # theta_11 = (2/5) f_1 + (3/5) f_2, theta_12 = -(3/5) f_1 + (3/5) f_2
    coll, spec = pipeline(11)
    perm = sorted(range(2), key=lambda i: coll.weights[i])
    i1, i2 = perm[0], perm[1]
    for m in range(1, 10):
        a = spec.characters[0][m - 1]
        s = sigma_level(m, 11)
        t11 = coll.matrix(m)[i1][i1]
        t12 = coll.matrix(m)[i1][i2]
        assert abs(t11 - (0.4 * a + 0.6 * s)) < 1e-8
        assert abs(t12 - (-0.6 * a + 0.6 * s)) < 1e-8
    # constant terms: 1/4 = (3/5)(5/12)
    assert Fraction(3, 5) * Fraction(5, 12) == Fraction(1, 4)


def test_explicit_relations_level_37():
    # theta_11 = (2/3) g + (1/3) e, theta_12 = theta_13 = -(1/3) g + (1/3) e
    # with g the a_2 = 0 eigenform (label 2) and e the Eisenstein series
    coll, spec = pipeline(37)
    star = star_class(coll)
    others = [j for j in range(3) if j != star]
    for m in range(1, 10):
        g = spec.characters[1][m - 1]
        e = sigma_level(m, 37)
        B = coll.matrix(m)
        assert abs(B[star][star] - (2 * g + e) / 3.0) < 1e-8
        assert B[star][others[0]] == B[star][others[1]]
        assert abs(B[star][others[0]] - (e - g) / 3.0) < 1e-8


def test_atkin_lehner_rho_level_11():
    coll, spec = pipeline(11)
    # B(11) is forced to the identity by weighted symmetry (weights 2 != 3)
    assert coll.matrix(11) == [[1, 0], [0, 1]]
    rho, checks = atkin_lehner_rho(spec, coll,
                                   [dim_theta_exact(coll, i) for i in range(2)])
    assert rho == 0 == exact_rho(coll.matrix(11))
    assert [i for i, _ in checks] == [0, 1]
    assert all(ok for _, ok in checks)


def test_atkin_lehner_rho_level_37():
    coll, spec = pipeline(37)
    star = star_class(coll)
    dims = [dim_theta_exact(coll, i) for i in range(3)]
    rho, checks = atkin_lehner_rho(spec, coll, dims)
    assert rho == 1 == exact_rho(coll.matrix(37))
    assert checks == [(star, True)]


def test_atkin_lehner_rho_cross_checks_signs():
    coll, spec = pipeline(37)
    dims = [dim_theta_exact(coll, i) for i in range(3)]
    flipped = copy.copy(spec)
    flipped.tn_signs = [1 if s == -1 else s for s in spec.tn_signs]
    with pytest.raises(ConsistencyError):
        atkin_lehner_rho(flipped, coll, dims)


def test_full_span_levels():
    classes = enumerate_classes(maximal_order(construct_algebra(2)))
    coll2 = BrandtCollection(classes, bound=3)
    assert full_span_check(coll2) == (True, 1)
    for N in (11, 37):
        coll, _ = pipeline(N)
        ok, rank = full_span_check(coll)
        assert ok and rank == coll.n


def test_probe_trivial_for_two_classes():
    coll, _ = pipeline(11)
    verdict, detail = hecke_field_probe(coll)
    assert verdict == "field"
    assert "trivially" in detail


def test_probe_field_verdicts():
    for N in (23, 41):
        coll, _ = pipeline(N)
        verdict, detail = hecke_field_probe(coll)
        assert verdict == "field", (N, detail)
        assert "irreducible mod" in detail


def test_probe_product_verdict_level_37():
    coll, _ = pipeline(37)
    verdict, detail = hecke_field_probe(coll)
    assert verdict == "product"
    assert detail == ("rho = 1: idempotents (1 +- B(N))/2 split the kernel "
                      "into degrees 1 and 1")


def test_probe_charpoly_path_level_71():
    # B(71) is +-1 on the whole cusp space, so rho gives no certificate and
    # the kernel charpoly of the battery's cyclic T has to split (degrees 3
    # and 3)
    coll, _ = pipeline(71)
    assert exact_rho(coll.matrix(71)) in (0, coll.n - 1)
    assert hecke_field_probe(coll) == (
        "product", "charpoly has exact factor of degree 3")


class _StubCollection:
    """Three classes at level 11 with B(11) = I (rho = 0) and B(2): the
    probe's T_1 is B(2), its T_2 is B(2) + 2 I."""

    level = 11
    n = 3
    bound = 2

    def __init__(self, b2):
        self._b2 = b2

    def matrix(self, m):
        return self._b2 if m == 2 else [[int(a == b) for b in range(3)]
                                        for a in range(3)]

    def available(self):
        return [1, 2, 11]


def test_probe_inconclusive_without_cyclic_operator():
    # a scalar B(2) and B(11) = I make every T_k scalar
    coll = _StubCollection([[3, 0, 0], [0, 3, 0], [0, 0, 3]])
    assert hecke_field_probe(coll) == (
        "inconclusive", "no T_k has a cyclic vector")


def test_probe_inconclusive_when_every_difference_generates():
    # column sums 4, the Eisenstein eigenvalue; kernel eigenvectors
    # (1, 1, -2) at 0 and (1, -2, 1) at 3.  The three eigenvalues are
    # distinct, so T_1 = B(2) is cyclic; the kernel charpoly splits over Q
    # but no e_i - e_j is an eigenvector and each one's orbit is the whole
    # kernel
    B2 = [[3, 1, 2], [-1, 3, 1], [2, 0, 1]]
    assert [sum(col) for col in zip(*B2)] == [4, 4, 4]
    for u, lam in (((1, 1, -2), 0), ((1, -2, 1), 3)):
        assert [sum(a * b for a, b in zip(row, u)) for row in B2] == \
            [lam * a for a in u]
    coll = _StubCollection(B2)
    assert hecke_field_probe(coll) == (
        "inconclusive", "every class difference generates the cusp space")


def test_probe_cyclic_branch_runs_only_at_oggs_seven_levels():
    # rho = (n - tr B(N))/2 = 0 with n >= 3 only where every supersingular
    # j lies in F_N (Ogg 1975), by the class number and trace formulas
    levels = [N for N in oracles.primes_upto(2000)
              if 3 <= oracles.eichler_class_number(N)
              == oracles.brandt_trace(N, N)]
    assert levels == [23, 29, 31, 41, 47, 59, 71]


@pytest.mark.parametrize("N", [23, 31, 47])
def test_probe_detail_does_not_depend_on_the_seed(N):
    # the seed moves only the float frame; the probe's T is the battery's
    detail = cached_analysis(N).report.field_detail
    for seed in (3, 4):
        assert cached_analysis(N, seed=seed).report.field_detail == detail


def test_probe_product_verdict_level_401():
    # above the tested range: the charpoly probe ended "inconclusive" here
    # (kernel charpoly factors with degrees 12 and 21); rho decides it now
    coll, _ = pipeline(401, bound=8)
    verdict, detail = hecke_field_probe(coll)
    assert verdict == "product", detail
    assert detail == ("rho = 12: idempotents (1 +- B(N))/2 split the kernel "
                      "into degrees 21 and 12")


def test_theta_ranks_level_401():
    # above the tested range, with the default coefficient bound
    coll = cached_analysis(401).collection
    assert coll.bound == sturm_bound(401) + 2
    series = [coll.matrix(m) for m in range(1, coll.bound + 1)]
    dims = theta_ranks(series, coll.n)
    assert dims == [oracles.theta_rank(series, coll.n, i)
                    for i in range(coll.n)]
    assert dims == [dim_theta_exact(coll, i) for i in range(coll.n)]


def test_build_report_level_11():
    coll, spec = pipeline(11)
    rep = build_report(coll, spec)
    assert rep.dims == [2, 2]
    assert rep.hecke_conjecture_holds
    assert rep.rho == 0
    assert rep.frobenius_fixed == [1, 2]
    assert rep.field_verdict == "field"
    assert all(ok for _, ok, _ in rep.checks)
    assert sorted(rep.sigma_sets[0]) == [1, 2]


def test_build_report_level_37():
    coll, spec = pipeline(37)
    star = star_class(coll)
    rep = build_report(coll, spec)
    assert not rep.hecke_conjecture_holds
    assert rep.dims[star] == 2
    assert rep.rho == 1
    assert rep.frobenius_fixed == [star + 1]
    assert rep.field_verdict == "product"
    assert sorted(rep.sigma_sets[star]) == [2, 3]
    assert all(ok for _, ok, _ in rep.checks)
    names = [name for name, _, _ in rep.checks]
    assert "field-verdict-dimensions" not in names


def test_report_check_names_stable():
    coll, spec = pipeline(11)
    rep = build_report(coll, spec)
    names = [name for name, _, _ in rep.checks]
    assert names == ["theta-rank-consistency", "theta-eisenstein-membership",
                     "eigenform-expansion", "theta-full-span",
                     "atkin-lehner-bound", "field-verdict-dimensions"]
