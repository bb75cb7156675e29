"""The records of today's pipeline against the stored seed-0 records.

perfbench/data/records.json.gz holds the record text that `brandtkit sweep
--oracle --seed 0` wrote for each benchmark level.  Every level N <= 200 is
recomputed here (through the shared conftest cache, so after the acceptance
battery this costs almost nothing) and compared field by field; the levels
up to 139 are also swept through `brandtkit sweep`, whose worker processes
write the records.  Left out: the timestamp, the oracle block and its
ledger entry (the cache runs without the oracle), the probe's free-text
detail and the ledger details.  The probe's detail is compared on its own
at the seven levels with rho = 0; at the others the stored detail predates
the rho certificate.  The stored float frame came from a seeded random
combination of the B(p), today's from the cyclic T: the eigenvectors and
characters agree to 1e-9 max(1, |x|), and the fields that describe the
combination (combo_primes, combo_coeffs, max_residual) are left out.
Every stored record, the derogatory levels 113 and 307 included, must
also pass `verify`.
"""

import gzip
import json
import os

import pytest

import brandtkit.report as report
import oracles
from brandtkit.brandt import check_commutativity
from brandtkit.cli import main
from brandtkit.intmat import charpoly_irreducible_mod, exact_rank
from brandtkit.quatalg import is_prime
from brandtkit.records import to_json, verify_record
from brandtkit.report import full_span_check, theta_ranks
from conftest import cached_analysis

DATA_FILE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                         "data", "records.json.gz")

with gzip.open(DATA_FILE, "rt") as _fh:
    STORED = {int(k): v for k, v in json.load(_fh).items()}


FRAME_FIELDS = ("eigenvectors", "characters")


def _comparable(record):
    record = dict(record)
    for key in ("generated_at", "oracle"):
        record.pop(key, None)
    record["theta"] = {k: v for k, v in record["theta"].items()
                       if k != "field_detail"}
    record["spectral"] = {
        k: v for k, v in record["spectral"].items()
        if k not in ("combo_primes", "combo_coeffs", "max_residual")
        + FRAME_FIELDS}
    record["checks"] = [[name, ok] for name, ok, _ in record["checks"]
                        if name != "supersingular-oracle"]
    return record


def _frame_mismatches(got, want):
    """(field, k, index) of the frame floats of got that differ from
    want's by more than 1e-9 max(1, |x|)."""
    bad = [field for field in FRAME_FIELDS
           if [len(row) for row in got["spectral"][field]]
           != [len(row) for row in want["spectral"][field]]]
    for field in FRAME_FIELDS:
        for k, (a, b) in enumerate(zip(got["spectral"][field],
                                       want["spectral"][field])):
            bad += [(field, k, t) for t, (x, y) in enumerate(zip(a, b))
                    if abs(float(x) - float(y)) > 1e-9 * max(1, abs(float(y)))]
    return bad


@pytest.mark.parametrize("N", sorted(STORED))
def test_record_matches_stored(N):
    # every stored level: 197 and 307 are the two above 139, and 307 is
    # derogatory
    got = json.loads(to_json(cached_analysis(N).record))
    want = json.loads(STORED[N])
    assert _frame_mismatches(got, want) == [], N
    got, want = _comparable(got), _comparable(want)
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], (N, key)


def test_pooled_sweep_writes_the_stored_records(tmp_path):
    # the path users and CI run: the records come from the sweep's workers
    assert main(["sweep", "2", "139", "--seed", "0", "--cache-dir",
                 str(tmp_path)]) == 0
    levels = [N for N in range(2, 140) if is_prime(N)]
    assert sorted(os.listdir(tmp_path)) == sorted(
        f"level-{N}.json" for N in levels)
    for N in levels:
        got = json.loads((tmp_path / f"level-{N}.json").read_text())
        want = json.loads(STORED[N])
        assert _frame_mismatches(got, want) == [], N
        assert _comparable(got) == _comparable(want), N


def test_every_stored_record_verifies(tmp_path, capsys):
    # also through the CLI, as perfbench's verify-replay runs them: parser,
    # load_record and printing
    assert len(STORED) == 36
    for N, text in sorted(STORED.items()):
        failed = [name for name, ok, _ in verify_record(json.loads(text))
                  if not ok]
        assert not failed, (N, failed)
        path = tmp_path / f"level-{N}.json"
        path.write_text(text)
        assert main(["verify", str(path)]) == 0, N
        assert capsys.readouterr().out.endswith(
            f"record for level {N} verified\n"), N


RHO_ZERO_LEVELS = [23, 29, 31, 41, 47, 59, 71]


@pytest.mark.parametrize("N", RHO_ZERO_LEVELS)
def test_probe_verdict_and_detail_match_stored(N):
    got = cached_analysis(N).report
    theta = json.loads(STORED[N])["theta"]
    assert (got.field_verdict, got.field_detail) == (
        theta["field_verdict"], theta["field_detail"])


def test_probe_tests_irreducibility_only_where_no_orbit_splits(monkeypatch):
    # the exact orbit search runs first: it decides 71 with no
    # irreducibility test, and at the field levels the prime loop stops at
    # the prime that the stored detail names
    tested = []

    def counted(A, p):
        tested.append(p)
        return charpoly_irreducible_mod(A, p)

    monkeypatch.setattr(report, "charpoly_irreducible_mod", counted)
    for N in RHO_ZERO_LEVELS:
        tested.clear()
        coll = cached_analysis(N).collection
        verdict = report.hecke_field_probe(coll)[0]
        if verdict == "product":
            assert N == 71 and tested == []
        else:
            p = int(json.loads(STORED[N])["theta"]["field_detail"].split()[-1])
            assert tested == [q for q in range(2, p + 1) if is_prime(q)], N


def test_commutativity_certificate_runs_at_level_307(product_calls):
    # at 307 B(2) is derogatory, so T_2 = B(2) + 2 B(3) carries the
    # certificate: two products per prime index, not one per pair
    record = json.loads(STORED[307])
    mats = {int(m): B for m, B in record["brandt"].items()}
    primes = [m for m in mats if is_prime(m)]
    ok, detail = check_commutativity(
        307, record["weights"], record["coeff_bound"], mats)
    assert ok, detail
    products = int(detail.split(", ")[1].split()[0])
    assert len(primes) == 17  # the pairwise loop makes 272 products
    assert len(product_calls) <= 2 * len(primes) + products


def test_traces_match_the_trace_formula():
    # every B(m) of every stored record, B(N) included: the orbit fill
    # counts only one module per orbit of <sigma, transpose>, and the
    # formula checks the diagonals it fills without counting them
    for N, text in sorted(STORED.items()):
        mats = {int(m): B for m, B in json.loads(text)["brandt"].items()}
        assert oracles.trace_mismatches(N, mats) == [], N


def _pattern_is_connected(B):
    """Whether the graph on the classes with an edge i - j for B_ij != 0 is
    connected; B(m) is weighted-symmetric, so the rows give every edge."""
    seen, todo = {0}, [0]
    while todo:
        i = todo.pop()
        for j, x in enumerate(B[i]):
            if x and j not in seen:
                seen.add(j)
                todo.append(j)
    return len(seen) == len(B)


def test_neighbour_graphs_are_connected():
    # the class walk uses only the least prime p != N; it closes because
    # the p-neighbour graph, the nonzero pattern of B(p), is connected
    levels = {N: {int(m): B for m, B in json.loads(text)["brandt"].items()}
              for N, text in STORED.items()}
    coll = cached_analysis(401).collection
    levels[401] = {p: coll.matrices[p] for p in (2, 3)}
    for N, mats in sorted(levels.items()):
        for p in (2, 3):
            if p != N:
                assert _pattern_is_connected(mats[p]), (N, p)


class RecordCollection:
    """The parts of a BrandtCollection that the theta ranks read, taken
    from a stored record."""

    def __init__(self, record):
        self.level = record["level"]
        self.n = record["class_number"]
        self.bound = record["coeff_bound"]
        self.matrices = {int(m): B for m, B in record["brandt"].items()}

    def series(self):
        return [self.matrices[m] for m in range(1, self.bound + 1)]


def test_theta_ranks_match_per_class_bareiss():
    for N, text in sorted(STORED.items()):
        coll = RecordCollection(json.loads(text))
        series, n = coll.series(), coll.n
        assert theta_ranks(series, n) == [
            oracles.theta_rank(series, n, i) for i in range(n)], N


def test_theta_ranks_eliminate_each_distinct_row_set_once(monkeypatch):
    # at 307 the level involution pairs up classes, so 16 of the 26 row
    # sets are distinct
    eliminated = []

    def counted(rows):
        eliminated.append(len(rows))
        return exact_rank(rows)

    monkeypatch.setattr(report, "exact_rank", counted)
    coll = RecordCollection(json.loads(STORED[307]))
    dims = theta_ranks(coll.series(), coll.n)
    assert dims == json.loads(STORED[307])["theta"]["dims"]
    assert len(eliminated) == 16 and max(eliminated) <= 26


@pytest.mark.parametrize("N", [37, 101, 197, 307])
def test_full_span_check_matches_the_rank_with_duplicates(N):
    coll = RecordCollection(json.loads(STORED[N]))
    series = coll.series()
    rows = [[B[i][j] for B in series]
            for i in range(coll.n) for j in range(i, coll.n)]
    rank = exact_rank(rows)
    # with dims of zero, which are lower bounds too, the rank is eliminated
    assert full_span_check(coll, [0] * coll.n) == (rank == coll.n, rank)
    dims = json.loads(STORED[N])["theta"]["dims"]
    assert full_span_check(coll, dims) == (rank == coll.n, rank)
