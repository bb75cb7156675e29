"""The records of today's pipeline against the stored seed-0 records.

perfbench/data/records.json.gz holds the record text that `brandtkit sweep
--oracle --seed 0` wrote for each benchmark level.  Every level N <= 200 is
recomputed here (through the shared conftest cache, so after the acceptance
battery this costs almost nothing) and compared field by field.  Left out:
the timestamp, the oracle block and its ledger entry (the cache runs without
the oracle), the probe's free-text detail and the ledger details.  Every
stored record, the derogatory levels 113 and 307 included, must also pass
`verify`.
"""

import gzip
import json
import os

import pytest

from brandtkit.brandt import check_commutativity
from brandtkit.quatalg import is_prime
from brandtkit.records import to_json, verify_record
from conftest import cached_analysis

DATA_FILE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                         "data", "records.json.gz")

with gzip.open(DATA_FILE, "rt") as _fh:
    STORED = {int(k): v for k, v in json.load(_fh).items()}


def _comparable(record):
    record = dict(record)
    for key in ("generated_at", "oracle"):
        record.pop(key, None)
    record["theta"] = {k: v for k, v in record["theta"].items()
                       if k != "field_detail"}
    record["checks"] = [[name, ok] for name, ok, _ in record["checks"]
                        if name != "supersingular-oracle"]
    return record


@pytest.mark.parametrize("N", sorted(N for N in STORED if N <= 200))
def test_record_matches_stored(N):
    got = _comparable(json.loads(to_json(cached_analysis(N).record)))
    want = _comparable(json.loads(STORED[N]))
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], (N, key)


def test_every_stored_record_verifies():
    assert len(STORED) == 36
    for N, text in sorted(STORED.items()):
        failed = [name for name, ok, _ in verify_record(json.loads(text))
                  if not ok]
        assert not failed, (N, failed)


def test_commutativity_certificate_runs_at_level_307(mat_mul_calls):
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
    assert len(mat_mul_calls) <= 2 * len(primes) + products
