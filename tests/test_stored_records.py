"""The records of today's pipeline against the stored seed-0 records.

perfbench/data/records.json.gz holds the record text that `brandtkit sweep
--oracle --seed 0` wrote for each benchmark level.  Every level N <= 200 is
recomputed here (through the shared conftest cache, so after the acceptance
battery this costs almost nothing) and compared field by field.  Left out:
the timestamp, the oracle block and its ledger entry (the cache runs without
the oracle), the probe's free-text detail and the ledger details.
"""

import gzip
import json
import os

import pytest

from brandtkit.records import to_json
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
