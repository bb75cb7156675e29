"""Workload definitions and the reference the benchmark checks against.

Shared by run.py (the parent), worker.py (the child that runs brandtkit)
and make_data.py (which regenerates the reference).  Imports nothing from
brandtkit, so the parent never loads the package it measures.
"""

import gzip
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
DATA_FILE = os.path.join(HERE, "data", "records.json.gz")

SWEEP_START, SWEEP_STOP = 2, 139
LEVEL = 197
REPLAY_EXTRA = 307  # the largest stored record, replayed with the sweep's

# Record fields that must equal the reference on every run.  field_verdict,
# field_detail and the ledger details are left out on purpose: planned
# changes to the Hecke-field probe and the check battery alter them.
REFERENCE_FIELDS = ("class_number", "weights", "mass", "ideal_bases", "b0",
                    "brandt", "theta.dims", "theta.rho")


def primes_between(start, stop):
    return [n for n in range(max(start, 2), stop + 1)
            if all(n % d for d in range(2, int(n ** 0.5) + 1))]


REPLAY_LEVELS = primes_between(SWEEP_START, SWEEP_STOP) + [REPLAY_EXTRA]
# every level a workload runs, each with a reference record
LEVELS = REPLAY_LEVELS + [LEVEL]

WORKLOADS = {
    "sweep-small": {"kind": "sweep", "start": SWEEP_START,
                    "stop": SWEEP_STOP},
    "level-197": {"kind": "level", "level": LEVEL},
    "verify-replay": {"kind": "verify", "levels": REPLAY_LEVELS},
}


def load_record_texts():
    """level -> record text exactly as `brandtkit` wrote it at seed 0."""
    with gzip.open(DATA_FILE, "rt") as fh:
        return {int(k): v for k, v in json.load(fh).items()}


def reference_fields(record):
    out = {}
    for path in REFERENCE_FIELDS:
        value = record
        for key in path.split("."):
            value = value[key]
        out[path] = value
    return out


def mismatched_fields(record, reference):
    """Names of the reference fields on which record differs."""
    got = reference_fields(record)
    want = reference_fields(reference)
    return [k for k in REFERENCE_FIELDS if got[k] != want[k]]
