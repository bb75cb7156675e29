"""Regenerate data/records.json.gz, the benchmark's reference records.

    python3 perfbench/make_data.py

Run from the repository root.  It writes, for every level the workloads
use, the record text that `brandtkit sweep --oracle --seed 0` caches.  The
checked-in file was made this way when the benchmark was defined; the
benchmark compares every run's results with it, so regenerate it only when
a change is meant to alter those results.
"""

import gzip
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from brandtkit.analysis import analyze  # noqa: E402
from brandtkit.records import to_json  # noqa: E402

from workloads import DATA_FILE, LEVELS  # noqa: E402


def main():
    texts = {}
    for N in LEVELS:
        texts[str(N)] = to_json(analyze(N, seed=0, oracle=True).record)
        print(f"level {N} done", flush=True)
    with gzip.open(DATA_FILE, "wt") as fh:
        json.dump(texts, fh, sort_keys=True)


if __name__ == "__main__":
    main()
