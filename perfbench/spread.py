"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 \\
        [--workloads sweep-small level-197 verify-replay]

Run from the root of a checkout.  For every end-to-end metric it prints the
median over the runs, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json.
A spread above a third of the bound is marked, except for setup_s, where
only the median has to stay within the bound from one set of runs to the
next.  Runs happen one at a time, with run_seconds from BENCHMARK.json.
"""

import argparse
import json
import subprocess
import sys

from run import summarize
from workloads import WORKLOADS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    metrics = bench["end_to_end"]

    table = {}
    for workload in args.workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable] + bench["command"][1:]
                + ["--workload", workload, "--seed", str(seed), "--seconds",
                   str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
            line = [workload, f"seed={seed}",
                    f"failed={result['failed']}/{result['attempted']}"]
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
                line.append(f"{name}={metric['value']:.6g}")
            print(" ".join(line), flush=True)
        table[workload] = values

    print(f"{'workload':<14} {'metric':<28} {'n':>3} {'median':>11} "
          f"{'q1':>11} {'q3':>11} {'spread':>8} {'bound':>6}")
    for workload, values in table.items():
        for m in metrics:
            n, med, q1, q3 = summarize(values[m["name"]])
            spread = (q3 - q1) / med
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"] / 3:
                flag = "  WIDE"
            print(f"{workload:<14} {m['name']:<28} {n:>3} "
                  f"{med:>11.6g} {q1:>11.6g} {q3:>11.6g} {spread:>8.4f} "
                  f"{m['bound']:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
