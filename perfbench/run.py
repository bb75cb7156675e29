"""Run one brandtkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 30 \\
        --trace 0

Run it from the root of a checkout; it measures the code under src/.  Each
set-up and each timed pass runs in a fresh interpreter, one at a time.
The run sets the workload up several times (set-up time is the median),
then repeats timed passes while another one fits in --seconds (at least
one).  With --trace 1 it adds one traced pass and reports the per-layer
metrics and the tracing overhead instead of the end-to-end metrics.

Every metric is printed by name, with unit, sample count, median and
quartiles, together with the machine facts; the last line is the result
as one JSON object.  Metric names and units come from BENCHMARK.json.
Scratch files live under .perfbench-tmp/ and are deleted at the end; a
traced pass leaves its spans in .perfbench-out/<workload>.spans.json.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 9          # set-ups per run; setup_s is their median
DEADLINE_S = 170    # a run ends (or fails) before this


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def machine_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu}


def summarize(values):
    """(count, median, first quartile, third quartile)."""
    if len(values) < 2:
        v = values[0]
        return len(values), v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return len(values), statistics.median(values), q1, q3


class Runner:
    """Starts the worker processes of one run inside one scratch dir."""

    def __init__(self, root, spec, seed, scratch, deadline):
        self.root = root
        self.spec = spec
        self.seed = seed
        self.scratch = scratch
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED="0",
                        HOME=os.path.join(scratch, "home"))
        self.jobs = 0

    def child(self, mode, trace=False, spans=None):
        """Run one worker; returns (its result, wall seconds seen here)."""
        self.jobs += 1
        job_path = os.path.join(self.scratch, f"job-{self.jobs}.json")
        out = os.path.join(self.scratch, f"out-{self.jobs}.json")
        with open(job_path, "w") as fh:
            json.dump({"mode": mode, "spec": self.spec, "seed": self.seed,
                       "scratch": self.scratch, "trace": trace, "out": out,
                       "spans": spans}, fh)
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            raise BenchError("out of time before the run finished")
        start = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), job_path],
                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} did not finish in time") from None
        wall = perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"{mode} exited {proc.returncode}:\n"
                             + proc.stderr[-2000:])
        with open(out) as fh:
            return json.load(fh), wall


def measure(root, spec, seed, seconds, trace, spans=None):
    """One run: returns the samples of every metric and the op counts."""
    os.makedirs(os.path.join(root, ".perfbench-tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(dir=os.path.join(root, ".perfbench-tmp"))
    try:
        os.makedirs(os.path.join(scratch, "home"))
        runner = Runner(root, spec, seed, scratch,
                        perf_counter() + DEADLINE_S)
        setups = [runner.child("setup")[1] for _ in range(SETUPS)]
        passes = []
        start = perf_counter()
        while True:
            passes.append(runner.child("pass")[0])
            typical = statistics.median(p["wall_s"] for p in passes)
            if perf_counter() - start + typical > seconds:
                break
        traced = runner.child("pass", True, spans)[0] if trace else None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, ".perfbench-tmp"))
        except OSError:
            pass  # another run still uses it
    samples = {"wall_s": [p["wall_s"] for p in passes],
               "setup_s": setups,
               "peak_rss_mb": [p["peak_rss_mb"] for p in passes]}
    done = passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in done)
    failures = [f for p in done for f in p["failures"]]
    if traced:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = (traced["wall_s"]
                                      - statistics.median(samples["wall_s"]))
        for name, value in layers.items():
            samples[name] = [value]
    return samples, attempted, failures


def report(bench, samples, attempted, failures, trace):
    """Print every metric's summary; returns the result object."""
    print(f"{'metric':<28} {'unit':<6} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12}")
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    shown = bench["end_to_end"] + (bench["per_layer"] if trace else [])
    metrics = {}
    for m in shown:
        n, med, q1, q3 = summarize(samples[m["name"]])
        print(f"{m['name']:<28} {m['unit']:<6} {n:>3} {med:>12.6g} "
              f"{q1:>12.6g} {q3:>12.6g}")
        if m in wanted:
            metrics[m["name"]] = {"value": med, "unit": m["unit"]}
    print(f"fail_frac = {len(failures)}/{attempted} = "
          f"{len(failures) / attempted:.6g}")
    for failure in failures:
        print(f"FAILED {failure}")
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        if not os.path.isfile(os.path.join(root, "src", "brandtkit",
                                           "__init__.py")):
            raise BenchError(f"no brandtkit source under {root}/src")
        facts = machine_facts()
        load_start = os.getloadavg()
        spans = None
        if args.trace:
            os.makedirs(os.path.join(root, ".perfbench-out"), exist_ok=True)
            spans = os.path.join(root, ".perfbench-out",
                                 f"{args.workload}.spans.json")
        samples, attempted, failures = measure(
            root, WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), spans)
        load_end = os.getloadavg()
    except (BenchError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}")
    print(f"machine  nproc {facts['nproc']}  python {facts['python']}  "
          f"cpu {facts['cpu']}")
    print("loadavg  start " + " ".join(f"{x:.2f}" for x in load_start)
          + "  end " + " ".join(f"{x:.2f}" for x in load_end))
    print(json.dumps(report(bench, samples, attempted, failures,
                            bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
