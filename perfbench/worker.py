"""One child process of the benchmark: set up a workload, or time one pass.

    python3 perfbench/worker.py JOB.json

run.py writes JOB.json and starts this with PYTHONPATH pointing at the
checkout's src/, so `import brandtkit` loads the code under test.  The job
holds:

    mode     "setup" (make the inputs, then exit) or "pass" (also run them)
    spec     one entry of workloads.WORKLOADS
    seed     the workload seed
    scratch  directory for the cache and the records; run.py deletes it
    trace    run the pass with tracer.install()
    out      where to write the result as JSON
    spans    where a traced pass dumps its spans, or null

A pass writes {"wall_s", "peak_rss_mb", "attempted", "failed",
"failures"} and, when traced, "layers" (the per-layer metrics) into `out`.
"""

import contextlib
import json
import os
import random
import resource
import shutil
import sys
from time import perf_counter

import workloads


def setup(spec, seed, scratch):
    """Make the workload's inputs; returns what run_pass needs."""
    import brandtkit  # noqa: F401  (importing is part of set-up)

    if spec["kind"] == "sweep":
        # empty, so that a pass is checked only on the records it writes
        cache = os.path.join(scratch, "cache")
        shutil.rmtree(cache, ignore_errors=True)
        os.makedirs(cache)
        return {"cache": cache,
                "levels": workloads.primes_between(spec["start"],
                                                   spec["stop"])}
    if spec["kind"] == "level":
        return {"level": spec["level"]}
    records = os.path.join(scratch, "records")
    os.makedirs(records, exist_ok=True)
    texts = workloads.load_record_texts()
    paths = []
    for N in spec["levels"]:
        path = os.path.join(records, f"level-{N}.json")
        with open(path, "w") as fh:
            fh.write(texts[N])
        paths.append(path)
    random.Random(seed).shuffle(paths)
    return {"paths": paths}


def _attempt(fn, *args, **kwargs):
    """fn's result, or the exception it raised: a failed operation."""
    try:
        return fn(*args, **kwargs)
    except Exception as err:
        return err


def run_pass(spec, seed, inputs):
    """The timed operation set; returns what check() needs."""
    import brandtkit.analysis
    import brandtkit.cli

    if spec["kind"] == "sweep":
        return _attempt(brandtkit.cli.main, [
            "sweep", str(spec["start"]), str(spec["stop"]), "--oracle",
            "--seed", str(seed), "--cache-dir", inputs["cache"]])
    if spec["kind"] == "level":
        res = _attempt(brandtkit.analysis.analyze, inputs["level"], seed=seed)
        return res if isinstance(res, Exception) else res.record
    return [_attempt(brandtkit.cli.main, ["verify", path])
            for path in inputs["paths"]]


def check(spec, inputs, outcome):
    """(operations attempted, one description per failed operation)."""
    texts = workloads.load_record_texts()

    def differs(N, record):
        bad = workloads.mismatched_fields(record, json.loads(texts[N]))
        if not all(ok for _, ok, _ in record["checks"]):
            bad.append("failing ledger entry")
        return f"level {N}: {', '.join(bad)}" if bad else None

    if spec["kind"] == "sweep":
        failures = []
        for N in inputs["levels"]:
            path = os.path.join(inputs["cache"], f"level-{N}.json")
            if not os.path.exists(path):
                failures.append(f"level {N}: no record")
                continue
            with open(path) as fh:
                failures.append(differs(N, json.load(fh)))
        failures = [f for f in failures if f]
        if outcome != 0 and not failures:
            failures.append(f"sweep ended with {outcome!r}")
        return len(inputs["levels"]), failures
    if spec["kind"] == "level":
        N = inputs["level"]
        if isinstance(outcome, Exception):
            return 1, [f"level {N}: raised {outcome!r}"]
        failure = differs(N, outcome)
        return 1, [failure] if failure else []
    failures = [f"{os.path.basename(path)}: verify ended with {code!r}"
                for path, code in zip(inputs["paths"], outcome) if code != 0]
    return len(inputs["paths"]), failures


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    spec, seed = job["spec"], job["seed"]
    inputs = setup(spec, seed, job["scratch"])
    result = {}
    if job["mode"] == "pass":
        tracer = None
        if job["trace"]:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start = perf_counter()
            outcome = run_pass(spec, seed, inputs)
            wall = perf_counter() - start
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        attempted, failures = check(spec, inputs, outcome)
        result = {"wall_s": wall, "peak_rss_mb": peak_kib / 1024,
                  "attempted": attempted, "failed": len(failures),
                  "failures": failures}
        if tracer is not None:
            result["layers"] = tracing.per_layer_metrics(tracer.spans,
                                                         tracer.counters)
            if job.get("spans"):
                with open(job["spans"], "w") as fh:
                    json.dump({"fields": ["name", "start", "end", "parent",
                                          "op", "child_s"],
                               "spans": tracer.spans,
                               "counters": tracer.counters}, fh)
    with open(job["out"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
