"""Tests of the benchmark itself, on the tiny level set 2..31.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root; it takes about half a minute.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "sweep": {"kind": "sweep", "start": 2, "stop": 31},
    "level": {"kind": "level", "level": 37},
    "verify": {"kind": "verify", "levels": workloads.primes_between(2, 31)},
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def scratch_dir():
    os.makedirs(os.path.join(ROOT, ".perfbench-tmp"), exist_ok=True)
    return tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench-tmp"))


def result_of(spec, trace):
    samples, attempted, failures = run.measure(ROOT, spec, 3, 0.1, trace)
    with contextlib.redirect_stdout(io.StringIO()):
        return run.report(BENCH, samples, attempted, failures, trace)


class MetricsTest(unittest.TestCase):

    def check_emitted(self, result, metrics):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in metrics})
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_every_metric_with_its_unit(self):
        for kind, spec in TINY.items():
            with self.subTest(kind=kind):
                self.check_emitted(result_of(spec, False), BENCH["end_to_end"])
                self.check_emitted(result_of(spec, True), BENCH["per_layer"])

    def test_layers_that_run_are_seen(self):
        sweep = result_of(TINY["sweep"], True)["metrics"]
        for name in ("orders.s", "ideals.s", "ideals.neighbours",
                     "ideals.equiv_tests", "lattices.count_calls",
                     "lattices.vectors", "brandt.modules", "checks.s",
                     "intmat.mat_mul_calls", "spectral.jacobi_calls",
                     "report.probe_s", "records.build_s", "records.bytes",
                     "ssoracle.s", "cli.self_s"):
            self.assertGreater(sweep[name]["value"], 0, name)
        self.assertEqual(sweep["lattices.max_count_bound"]["value"], 31)
        verify = result_of(TINY["verify"], True)["metrics"]
        self.assertGreater(verify["records.verify_s"]["value"], 0)
        self.assertEqual(verify["lattices.count_calls"]["value"], 0)


class LayerTimeTest(unittest.TestCase):

    def test_brandt_and_checks_include_their_children(self):
        spans = [["analysis.analyze", 0.0, 10.0, None, 1, 9.0],
                 ["brandt.collection", 1.0, 5.0, 0, 1, 3.0],
                 ["lattices.count", 1.0, 4.0, 1, 1, 0.0],
                 ["checks.structural", 5.0, 8.0, 0, 1, 2.5],
                 ["intmat.mat_mul", 5.0, 7.5, 3, 1, 0.0],
                 ["checks.eisenstein", 8.0, 9.0, 0, 1, 0.0]]
        layers = tracer.per_layer_metrics(spans, Counter())
        self.assertEqual(layers["brandt.s"], 4.0)
        self.assertEqual(layers["checks.s"], 4.0)
        self.assertEqual(layers["lattices.count_s"], 3.0)
        self.assertEqual(layers["intmat.mat_mul_s"], 2.5)


class RecordTest(unittest.TestCase):

    def test_sweep_setup_empties_the_cache(self):
        scratch = scratch_dir()
        try:
            os.makedirs(os.path.join(scratch, "cache"))
            stale = os.path.join(scratch, "cache", "level-2.json")
            with open(stale, "w") as fh:
                fh.write("{}")
            inputs = worker.setup(TINY["sweep"], 1, scratch)
            self.assertEqual(os.listdir(inputs["cache"]), [])
        finally:
            shutil.rmtree(scratch)

    def test_traced_pass_writes_the_same_records(self):
        scratch = scratch_dir()
        try:
            runner = run.Runner(ROOT, TINY["sweep"], 5, scratch,
                                perf_counter() + 120)
            os.makedirs(os.path.join(scratch, "home"))
            cache = os.path.join(scratch, "cache")
            texts = {}
            for trace in (False, True):
                runner.child("pass", trace)
                texts[trace] = {}
                for name in sorted(os.listdir(cache)):
                    with open(os.path.join(cache, name)) as fh:
                        texts[trace][name] = [line for line in fh
                                              if "generated_at" not in line]
                shutil.rmtree(cache)
            self.assertEqual(len(texts[False]), 11)
            self.assertEqual(texts[False], texts[True])
            self.assertFalse(os.path.exists(
                os.path.join(scratch, "home", ".cache")))
        finally:
            shutil.rmtree(scratch)


class CleanupTest(unittest.TestCase):

    def leftovers(self):
        tmp = os.path.join(ROOT, ".perfbench-tmp")
        return os.listdir(tmp) if os.path.isdir(tmp) else []

    def test_scratch_removed_after_success_and_failure(self):
        before = self.leftovers()
        result_of(TINY["level"], False)
        self.assertEqual(self.leftovers(), before)
        with self.assertRaises(run.BenchError):  # the worker crashes
            run.measure(ROOT, {"kind": "level"}, 1, 0.1, False)
        self.assertEqual(self.leftovers(), before)

    def test_raising_operation_counts_as_failed(self):
        result = result_of({"kind": "level", "level": 4}, False)
        self.assertFalse(result["correct"])
        self.assertEqual((result["failed"], result["attempted"]), (1, 1))

    def test_fails_without_the_program(self):
        bare = scratch_dir()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "sweep-small", "--seed", "1", "--seconds", "1"],
                cwd=bare, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare)


def tearDownModule():
    try:
        os.rmdir(os.path.join(ROOT, ".perfbench-tmp"))
    except OSError:
        pass  # a run still uses it


if __name__ == "__main__":
    unittest.main()
