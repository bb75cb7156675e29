"""Guards on the names that other code looks up in the package."""

import os
import subprocess
import sys

import brandtkit

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def test_every_exported_name_resolves():
    # `from brandtkit import *` fails on a name in __all__ that is gone
    missing = [name for name in brandtkit.__all__
               if not hasattr(brandtkit, name)]
    assert missing == []
    namespace = {}
    exec("from brandtkit import *", namespace)
    assert set(brandtkit.__all__) <= set(namespace)


def test_benchmark_tracer_installs():
    # perfbench/tracer.py wraps package functions by module and name, so a
    # deleted or renamed one ends its install in AttributeError.  It runs in
    # a subprocess: install rebinds functions in every brandtkit module.
    paths = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    code = (f"import sys; sys.path[:0] = {paths!r}; import tracer; "
            "tracer.install(tracer.Tracer())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
