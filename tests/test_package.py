"""Guards on the names that other code looks up in the package."""

import ast
import os
import subprocess
import sys

import brandtkit

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "brandtkit")


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


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export; every other module of the package must
    # use each name its module-level imports bind
    unused = []
    for filename in sorted(os.listdir(PACKAGE)):
        if not filename.endswith(".py") or filename == "__init__.py":
            continue
        with open(os.path.join(PACKAGE, filename)) as fh:
            tree = ast.parse(fh.read(), filename)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{filename}:{node.lineno} {name}")
    assert unused == []
