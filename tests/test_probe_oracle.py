"""sympy as an independent oracle for the Hecke-field probe.

sympy is a test-time dependency only: this module is skipped when it is not
installed, and the package itself must never import it.
"""

import os
import random
import subprocess
import sys

import pytest

import brandtkit
import oracles
from conftest import cached_analysis

sympy = pytest.importorskip("sympy")


def sympy_verdict(coll):
    """"field" or "product" from sympy's factorization of the kernel charpoly.

    T is an integer combination of the B(p), p prime to the level; its
    charpoly is (x - e) times the charpoly on the augmentation kernel, with
    e = sum c_p (p + 1) the Eisenstein eigenvalue.  A squarefree kernel
    charpoly generates the whole (n - 1)-dimensional cuspidal Hecke algebra,
    which is a field exactly when the charpoly is irreducible.
    """
    N = coll.level
    primes = [p for p in oracles.primes_upto(coll.bound) if p != N][:4]
    x = sympy.Symbol("x")
    rng = random.Random(N)
    for _ in range(5):
        coeffs = [rng.randrange(1, 10) for _ in primes]
        T = sympy.zeros(coll.n, coll.n)
        for p, c in zip(primes, coeffs):
            T += c * sympy.Matrix(coll.matrix(p))
        eis = sum(c * (p + 1) for p, c in zip(primes, coeffs))
        kernel, rem = sympy.div(T.charpoly(x).as_expr(), x - eis, x)
        assert rem == 0
        _, factors = sympy.factor_list(kernel, x)
        if all(mult == 1 for _, mult in factors):
            return "field" if len(factors) == 1 else "product"
    raise AssertionError(f"no squarefree combination at level {N}")


def test_probe_verdicts_match_sympy_factorization():
    checked = 0
    for N in oracles.primes_upto(200):
        res = cached_analysis(N)
        if res.classes.n < 3:
            continue
        assert res.report.field_verdict == sympy_verdict(res.collection), N
        checked += 1
    assert checked == 38  # every prime 23 <= N <= 199


def test_runtime_does_not_import_sympy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(brandtkit.__file__)))
    # level 71 runs the charpoly path as well as the rho certificate
    code = ("import sys\n"
            "from brandtkit.analysis import analyze\n"
            "assert analyze(71).ok\n"
            "assert 'sympy' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
