import pytest

import brandtkit.brandt as brandt
import brandtkit.ideals as ideals
from brandtkit.analysis import analyze
from brandtkit.intmat import sparse_mul

import oracles

_cache = {}

# one "ACCEPTANCE k (...): PASS/FAIL" line per criterion, shown at the end
ACCEPTANCE_LINES = []


def cached_analysis(N, **kwargs):
    """One full pipeline run per (level, options), shared by all tests."""
    key = (N, tuple(sorted(kwargs.items())))
    if key not in _cache:
        _cache[key] = analyze(N, **kwargs)
    return _cache[key]


@pytest.fixture(scope="session")
def pipeline():
    return cached_analysis


@pytest.fixture
def product_calls(monkeypatch):
    """A list that grows by one for each matrix product made in
    brandtkit.brandt, all of which go through sparse_mul."""
    calls = []

    def counted(A, B):
        calls.append(1)
        return sparse_mul(A, B)

    monkeypatch.setattr(brandt, "sparse_mul", counted)
    return calls


@pytest.fixture
def is_equivalent_calls(monkeypatch):
    """A list that grows by one for each is_equivalent made in
    brandtkit.ideals.  Its one caller is ClassList.find, which serves the
    class walk and the B(N) read-off of brandtkit.brandt alike."""
    calls = []
    is_equivalent = ideals.is_equivalent

    def counted(I, J):
        calls.append(1)
        return is_equivalent(I, J)

    monkeypatch.setattr(ideals, "is_equivalent", counted)
    return calls


@pytest.fixture
def checked_equivalence(monkeypatch):
    """Every is_equivalent made in brandtkit.ideals is checked against the
    product test of oracles; the list holds the answers in order."""
    answers = []
    is_equivalent = ideals.is_equivalent

    def checked(I, J):
        got = is_equivalent(I, J)
        assert got == oracles.is_equivalent_by_product(I, J)
        answers.append(got)
        return got

    monkeypatch.setattr(ideals, "is_equivalent", checked)
    return answers


def pytest_runtest_logreport(report):
    if report.when != "call" or not report.failed:
        return
    name = report.nodeid.split("::")[-1]
    if not name.startswith("test_acceptance_"):
        return
    parts = name[len("test_acceptance_"):].split("_")
    ACCEPTANCE_LINES.append(
        f"ACCEPTANCE {int(parts[0])} ({' '.join(parts[1:])}): FAIL")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
