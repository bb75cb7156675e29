import copy
import json
import multiprocessing
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from brandtkit.analysis import analyze
from brandtkit.cli import _sweep_level, build_parser, main
from brandtkit.quatalg import ConsistencyError, ConstructionError
from brandtkit.records import (MigrationError, float_str, frac_str,
                               load_record, parse_frac, to_json,
                               verify_record, write_record)
from brandtkit.report import theta_ranks
from conftest import cached_analysis

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def test_frac_and_float_formatting():
    assert frac_str(Fraction(5, 6)) == "5/6"
    assert frac_str(3) == "3/1"
    assert parse_frac("5/6") == Fraction(5, 6)
    assert float_str(0.5) == "0.5"
    assert float_str(1.0 / 3.0) == "0.333333333333"


def test_record_roundtrip(tmp_path):
    record = cached_analysis(11).record
    path = tmp_path / "level-11.json"
    write_record(record, path)
    assert load_record(path) == json.loads(to_json(record))


def test_failed_write_keeps_the_old_record(tmp_path):
    path = tmp_path / "level-11.json"
    write_record(cached_analysis(11).record, path)
    before = path.read_text()
    with pytest.raises(TypeError):
        write_record({"x": {1}}, path)
    assert path.read_text() == before
    assert os.listdir(tmp_path) == ["level-11.json"]


def test_verify_record_passes():
    record = json.loads(to_json(cached_analysis(11).record))
    results = verify_record(record)
    assert len(results) == 16
    assert all(ok for _, ok, _ in results), results
    assert [name for name, _, _ in results
            if name.startswith("brandt-")] == \
        [name for name, _, _ in cached_analysis(11).checks
         if name.startswith("brandt-")]


def test_verify_detects_corruption():
    record = copy.deepcopy(json.loads(to_json(cached_analysis(11).record)))
    record["brandt"]["2"][0][0] += 1
    failed = {name for name, ok, _ in verify_record(record) if not ok}
    assert failed & {"brandt-weighted-symmetry", "brandt-column-sums"}


def test_verify_replays_hecke_recursion():
    record = copy.deepcopy(json.loads(to_json(cached_analysis(37).record)))
    record["brandt"]["4"][0][0] += 1
    failed = {name for name, ok, _ in verify_record(record) if not ok}
    assert "brandt-hecke-recursion" in failed


def test_verify_replays_commutativity_certificate():
    record = copy.deepcopy(json.loads(to_json(cached_analysis(37).record)))
    record["brandt"]["6"][0][0] += 1
    failed = {name for name, ok, _ in verify_record(record) if not ok}
    assert "brandt-commutativity" in failed


def test_verify_replays_exact_rho():
    # rho and the signs moved together still disagree with (n - tr B(N))/2
    record = copy.deepcopy(json.loads(to_json(cached_analysis(37).record)))
    assert record["theta"]["rho"] == 1
    record["theta"]["rho"] = 0
    record["spectral"]["tn_signs"] = [1 if s == -1 else s for s in
                                      record["spectral"]["tn_signs"]]
    failed = {name for name, ok, _ in verify_record(record) if not ok}
    assert failed == {"rho-consistency"}


def test_verify_detects_dim_tampering():
    record = copy.deepcopy(json.loads(to_json(cached_analysis(11).record)))
    record["theta"]["dims"][0] = 1
    failed = {name for name, ok, _ in verify_record(record) if not ok}
    assert "theta-dims" in failed


def test_schema_mismatch_raises(tmp_path):
    record = copy.deepcopy(cached_analysis(11).record)
    record["schema_version"] = 999
    path = tmp_path / "future.json"
    write_record(record, path)
    with pytest.raises(MigrationError):
        load_record(path)
    assert main(["verify", str(path)]) == 2


@pytest.mark.parametrize("version", [True, 1.0])
def test_schema_version_must_be_an_int(version, tmp_path):
    # true == 1.0 == 1 in Python, but neither is the integer schema 1
    record = json.loads(to_json(cached_analysis(11).record))
    record["schema_version"] = version
    path = tmp_path / "version.json"
    write_record(record, path)
    with pytest.raises(MigrationError):
        load_record(path)
    assert main(["verify", str(path)]) == 2


@pytest.mark.parametrize("missing", ["brandt", "brandt-2"])
def test_verify_malformed_record_exits_2(missing, tmp_path, capsys):
    record = json.loads(to_json(cached_analysis(11).record))
    if missing == "brandt":
        del record["brandt"]
    else:
        del record["brandt"]["2"]
    path = tmp_path / "malformed.json"
    write_record(record, path)
    with pytest.raises(ValueError):
        load_record(path)
    assert main(["verify", str(path)]) == 2
    assert "cannot read record" in capsys.readouterr().err


@pytest.mark.parametrize("path, value", [
    ("theta.dims", None),
    ("theta.sigma_sets", 5),
    ("spectral.tn_signs", None),
    ("weights.0", 0),
    ("mass", "abc"),
    ("b0.0.0", "1/0"),
    ("brandt.2.0.0", "1"),
    ("coeff_bound", "5"),
    ("checks", [[1]]),
    ("theta.sigma_sets.1.0", 0),
    ("theta.sigma_sets.1.2", 4),
    ("theta.sigma_sets.1.1", 1),
    ("spectral.tn_signs.0", 0),
    ("spectral.tn_signs.0", 43),
    ("spectral.tn_signs.0", None),
])
def test_verify_bad_value_exits_2(path, value, tmp_path):
    record = json.loads(to_json(cached_analysis(37).record))
    *keys, last = path.split(".")
    target = record
    for key in keys:
        target = target[int(key) if isinstance(target, list) else key]
    target[int(last) if isinstance(target, list) else last] = value
    bad = tmp_path / "bad-value.json"
    write_record(record, bad)
    with pytest.raises(ValueError):
        load_record(bad)
    _assert_verify_exits_2_in_child(bad)


@pytest.mark.parametrize("moved, message", [
    (False, r"has an extra Brandt matrix B\(01\)"),
    (True, r"lacks Brandt matrix B\(3\)"),
], ids=["extra-01", "3-moved-to-0_3"])
def test_verify_refuses_a_brandt_key_other_than_str_m(moved, message,
                                                      tmp_path):
    # int() reads "01" as 1 and "0_3" as 3, so an all-7 B("01") and a B(3)
    # stored under "0_3" passed load_record unchecked
    record = json.loads(to_json(cached_analysis(37).record))
    n = record["class_number"]
    record["brandt"]["01"] = [[7] * n for _ in range(n)]
    if moved:
        record["brandt"]["0_3"] = record["brandt"].pop("3")
    bad = tmp_path / "bad-key.json"
    write_record(record, bad)
    with pytest.raises(ValueError, match=message):
        load_record(bad)
    _assert_verify_exits_2_in_child(bad)


def test_verify_deeply_nested_json_exits_2(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    with pytest.raises(ValueError):
        load_record(deep)
    _assert_verify_exits_2_in_child(deep)


def _assert_verify_exits_2_in_child(path):
    # in a child process, so that an escaped exception shows as a traceback
    proc = subprocess.run(
        [sys.executable, "-m", "brandtkit.cli", "verify", str(path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC_DIR})
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "cannot read record" in proc.stderr


def test_verify_refuses_a_bound_below_sturm(tmp_path, capsys):
    # the 101 record cut to B(1), B(2) and B(101), with dims set to the
    # ranks of that 2-coefficient prefix (the theta dimensions are 8 and 9)
    # and the Sigma sets cut to match: every check passes on it, but its
    # dims are ranks of truncated series
    record = json.loads(to_json(cached_analysis(101).record))
    n = record["class_number"]
    record["coeff_bound"] = 2
    record["brandt"] = {m: record["brandt"][m] for m in ("1", "2", "101")}
    series = [record["brandt"]["1"], record["brandt"]["2"]]
    record["theta"]["dims"] = dims = theta_ranks(series, n)
    assert dims == [2] * n
    record["theta"]["sigma_sets"] = [s[:2] for s in
                                     record["theta"]["sigma_sets"]]
    assert all(ok for _, ok, _ in verify_record(record))
    path = tmp_path / "truncated.json"
    write_record(record, path)
    with pytest.raises(ValueError, match="below the Sturm bound 18"):
        load_record(path)
    assert main(["verify", str(path)]) == 2
    assert "cannot read record" in capsys.readouterr().err


def test_old_tool_version_record_verifies(capsys):
    path = os.path.join(DATA_DIR, "record-tool-0-0-9.json")
    record = load_record(path)
    assert record["tool_version"] == "0.0.9"
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "record for level 11 verified" in out


def test_cli_analyze_rejects_composite(capsys):
    assert main(["analyze", "12", "--cache-dir", "/tmp/brandtkit-unused"]) == 2
    assert "not prime" in capsys.readouterr().err


def test_cli_analyze_rejects_short_prefix(tmp_path, capsys):
    code = main(["analyze", "11", "--coeffs", "2",
                 "--cache-dir", str(tmp_path)])
    assert code == 2
    assert "at least 3 coefficients" in capsys.readouterr().err


@pytest.mark.parametrize("error", [ConsistencyError, ConstructionError])
def test_cli_analyze_internal_errors_exit_1(error, monkeypatch, tmp_path,
                                            capsys):
    def fail(*args, **kwargs):
        raise error("injected failure")

    monkeypatch.setattr("brandtkit.cli.analyze", fail)
    assert main(["analyze", "11", "--cache-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: injected failure\n"
    assert not list(tmp_path.iterdir())


def test_cli_analyze_level_11(tmp_path, capsys):
    code = main(["analyze", "11", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "level N = 11" in out
    assert "class number n = 2" in out
    assert "theta spaces:" in out
    assert "theta conjecture (all dims = n): holds" in out
    assert "[ok ]" in out and "[FAIL" not in out
    cached = tmp_path / "level-11.json"
    assert cached.exists()
    assert main(["verify", str(cached)]) == 0


def test_cli_analyze_json_output(tmp_path, capsys):
    code = main(["analyze", "37", "--json", "--cache-dir", str(tmp_path)])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["level"] == 37
    assert record["class_number"] == 3
    assert record["theta"]["hecke_conjecture"] is False
    assert sorted(record["theta"]["dims"]) == [2, 3, 3]


def test_cli_analyze_with_oracle(tmp_path, capsys):
    code = main(["analyze", "11", "--oracle", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "geometric oracle: 2 supersingular j" in out
    record = json.loads((tmp_path / "level-11.json").read_text())
    assert record["oracle"]["j_count"] == 2


SWEEP_HEADER = "    N    n  conjecture  rho  verdict       dims"


def test_cli_sweep(tmp_path, capsys):
    code = main(["sweep", "11", "13", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert any(line.strip().startswith("11 ") for line in lines)
    assert any(line.strip().startswith("13 ") for line in lines)
    assert not any(line.strip().startswith("12") for line in lines)
    assert (tmp_path / "level-11.json").exists()
    assert (tmp_path / "level-13.json").exists()
    assert not multiprocessing.active_children()


def test_sweep_rows_line_up_with_the_header(tmp_path):
    # the dims string grows with n (23 characters at 107, 35 at 131), so
    # it is the last column, and the fixed ones keep the header's offsets:
    # N, n and rho end where their headings end, the others start there
    args = build_parser().parse_args(
        ["sweep", "107", "131", "--cache-dir", str(tmp_path)])
    heads = [m.span() for m in re.finditer(r"\S+", SWEEP_HEADER)]
    for N, width in ((107, 23), (131, 35)):
        failed, row = _sweep_level(N, args)
        assert not failed
        cells = [m.span() for m in re.finditer(r"\S+", row)]
        assert len(cells) == len(heads) == 6
        assert cells[-1][1] - cells[-1][0] == width
        for k in (0, 1, 3):
            assert cells[k][1] == heads[k][1], (N, k)
        for k in (2, 4, 5):
            assert cells[k][0] == heads[k][0], (N, k)


def test_cli_sweep_rows_and_failures_in_level_order(tmp_path, capsys):
    # with three coefficients the levels from 17 on stop at the Sturm
    # bound; their rows still come in order, between the other workers'
    code = main(["sweep", "2", "40", "--coeffs", "3", "--cache-dir",
                 str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert not multiprocessing.active_children()
    assert lines[0] == SWEEP_HEADER
    good = [2, 3, 5, 7, 11, 13]
    bad = [17, 19, 23, 29, 31, 37]
    assert [int(line.split()[0]) for line in lines[1:]] == good + bad
    for line in lines[1:len(good) + 1]:
        assert "error" not in line
    for line in lines[len(good) + 1:]:
        assert "  error: need at least " in line and " coefficients" in line
    assert sorted(os.listdir(tmp_path)) == sorted(
        f"level-{N}.json" for N in good)


def test_cli_sweep_without_primes_prints_the_header(tmp_path, capsys):
    assert main(["sweep", "24", "28", "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == SWEEP_HEADER + "\n"
    assert not multiprocessing.active_children()
    assert not os.listdir(tmp_path)



KILL_ONE_WORKER = """
import multiprocessing, os, signal, sys, threading, time
from brandtkit.cli import main

def kill_one_worker(cache_dir):
    while not os.listdir(cache_dir):
        time.sleep(0.01)
    os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)

threading.Thread(target=kill_one_worker, args=(sys.argv[1],),
                 daemon=True).start()
sys.exit(main(["sweep", "2", "139", "--cache-dir", sys.argv[1]]))
"""


def test_cli_sweep_stops_when_a_worker_dies(tmp_path):
    # a worker killed without an exception (SIGKILL, the OOM killer) in the
    # middle of the sweep ends it with an error and exit 1, not a hang
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", KILL_ONE_WORKER,
         str(tmp_path)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC_DIR})
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert re.search(r"^error: a worker died at level \d+$", proc.stderr,
                     re.MULTILINE), proc.stderr


def _cli(*argv):
    # block-buffered stdout, as when a user pipes the output
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    env.pop("PYTHONUNBUFFERED", None)
    return [sys.executable, "-X", "dev", "-W", "error", "-m", "brandtkit.cli",
            *argv], env


def test_cli_closed_stdout_exits_1_without_a_traceback(tmp_path):
    # `sweep 2 139 | head -1`: the reader goes after the header, and the
    # sweep stops after the levels already running
    cmd, env = _cli("sweep", "2", "139", "--cache-dir", str(tmp_path / "s"))
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == SWEEP_HEADER + "\n"
    proc.stdout.close()
    stderr = proc.communicate(timeout=60)[1]
    assert proc.returncode == 1
    assert "Traceback" not in stderr and "Exception" not in stderr, stderr
    assert len(os.listdir(tmp_path / "s")) < 34
    # `analyze` into a pipe that is closed before the first write
    cmd, env = _cli("analyze", "37", "--cache-dir", str(tmp_path / "a"))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(cmd, env=env, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "Exception" not in proc.stderr, proc.stderr


def test_cli_sweep_empty_range(capsys):
    assert main(["sweep", "5", "3"]) == 2
    assert "empty range" in capsys.readouterr().err


def test_cli_sweep_refuses_json(capsys):
    # sweep prints summary rows only; --json belongs to analyze
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "2", "7", "--json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_cli_verify_missing_file(capsys):
    assert main(["verify", "/nonexistent/record.json"]) == 2
    assert "cannot read record" in capsys.readouterr().err


def test_records_deterministic_for_fixed_seed():
    a = analyze(37, seed=42).record
    b = analyze(37, seed=42).record

    def strip(rec):
        rec = dict(rec)
        rec.pop("generated_at")
        return rec

    assert to_json(strip(a)) == to_json(strip(b))
