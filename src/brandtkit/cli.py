"""Command line front end.

    brandtkit analyze 37            full pipeline for one level
    brandtkit sweep 2 31            one summary row per prime level
    brandtkit verify <record.json>  re-check a cached record offline

Exit codes: 0 all checks pass, 1 a check failed or the computation stopped
on an internal consistency error, 2 usage or schema error.
"""

import argparse
import os
import sys

from .analysis import analyze
from .quatalg import ConsistencyError, ConstructionError, is_prime
from .records import (MigrationError, load_record, to_json, verify_record,
                      write_record)


def default_cache_dir():
    return os.path.join(os.path.expanduser("~"), ".cache", "brandtkit")


def _record_path(cache_dir, N):
    return os.path.join(cache_dir, f"level-{N}.json")


def _write_cache(record, cache_dir):
    try:
        os.makedirs(cache_dir, exist_ok=True)
        path = _record_path(cache_dir, record["level"])
        write_record(record, path)
        return path
    except OSError as err:
        print(f"warning: cache write failed: {err}", file=sys.stderr)
        return None


def _print_matrix(name, rows, out):
    width = max(len(str(x)) for row in rows for x in row)
    for i, row in enumerate(rows):
        label = name if i == 0 else " " * len(name)
        body = "  ".join(str(x).rjust(width) for x in row)
        print(f"  {label}  [{body}]", file=out)


def _render_analysis(res, out):
    rec = res.record
    N = rec["level"]
    print(f"level N = {N}", file=out)
    print(f"algebra (a, b) = ({rec['algebra']['a']}, {rec['algebra']['b']})",
          file=out)
    print(f"class number n = {rec['class_number']}, weights "
          f"{rec['weights']}, mass {rec['mass']}", file=out)
    print(file=out)
    _print_matrix("B(0) =", [row for row in rec["b0"]], out)
    shown = min(res.collection.bound, 5)
    for m in range(1, shown + 1):
        _print_matrix(f"B({m}) =", res.collection.matrices[m], out)
    if N > shown:
        _print_matrix(f"B({N}) =", res.collection.matrices[N], out)
    print(file=out)
    spec = res.spectral
    print("eigenforms (a_m for m = 1..%d):" % min(res.collection.bound, 10),
          file=out)
    for k in range(spec.n):
        kind = "eisenstein" if k == spec.eisenstein_index else \
            f"cuspidal, a_N = {spec.tn_signs[k]:+d}"
        coeffs = "  ".join("%g" % round(spec.character(k, m), 6)
                           for m in range(1, min(res.collection.bound, 10) + 1))
        print(f"  f{k + 1} ({kind}): {coeffs}", file=out)
    print(file=out)
    print("theta spaces:", file=out)
    for i in range(res.report.n):
        labels = ", ".join(f"f{k}" for k in res.report.sigma_sets[i])
        print(f"  Theta_{i + 1}: dim {res.report.dims[i]}  "
              f"basis {{{labels}}}", file=out)
    print(f"  rho = {res.report.rho}, level-fixed classes "
          f"{res.report.frobenius_fixed}, Hecke algebra probe: "
          f"{res.report.field_verdict} ({res.report.field_detail})", file=out)
    hc = "holds" if res.report.hecke_conjecture_holds else "FAILS"
    print(f"  theta conjecture (all dims = n): {hc}", file=out)
    if res.oracle_report:
        print(f"  geometric oracle: {res.oracle_report['j_count']} "
              f"supersingular j, {res.oracle_report['rational_count']} "
              "rational", file=out)
    print(file=out)
    print("checks:", file=out)
    for name, ok, detail in res.checks:
        mark = "ok " if ok else "FAIL"
        print(f"  [{mark}] {name}: {detail}", file=out)


def cmd_analyze(args):
    try:
        res = analyze(args.level, coeffs=args.coeffs, seed=args.seed,
                      oracle=args.oracle,
                      max_oracle_level=args.max_oracle_level)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ConsistencyError, ConstructionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    _write_cache(res.record, args.cache_dir)
    if args.json:
        sys.stdout.write(to_json(res.record))
    else:
        _render_analysis(res, sys.stdout)
    return 0 if res.ok else 1


def _sweep_level(N, args):
    """One level of `sweep`: analyze N, write its record and return
    (failed, row)."""
    try:
        res = analyze(N, coeffs=args.coeffs, seed=args.seed,
                      oracle=args.oracle,
                      max_oracle_level=args.max_oracle_level)
    except Exception as err:
        return True, f"{N:>5}  error: {err}"
    _write_cache(res.record, args.cache_dir)
    dims = ",".join(str(d) for d in res.report.dims)
    hc = "holds" if res.report.hecke_conjecture_holds else "FAILS"
    status = "" if res.ok else "  [checks failed]"
    return not res.ok, (f"{N:>5}  {res.report.n:>3}  {hc:<11}"
                        f"{res.report.rho:>4}  "
                        f"{res.report.field_verdict:<12}  {dims}{status}")


def cmd_sweep(args):
    """Each prime level is an independent computation, so the levels run in
    a pool of spawned workers, one per usable CPU, each taking the next
    level when free; rows print in ascending N as they complete.  A worker
    that dies without an exception (SIGKILL, the OOM killer) breaks the
    pool: the sweep stops with `error: a worker died at level N` and exit 1,
    keeping the rows printed and the records written so far.  However the
    sweep ends, the levels not yet started are cancelled."""
    if args.start > args.stop:
        print("error: empty range", file=sys.stderr)
        return 2
    header = (f"{'N':>5}  {'n':>3}  {'conjecture':<11}{'rho':>4}  "
              f"{'verdict':<12}  dims")
    print(header, flush=True)
    levels = [N for N in range(max(args.start, 2), args.stop + 1)
              if is_prime(N)]
    if not levels:
        return 0
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    # imported here: they cost about 15 ms, which analyze and verify skip
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context
    # spawn, not fork: workers start from a fresh import, whatever threads
    # or state the calling process holds, on every platform alike
    pool = ProcessPoolExecutor(min(len(levels), cpus),
                               mp_context=get_context("spawn"))
    failures = 0
    try:
        rows = pool.map(_sweep_level, levels, [args] * len(levels))
        for N in levels:
            try:
                failed, row = next(rows)
            except BrokenProcessPool:
                print(f"error: a worker died at level {N}", file=sys.stderr)
                return 1
            failures += failed
            print(row, flush=True)
    finally:
        pool.shutdown(cancel_futures=True)
    return 1 if failures else 0


def cmd_verify(args):
    try:
        record = load_record(args.path)
    except MigrationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as err:
        print(f"error: cannot read record: {err}", file=sys.stderr)
        return 2
    results = verify_record(record)
    for name, ok, detail in results:
        mark = "ok " if ok else "FAIL"
        print(f"[{mark}] {name}: {detail}")
    bad = [name for name, ok, _ in results if not ok]
    if bad:
        print(f"verification failed: {', '.join(bad)}", file=sys.stderr)
        return 1
    print(f"record for level {record['level']} verified")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="brandtkit",
        description="Brandt matrices, theta series and their eigenform bases "
                    "for prime levels")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--coeffs", type=int, default=None, metavar="M",
                       help="number of Brandt matrices (default: Sturm "
                            "bound + 2)")
        p.add_argument("--seed", type=int, default=0,
                       help="recorded in the record's seed field; changes "
                            "nothing else")
        p.add_argument("--cache-dir", default=default_cache_dir(),
                       help="directory for cached records")
        p.add_argument("--oracle", action="store_true",
                       help="run the supersingular point-counting "
                            "cross-check")
        p.add_argument("--max-oracle-level", type=int, default=100,
                       help="largest level the oracle will attempt")

    p = sub.add_parser("analyze", help="full computation for one prime level")
    p.add_argument("level", type=int)
    common(p)
    p.add_argument("--json", action="store_true",
                   help="print the machine-readable record")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="summary rows for a range of levels")
    p.add_argument("start", type=int)
    p.add_argument("stop", type=int)
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="re-check a cached record")
    p.add_argument("path")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): point stdout at devnull, so
        # that the flush at exit does not fail again, and exit 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
