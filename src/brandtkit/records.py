"""Cache records: lossless JSON snapshots of one level's computation.

Exact data stays exact: rational numbers are serialized as "p/q" strings,
Brandt matrices as integer arrays, floats formatted to 12 significant
digits.  Records are written with sorted keys so that identical inputs
produce byte-identical files apart from the generated_at line.
"""

import json
import os
import re
from fractions import Fraction
from itertools import chain

from .brandt import structural_checks
from .quatalg import is_prime
from .report import atkin_lehner_bound, exact_rho, theta_ranks
from .spectral import sturm_bound

SCHEMA_VERSION = 1
TOOL_VERSION = "0.1.0"


class MigrationError(RuntimeError):
    """Record written under a different schema; cannot be verified."""


def frac_str(x):
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"

def parse_frac(s):
    num, den = s.split("/")
    return Fraction(int(num), int(den))

def float_str(x):
    return "%.12g" % float(x)


def build_record(coll, spec, report, seed, generated_at, checks,
                 oracle_report=None):
    classes = coll.classes
    n = coll.n
    brandt = {str(m): [list(row) for row in B]
              for m, B in coll.matrices.items()}
    record = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "generated_at": generated_at,
        "level": coll.level,
        "class_number": n,
        "weights": list(classes.weights),
        "mass": frac_str(classes.mass()),
        "algebra": {"a": classes.order.alg.a, "b": classes.order.alg.b},
        "seed": seed,
        "coeff_bound": coll.bound,
        "ideal_bases": [{"den": I.den, "rows": [list(r) for r in I.mat]}
                        for I in classes.ideals],
        "b0": [[frac_str(x) for x in row] for row in coll.b0()],
        "brandt": brandt,
        "spectral": {
            "combo_primes": spec.combo["primes"],
            "combo_coeffs": spec.combo["coeffs"],
            "max_residual": float_str(spec.max_residual),
            "eisenstein_label": spec.eisenstein_index + 1,
            "eigenvectors": [[float_str(x) for x in f]
                             for f in spec.eigenvectors],
            "characters": [[float_str(x) for x in row]
                           for row in spec.characters],
            "tn_signs": list(spec.tn_signs),
        },
        "theta": {
            "dims": list(report.dims),
            "sigma_sets": [list(s) for s in report.sigma_sets],
            "rho": report.rho,
            "frobenius_fixed": list(report.frobenius_fixed),
            "field_verdict": report.field_verdict,
            "field_detail": report.field_detail,
            "hecke_conjecture": report.hecke_conjecture_holds,
        },
        "checks": [[name, bool(ok), detail] for name, ok, detail in checks],
        "oracle": oracle_report,
    }
    return record


def to_json(record):
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def write_record(record, path):
    """Write the record's text to path.  The text is made first and written
    to a temporary file beside path, which then replaces path in one rename:
    a record that cannot be serialized, or a write cut short, leaves the
    file at path as it was."""
    text = to_json(record)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.lexists(tmp):
            os.remove(tmp)


# the fields verify_record reads, as paths into the record
VERIFIED_FIELDS = ("level", "class_number", "weights", "mass", "coeff_bound",
                   "b0", "brandt", "theta.dims", "theta.sigma_sets",
                   "theta.rho", "spectral.tn_signs", "checks")


# "p/q" with q != 0, as frac_str writes it
_FRAC = re.compile(r"-?[0-9]+/0*[1-9][0-9]*")


def _is_int(x, least=None):
    # bool is an int subclass, but true is not a number in a record
    return type(x) is int and (least is None or x >= least)


def _is_frac(x):
    return isinstance(x, str) and _FRAC.fullmatch(x) is not None


def _is_list(x, n, entry):
    return isinstance(x, list) and len(x) == n and all(map(entry, x))


def _is_matrices(mats, n, kind):
    """Each of mats is an n x n list of lists with entries of type kind.
    Each test is one pass in C: the 36 stored records hold about 10^5
    matrix entries."""
    if set(map(type, mats)) != {list} or set(map(len, mats)) != {n}:
        return False
    rows = list(chain.from_iterable(mats))
    return (set(map(type, rows)) == {list} and set(map(len, rows)) == {n}
            and set(map(type, chain.from_iterable(rows))) == {kind})


def _check_values(record):
    """ValueError on the first field of VERIFIED_FIELDS whose value
    verify_record could not use."""
    n = record["class_number"]
    if not _is_int(n, 1):
        raise ValueError("class_number in the record is not a positive integer")
    theta, brandt, N = record["theta"], record["brandt"], record["level"]
    weights = _is_list(record["weights"], n, lambda w: _is_int(w, 1))
    # (N - 1)/12 = sum 1/w_i <= n for weights w_i >= 1, so N <= 12 n + 1.
    # n is bounded by the record's size once the weights are n entries,
    # and the bound comes before is_prime, so trial division stays short
    fields = [
        ("weights", weights, f"a list of {n} positive integers"),
        ("level", weights and _is_int(N) and N <= 12 * n + 1 and is_prime(N),
         f"a prime at most 12 n + 1 = {12 * n + 1}"),
        ("coeff_bound", _is_int(record["coeff_bound"], 1),
         "a positive integer"),
        ("mass", _is_frac(record["mass"]), 'a fraction "p/q"'),
        ("b0", _is_matrices([record["b0"]], n, str)
         and all(map(_FRAC.fullmatch, chain.from_iterable(record["b0"]))),
         f'a {n}x{n} matrix of fractions "p/q"'),
        ("brandt", isinstance(brandt, dict)
         and _is_matrices(brandt.values(), n, int),
         f"a map of {n}x{n} integer matrices"),
        ("theta.dims", _is_list(theta["dims"], n, _is_int),
         f"a list of {n} integers"),
        ("theta.sigma_sets", _is_list(
            theta["sigma_sets"], n,
            lambda s: isinstance(s, list) and all(map(_is_int, s))
            and all(a < b for a, b in zip([0] + s, s + [n + 1]))),
         f"a list of {n} strictly increasing lists of labels 1..{n}"),
        ("theta.rho", _is_int(theta["rho"]), "an integer"),
        ("spectral.tn_signs", _is_list(record["spectral"]["tn_signs"], n,
                                       lambda s: s is None or
                                       (_is_int(s) and abs(s) == 1))
         and record["spectral"]["tn_signs"].count(None) == 1,
         f"a list of {n} signs -1 or 1 and one null"),
        ("checks", isinstance(record["checks"], list) and all(
            isinstance(c, list) and len(c) == 3 and isinstance(c[0], str)
            and type(c[1]) is bool and isinstance(c[2], str)
            for c in record["checks"]),
         "a list of (name, bool, detail) triples"),
    ]
    for field, ok, want in fields:
        if not ok:
            raise ValueError(f"{field} in the record is not {want}")


def load_record(path):
    """The record at path; MigrationError on another schema, ValueError
    when the JSON nests too deeply to parse, when a field that
    verify_record reads is missing, misshapen or holds a value of the
    wrong type, or when coeff_bound is below the Sturm bound of the
    level."""
    with open(path) as fh:
        try:
            record = json.load(fh)
        except RecursionError:
            raise ValueError("record nests too deeply to parse") from None
    if not isinstance(record, dict):
        raise ValueError("record is not a JSON object")
    version = record.get("schema_version")
    if not _is_int(version) or version != SCHEMA_VERSION:
        raise MigrationError(
            f"record has schema {version!r}, "
            f"this tool reads schema {SCHEMA_VERSION}; regenerate the cache")
    for field in VERIFIED_FIELDS:
        value = record
        for key in field.split("."):
            if not isinstance(value, dict) or key not in value:
                raise ValueError(f"record lacks the field {field!r}")
            value = value[key]
    _check_values(record)
    bound = record["coeff_bound"]
    least = sturm_bound(record["level"])
    if bound < least:
        # the ranks of a shorter prefix are not the theta dimensions
        raise ValueError(f"record has coeff_bound {bound}, below the Sturm "
                         f"bound {least} of level {record['level']}")
    if bound > len(record["brandt"]):
        raise ValueError(f"record has {len(record['brandt'])} Brandt "
                         f"matrices for coeff_bound {bound}")
    # each key must be str(m) itself: int() would read "01" or "0_3" as
    # a stored m and leave the matrix under it unchecked.  (len, key)
    # orders decimal keys by value, so the smallest m is named
    want = {str(m) for m in (*range(1, bound + 1), record["level"])}
    stored = set(record["brandt"])
    if stored != want:
        m = min(stored ^ want, key=lambda k: (len(k), k))
        raise ValueError(f"record {'lacks' if m in want else 'has an extra'}"
                         f" Brandt matrix B({m})")
    return record


def verify_record(record):
    """Re-check every structural invariant from the stored data alone.

    The stored matrices go through the brandt-* battery that analyze runs;
    the other checks are of the stored fields.  No recomputation of
    lattices or enumeration happens here; the record must be
    self-consistent.  Returns a list of (name, ok, detail).
    """
    N = record["level"]
    n = record["class_number"]
    w = record["weights"]
    bound = record["coeff_bound"]
    brandt = {int(m): rows for m, rows in record["brandt"].items()}
    results = []

    def add(name, ok, detail):
        results.append((name, bool(ok), detail))

    mass = sum(Fraction(1, wi) for wi in w)
    add("mass-formula", mass == Fraction(N - 1, 12),
        f"sum 1/w = {mass}, (N-1)/12 = {Fraction(N - 1, 12)}")
    add("mass-field", parse_frac(record["mass"]) == mass, record["mass"])

    # each distinct string of a row is parsed once
    add("b0-entries",
        all(set(map(parse_frac, set(row))) == {Fraction(1, 2 * wi)}
            for row, wi in zip(record["b0"], w)),
        "entries 1/(2w_i)")

    results.extend(structural_checks(N, w, bound, brandt))

    series = [brandt[m] for m in range(1, bound + 1)]
    dims = theta_ranks(series, n)
    add("theta-dims", dims == record["theta"]["dims"],
        f"recomputed dims {dims}")

    sizes_ok = all(len(s) == d for s, d in
                   zip(record["theta"]["sigma_sets"], record["theta"]["dims"]))
    add("sigma-set-sizes", sizes_ok, "|Sigma(i)| = dim_i")

    rho = record["theta"]["rho"]
    bound_ok = all(ok for _, ok in atkin_lehner_bound(brandt[N], dims, rho))
    add("atkin-lehner-bound", bound_ok, f"rho={rho} against recomputed dims")

    tn = record["spectral"]["tn_signs"]
    add("rho-consistency",
        rho == sum(1 for s in tn if s == -1) and rho == exact_rho(brandt[N]),
        "rho matches stored T_N signs and (n - tr B(N))/2")

    add("stored-ledger", all(ok for _, ok, _ in record["checks"]),
        f"{len(record['checks'])} recorded checks")
    return results
