"""Cache records: lossless JSON snapshots of one level's computation.

Exact data stays exact: rational numbers are serialized as "p/q" strings,
Brandt matrices as integer arrays, floats formatted to 12 significant
digits.  Records are written with sorted keys so that identical inputs
produce byte-identical files apart from the generated_at line.
"""

import json
from fractions import Fraction

from .brandt import structural_checks
from .report import exact_rho, theta_rank

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


def build_record(coll, spec, report, seed, generated_at, oracle_report=None,
                 checks=None):
    classes = coll.classes
    n = coll.n
    brandt = {str(m): [list(row) for row in coll.matrix(m)]
              for m in coll.available()}
    record = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "generated_at": generated_at,
        "level": coll.level,
        "class_number": n,
        "weights": list(classes.weights),
        "mass": frac_str(classes.mass()),
        "algebra": {"a": classes.order.lattice.alg.a,
                    "b": classes.order.lattice.alg.b},
        "seed": seed,
        "coeff_bound": coll.bound,
        "ideal_bases": [{"den": I.lattice.den,
                         "rows": [list(r) for r in I.lattice.mat]}
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
        "checks": [[name, bool(ok), detail] for name, ok, detail in
                   (checks if checks is not None else report.checks)],
        "oracle": oracle_report,
    }
    return record


def to_json(record):
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def write_record(record, path):
    with open(path, "w") as fh:
        fh.write(to_json(record))


# the fields verify_record reads, as paths into the record
VERIFIED_FIELDS = ("level", "class_number", "weights", "mass", "coeff_bound",
                   "b0", "brandt", "theta.dims", "theta.sigma_sets",
                   "theta.rho", "spectral.tn_signs", "checks")


def load_record(path):
    """The record at path; MigrationError on another schema, ValueError
    when a field that verify_record reads is missing or misshapen."""
    with open(path) as fh:
        record = json.load(fh)
    if record.get("schema_version") != SCHEMA_VERSION:
        raise MigrationError(
            f"record has schema {record.get('schema_version')!r}, "
            f"this tool reads schema {SCHEMA_VERSION}; regenerate the cache")
    for field in VERIFIED_FIELDS:
        value = record
        for key in field.split("."):
            if not isinstance(value, dict) or key not in value:
                raise ValueError(f"record lacks the field {field!r}")
            value = value[key]
    n = record["class_number"]
    want = {*range(1, record["coeff_bound"] + 1), record["level"]}
    stored = {int(m) for m in record["brandt"]}
    if stored != want:
        m = min(stored ^ want)
        raise ValueError(f"record {'lacks' if m in want else 'has an extra'}"
                         f" Brandt matrix B({m})")
    if len(record["weights"]) != n:
        raise ValueError(f"record has {len(record['weights'])} weights "
                         f"for {n} classes")
    for m, B in [("0", record["b0"]), *record["brandt"].items()]:
        if len(B) != n or any(len(row) != n for row in B):
            raise ValueError(f"B({m}) in the record is not {n}x{n}")
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

    b0 = [[parse_frac(x) for x in row] for row in record["b0"]]
    add("b0-entries",
        all(b0[i][j] == Fraction(1, 2 * w[i])
            for i in range(n) for j in range(n)),
        "entries 1/(2w_i)")

    results.extend(structural_checks(N, w, bound, brandt))

    series = [brandt[m] for m in range(1, bound + 1)]
    dims = [theta_rank(series, n, i) for i in range(n)]
    add("theta-dims", dims == record["theta"]["dims"],
        f"recomputed dims {dims}")

    sizes_ok = all(len(s) == d for s, d in
                   zip(record["theta"]["sigma_sets"], record["theta"]["dims"]))
    add("sigma-set-sizes", sizes_ok, "|Sigma(i)| = dim_i")

    rho = record["theta"]["rho"]
    bound_ok = all(n - dims[i] >= rho
                   for i in range(n) if brandt[N][i][i] == 1)
    add("atkin-lehner-bound", bound_ok, f"rho={rho} against recomputed dims")

    tn = record["spectral"]["tn_signs"]
    add("rho-consistency",
        rho == sum(1 for s in tn if s == -1) and rho == exact_rho(brandt[N]),
        "rho matches stored T_N signs and (n - tr B(N))/2")

    add("stored-ledger", all(ok for _, ok, _ in record["checks"]),
        f"{len(record['checks'])} recorded checks")
    return results
