"""One-call pipeline: algebra -> order -> classes -> Brandt -> spectrum
-> theta report -> record."""

from datetime import datetime, timezone

from .brandt import BrandtCollection, structural_checks
from .ideals import enumerate_classes
from .orders import maximal_order
from .quatalg import construct_algebra, is_prime
from .records import build_record
from .report import build_report
from .spectral import eigendecompose, eisenstein_exact_check, sturm_bound
from .ssoracle import cross_validate


class AnalysisResult:
    """Everything one level produces, plus the serializable record."""

    def __init__(self, classes, coll, spec, report, oracle_report, checks,
                 record):
        self.classes = classes
        self.collection = coll
        self.spectral = spec
        self.report = report
        self.oracle_report = oracle_report
        self.checks = checks
        self.record = record

    @property
    def level(self):
        return self.classes.level

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.checks)


def analyze(N, coeffs=None, seed=0, oracle=False, max_oracle_level=100):
    """Run the full computation for one prime level.

    coeffs is the number of Brandt matrices to keep (default: Sturm bound
    plus two); the level matrix B(N) is always included.  When oracle is
    set and N is within range, the supersingular point-counting
    cross-check runs as well.
    """
    if not is_prime(N):
        raise ValueError(f"level {N} is not prime")
    bound = coeffs if coeffs is not None else sturm_bound(N) + 2
    if bound < sturm_bound(N):
        raise ValueError(
            f"need at least {sturm_bound(N)} coefficients for level {N}")

    alg = construct_algebra(N)
    order = maximal_order(alg)
    classes = enumerate_classes(order)
    coll = BrandtCollection(classes, bound)

    checks = structural_checks(coll.level, coll.weights, coll.bound,
                               {m: coll.matrix(m) for m in coll.available()})
    checks.append(("eisenstein-exact",) + eisenstein_exact_check(coll))
    spec = eigendecompose(coll, seed=seed)
    report = build_report(coll, spec)
    checks.extend(report.checks)

    oracle_report = None
    if oracle and N <= max_oracle_level:
        oracle_report = cross_validate(classes, coll)
        checks.append(("supersingular-oracle", True,
                       f"{oracle_report['j_count']} j-invariants matched"))

    generated_at = datetime.now(timezone.utc).isoformat()
    record = build_record(coll, spec, report, seed, generated_at, checks,
                          oracle_report=oracle_report)
    return AnalysisResult(classes, coll, spec, report, oracle_report, checks,
                          record)
