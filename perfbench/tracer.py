"""Span and counter tracing of brandtkit, done from outside the package.

install() replaces each traced public function in every brandtkit module
namespace that holds it, which is where its callers look it up, so the
package runs unchanged (analyze itself is traced, not re-implemented).
Spans and counters stay in memory; per_layer_metrics() turns them into
the benchmark's per-layer metrics.

A span is [name, start, end, parent index, operation id, child seconds].
The layer of a span is the part of its name before the first dot.  A
layer's self time is the time its spans cover minus the time their child
spans cover; its inclusive time is the time its outermost spans cover,
children included.
"""

import functools
import os
import sys
import weakref
from collections import Counter
from time import perf_counter

# Spans that start a new operation: one level analysed.  Every top-level
# span (one `brandtkit verify`, say) starts one as well.
OP_SPAN = "analysis.analyze"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._op = 0

    def wrap(self, name, fn, after=None):
        """fn traced as span `name`; after(result, args) updates counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is None or name == OP_SPAN:
                self._op += 1
                op = self._op
            else:
                op = self.spans[parent][4]
            index = len(self.spans)
            span = [name, 0.0, 0.0, parent, op, 0.0]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent][5] += span[2] - span[1]
            if after is not None:
                after(result, args)
            return result

        return traced


def count_only(fn, after):
    """fn without a span, but after(result, args) runs on each call."""

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(result, args)
        return result

    return counted


def _replace_everywhere(original, replacement):
    """Rebind original to replacement in every loaded brandtkit module."""
    for modname, module in list(sys.modules.items()):
        if modname != "brandtkit" and not modname.startswith("brandtkit."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer):
    """Trace the public functions of each brandtkit module."""
    import brandtkit.analysis as analysis
    import brandtkit.brandt as brandt
    import brandtkit.cli as cli
    import brandtkit.ideals as ideals
    import brandtkit.intmat as intmat
    import brandtkit.lattices as lattices
    import brandtkit.orders as orders
    import brandtkit.quatalg as quatalg
    import brandtkit.records as records
    import brandtkit.report as report
    import brandtkit.spectral as spectral
    import brandtkit.ssoracle as ssoracle

    c = tracer.counters

    def neighbours(result, args):
        c["ideals.neighbours"] += len(result)

    def equivalence(result, args):
        c["ideals.equiv_tests"] += 1
        c["ideals.equiv_matches"] += bool(result)

    def probe(result, args):
        c["report.probe_inconclusive"] += result[0] == "inconclusive"

    def written(result, args):
        c["records.bytes"] += os.path.getsize(args[1])

    functions = [
        (quatalg.construct_algebra, "orders.construct_algebra", None),
        (orders.maximal_order, "orders.maximal_order", None),
        (ideals.enumerate_classes, "ideals.walk", None),
        (ideals.p_neighbors, "ideals.neighbour", neighbours),
        (ideals.is_equivalent, "ideals.equiv", equivalence),
        (ideals.ideal_inverse, "ideals.inverse", None),
        (ideals.right_order, "ideals.right_order", None),
        (lattices.product_lattice, "lattices.product", None),
        (brandt.BrandtCollection, "brandt.collection", None),
        (brandt.structural_checks, "checks.structural", None),
        (spectral.eisenstein_exact_check, "checks.eisenstein", None),
        (intmat.mat_mul, "intmat.mat_mul", None),
        (intmat.exact_rank, "intmat.exact_rank", None),
        (intmat.charpoly, "intmat.charpoly", None),
        (spectral.eigendecompose, "spectral.eigendecompose", None),
        (spectral.jacobi_eigensystem, "spectral.jacobi", None),
        (report.build_report, "report.build", None),
        (report.hecke_field_probe, "report.probe", probe),
        (report.verify_expansion_identities, "report.expansion", None),
        (report.dim_theta_exact, "report.rank", None),
        (report.full_span_check, "report.rank", None),
        (records.build_record, "records.build", None),
        (records.load_record, "records.load", None),
        (records.verify_record, "records.verify", None),
        (ssoracle.cross_validate, "ssoracle.cross_validate", None),
        (analysis.analyze, OP_SPAN, None),
        (cli.main, "cli.main", None),
    ]
    for fn, name, after in functions:
        _replace_everywhere(fn, tracer.wrap(name, fn, after))
    # Writing the cache is counted but left in the cli layer's self time.
    _replace_everywhere(records.write_record,
                        count_only(records.write_record, written))

    # Vectors are counted once per (lattice, bound) actually enumerated.
    # Lattices are kept alive so that their ids stay unique.
    enumerated = {}

    def counted_to(result, args):
        lat, bound = args
        c["lattices.max_count_bound"] = max(c["lattices.max_count_bound"],
                                            bound)
        seen = enumerated.get(id(lat))
        if seen is None or bound > seen[1]:
            enumerated[id(lat)] = (lat, bound)
            c["lattices.vectors"] += sum(result.values())

    QuatLattice = lattices.QuatLattice
    QuatLattice.counts_up_to = tracer.wrap(
        "lattices.count", QuatLattice.counts_up_to, counted_to)
    QuatLattice.count_vectors = tracer.wrap(
        "lattices.count", QuatLattice.count_vectors)

    modules = weakref.WeakKeyDictionary()

    def translation(result, args):
        classes, i, j = args
        seen = modules.setdefault(classes, set())
        if (i, j) not in seen:
            seen.add((i, j))
            c["brandt.modules"] += 1

    ClassList = ideals.ClassList
    ClassList.translation_module = count_only(
        ClassList.translation_module, translation)


# per-layer metric -> how it is read off the spans and counters
SELF = {  # self time of every span of the layer
    "orders.s": "orders",
    "ideals.s": "ideals",
    "spectral.s": "spectral",
    "report.s": "report",
    "ssoracle.s": "ssoracle",
    "cli.self_s": "cli",
}
# time of the layer's outermost spans: BrandtCollection and the checks
# spend most of their time in lattices and intmat, which self time omits
LAYER_INCLUSIVE = {
    "brandt.s": "brandt",
    "checks.s": "checks",
}
INCLUSIVE = {  # time of the outermost spans of that name
    "ideals.neighbour_s": "ideals.neighbour",
    "ideals.equiv_s": "ideals.equiv",
    "ideals.inverse_s": "ideals.inverse",
    "ideals.right_order_s": "ideals.right_order",
    "lattices.count_s": "lattices.count",
    "lattices.product_s": "lattices.product",
    "intmat.mat_mul_s": "intmat.mat_mul",
    "intmat.exact_rank_s": "intmat.exact_rank",
    "intmat.charpoly_s": "intmat.charpoly",
    "spectral.jacobi_s": "spectral.jacobi",
    "report.probe_s": "report.probe",
    "report.expansion_s": "report.expansion",
    "report.rank_s": "report.rank",
    "records.build_s": "records.build",
    "records.load_s": "records.load",
    "records.verify_s": "records.verify",
}
CALLS = {  # number of outermost spans of that name
    "ideals.inverse_calls": "ideals.inverse",
    "lattices.count_calls": "lattices.count",
    "lattices.product_calls": "lattices.product",
    "intmat.mat_mul_calls": "intmat.mat_mul",
    "intmat.exact_rank_calls": "intmat.exact_rank",
    "spectral.jacobi_calls": "spectral.jacobi",
}
COUNTERS = ("ideals.neighbours", "ideals.equiv_tests", "ideals.equiv_matches",
            "lattices.vectors", "lattices.max_count_bound", "brandt.modules",
            "report.probe_inconclusive", "records.bytes")


def per_layer_metrics(spans, counters):
    self_time = Counter()
    layer_time = Counter()
    inclusive = Counter()
    calls = Counter()
    for name, start, end, parent, _op, child in spans:
        layer = name.split(".")[0]
        self_time[layer] += end - start - child
        if parent is None or spans[parent][0].split(".")[0] != layer:
            layer_time[layer] += end - start
        if parent is None or spans[parent][0] != name:
            inclusive[name] += end - start
            calls[name] += 1
    out = {}
    for metric, layer in SELF.items():
        out[metric] = self_time[layer]
    for metric, layer in LAYER_INCLUSIVE.items():
        out[metric] = layer_time[layer]
    for metric, name in INCLUSIVE.items():
        out[metric] = inclusive[name]
    for metric, name in CALLS.items():
        out[metric] = calls[name]
    for metric in COUNTERS:
        out[metric] = counters[metric]
    tests = counters["ideals.equiv_tests"]
    out["ideals.equiv_match_ratio"] = (
        counters["ideals.equiv_matches"] / tests if tests else 0.0)
    return out
