"""Spans around calls into the package's layers, installed from outside.

The package imports functions by name (``simhom.homology`` holds its own
reference to ``kernel_basis``), so ``install`` replaces a function in every
loaded ``simhom`` namespace that refers to it, and in ``verify.SUITES``;
methods are replaced on their class.  ``install`` returns the function
that puts every original back.  Only traced runs call it.

A span is ``[name, start, end, parent index, query id]``; spans stay in
memory until ``dump``.  A span's self time is its duration minus the
durations of its direct children.
"""

import gzip
import importlib
import json
import sys
import time

# (home module, attribute or Class.method, span name)
SPANS = [
    ("simhom.complex", "validate", "complex.validate"),
    ("simhom.complex", "manifold_check", "complex.manifold_check"),
    ("simhom.complex", "orient", "complex.orient"),
    ("simhom.complex", "barycentric_subdivide", "complex.subdivide"),
    ("simhom.chains", "ChainComplex.boundary", "chains.boundary"),
    ("simhom.chains", "induced_chain_map", "chains.induced_chain_map"),
    ("simhom.chains", "subdivision_chain_map", "chains.subdivision_map"),
    ("simhom.chains", "SubdivisionMap.matrix", "chains.subdivision_map"),
    ("simhom.exactlin", "kernel_basis", "exactlin.reduce"),
    ("simhom.exactlin", "image_basis", "exactlin.reduce"),
    ("simhom.exactlin", "pivot_columns", "exactlin.reduce"),
    ("simhom.exactlin", "rank", "exactlin.reduce"),
    ("simhom.exactlin", "Solver.__init__", "exactlin.solver_build"),
    ("simhom.exactlin", "Solver.solve", "exactlin.solve"),
    ("simhom.exactlin", "dense_inv", "exactlin.dense"),
    ("simhom.exactlin", "dense_mul", "exactlin.dense"),
    ("simhom.exactlin", "lp_feasible", "exactlin.lp"),
    ("simhom.homology", "compute_homology", "homology.compute"),
    ("simhom.homology", "compute_cohomology", "homology.compute"),
    ("simhom.homology", "GradedSpace.class_of", "homology.class_of"),
    ("simhom.homology", "induced_map", "homology.induced_map"),
    ("simhom.products", "cup", "products.cup"),
    ("simhom.products", "cap", "products.cap"),
    ("simhom.products", "cross", "products.tensor_ops"),
    ("simhom.products", "cup_on_product", "products.tensor_ops"),
    ("simhom.products", "cap_on_product", "products.tensor_ops"),
    ("simhom.products", "RingStructure.cup_basis", "products.cup_basis"),
    ("simhom.duality", "fundamental_class", "duality.fundamental"),
    ("simhom.duality", "duality_operator", "duality.operator"),
    ("simhom.duality", "DualityOperator.dual_basis", "duality.dual_basis"),
    ("simhom.duality", "transfers", "duality.transfers"),
    ("simhom.lefschetz", "lefschetz_class", "lefschetz.class"),
    ("simhom.lefschetz", "coefficient_extraction_table", "lefschetz.extraction"),
    ("simhom.lefschetz", "euler_data", "lefschetz.euler"),
    ("simhom.lefschetz", "coincidence_number", "lefschetz.coincidence"),
    ("simhom.lefschetz", "coincidence_witness", "lefschetz.witness"),
    ("simhom.cli", "main", "cli.render"),
]
SUITES = ["axioms", "subdivision", "products", "duality", "euler", "coincidence", "witness", "kunneth"]
SPANS += [("simhom.verify", f"suite_{s}", f"verify.suite.{s}") for s in SUITES]
# Wrapped to count calls only; their time stays in the caller's self time.
COUNTED = [("simhom.homology", "kronecker", "homology.kronecker_calls")]

SPAN_NAMES = list(dict.fromkeys(name for _, _, name in SPANS if not name.startswith("verify.")))


def _nnz(m):
    return len(getattr(m, "entries", ()))


def _count_reduce(tracer, args, result):
    m = args[0]
    c = tracer.counters
    c["exactlin.reduce_rows"] += m.rows
    c["exactlin.reduce_cols"] += m.cols
    c["exactlin.reduce_nnz_in"] += _nnz(m)


def _count_boundary(tracer, args, result):
    # a boundary matrix counts once, however often its cache hands it out
    if id(result) not in tracer.seen:
        tracer.seen[id(result)] = result
        tracer.counters["chains.boundary_nnz"] += _nnz(result)


def _count_lp(tracer, args, result):
    tracer.counters["exactlin.lp_feasible"] += result is not None


def _count_witness(tracer, args, result):
    tracer.counters["lefschetz.witness_found"] += result[1] == "found"


def _count_checks(tracer, args, result):
    tracer.counters["verify.checks"] += len(result)


COUNTERS = {
    "exactlin.reduce": _count_reduce,
    "chains.boundary": _count_boundary,
    "exactlin.lp": _count_lp,
    "lefschetz.witness": _count_witness,
}


COUNTER_KEYS = (
    "exactlin.reduce_rows",
    "exactlin.reduce_cols",
    "exactlin.reduce_nnz_in",
    "chains.boundary_nnz",
    "exactlin.lp_feasible",
    "lefschetz.witness_found",
    "verify.checks",
    "homology.kronecker_calls",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = dict.fromkeys(COUNTER_KEYS, 0)
        self.seen = {}
        self.query = None

    def span(self, name, fn, count=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.query]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def report(self):
        """Per-layer calls, self times and counters of everything traced."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {f"{n}_{k}": 0 for n in SPAN_NAMES for k in ("calls", "self_s")}
        out.update({f"verify.suite.{s}_s": 0.0 for s in SUITES})
        out.update(self.counters)
        misses = 0
        self_total = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            self_time = end - start - child[i]
            self_total += self_time
            if name.startswith("verify.suite."):
                out[name + "_s"] += end - start
            else:
                out[name + "_calls"] += 1
                out[name + "_self_s"] += self_time
            if name == "products.cup" and parent >= 0 and self.spans[parent][0] == "products.cup_basis":
                misses += 1
        out["products.cup_basis_misses"] = misses
        out["self_total_s"] = self_total
        out["spans"] = len(self.spans)
        return out

    def dump(self, path):
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, query in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "query": query}))
                fh.write("\n")


def _resolve(module, attr):
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(mod, cls_name), meth
    return mod, attr


def originals():
    """Every (owner, attribute) the tracer may replace, with its current value."""
    out = []
    for module, attr, _ in SPANS + COUNTED:
        owner, name = _resolve(module, attr)
        out.append((owner, name, getattr(owner, name)))
    return out


def install(tracer):
    """Wrap every target in every simhom namespace; return the undo function."""
    targets = [(_resolve(module, attr), span) for module, attr, span in SPANS + COUNTED]
    suites = sys.modules["simhom.verify"].SUITES
    namespaces = [m for k, m in sys.modules.items() if k == "simhom" or k.startswith("simhom.")]
    undo = []

    def replace(owner, name, new):
        undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    for (owner, name), span in targets:
        fn = getattr(owner, name)
        if span.endswith("_calls"):
            wrapper = tracer.counted(span, fn)
        else:
            count = _count_checks if span.startswith("verify.") else COUNTERS.get(span)
            wrapper = tracer.span(span, fn, count)
        if isinstance(owner, type):
            replace(owner, name, wrapper)
            continue
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is fn:
                    replace(ns, key, wrapper)
        for key, value in list(suites.items()):
            if value is fn:
                undo.append((suites, key, value))
                suites[key] = wrapper

    def restore():
        for owner, name, value in reversed(undo):
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)

    return restore
