"""Workload generator: the seed and a pass number in, program inputs out.

Every pass of a run gets its own input files, written under the pass
directory by ``Workload.make_pass``.  The same (workload, seed, pass)
always gives byte-identical files and the same query list.  Each query
parses its own inputs, so no two queries share a program object: the
catalog's ``lru_cache`` is never consulted, and ``verify``'s module caches
live only as long as the one interpreter that answers a pass.

Why each workload exists (the layers it stresses) is stated in ``WHY``.
"""

import json
import os
import random
from itertools import combinations, permutations

from oracle import load_json

WHY = {
    "sd_surfaces": "CLI duality and lefschetz on subdivided surfaces; exact elimination dominates",
    "catalog_queries": "174 CLI queries over the catalog; Betti-sized algebra, class extraction and parsing dominate",
    "verify_suites": "simhom verify suite by suite in a fresh interpreter; the user-facing acceptance gate",
}

# Catalog surfaces subdivided once for sd_surfaces.  Elimination cost moves
# with the vertex order, so a run averages over one relabeling per pass;
# Sd^2 inputs (about 1.5 s a query) would leave too few passes in a run.
SD_SURFACES = ["octahedron", "icosahedron", "torus", "torus7", "genus2"]
# Passes every run makes, whatever the time budget; kept low enough that a
# run on a host at half speed still ends close to its time budget.
MIN_PASSES = {"sd_surfaces": 4, "catalog_queries": 3, "verify_suites": 4}


def _dump(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ":"))


def subdivide(cx):
    """Barycentric subdivision of a complex file: one vertex per face."""
    faces = set()
    for s in cx["maximal_simplices"]:
        for r in range(1, len(s) + 1):
            faces.update(frozenset(f) for f in combinations(s, r))
    order = {v: i for i, v in enumerate(cx["vertex_order"])}
    ranked = sorted(faces, key=lambda f: (len(f), sorted(order[v] for v in f)))
    name = {f: f"b{k}" for k, f in enumerate(ranked)}
    flags = []
    for s in cx["maximal_simplices"]:
        for perm in permutations(s):
            flags.append([name[frozenset(perm[: r + 1])] for r in range(len(perm))])
    verts = [name[f] for f in ranked]
    return {
        "name": f"Sd({cx['name']})",
        "vertices": verts,
        "vertex_order": verts,
        "maximal_simplices": flags,
    }


def relabel(cx, rng, prefix):
    """Rename the vertices at random and shuffle the vertex order.

    Returns the new complex and the old-name -> new-name table.
    """
    old = list(cx["vertex_order"])
    new = [f"{prefix}{k}" for k in range(len(old))]
    rng.shuffle(new)
    table = dict(zip(old, new))
    order = [table[v] for v in old]
    rng.shuffle(order)
    simplices = [[table[v] for v in s] for s in cx["maximal_simplices"]]
    for s in simplices:
        rng.shuffle(s)
    rng.shuffle(simplices)
    out = {
        "name": cx["name"],
        "vertices": sorted(order),
        "vertex_order": order,
        "maximal_simplices": simplices,
    }
    return out, table


class Workload:
    """One query list per pass; ``tail_percentile`` is fixed per workload.

    ``min_passes`` passes always run, and the tail percentile is the
    highest one that still leaves at least 10 of the queries of
    ``min_passes`` passes beyond it.  It sits in the middle of the m-th
    slowest of the n queries of a pass, so it reads the same query
    whatever the number of passes.
    """

    def __init__(self, name, seed):
        if name not in WHY:
            raise KeyError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.catalog = load_json("catalog.json")
        self.expected = load_json("expected.json")
        self.min_passes = MIN_PASSES[name]
        n = len(self.queries_for_pass(None, 0))
        m = 1
        while (m - 0.5) * self.min_passes < 10:
            m += 1
        self.queries_per_pass = n
        self.tail_percentile = 100.0 * (1 - (m - 0.5) / n)

    def rng(self, pass_no):
        return random.Random(f"{self.name}:{self.seed}:{pass_no}")

    def make_pass(self, pass_no, passdir):
        """Write the inputs of one pass and return its query list."""
        os.makedirs(passdir, exist_ok=True)
        return self.queries_for_pass(passdir, pass_no)

    def queries_for_pass(self, passdir, pass_no):
        return getattr(self, "_" + self.name)(passdir, self.rng(pass_no))

    # -- the three workloads ------------------------------------------------

    def _sd_surfaces(self, passdir, rng):
        queries = []
        for base in SD_SURFACES:
            cx, _ = relabel(subdivide(self.catalog["complexes"][base]), rng, "s")
            fname = f"{base}_sd1.json"
            if passdir is not None:
                _dump(os.path.join(passdir, fname), cx)
            exp = self.expected["complexes"][base]
            for cmd in ("duality", "lefschetz"):
                queries.append({
                    "key": f"{cmd} {base} sd1",
                    "argv": [cmd, fname, "--json"],
                    "expect": {"exit": 0, "betti": exp["betti"], "chi": exp["chi"]},
                })
        rng.shuffle(queries)
        return queries

    def _catalog_queries(self, passdir, rng):
        cat, exp = self.catalog, self.expected
        tables = {}
        for name in sorted(cat["complexes"]):
            cx, tables[name] = relabel(cat["complexes"][name], rng, "v")
            if passdir is not None:
                _dump(os.path.join(passdir, f"{name}.json"), cx)
        for name in sorted(cat["maps"]):
            m = cat["maps"][name]
            dom, cod = tables[m["domain"]], tables[m["codomain"]]
            data = {
                "name": name,
                "domain": f"{m['domain']}.json",
                "codomain": f"{m['codomain']}.json",
                "vertex_map": {dom[k]: cod[v] for k, v in m["vertex_map"].items()},
            }
            if passdir is not None:
                _dump(os.path.join(passdir, f"map_{name}.json"), data)
        queries = []
        for name in sorted(cat["complexes"]):
            row = exp["complexes"][name]
            for cmd in ("homology", "cohomology", "duality", "lefschetz"):
                ok = cmd in ("homology", "cohomology") or row["closed_orientable"]
                queries.append({
                    "key": f"{cmd} {name}",
                    "argv": [cmd, f"{name}.json", "--json"],
                    "expect": {"exit": 0 if ok else 2, "betti": row["betti"], "chi": row["chi"], "counts": row["counts"]},
                })
        for name in sorted(cat["maps"]):
            m = cat["maps"][name]
            queries.append({
                "key": f"degree {name}",
                "argv": ["degree", f"map_{name}.json", "--json"],
                "expect": {"exit": 0, "degree": exp["maps"][name]["degree"], "signed": m["domain"] == m["codomain"]},
            })
        for pair, row in sorted(exp["pairs"].items()):
            f, g = pair.split(",")
            m = cat["maps"][f]
            queries.append({
                "key": f"coincidence {f} {g}",
                "argv": ["coincidence", f"map_{f}.json", f"map_{g}.json", "--json"],
                "expect": {"exit": 0, "lambda": row["lambda"], "signed": m["domain"] == m["codomain"]},
            })
        rng.shuffle(queries)
        return queries

    def _verify_suites(self, passdir, rng):
        vseed = str(rng.randrange(10**6))
        return [
            {
                "key": f"verify {suite}",
                "argv": ["verify", "--json", "--seed", vseed, "--suite", suite],
                "expect": {"exit": 0, "checks": {suite: count}},
            }
            for suite, count in self.expected["verify_suites"]
        ]
