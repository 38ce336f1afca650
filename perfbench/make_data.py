"""Regenerate the benchmark's frozen data files from the package.

    PYTHONPATH=src python3 perfbench/make_data.py

writes ``perfbench/data/catalog.json`` (every catalog complex and map as
JSON input) and ``perfbench/data/expected.json`` (the invariants the oracle
checks answers against).  The benchmark itself never imports the catalog:
its inputs and expectations come from these two files, so a change to the
program cannot change what the benchmark asks or accepts.  The expected
table is cross-checked against closed forms (see ``oracle.crosscheck``)
before it is written.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402


def compatible_pairs(maps):
    """Ordered (f, g) with common domain and codomain, in catalog order."""
    return [
        (f, g)
        for f in maps
        for g in maps
        if (maps[f]["domain"], maps[f]["codomain"]) == (maps[g]["domain"], maps[g]["codomain"])
    ]


def main():
    from simhom import catalog
    from simhom.complex import complex_to_json, map_to_json
    from simhom.duality import degree, duality_operator
    from simhom.errors import TopologyError
    from simhom.homology import Space
    from simhom.lefschetz import coincidence_number, coincidence_witness
    from simhom.verify import SUITES, run_suites

    complexes = {}
    for name in catalog.COMPLEX_BUILDERS:
        data = complex_to_json(catalog.get_complex(name))
        data["name"] = name
        complexes[name] = data
    maps = {}
    for name in catalog.MAP_BUILDERS:
        f = catalog.get_map(name)
        data = map_to_json(f)
        data["name"] = name
        data["domain"] = next(k for k in catalog.COMPLEX_BUILDERS if catalog.get_complex(k) is f.domain)
        data["codomain"] = next(k for k in catalog.COMPLEX_BUILDERS if catalog.get_complex(k) is f.codomain)
        maps[name] = data

    exp_complexes = {}
    for name in complexes:
        x = catalog.get_complex(name)
        s = Space(x)
        try:
            duality_operator(s)
            closed_orientable = True
        except TopologyError:
            closed_orientable = False
        exp_complexes[name] = {
            "counts": list(x.counts()),
            "betti": list(s.homology.betti_vector()),
            "chi": x.euler_characteristic(),
            "closed_orientable": closed_orientable,
        }
    exp_maps = {}
    for name, data in maps.items():
        f = catalog.get_map(name)
        dx = duality_operator(Space(f.domain))
        dy = duality_operator(Space(f.codomain))
        exp_maps[name] = {"degree": str(degree(f, dx, dy))}
    exp_pairs = {}
    for fname, gname in compatible_pairs(maps):
        f, g = catalog.get_map(fname), catalog.get_map(gname)
        rep = coincidence_number(f, g)
        if not rep.consistent:
            raise SystemExit(f"inconsistent lambda for {fname},{gname}")
        _, status, _ = coincidence_witness(f, g)
        exp_pairs[f"{fname},{gname}"] = {"lambda": str(rep.value), "witness": status}
    seed_report = run_suites(None, seed=0)
    exp_suites = [[name, len(seed_report["suites"][name])] for name in SUITES]

    expected = {
        "complexes": exp_complexes,
        "maps": exp_maps,
        "pairs": exp_pairs,
        "verify_suites": exp_suites,
    }
    oracle.crosscheck(expected)
    for fname, payload in (("catalog.json", {"complexes": complexes, "maps": maps}), ("expected.json", expected)):
        with open(os.path.join(HERE, "data", fname), "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
