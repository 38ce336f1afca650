"""Command-line front end.

Commands: homology, cohomology, duality, degree, lefschetz, coincidence,
verify, catalog.  Inputs are catalog names or JSON files (formats in the
complex module).  Output is human-readable by default, machine JSON with
--json; exit codes are 0 (ok), 1 (parse/validation), 2 (non-orientable or
non-manifold input), 3 (assertion failure).
"""

import argparse
import json
import os
import sys
import time

from . import __version__, catalog
from .complex import complex_from_json, map_ends, map_from_json
from .duality import duality_operator, degree as map_degree
from .errors import (
    DegreeMismatch,
    DimensionMismatch,
    DuplicateVertex,
    MalformedInput,
    NonOrientable,
    NotClosed,
    NotSimplicial,
    NotSubcomplex,
    SingularDuality,
    SingularPairing,
    TooManyFaces,
    TopologyError,
    UnknownVertex,
)
from .exactlin import qstr
from .homology import Space
from .lefschetz import coincidence_number, euler_data, lefschetz_class
from .verify import SUITES, run_suites

PARSE_ERRORS = (
    MalformedInput,
    DuplicateVertex,
    UnknownVertex,
    TooManyFaces,
    NotSimplicial,
    NotSubcomplex,
    KeyError,
    ValueError,
    OSError,
    json.JSONDecodeError,
)
MANIFOLD_ERRORS = (
    NonOrientable,
    NotClosed,
    SingularDuality,
    SingularPairing,
    DimensionMismatch,
    DegreeMismatch,
)


class _Resolver:
    """Resolve complex/map arguments against the catalog and the filesystem.

    A file is read and checked once per query, keyed by its absolute path,
    so a map named twice is one object with one chain map.
    """

    def __init__(self):
        self._complexes = {}
        self._maps = {}

    def complex(self, ref, base_dir="."):
        """A catalog complex, or the file ``ref`` or ``ref.json`` under ``base_dir``.

        A map file passes its own directory, so its ends resolve relative
        to it whatever the working directory is.
        """
        if ref in catalog.COMPLEX_BUILDERS:
            return catalog.get_complex(ref)
        for candidate in (os.path.join(base_dir, ref), os.path.join(base_dir, ref + ".json")):
            if os.path.isfile(candidate):
                path = os.path.abspath(candidate)
                if path not in self._complexes:
                    with open(path) as fh:
                        self._complexes[path] = complex_from_json(json.load(fh))
                return self._complexes[path]
        raise KeyError(f"unknown complex {ref!r} (not a catalog name or file)")

    def map(self, ref):
        if ref in catalog.MAP_BUILDERS:
            return catalog.get_map(ref)
        if not os.path.isfile(ref):
            raise KeyError(f"unknown map {ref!r} (not a catalog name or file)")
        path = os.path.abspath(ref)
        if path not in self._maps:
            with open(path) as fh:
                data = json.load(fh)
            dom, cod = (self.complex(end, os.path.dirname(path)) for end in map_ends(data))
            name = data.get("name", os.path.basename(path))
            self._maps[path] = map_from_json(data, dom, cod, name=name)
        return self._maps[path]


def _report(command, inputs, results, elapsed, with_timing):
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "timing": round(elapsed, 6) if with_timing else None,
        "version": __version__,
    }


def _print_report(report, as_json):
    if as_json:
        print(json.dumps(report, indent=2))
        return
    print(f"simhom {report['version']} :: {report['command']} {' '.join(report['inputs'])}")
    _render(report["results"], indent="  ")
    if report["timing"] is not None:
        print(f"  (elapsed {report['timing']} s)")


def _render(value, indent=""):
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                print(f"{indent}{k}:")
                _render(v, indent + "  ")
            else:
                print(f"{indent}{k}: {v}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                _render(v, indent)
            else:
                print(f"{indent}- {v}")
    else:
        print(f"{indent}{value}")


def _betti_results(space, kind):
    graded = space.homology if kind == "homology" else space.cohomology
    return {
        "name": space.complex.name,
        "dimension": space.dim,
        "degrees": list(range(space.dim + 1)),
        "counts": list(space.complex.counts()),
        "euler_characteristic": space.complex.euler_characteristic(),
        "betti": list(graded.betti_vector()),
    }


def _generators(space, kind):
    graded = space.homology if kind == "homology" else space.cohomology
    out = {}
    for q in range(space.dim + 1):
        gens = []
        for rep in graded.representatives(q):
            chain = {
                "+".join(map(str, space.complex.simplex_names(s))): qstr(c)
                for s, c in zip(space.cc.basis(q), rep)
                if c != 0
            }
            gens.append(chain)
        out[str(q)] = gens
    return out


def cmd_homology(args, resolver, kind="homology"):
    space = Space(resolver.complex(args.input))
    results = _betti_results(space, kind)
    if args.generators:
        results["generators"] = _generators(space, kind)
    return results, 0


def cmd_duality(args, resolver):
    x = resolver.complex(args.input)
    space = Space(x)
    d = duality_operator(space)  # raises NonOrientable / NotClosed -> exit 2
    n = space.dim
    results = {
        "name": x.name,
        "manifold": d.fundamental.orientation.report.to_json(),
        "orientation_signs": {
            "+".join(map(str, x.simplex_names(s))): sign
            for s, sign in zip(x.top_simplices(), d.fundamental.orientation.signs)
        },
        "fundamental_class_terms": len([c for c in d.fundamental.chain if c != 0]),
        "betti": list(space.homology.betti_vector()),
        "betti_symmetric": all(
            space.homology.betti(q) == space.homology.betti(n - q)
            for q in range(n + 1)
        ),
        "duality_invertible": True,
        "duality_matrices": {
            str(q): [[qstr(v) for v in row] for row in d.matrix(q)]
            for q in range(n + 1)
        },
    }
    return results, 0


def cmd_degree(args, resolver):
    f = resolver.map(args.map)
    dx = duality_operator(Space(f.domain))
    dy = duality_operator(Space(f.codomain)) if f.codomain is not f.domain else dx
    d = map_degree(f, dx, dy)
    return {
        "map": f.name,
        "domain": f.domain.name,
        "codomain": f.codomain.name,
        "degree": qstr(d),
    }, 0


def cmd_lefschetz(args, resolver):
    x = resolver.complex(args.input)
    d = duality_operator(Space(x))
    lef = lefschetz_class(d)
    data = euler_data(d)
    return {
        "name": x.name,
        "lefschetz_class_summands": [
            {"degree": q, "basis_index": i, "sign": int(s)}
            for (q, i, s) in lef.expansion
        ],
        "tensor_terms": {
            f"({p},{i},{j})": qstr(v) for (p, i, j), v in sorted(lef.tensor.terms.items())
        },
        "euler_number": qstr(data.euler_number),
        "combinatorial_euler_characteristic": data.combinatorial,
    }, 0


def cmd_coincidence(args, resolver):
    f = resolver.map(args.f)
    g = resolver.map(args.g)
    rep = coincidence_number(f, g, witness=args.witness)
    code = 0 if rep.consistent else 3
    return rep.to_json(), code


def cmd_verify(args, resolver):
    names = args.suite or None
    report = run_suites(names, seed=args.seed)
    code = 0 if report["all_passed"] else 3
    return report, code


def cmd_catalog(args, resolver):
    return catalog.catalog_listing(), 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="simhom",
        description="Exact simplicial (co)homology, duality and Lefschetz "
        "coincidence numbers over Q.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--timing", action="store_true", help="include elapsed time in JSON output"
        )

    p = sub.add_parser("homology", help="Betti numbers (and generators) of a complex")
    p.add_argument("input")
    p.add_argument("--generators", action="store_true")
    common(p)

    p = sub.add_parser("cohomology", help="cohomology Betti numbers of a complex")
    p.add_argument("input")
    p.add_argument("--generators", action="store_true")
    common(p)

    p = sub.add_parser("duality", help="orientation, fundamental class, duality operator")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("degree", help="mapping degree of a simplicial map")
    p.add_argument("map")
    common(p)

    p = sub.add_parser("lefschetz", help="Lefschetz class and Euler data of a manifold")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("coincidence", help="Lefschetz coincidence number of two maps")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--witness", action="store_true", help="search for a coincidence point")
    common(p)

    p = sub.add_parser("verify", help="run invariant suites over the catalog")
    p.add_argument("--suite", action="append", choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("catalog", help="list built-in complexes and maps")
    common(p)

    return parser


COMMANDS = {
    "homology": lambda a, r: cmd_homology(a, r, "homology"),
    "cohomology": lambda a, r: cmd_homology(a, r, "cohomology"),
    "duality": cmd_duality,
    "degree": cmd_degree,
    "lefschetz": cmd_lefschetz,
    "coincidence": cmd_coincidence,
    "verify": cmd_verify,
    "catalog": cmd_catalog,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    resolver = _Resolver()
    inputs = [
        str(getattr(args, name))
        for name in ("input", "map", "f", "g")
        if getattr(args, name, None)
    ]
    start = time.monotonic()
    try:
        results, code = COMMANDS[args.command](args, resolver)
    except PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MANIFOLD_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 3
    except TopologyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - start
    report = _report(args.command, inputs, results, elapsed, args.timing)
    _print_report(report, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
