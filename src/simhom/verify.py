"""Batch verification suites over the catalog.

Each suite returns a list of named checks with pass/fail and a detail
string (the counterexample dump when a law fails).  Randomized checks draw
from a seeded generator, so a pinned seed reproduces the report byte for
byte.
"""

import random
from fractions import Fraction

from . import catalog
from .chains import ChainComplex, subdivision_chain_map
from .complex import validate
from .duality import duality_operator, transfers
from .errors import NonOrientable, TopologyError
from .exactlin import ONE, dense_eq, dense_identity, dense_inv, qstr, solve, vec_dot
from .homology import (
    GradedMap,
    HClass,
    Space,
    class_matrix,
    excision_check,
    induced_map,
    long_exact_sequence,
)
from .lefschetz import (
    coefficient_extraction_table,
    coincidence_number,
    euler_data,
    lefschetz_class,
    lefschetz_iso_and_trace,
)
from .products import (
    cap_chain,
    cross_h,
    cup_cochain,
    product_map,
    product_space,
    swap_pushforward,
)

ALL_COMPLEXES = list(catalog.COMPLEX_BUILDERS)
ORIENTABLE = [
    "point", "hexagon", "triangle", "dodecagon", "octahedron",
    "icosahedron", "torus", "torus7", "genus2",
]

_SPACES = {}
_OPS = {}


class CheckResult:
    def __init__(self, name, passed, detail=""):
        self.name = name
        self.passed = passed
        self.detail = detail

    def to_json(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _space(name):
    if name not in _SPACES:
        _SPACES[name] = Space(catalog.get_complex(name))
    return _SPACES[name]


def _dop(name):
    if name not in _OPS:
        _OPS[name] = duality_operator(_space(name))
    return _OPS[name]


def _rand_vec(rng, n):
    return tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))


def _rand_class(rng, graded, q):
    return HClass(graded, q, _rand_vec(rng, graded.betti(q)))


def _check(results, name, condition, detail=""):
    results.append(CheckResult(name, bool(condition), detail if not condition else ""))


# ---------------------------------------------------------------------------


def suite_axioms(seed=0):
    out = []
    for name in ALL_COMPLEXES:
        cc = ChainComplex(catalog.get_complex(name))
        ok = all(
            (cc.boundary(q - 1) @ cc.boundary(q)).is_zero()
            for q in range(2, cc.dim + 1)
        )
        ok = ok and all(
            (cc.coboundary(q + 1) @ cc.coboundary(q)).is_zero()
            for q in range(0, cc.dim - 1)
        )
        _check(out, f"boundary-squared-zero[{name}]", ok)
    pt = _space("point").homology
    _check(
        out,
        "dimension-axiom[point]",
        pt.betti(0) == 1 and all(pt.betti(q) == 0 for q in range(1, 4)),
        f"betti={pt.betti_vector()}",
    )
    pairs = [
        ("disk", catalog.triangle2(), validate([["a", "b"], ["b", "c"], ["a", "c"]], name="circle")),
        ("octahedron-equator", catalog.octahedron(),
         validate([["n", "e"], ["e", "s"], ["s", "w"], ["n", "w"]], name="equator")),
        ("hexagon-arc", catalog.hexagon(),
         validate([["v0", "v1"], ["v1", "v2"]], name="arc")),
    ]
    for label, x, a in pairs:
        seq = long_exact_sequence(x, a)
        _check(out, f"exactness[{label}]", seq.exact, str(seq.details))
    disk = catalog.triangle2()
    circle = validate([["a", "b"], ["b", "c"], ["a", "c"]], name="circle")
    rep = excision_check(disk, circle, [("a", "b")])
    _check(out, "excision[disk,boundary,open-edge]", rep.isomorphism, str(rep.details))
    rep0 = excision_check(disk, circle, [])
    _check(out, "excision[empty-U]", rep0.isomorphism)
    return out


def suite_subdivision(seed=0):
    out = []
    for name in ALL_COMPLEXES:
        x = catalog.get_complex(name)
        s = _space(name)
        sd_map = subdivision_chain_map(x)
        sd_space = Space(sd_map.subdivided)
        same = s.homology.betti_vector() == sd_space.homology.betti_vector()
        _check(
            out,
            f"betti-invariant[{name}]",
            same,
            f"{s.homology.betti_vector()} vs {sd_space.homology.betti_vector()}",
        )
        if not same:
            continue
        iso_ok = True
        for q in range(x.dim + 1):
            if s.homology.betti(q):
                mat = class_matrix(s.homology, q, sd_space.homology, q, sd_map.matrix(q).apply)
                iso_ok = iso_ok and dense_inv(mat) is not None
        _check(out, f"subdivision-iso[{name}]", iso_ok)
    return out


def suite_products(seed=0):
    rng = random.Random(seed)
    out = []
    for name in ["torus", "genus2"]:
        s = _space(name)
        cc = s.cc
        ones = tuple([ONE] * cc.n(0))
        unit_ok = True
        assoc_ok = True
        dual_ok = True
        for _ in range(6):
            q = rng.randint(0, s.dim)
            a = _rand_vec(rng, cc.n(q))
            unit_ok = unit_ok and cup_cochain(cc, 0, q, ones, a) == a
            p2 = rng.randint(0, s.dim - q) if s.dim > q else 0
            b = _rand_vec(rng, cc.n(p2))
            r = rng.randint(0, s.dim - q - p2) if s.dim > q + p2 else 0
            c = _rand_vec(rng, cc.n(r))
            if q + p2 + r <= s.dim:
                lhs = cup_cochain(cc, q + p2, r, cup_cochain(cc, q, p2, a, b), c)
                rhs = cup_cochain(cc, q, p2 + r, a, cup_cochain(cc, p2, r, b, c))
                assoc_ok = assoc_ok and lhs == rhs
            if q + p2 <= s.dim:
                sig = _rand_vec(rng, cc.n(q + p2))
                lhs = vec_dot(cup_cochain(cc, q, p2, a, b), sig)
                rhs = vec_dot(a, cap_chain(cc, p2, b, q + p2, sig))
                dual_ok = dual_ok and lhs == rhs
        _check(out, f"cup-unit-chain-level[{name}]", unit_ok)
        _check(out, f"cup-associative-chain-level[{name}]", assoc_ok)
        _check(out, f"cap-duality-chain-level[{name}]", dual_ok)
    # skew-commutativity at cohomology level via coboundary membership
    t = _space("torus")
    skew_ok = True
    for _ in range(5):
        a = _rand_class(rng, t.cohomology, 1)
        b = _rand_class(rng, t.cohomology, 1)
        ab = cup_cochain(t.cc, 1, 1, a.chain(), b.chain())
        ba = cup_cochain(t.cc, 1, 1, b.chain(), a.chain())
        diff = tuple(x + y for x, y in zip(ab, ba))  # (-1)^{1*1} = -1
        skew_ok = skew_ok and solve(t.cc.coboundary(1), diff) is not None
    _check(out, "cup-skew-coboundary-membership[torus]", skew_ok)
    # Kunneth counts
    prod = product_space(_space("hexagon"), _space("triangle"))
    _check(
        out,
        "kunneth[hexagon x triangle = torus]",
        prod.betti_vector() == t.homology.betti_vector(),
        f"{prod.betti_vector()} vs {t.homology.betti_vector()}",
    )
    prod_pt = product_space(_space("point"), t)
    _check(out, "kunneth[point x torus]", prod_pt.betti_vector() == (1, 2, 1))
    # cross naturality and swap signs
    hexa, tri = _space("hexagon"), _space("triangle")
    f, g = catalog.hex_wrap2(), catalog.hex_wrap1()
    px, py = product_space(hexa, hexa), product_space(tri, tri)
    fh = induced_map(f, hexa.homology, tri.homology)
    gh = induced_map(g, hexa.homology, tri.homology)
    fxg = product_map(fh, gh, px, py)
    nat_ok = True
    swap_ok = True
    for _ in range(6):
        p, q = rng.randint(0, 1), rng.randint(0, 1)
        a = _rand_class(rng, hexa.homology, p)
        b = _rand_class(rng, hexa.homology, q)
        nat_ok = nat_ok and fxg(cross_h(a, b, px)) == cross_h(fh.apply(a), gh.apply(b), py)
        swapped = swap_pushforward(cross_h(a, b, px), px)
        swap_ok = swap_ok and swapped == cross_h(b, a, px).scale((-1) ** (p * q))
    _check(out, "cross-naturality[wrap maps]", nat_ok)
    _check(out, "cross-swap-sign[hexagon]", swap_ok)
    return out


def suite_duality(seed=0):
    out = []
    for name in ORIENTABLE:
        s = _space(name)
        try:
            d = _dop(name)
        except TopologyError as exc:
            _check(out, f"duality-invertible[{name}]", False, str(exc))
            continue
        round_trip = d.inverse.compose(d)
        ok = all(
            dense_eq(round_trip.matrix(q), dense_identity(s.cohomology.betti(q)))
            for q in range(s.dim + 1)
        )
        _check(out, f"duality-invertible[{name}]", ok)
        sym = all(
            s.homology.betti(q) == s.homology.betti(s.dim - q)
            for q in range(s.dim + 1)
        )
        _check(out, f"betti-symmetry[{name}]", sym, str(s.homology.betti_vector()))
    try:
        duality_operator(Space(catalog.rp2()))
        _check(out, "nonorientable-rejected[rp2]", False, "rp2 accepted")
    except NonOrientable:
        _check(out, "nonorientable-rejected[rp2]", True)
    # transfer identities
    cases = [
        ("hex_wrap2", "hexagon", "triangle"),
        ("oct_antipodal", "octahedron", "octahedron"),
        ("dodeca_wrap2", "dodecagon", "hexagon"),
        ("torus_transpose", "torus", "torus"),
    ]
    built = {}
    for mname, dom, cod in cases:
        sy = _space(cod)
        t = built[mname] = transfers(catalog.get_map(mname), _dop(dom), _dop(cod))
        d = t.degree()
        push_down, up_pull = t.push.compose(t.down), t.up.compose(t.pull)
        ok = True
        for q in range(sy.dim + 1):
            b = sy.homology.betti(q)
            scaled = tuple(tuple(d * v for v in row) for row in dense_identity(b))
            ok = ok and dense_eq(push_down.matrix(q), scaled)
            ok = ok and dense_eq(up_pull.matrix(q), scaled)
        _check(out, f"transfer-degree-identities[{mname}]", ok, f"deg={qstr(d)}")
    # composition law (g o f)^! = g^! o f^!, f = dodeca_wrap2, g = hex_wrap2
    tf, tg = built["dodeca_wrap2"], built["hex_wrap2"]
    gf = catalog.get_map("wrap2_after_dodeca")
    tgf = transfers(gf, _dop("dodecagon"), _dop("triangle"))
    composed = tg.up.compose(tf.up)
    comp_ok = all(dense_eq(composed.matrix(q), tgf.up.matrix(q)) for q in range(2))
    _check(out, "transfer-composition[(g.f)! = g!.f!]", comp_ok)
    return out


def suite_euler(seed=0):
    out = []
    expected = {
        "octahedron": 2,
        "icosahedron": 2,
        "torus": 0,
        "hexagon": 0,
        "genus2": -2,
    }
    for name, chi in expected.items():
        try:
            data = euler_data(_dop(name))
            _check(
                out,
                f"euler[{name}] = {chi}",
                data.euler_number == chi and data.combinatorial == chi,
                f"pairing={qstr(data.euler_number)} combinatorial={data.combinatorial}",
            )
        except (TopologyError, AssertionError) as exc:
            _check(out, f"euler[{name}] = {chi}", False, str(exc))
    return out


COINCIDENCE_PAIRS = [
    ("id_octahedron", "id_octahedron", "octahedron", "octahedron", 2),
    ("id_torus", "id_torus", "torus", "torus", 0),
    ("id_genus2", "id_genus2", "genus2", "genus2", -2),
    ("id_hexagon", "id_hexagon", "hexagon", "hexagon", 0),
    ("id_point", "id_point", "point", "point", 1),
    ("hex_wrap2", "hex_wrap1", "hexagon", "triangle", -1),
    ("hex_wrap1", "hex_wrap2", "hexagon", "triangle", 1),
    ("oct_antipodal", "id_octahedron", "octahedron", "octahedron", 0),
    ("oct_rotate", "id_octahedron", "octahedron", "octahedron", 2),
    ("torus_shift", "id_torus", "torus", "torus", 0),
    ("torus_transpose", "id_torus", "torus", "torus", 0),
    ("hex_const_v0", "hex_const_v3", "hexagon", "hexagon", 0),
    ("hex_wrap2", "hex_wrap2", "hexagon", "triangle", 0),
    ("hex_rotate", "id_hexagon", "hexagon", "hexagon", 0),
    ("hex_rotate", "hex_reflect", "hexagon", "hexagon", -2),
    ("id_icosahedron", "id_icosahedron", "icosahedron", "icosahedron", 2),
    ("id_torus7", "id_torus7", "torus7", "torus7", 0),
    ("oct_const_u", "id_octahedron", "octahedron", "octahedron", 1),
]


def suite_coincidence(seed=0):
    out = []
    for fname, gname, dom, cod, expected in COINCIDENCE_PAIRS:
        rep = coincidence_number(
            catalog.get_map(fname), catalog.get_map(gname), dx=_dop(dom), dy=_dop(cod)
        )
        detail = ", ".join(f"{k}={qstr(v)}" for k, v in rep.lambdas.items())
        _check(
            out,
            f"lambda[{fname},{gname}] = {expected}",
            rep.consistent and rep.value == expected,
            detail,
        )
    # symmetry
    for fname, gname, dom, cod in [
        ("hex_wrap2", "hex_wrap1", "hexagon", "triangle"),
        ("oct_antipodal", "oct_rotate", "octahedron", "octahedron"),
    ]:
        a = coincidence_number(
            catalog.get_map(fname), catalog.get_map(gname), dx=_dop(dom), dy=_dop(cod)
        )
        b = coincidence_number(
            catalog.get_map(gname), catalog.get_map(fname), dx=_dop(dom), dy=_dop(cod)
        )
        _check(
            out,
            f"symmetry[{fname},{gname}]",
            a.value == (-1) ** a.dimension * b.value,
            f"{qstr(a.value)} vs {qstr(b.value)}",
        )
    # composition scaling by deg h = 2
    base = coincidence_number(
        catalog.hex_wrap2(), catalog.hex_wrap1(), dx=_dop("hexagon"), dy=_dop("triangle")
    )
    rep2 = coincidence_number(
        catalog.get_map("wrap2_after_dodeca"),
        catalog.get_map("wrap1_after_dodeca"),
        dx=_dop("dodecagon"),
        dy=_dop("triangle"),
    )
    _check(
        out,
        "composition[lambda(f.h, g.h) = deg h * lambda(f,g)]",
        rep2.value == 2 * base.value and rep2.consistent,
        f"{qstr(rep2.value)} vs 2*{qstr(base.value)}",
    )
    # coefficient extraction against the dual-basis expansion
    for name in ["octahedron", "torus"]:
        d = _dop(name)
        lef = lefschetz_class(d)
        rows = coefficient_extraction_table(lef, d)
        _check(
            out,
            f"lefschetz-extraction[{name}]",
            all(v == e for (_, _, _, v, e) in rows),
        )
    # trace formula through the Lefschetz isomorphism
    for name in ["torus", "octahedron"]:
        d = _dop(name)
        prod = product_space(d.space, d.space)
        try:
            identity = GradedMap.identity(d.space.cohomology)
            _, tr = lefschetz_iso_and_trace(d, prod, identity)
            _check(
                out,
                f"trace-formula-identity[{name}]",
                tr == euler_data(d).euler_number,
            )
        except AssertionError as exc:
            _check(out, f"trace-formula-identity[{name}]", False, str(exc))
    return out


def suite_witness(seed=0):
    out = []
    rep = coincidence_number(
        catalog.hex_wrap2(),
        catalog.hex_wrap1(),
        dx=_dop("hexagon"),
        dy=_dop("triangle"),
        witness=True,
    )
    _check(
        out,
        "witness[hex_wrap2,hex_wrap1]",
        rep.value == -1 and rep.witness_status == "found" and rep.witness is not None,
        rep.witness_status or "",
    )
    rep_id = coincidence_number(
        catalog.get_map("id_octahedron"),
        catalog.get_map("id_octahedron"),
        dx=_dop("octahedron"),
        dy=_dop("octahedron"),
        witness=True,
    )
    _check(
        out,
        "witness[id,id octahedron]",
        rep_id.value == 2 and rep_id.witness_status == "found",
        rep_id.witness_status or "",
    )
    rep0 = coincidence_number(
        catalog.get_map("hex_const_v0"),
        catalog.get_map("hex_const_v3"),
        dx=_dop("hexagon"),
        dy=_dop("hexagon"),
        witness=True,
    )
    _check(
        out,
        "witness[disjoint constants: no false claim]",
        rep0.value == 0 and rep0.witness is None
        and rep0.witness_status == "no-claim-lambda-zero",
        rep0.witness_status or "",
    )
    rep_int = coincidence_number(
        catalog.get_map("hex_rotate"),
        catalog.get_map("hex_reflect"),
        dx=_dop("hexagon"),
        dy=_dop("hexagon"),
        witness=True,
    )
    interior = (
        rep_int.witness is not None
        and len(rep_int.witness.carrier) == 2
        and all(0 < c < 1 for c in rep_int.witness.coords)
    )
    _check(
        out,
        "witness[rotation vs reflection: interior point]",
        rep_int.value == -2 and rep_int.witness_status == "found" and interior,
        rep_int.witness_status or "",
    )
    return out


def suite_kunneth(seed=0):
    out = []
    ss = product_space(_space("octahedron"), _space("icosahedron"))
    _check(
        out,
        "kunneth[S2 x S2] = (1,0,2,0,1)",
        ss.betti_vector() == (1, 0, 2, 0, 1),
        str(ss.betti_vector()),
    )
    tt = product_space(_space("torus"), _space("hexagon"))
    _check(
        out,
        "kunneth[T2 x S1] = (1,3,3,1)",
        tt.betti_vector() == (1, 3, 3, 1),
        str(tt.betti_vector()),
    )
    return out


SUITES = {
    "axioms": suite_axioms,
    "subdivision": suite_subdivision,
    "products": suite_products,
    "duality": suite_duality,
    "euler": suite_euler,
    "coincidence": suite_coincidence,
    "witness": suite_witness,
    "kunneth": suite_kunneth,
}


def run_suites(names=None, seed=0):
    """Run the requested suites (all by default); returns an ordered report."""
    names = list(names) if names else list(SUITES)
    report = {"seed": seed, "suites": {}, "all_passed": True}
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}")
        results = SUITES[name](seed=seed)
        report["suites"][name] = [r.to_json() for r in results]
        report["all_passed"] = report["all_passed"] and all(r.passed for r in results)
    return report
