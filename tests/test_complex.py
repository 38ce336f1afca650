import json
import os
import random
from fractions import Fraction

import pytest

import simhom.complex as cx
from simhom import catalog
from simhom.chains import induced_chain_map
from simhom.complex import (
    GeometricPoint,
    SimplicialMap,
    barycentric_subdivide,
    check_simplicial,
    complex_from_json,
    complex_to_json,
    compose,
    constant_map,
    identity_map,
    manifold_check,
    orient,
    validate,
)
from simhom.errors import (
    DuplicateVertex,
    NonOrientable,
    NotClosed,
    NotSimplicial,
    TooManyFaces,
    UnknownVertex,
)

from oracles import (
    face_closure,
    oracle_bad_vertex_link,
    oracle_euler,
    oracle_facet_incidences,
    oracle_manifold_check,
    oracle_maximal_simplices,
    oracle_orient,
)


def test_validate_octahedron_counts():
    oct_ = catalog.octahedron()
    assert oct_.counts() == (6, 12, 8)
    assert oct_.dim == 2


def test_validate_single_vertex():
    x = validate([["v"]], name="pt")
    assert x.counts() == (1,)
    assert x.dim == 0


def test_validate_duplicate_vertex_error():
    with pytest.raises(DuplicateVertex):
        validate([["a", "a", "b"]])


def test_validate_unknown_vertex_error():
    with pytest.raises(UnknownVertex):
        validate([["a", "b"]], vertices=["a"])


def test_validate_idempotent():
    oct_ = catalog.octahedron()
    again = validate(
        [list(oct_.simplex_names(s)) for s in oct_.maximal_simplices()],
        name=oct_.name,
    )
    assert again.counts() == oct_.counts()
    assert again.simplices == oct_.simplices
    assert again.vertices == oct_.vertices


def test_face_closure_matches_oracle():
    for name in ["octahedron", "torus", "torus7", "icosahedron", "genus2", "rp2"]:
        x = catalog.get_complex(name)
        maximal = [x.simplex_names(s) for s in x.maximal_simplices()]
        levels = face_closure(maximal)
        for q in range(x.dim + 1):
            assert x.n_simplices(q) == len(levels.get(q, []))


def test_manifold_check_octahedron():
    rep = manifold_check(catalog.octahedron())
    assert rep.is_closed_pseudo_manifold
    assert rep.dimension == 2
    assert rep.boundary_facets == ()


def test_manifold_check_disk_has_boundary():
    rep = manifold_check(catalog.triangle2())
    assert not rep.closed
    assert len(rep.boundary_facets) == 3


def test_manifold_check_point():
    rep = manifold_check(catalog.point())
    assert rep.is_closed_pseudo_manifold
    assert rep.dimension == 0


def test_catalog_manifolds_match_oracle_incidences():
    for name in ["octahedron", "icosahedron", "torus", "torus7", "genus2", "rp2"]:
        x = catalog.get_complex(name)
        maximal = [x.simplex_names(s) for s in x.maximal_simplices()]
        counts = oracle_facet_incidences(maximal)
        assert all(c == 2 for c in counts.values()), name
        assert manifold_check(x).is_closed_pseudo_manifold, name


def test_vertex_links_on_catalog_surfaces():
    for name in ["octahedron", "icosahedron", "torus", "torus7", "genus2", "rp2"]:
        assert manifold_check(catalog.get_complex(name)).vertex_links_ok, name
    assert manifold_check(catalog.hexagon()).vertex_links_ok
    assert not manifold_check(catalog.interval()).vertex_links_ok


def _wedge():
    """Two triangle fans sharing a single vertex: the shared link is two
    disjoint cycles."""
    faces = [["p", "a1", "b1"], ["p", "b1", "c1"], ["p", "c1", "a1"],
             ["p", "a2", "b2"], ["p", "b2", "c2"], ["p", "c2", "a2"],
             ["a1", "b1", "c1"], ["a2", "b2", "c2"]]
    return validate(faces, name="wedge")


def test_vertex_links_detect_pinched_wedge():
    rep = manifold_check(_wedge())
    assert not rep.vertex_links_ok


def _read_data_complex(name):
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "data", name)) as fh:
        return complex_from_json(json.load(fh))


def _pinched_icosahedron():
    """The icosahedron with its poles N and S glued: a pseudo-manifold
    whose glued vertex has two disjoint pentagons as its link."""
    x = catalog.icosahedron()
    faces = [["N" if v == "S" else v for v in x.simplex_names(t)] for t in x.top_simplices()]
    return validate(faces, name="pinched icosahedron")


def test_vertex_links_match_reference_scan(monkeypatch):
    """The one-pass star gives the same ManifoldReport as scanning every
    triangle once per vertex."""
    complexes = [catalog.get_complex(name) for name in catalog.COMPLEX_BUILDERS]
    complexes.append(_pinched_icosahedron())
    # Sd^1 with a shuffled vertex order
    complexes += [_read_data_complex(f"sd1_{base}.json") for base in ("torus", "genus2")]
    reports = [manifold_check(x) for x in complexes]
    monkeypatch.setattr(cx, "_bad_vertex_link", oracle_bad_vertex_link)
    for x, report in zip(complexes, reports):
        assert report == manifold_check(x), x.name
    pinched = reports[len(catalog.COMPLEX_BUILDERS)]
    assert pinched.is_closed_pseudo_manifold and pinched.vertex_links_ok is False


def _outcome(orient_fn, x):
    """The orientation data, or the error's type and message."""
    try:
        return orient_fn(x)
    except (NotClosed, NonOrientable) as err:
        return type(err), str(err)


def _shuffled(x, seed):
    data = complex_to_json(x)
    random.Random(seed).shuffle(data["vertex_order"])
    return complex_from_json(data)


def test_one_walk_analysis_matches_reference():
    """The shared facet table and walk give the reference's reports, signs,
    error types and messages, across closed, bounded, pinched,
    non-orientable and disconnected complexes in dimensions -1 to 3."""
    # triangles {i, i+1, i+2} mod 5: the edges {i, i+2} bound one circle
    moebius = validate(
        [[f"m{i}", f"m{(i + 1) % 5}", f"m{(i + 2) % 5}"] for i in range(5)], name="moebius"
    )
    oct_faces = [catalog.octahedron().simplex_names(t) for t in catalog.octahedron().top_simplices()]
    two_octahedra = validate(
        [[f"{v}{k}" for v in t] for k in (1, 2) for t in oct_faces], name="two octahedra"
    )
    sphere3 = validate(
        [[v for v in "abcde" if v != w] for w in "abcde"], name="boundary of the 4-simplex"
    )
    complexes = [catalog.get_complex(name) for name in catalog.COMPLEX_BUILDERS]
    complexes += [
        _pinched_icosahedron(),
        _wedge(),
        moebius,
        two_octahedra,
        sphere3,
        validate([["u"], ["w"]], name="two points"),
        validate([], name="empty"),
    ]
    complexes += [_read_data_complex(f) for f in ("sd1_torus.json", "sd1_genus2.json", "sd2_torus.json")]
    for name in ("octahedron", "icosahedron", "torus", "torus7", "genus2"):
        sd, _ = barycentric_subdivide(catalog.get_complex(name))
        complexes += [_shuffled(sd, seed) for seed in (21, 22, 23)]
    # three triangles on the edge ab: a facet in three top simplices
    book = validate([["a", "b", "c"], ["a", "b", "d"], ["a", "b", "e"]], name="book")
    # the incoherent component holds top simplex 0 under the second order only
    octahedron, rp2 = catalog.octahedron(), catalog.rp2()
    faces = [x.simplex_names(t) for x in (octahedron, rp2) for t in x.top_simplices()]
    apart = [
        validate(faces, name="octahedron and rp2", vertex_order=first.vertices + second.vertices)
        for first, second in ((octahedron, rp2), (rp2, octahedron))
    ]
    assert [cx._analyse(x)[2] for x in apart] == [True, False]
    sd_sphere3, _ = barycentric_subdivide(sphere3)
    complexes += [book, *apart] + [_shuffled(sd_sphere3, seed) for seed in (31, 32, 33)]
    for x in complexes:
        assert manifold_check(x) == oracle_manifold_check(x), x.name
        assert _outcome(orient, x) == _outcome(oracle_orient, x), x.name

    report = manifold_check(moebius)
    assert report.pure and report.strongly_connected and not report.closed
    assert len(report.boundary_facets) == 5
    assert not cx._analyse(moebius)[2]  # no coherent signs either
    assert _outcome(orient, moebius)[0] is NotClosed
    report = manifold_check(two_octahedra)
    assert report.pure and report.closed and not report.strongly_connected
    assert not report.connected
    assert _outcome(orient, catalog.rp2())[0] is NonOrientable
    assert manifold_check(sphere3).is_closed_pseudo_manifold
    assert manifold_check(sphere3).vertex_links_ok is None


def test_maximal_simplices_match_brute_force():
    """Coverage read off the rows of d_{q+1} finds the maximal simplices of
    an impure complex, a triangle with a dangling edge and an isolated
    vertex, which is then not pure; and of every catalog complex."""
    impure = validate([["a", "b", "c"], ["c", "d"], ["e"]], name="impure")
    assert [impure.simplex_names(s) for s in impure.maximal_simplices()] == [
        ("e",), ("c", "d"), ("a", "b", "c")
    ]
    complexes = [impure] + [catalog.get_complex(name) for name in catalog.COMPLEX_BUILDERS]
    for x in complexes:
        assert x.maximal_simplices() == oracle_maximal_simplices(x), x.name
    report = manifold_check(impure)
    assert not report.pure and not report.closed
    assert report == oracle_manifold_check(impure)


def test_orient_octahedron_coherent():
    x = catalog.octahedron()
    data = orient(x)
    assert data.coherent
    assert len(data.signs) == 8
    assert set(data.signs) <= {1, -1}
    # re-running yields identical signs (determinism)
    assert orient(x).signs == data.signs


def test_orient_coherence_condition_literal():
    # every shared codimension-1 face receives opposite induced orientations
    for name in ["octahedron", "hexagon", "torus", "torus7", "genus2", "icosahedron"]:
        x = catalog.get_complex(name)
        signs = orient(x).signs
        tops = x.top_simplices()
        induced = {}
        for t, top in enumerate(tops):
            for i in range(len(top)):
                facet = top[:i] + top[i + 1 :]
                induced.setdefault(facet, []).append(signs[t] * (-1) ** i)
        for facet, vals in induced.items():
            assert len(vals) == 2 and vals[0] + vals[1] == 0, (name, facet)


def test_orient_rp2_nonorientable():
    with pytest.raises(NonOrientable):
        orient(catalog.rp2())


def test_orient_disk_not_closed():
    with pytest.raises(NotClosed):
        orient(catalog.triangle2())


def test_orient_hexagon():
    data = orient(catalog.hexagon())
    assert len(data.signs) == 6


def test_subdivide_triangle():
    x = validate([["a", "b", "c"]], name="t")
    sd, prov = barycentric_subdivide(x)
    assert sd.counts() == (7, 12, 6)
    assert prov["a|b|c"] == ("a", "b", "c")
    assert prov["a"] == ("a",)


def test_subdivide_point_and_hexagon():
    sd, _ = barycentric_subdivide(catalog.point())
    assert sd.counts() == (1,)
    sd, _ = barycentric_subdivide(catalog.hexagon())
    assert sd.counts() == (12, 12)


def test_double_subdivision():
    # provenance names stay unique at depth two; Euler and counts behave
    x = catalog.hexagon()
    sd1, _ = barycentric_subdivide(x)
    sd2, prov = barycentric_subdivide(sd1)
    assert sd2.counts() == (24, 24)
    assert sd2.euler_characteristic() == 0
    assert len(prov) == 24


def test_subdivide_preserves_euler_characteristic():
    for name in catalog.COMPLEX_BUILDERS:
        x = catalog.get_complex(name)
        sd, _ = barycentric_subdivide(x)
        assert sd.euler_characteristic() == x.euler_characteristic(), name


def test_subdivision_is_bounded_before_flags_are_enumerated(monkeypatch):
    """An 11-vertex simplex passes ``validate`` with 2047 faces, but its
    subdivision would have 11! flags of 2047 faces each: TooManyFaces is
    raised, naming that count, before a single flag is enumerated.  At the
    bound the decision is the one ``validate`` makes on the flags."""
    from math import factorial

    big = validate([[f"v{i}" for i in range(11)]], name="big")
    assert sum(big.counts()) == 2047

    def no_enumeration(*args):
        raise AssertionError("flags were enumerated")

    with monkeypatch.context() as m:
        m.setattr(cx, "flags", no_enumeration)
        m.setattr(cx, "permutations", no_enumeration)
        with pytest.raises(TooManyFaces, match=str(factorial(11) * 2047)):
            barycentric_subdivide(big)
        # Sd of the 2-simplex: 3! flags of 2^3 - 1 faces each
        m.setattr(cx, "MAX_FACES", 41)
        with pytest.raises(TooManyFaces, match="42"):
            barycentric_subdivide(catalog.triangle2())
    monkeypatch.setattr(cx, "MAX_FACES", 42)
    assert barycentric_subdivide(catalog.triangle2())[0].counts() == (7, 12, 6)


def test_subdivision_euler_matches_oracle():
    x = catalog.torus()
    sd, _ = barycentric_subdivide(x)
    maximal = [sd.simplex_names(s) for s in sd.maximal_simplices()]
    assert oracle_euler(maximal) == 0


def test_check_simplicial_wrap():
    f = catalog.hex_wrap2()
    assert all(f.chain_map()[1].sign)  # every edge lands on an edge


def test_check_simplicial_constant():
    f = constant_map(catalog.hexagon(), catalog.triangle_circle(), "w0")
    assert all(j == f.codomain.vertex_index["w0"] for j in f.mapping)


def test_check_simplicial_rejects_bad_map():
    hexagon = catalog.hexagon()
    tri = catalog.triangle_circle()
    bad = {f"v{i}": f"w{(2 * i) % 3}" for i in range(6)}
    # v0 -> w0, v1 -> w2 is fine (edge w0w2 exists); build a genuinely bad one
    # on a codomain missing an edge instead.
    path = validate([["w0", "w1"], ["w1", "w2"]], name="path")
    with pytest.raises(NotSimplicial):
        check_simplicial({f"v{i}": f"w{(2 * i) % 3}" for i in range(6)}, hexagon, path)


def test_direct_map_that_is_not_simplicial_raises_on_first_use():
    """A SimplicialMap made without check_simplicial raises, when its chain
    map is first built, the NotSimplicial check_simplicial raises: the
    same message and the same first simplex."""
    hexagon = catalog.hexagon()
    path = validate([["w0", "w1"], ["w1", "w2"]], name="path")
    vertex_map = {f"v{i}": f"w{(2 * i) % 3}" for i in range(6)}
    with pytest.raises(NotSimplicial) as checked:
        check_simplicial(vertex_map, hexagon, path)
    mapping = [path.vertex_index[vertex_map[v]] for v in hexagon.vertices]
    direct = SimplicialMap(hexagon, path, mapping)
    with pytest.raises(NotSimplicial) as used:
        induced_chain_map(direct)
    assert str(used.value) == str(checked.value)
    assert used.value.simplex == checked.value.simplex == ("v0", "v1")


def test_compose_and_identity():
    f = catalog.hex_wrap2()
    idh = identity_map(catalog.hexagon())
    g = compose(f, idh)
    assert g.mapping == f.mapping


def test_compose_rejects_foreign_complex_sharing_a_name():
    fake = validate(
        [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]], name="triangle"
    )
    assert fake.name == catalog.hex_wrap2().codomain.name
    with pytest.raises(NotSimplicial):
        compose(identity_map(fake), catalog.hex_wrap2())


def test_catalog_composites_build():
    for name in [
        "wrap2_after_reflect",
        "wrap1_after_rotate",
        "wrap2_after_dodeca",
        "wrap1_after_dodeca",
    ]:
        h = catalog.get_map(name)
        check_simplicial(h.vertex_map_names(), h.domain, h.codomain)


def test_geometric_point_invariants():
    p = GeometricPoint(("a", "b"), (Fraction(1, 2), Fraction(1, 2)))
    assert p.to_json() == {"carrier": ["a", "b"], "coords": ["1/2", "1/2"]}
    with pytest.raises(ValueError, match="^barycentric coordinates must sum to 1$"):
        GeometricPoint(("a", "b"), (Fraction(1, 2), Fraction(1, 4)))
    with pytest.raises(ValueError, match=r"^coordinate count must equal carrier dimension \+ 1$"):
        GeometricPoint(("a",), (Fraction(1), Fraction(0)))
    with pytest.raises(ValueError, match="^barycentric coordinates must be nonnegative$"):
        GeometricPoint(("a", "b"), (Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(ValueError, match="^coordinate count"):
        GeometricPoint(carrier=("a", "b"), coords=(Fraction(1),))


def test_json_roundtrip():
    x = catalog.octahedron()
    data = complex_to_json(x)
    y = complex_from_json(json.loads(json.dumps(data)))
    assert y.counts() == x.counts()
    assert y.vertices == x.vertices
    assert y.simplices == x.simplices
