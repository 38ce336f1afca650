import json
import os
import re
import subprocess
import sys

import pytest

import simhom
from simhom import catalog
from simhom.cli import PARSE_ERRORS, _Resolver, main
from simhom.complex import (
    SimplicialComplex,
    barycentric_subdivide,
    complex_from_json,
    complex_to_json,
    manifold_check,
    map_ends,
    map_from_json,
    map_to_json,
)
from simhom.errors import MalformedInput
from simhom.homology import Space


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, (json.loads(out) if out.strip() else None), err


def test_homology_catalog_names(capsys):
    for name, betti in [("octahedron", [1, 0, 1]), ("torus", [1, 2, 1]), ("point", [1])]:
        code, data, _ = run_json(capsys, "homology", name)
        assert code == 0
        assert data["results"]["betti"] == betti
        assert data["timing"] is None


def test_cohomology_with_generators(capsys):
    code, data, _ = run_json(capsys, "cohomology", "torus", "--generators")
    assert code == 0
    assert data["results"]["betti"] == [1, 2, 1]
    assert len(data["results"]["generators"]["1"]) == 2


def test_duality_command(capsys):
    code, data, _ = run_json(capsys, "duality", "octahedron")
    assert code == 0
    assert data["results"]["betti_symmetric"] is True
    assert data["results"]["duality_invertible"] is True


def test_duality_checks_the_manifold_once(tmp_path, capsys, monkeypatch):
    """One facet table per query: the manifold report and the orientation
    are read off the same table, its rows built once.  The dual graph's
    forest is built once, to orient the complex, and the (co)homology walk
    reads that same forest as its forest of d_n's rows, keeping it no
    longer than the query.  The torus comes from a file, so no earlier
    query built its tables."""
    from simhom.exactlin import FacetTable, SignedForest

    real_rows, real_forest = FacetTable.cofaces, SignedForest.__init__
    reads, forests = [], []

    def recording_rows(m):
        if m._cofaces is None:
            reads.append((m.rows, m.cols))
        return real_rows(m)

    def recording_forest(forest, n, a, *ends):
        forests.append((n, len(a)))
        real_forest(forest, n, a, *ends)

    monkeypatch.setattr(FacetTable, "cofaces", recording_rows)
    monkeypatch.setattr(SignedForest, "__init__", recording_forest)
    (tmp_path / "torus.json").write_text(json.dumps(complex_to_json(catalog.torus())))
    code, data, _ = run_json(capsys, "duality", str(tmp_path / "torus.json"))
    assert code == 0
    torus = catalog.torus()
    top = (torus.n_simplices(1), torus.n_simplices(2))
    assert reads.count(top) == 1
    assert forests.count(top[::-1]) == 1  # over the triangles, an edge per row
    assert data["results"]["manifold"] == manifold_check(catalog.torus()).to_json()


def test_duality_and_lefschetz_build_each_facet_table_once(tmp_path, capsys, monkeypatch):
    """One query builds each d_q of its complex at most once, on the
    complex: the manifold check, the orientation and the (co)homology walk
    all read it, and the chain complex hands out the complex's own."""
    real = SimplicialComplex.boundary
    builds = []

    def recording(x, q):
        if q not in x._boundary:
            builds.append((x, q))
        return real(x, q)

    sd, _ = barycentric_subdivide(catalog.torus())
    (tmp_path / "sd_torus.json").write_text(json.dumps(complex_to_json(sd)))
    monkeypatch.setattr(SimplicialComplex, "boundary", recording)
    for command in ("duality", "lefschetz"):
        builds.clear()
        code, _, _ = run_json(capsys, command, str(tmp_path / "sd_torus.json"))
        assert code == 0, command
        assert builds and len({x for x, _ in builds}) == 1, command
        assert len({q for _, q in builds}) == len(builds), command

    x = complex_from_json(complex_to_json(sd))
    cc = Space(x).cc
    assert all(cc.boundary(q) is x.boundary(q) for q in range(-1, x.dim + 2))


def test_duality_rejects_rp2_with_exit_2(capsys):
    code, out, err = run(capsys, "duality", "rp2")
    assert code == 2
    assert "orientation" in err or "error" in err


def test_duality_rejects_interval(capsys):
    code, out, err = run(capsys, "duality", "interval")
    assert code == 2


def test_duality_rejects_disk_with_its_manifold_report(capsys):
    code, out, err = run(capsys, "duality", "disk")
    assert (code, out) == (2, "")
    assert err == (
        "error: 'disk' is not a closed pseudo-manifold: ManifoldReport(dimension=2, "
        "pure=True, closed=False, facet_incidences_ok=True, strongly_connected=True, "
        "connected=True, boundary_facets=(('a', 'b'), ('a', 'c'), ('b', 'c')), "
        "is_closed_pseudo_manifold=False, vertex_links_ok=False)\n"
    )


def test_duality_rejects_a_pinched_sphere_naming_the_vertex(tmp_path, capsys):
    """Sd of the octahedron with the antipodal vertices d and u glued is a
    pure, closed, strongly connected pseudo-manifold with Betti (1, 1, 1),
    but the link of the glued vertex is two circles: it is no surface, and
    duality refuses it before the cap product is singular."""
    from simhom.complex import orient
    from simhom.errors import NotClosed

    sd, _ = barycentric_subdivide(catalog.octahedron())
    data = complex_to_json(sd)
    data["name"] = "pinched sphere"
    data["maximal_simplices"] = [
        ["d" if v == "u" else v for v in s] for s in data["maximal_simplices"]
    ]
    data["vertices"] = data["vertex_order"] = [v for v in data["vertices"] if v != "u"]
    x = complex_from_json(data)
    report = manifold_check(x)
    assert report.is_closed_pseudo_manifold and report.vertex_links_ok is False
    assert Space(x).homology.betti_vector() == (1, 1, 1)
    message = "'pinched sphere' is not a closed manifold: the link of vertex 'd' is not one circle"
    with pytest.raises(NotClosed) as err:
        orient(x)
    assert str(err.value) == message
    path = tmp_path / "pinched.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "duality", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_parse_error_exit_1(capsys):
    code, out, err = run(capsys, "homology", "no-such-complex")
    assert code == 1
    assert "error" in err


def test_face_enumeration_is_bounded_before_it_starts(tmp_path, capsys, monkeypatch):
    """One 64-vertex maximal simplex would need 2^64 - 1 faces: it is refused
    with exit code 1, naming its size, before a single face is enumerated.
    The golden Sd^2 torus, well under the bound, is still accepted."""
    import os

    import simhom.complex as cx

    huge = {"name": "huge", "maximal_simplices": [[f"v{i}" for i in range(64)]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(huge))

    def no_enumeration(*args):
        raise AssertionError("faces were enumerated")

    with monkeypatch.context() as m:
        m.setattr(cx, "combinations", no_enumeration)
        code, out, err = run(capsys, "homology", str(path))
    assert code == 1 and not out
    assert "64 vertices" in err and str(cx.MAX_FACES) in err
    sd2 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "sd2_torus.json")
    code, data, _ = run_json(capsys, "homology", sd2)
    assert code == 0 and data["results"]["betti"] == [1, 2, 1]


def test_degree_command(capsys):
    code, data, _ = run_json(capsys, "degree", "hex_wrap2")
    assert code == 0
    assert data["results"]["degree"] == "2"
    code, data, _ = run_json(capsys, "degree", "oct_antipodal")
    assert data["results"]["degree"] == "-1"


def test_lefschetz_command(capsys):
    code, data, _ = run_json(capsys, "lefschetz", "torus")
    assert code == 0
    assert data["results"]["euler_number"] == "0"
    assert data["results"]["combinatorial_euler_characteristic"] == 0
    signs = [s["sign"] for s in data["results"]["lefschetz_class_summands"]]
    assert signs == [1, -1, -1, 1]


def test_coincidence_command_with_witness(capsys):
    code, data, _ = run_json(
        capsys, "coincidence", "hex_wrap2", "hex_wrap1", "--witness"
    )
    assert code == 0
    res = data["results"]
    assert res["value"] == "-1"
    assert res["consistent"] is True
    assert res["witness_status"] == "found"
    assert sorted(res["lambda"].values()) == ["-1"] * 6


def test_coincidence_id_pair(capsys):
    code, data, _ = run_json(
        capsys, "coincidence", "id_octahedron", "id_octahedron", "--witness"
    )
    assert code == 0
    assert data["results"]["value"] == "2"
    assert data["results"]["witness_status"] == "found"


def test_coincidence_zero_no_witness_claim(capsys):
    code, data, _ = run_json(
        capsys, "coincidence", "hex_const_v0", "hex_const_v3", "--witness"
    )
    assert code == 0
    assert data["results"]["value"] == "0"
    assert data["results"]["witness"] is None
    assert data["results"]["witness_status"] == "no-claim-lambda-zero"


def test_coincidence_refuses_maps_with_different_codomains_with_exit_2(capsys):
    code, out, err = run(capsys, "coincidence", "id_hexagon", "hex_wrap2", "--json")
    assert (code, out) == (2, "")
    assert err == "error: coincidence needs maps with common domain and codomain\n"


def test_coincidence_refuses_manifolds_of_different_dimensions_with_exit_2(tmp_path, capsys):
    """Two map files hexagon -> octahedron, constant at two vertices: the
    maps share their ends, and the dimensions differ."""
    paths = []
    for k, w in enumerate(("n", "s")):
        path = tmp_path / f"const_{w}.json"
        vertex_map = {v: w for v in catalog.hexagon().vertices}
        path.write_text(json.dumps({"domain": "hexagon", "codomain": "octahedron", "vertex_map": vertex_map}))
        paths.append(str(path))
    code, out, err = run(capsys, "coincidence", *paths, "--json")
    assert (code, out) == (2, "")
    assert err == "error: dim X = 1 differs from dim Y = 2\n"


def test_coincidence_exits_3_when_one_formula_disagrees(capsys, monkeypatch):
    """With the intersection route's value moved by one, the six formulas
    disagree: the report says so and the command exits 3."""
    import simhom.lefschetz as lefschetz

    real = lefschetz.augmentation_product
    monkeypatch.setattr(lefschetz, "augmentation_product", lambda *args: real(*args) + 1)
    code, data, _ = run_json(capsys, "coincidence", "hex_wrap2", "hex_wrap1")
    assert code == 3
    res = data["results"]
    assert res["consistent"] is False
    assert res["lambda"]["intersection"] == "0" and res["value"] == "-1"


def test_verify_exits_3_when_a_check_fails(capsys, monkeypatch):
    """With the product model's Betti vector wrong, both Kunneth checks are
    recorded as failed, with the vector as detail, and verify exits 3."""
    from simhom.products import ProductSpace

    monkeypatch.setattr(ProductSpace, "betti_vector", lambda self, kind=None: (1,))
    code, data, _ = run_json(capsys, "verify", "--suite", "kunneth")
    assert code == 3
    assert data["results"]["all_passed"] is False
    assert [(r["passed"], r["detail"]) for r in data["results"]["suites"]["kunneth"]] == [
        (False, "(1,)"),
        (False, "(1,)"),
    ]


def test_verify_kunneth_suite(capsys):
    code, data, _ = run_json(capsys, "verify", "--suite", "kunneth")
    assert code == 0
    names = [r["name"] for r in data["results"]["suites"]["kunneth"]]
    assert any("(1,0,2,0,1)" in n or "S2 x S2" in n for n in names)
    assert all(r["passed"] for r in data["results"]["suites"]["kunneth"])


def test_verify_deterministic_output(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "euler", "--seed", "7", "--json")
    code2, out2, _ = run(capsys, "verify", "--suite", "euler", "--seed", "7", "--json")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical for a pinned seed


def test_timing_flag_restores_elapsed(capsys):
    code, data, _ = run_json(capsys, "homology", "point", "--timing")
    assert code == 0
    assert isinstance(data["timing"], float)
    code, data, _ = run_json(capsys, "homology", "point")
    assert data["timing"] is None


def test_catalog_command(capsys):
    code, data, _ = run_json(capsys, "catalog")
    assert code == 0
    assert "octahedron" in data["results"]["complexes"]
    assert "hex_wrap2" in data["results"]["maps"]


def test_catalog_entries_all_validate():
    # constructing every entry passes validate/check_simplicial by design
    from simhom import catalog
    from simhom.complex import SimplicialComplex, SimplicialMap

    complexes = [catalog.get_complex(name) for name in catalog.COMPLEX_BUILDERS]
    maps = [catalog.get_map(name) for name in catalog.MAP_BUILDERS]
    assert all(isinstance(x, SimplicialComplex) for x in complexes)
    assert all(isinstance(f, SimplicialMap) for f in maps)
    assert len(complexes) + len(maps) >= 20


def test_file_inputs_roundtrip(tmp_path, capsys):
    # complex file + map file referring to it and to a catalog complex
    square = {
        "name": "square",
        "vertices": ["a", "b", "c", "d"],
        "maximal_simplices": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
    }
    cpath = tmp_path / "square.json"
    cpath.write_text(json.dumps(square))
    code, data, _ = run_json(capsys, "homology", str(cpath))
    assert code == 0
    assert data["results"]["betti"] == [1, 1]

    fmap = {
        "name": "square_to_triangle",
        "domain": "square",
        "codomain": "triangle",
        "vertex_map": {"a": "w0", "b": "w1", "c": "w2", "d": "w2"},
    }
    mpath = tmp_path / "map.json"
    mpath.write_text(json.dumps(fmap))
    code, data, _ = run_json(capsys, "degree", str(mpath))
    assert code == 0
    assert data["results"]["degree"] in ("1", "-1")


def test_file_map_coincidence(tmp_path, capsys):
    # two maps on the same complex file share the loaded domain object
    hexa = {
        "name": "hex6",
        "vertices": [f"v{i}" for i in range(6)],
        "maximal_simplices": [[f"v{i}", f"v{(i + 1) % 6}"] for i in range(6)],
    }
    (tmp_path / "hex6.json").write_text(json.dumps(hexa))
    fmap = {
        "domain": "hex6",
        "codomain": "triangle",
        "vertex_map": {f"v{i}": f"w{i % 3}" for i in range(6)},
    }
    gmap = {
        "domain": "hex6",
        "codomain": "triangle",
        "vertex_map": {
            "v0": "w0", "v1": "w1", "v2": "w2", "v3": "w0", "v4": "w0", "v5": "w0"
        },
    }
    (tmp_path / "f.json").write_text(json.dumps(fmap))
    (tmp_path / "g.json").write_text(json.dumps(gmap))
    code, data, _ = run_json(
        capsys, "coincidence", str(tmp_path / "f.json"), str(tmp_path / "g.json")
    )
    assert code == 0
    assert data["results"]["consistent"] is True
    assert data["results"]["value"] in ("-1", "1")


def test_map_file_ends_resolve_relative_to_the_map_file(tmp_path, capsys, monkeypatch):
    """A map file's complex paths are read from the map file's directory,
    even when the working directory holds a file of the same name."""
    sub = tmp_path / "sub"
    sub.mkdir()
    torus, octahedron = catalog.get_complex("torus"), catalog.get_complex("octahedron")
    (sub / "surf.json").write_text(json.dumps(complex_to_json(torus)))
    (tmp_path / "surf.json").write_text(json.dumps(complex_to_json(octahedron)))
    vertex_map = {v: v for v in torus.vertices}
    identity = {"domain": "surf.json", "codomain": "surf", "vertex_map": vertex_map}
    (sub / "id.json").write_text(json.dumps(identity))
    answers = []
    for cwd, path in ((tmp_path, os.path.join("sub", "id.json")), (sub, "id.json")):
        monkeypatch.chdir(cwd)
        code, data, err = run_json(capsys, "degree", path)
        assert (code, err) == (0, ""), (cwd, err)
        answers.append(data["results"])
    assert answers[0] == answers[1]
    assert (answers[0]["domain"], answers[0]["degree"]) == ("torus", "1")


def test_map_file_named_twice_is_read_and_checked_once(tmp_path, capsys, monkeypatch):
    """A map file named twice in one query is one map object, so its f_#
    is built once, and `coincidence m.json m.json` answers as the catalog
    map does, names aside."""
    shift = catalog.get_map("torus_shift")
    (tmp_path / "m.json").write_text(json.dumps(map_to_json(shift)))
    monkeypatch.chdir(tmp_path)
    resolver = _Resolver()
    assert resolver.map("m.json") is resolver.map(os.path.join(".", "m.json"))
    code, data, err = run_json(capsys, "coincidence", "m.json", os.path.join(".", "m.json"))
    assert (code, err) == (0, "")
    _, expected, _ = run_json(capsys, "coincidence", "torus_shift", "torus_shift")
    for key in ("f", "g"):
        expected["results"][key] = "m.json"
    assert data["results"] == expected["results"]


def test_bad_map_file_exit_1(tmp_path, capsys):
    bad = {
        "domain": "hexagon",
        "codomain": "triangle",
        "vertex_map": {f"v{i}": "w0" if i % 2 else "nope" for i in range(6)},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, err = run(capsys, "degree", str(path))
    assert code == 1


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"zz": "w1"}, "error: mapped vertex 'zz' not in domain 'hexagon'\n"),
        ({"v5": None}, "error: vertex 'v5' has no image\n"),
        ({"v0": "nope"}, "error: image vertex 'nope' not in codomain\n"),
    ],
)
def test_map_file_vertex_errors_exit_1(tmp_path, capsys, edit, message):
    """hex_wrap2's vertex map with one key added that the hexagon lacks,
    with one vertex's image dropped, or with an image the triangle lacks, is
    refused with exit 1."""
    vertex_map = dict(catalog.get_map("hex_wrap2").vertex_map_names(), **edit)
    vertex_map = {v: w for v, w in vertex_map.items() if w is not None}
    data = {"domain": "hexagon", "codomain": "triangle", "vertex_map": vertex_map}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "degree", str(path))
    assert (code, out, err) == (1, "", message)


def test_human_output_runs(capsys):
    code, out, err = run(capsys, "homology", "genus2")
    assert code == 0
    assert "genus2" in out
    assert "betti" in out


# Input files of the wrong shape: each is refused with exit code 1 and a
# MalformedInput that names the bad entry, with no traceback.
HOSTILE_COMPLEXES = {
    "string-simplex": ({"maximal_simplices": ["abc"]}, "maximal_simplices[0] must be an array"),
    "empty-simplex": ({"maximal_simplices": [[]]}, "maximal_simplices[0] must be a non-empty simplex"),
    "not-an-object": ([["a", "b"]], "a complex file must be a JSON object"),
    "list-vertex": ({"maximal_simplices": [[["a"], "b"]]}, "maximal_simplices[0][0]"),
    "mixed-vertex-ids": ({"maximal_simplices": [["a", 1]]}, "vertex ids 'a' and 1"),
    "no-maximal-simplices": ({"vertices": ["a"]}, "needs the key 'maximal_simplices'"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_COMPLEXES))
def test_malformed_complex_file_exit_1(tmp_path, capsys, case):
    data, named = HOSTILE_COMPLEXES[case]
    assert MalformedInput in PARSE_ERRORS
    with pytest.raises(MalformedInput, match=re.escape(named)):
        complex_from_json(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "homology", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and named in err


def test_mixed_vertex_ids_with_an_order_are_accepted(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"maximal_simplices": [["a", 1]], "vertex_order": [1, "a"]}))
    code, data, _ = run_json(capsys, "homology", str(path))
    assert code == 0
    assert data["results"]["betti"] == [1, 0]


HOSTILE_MAPS = {
    "list-image": (
        {"domain": "hexagon", "codomain": "triangle", "vertex_map": {"v0": ["w0"]}},
        "vertex_map['v0']",
    ),
    "not-an-object": ([1], "a map file must be a JSON object"),
    "list-domain": (
        {"domain": ["hexagon"], "codomain": "triangle", "vertex_map": {}},
        "domain must be a complex name or path",
    ),
    "no-vertex-map": ({"domain": "hexagon", "codomain": "triangle"}, "needs the key 'vertex_map'"),
    "no-domain": ({"codomain": "triangle", "vertex_map": {}}, "needs the key 'domain'"),
    "no-codomain": ({"domain": "hexagon", "vertex_map": {}}, "needs the key 'codomain'"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_MAPS))
def test_malformed_map_file_exit_1(tmp_path, capsys, case):
    data, named = HOSTILE_MAPS[case]
    with pytest.raises(MalformedInput, match=re.escape(named)):
        map_ends(data)
        map_from_json(data, catalog.get_complex("hexagon"), catalog.get_complex("triangle"))
    path = tmp_path / "bad_map.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "degree", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and named in err


def test_map_files_over_numeric_vertex_ids(tmp_path, capsys):
    """JSON keys are strings: "0" names the domain vertex 0, images keep
    their JSON type, and such a map round-trips through its file form."""
    c3 = {"maximal_simplices": [[0, 1], [1, 2], [0, 2]]}
    (tmp_path / "c3.json").write_text(json.dumps(c3))
    rot = {"domain": "c3.json", "codomain": "c3.json", "vertex_map": {"0": 1, "1": 2, "2": 0}}
    (tmp_path / "rot.json").write_text(json.dumps(rot))
    code, data, _ = run_json(capsys, "degree", str(tmp_path / "rot.json"))
    assert code == 0
    assert data["results"]["degree"] == "1"
    x = complex_from_json(c3)
    f = map_from_json(rot, x, x)
    written = json.loads(json.dumps(map_to_json(f)))
    assert written["vertex_map"] == rot["vertex_map"]
    assert map_from_json(written, x, x).mapping == f.mapping == (1, 2, 0)


def test_map_keys_that_name_two_domain_vertices_exit_1(tmp_path, capsys):
    """Domain vertices 1 and "1" are both written "1" as a map key."""
    x = {"maximal_simplices": [[1, "1"]], "vertex_order": [1, "1"]}
    (tmp_path / "x.json").write_text(json.dumps(x))
    data = {"domain": "x.json", "codomain": "x.json", "vertex_map": {"1": 1}}
    (tmp_path / "m.json").write_text(json.dumps(data))
    with pytest.raises(MalformedInput, match="domain vertices 1 and '1'"):
        map_from_json(data, complex_from_json(x), complex_from_json(x))
    code, out, err = run(capsys, "degree", str(tmp_path / "m.json"))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "domain vertices 1 and '1'" in err


def test_python_m_simhom_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(simhom.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "simhom", "homology", "point", "--json"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["results"]["betti"] == [1]
