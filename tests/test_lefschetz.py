import random
from fractions import Fraction

import pytest

from simhom import catalog, duality, homology, lefschetz, verify
from simhom.complex import SimplicialMap, constant_map, identity_map
from simhom.duality import duality_operator, degree, transfers
from simhom.errors import DegreeMismatch, DimensionMismatch
from simhom.exactlin import ONE, ZERO, dense_mul, lp_feasible
from simhom.homology import GradedMap, Space, basis_class, induced_map
from simhom.lefschetz import (
    coefficient_extraction_table,
    coincidence_number,
    coincidence_witness,
    euler_data,
    lefschetz_class,
    lefschetz_iso,
    lefschetz_iso_and_trace,
)
from simhom.products import cross, cup, product_map, product_space
from simhom.verify import ORIENTABLE

from oracles import oracle_coincidence_witness, oracle_lp_feasible
from test_cli import run

F = Fraction

_spaces = {}
_ops = {}


def space(name):
    if name not in _spaces:
        _spaces[name] = Space(catalog.get_complex(name))
    return _spaces[name]


def dop(name):
    if name not in _ops:
        _ops[name] = duality_operator(space(name))
    return _ops[name]


def test_lefschetz_class_point():
    d = dop("point")
    lef = lefschetz_class(d)
    assert lef.expansion == [(0, 0, 1)]
    assert list(lef.tensor.terms.values()) != []


def test_lefschetz_class_octahedron_signs():
    d = dop("octahedron")
    lef = lefschetz_class(d)
    # Betti (1,0,1): one summand per degree 0 and 2, both with sign +1
    assert [(q, sign) for (q, _, sign) in lef.expansion] == [(0, 1), (2, 1)]


def test_lefschetz_class_torus_summands():
    d = dop("torus")
    lef = lefschetz_class(d)
    signs = [(q, sign) for (q, _, sign) in lef.expansion]
    assert signs == [(0, 1), (1, -1), (1, -1), (2, 1)]


def test_lefschetz_class_built_and_verified_once_per_operator(monkeypatch):
    checked = []
    verify = lefschetz._verify_extraction
    monkeypatch.setattr(
        lefschetz, "_verify_extraction", lambda lef, d: checked.append(d) or verify(lef, d)
    )
    d = duality_operator(Space(catalog.torus()))
    f, g = catalog.get_map("torus_shift"), catalog.get_map("id_torus")
    values = [coincidence_number(f, g, dx=d, dy=d).value for _ in range(3)]
    assert values == [0, 0, 0]
    assert checked == [d]
    assert lefschetz_class(d) is lefschetz_class(d)


def test_coefficient_extraction_diagonal():
    # the coefficient-extraction identity, octahedron and torus regression
    for name in ["octahedron", "torus"]:
        d = dop(name)
        lef = lefschetz_class(d)
        for q, i, j, value, expected in coefficient_extraction_table(lef, d):
            assert value == expected, (name, q, i, j)


def test_euler_data_catalog():
    expected = {
        "octahedron": 2,
        "icosahedron": 2,
        "torus": 0,
        "hexagon": 0,
        "genus2": -2,
        "point": 1,
        "torus7": 0,
    }
    for name, chi in expected.items():
        data = euler_data(dop(name))
        assert data.euler_number == chi, name
        assert data.combinatorial == chi, name


def _dual_basis_sum(d, product):
    """sum_q (-1)^q sum_i product(b^_i, b_i) over the degree-q cohomology basis."""
    h = d.space.cohomology
    total = None
    for q in range(d.n + 1):
        for i, bhat in enumerate(d.dual_basis(q)):
            term = product(bhat, basis_class(h, q, i)).scale((-ONE) ** q)
            total = term if total is None else total + term
    return total


def test_lefschetz_iso_identity_is_lefschetz_class():
    for name in ["octahedron", "torus", "hexagon"]:
        d = dop(name)
        lef = lefschetz_class(d)
        sigma = GradedMap.identity(d.space.cohomology)
        tensor, tr = lefschetz_iso_and_trace(d, lef.product, sigma)
        reference = _dual_basis_sum(d, lambda a, b: cross(a, b, lef.product))
        assert tensor == lef.tensor == reference, name
        assert tr == euler_data(d).euler_number, name


def test_euler_class_is_dual_basis_cup_sum():
    # chi_X = Delta^* Lambda_X against sum (-1)^q b^_i u b_i, cup by cup
    for name in ORIENTABLE:
        d = dop(name)
        reference = _dual_basis_sum(d, lambda a, b: cup(a, b, d.space))
        assert euler_data(d).euler_class == reference, name


def test_coincidence_number_builds_each_induced_map_once(monkeypatch):
    # f_*, g_*, f^*, g^* once each: the transfers carry them, id_* is built
    calls = []
    real = homology.induced_map

    def counted(f, *args, **kwargs):
        calls.append(f.name)
        return real(f, *args, **kwargs)

    for module in (homology, duality, lefschetz):
        if hasattr(module, "induced_map"):
            monkeypatch.setattr(module, "induced_map", counted)
    dx, dy = dop("hexagon"), dop("triangle")
    rep = coincidence_number(catalog.hex_wrap2(), catalog.hex_wrap1(), dx=dx, dy=dy)
    assert rep.value == -1 and rep.consistent
    assert sorted(calls) == ["hex_wrap1", "hex_wrap1", "hex_wrap2", "hex_wrap2"]


def count_chain_map_builds(monkeypatch):
    """The list that records, from now on, each map whose f_# is built."""
    real = SimplicialMap.chain_map
    built = []

    def recording(f):
        if f._chain is None:
            built.append(f)
        return real(f)

    monkeypatch.setattr(SimplicialMap, "chain_map", recording)
    return built


def test_coincidence_number_builds_one_chain_map_per_map(monkeypatch):
    """f_* and f^* read one f_#, so two maps build two; g = f reuses f's
    transfers and builds none again."""
    x = catalog.torus()
    d = dop("torus")
    shift = catalog.torus_shift().mapping
    built = count_chain_map_builds(monkeypatch)
    f = identity_map(x)
    g = SimplicialMap(x, x, shift, name="shift")
    rep = coincidence_number(f, g, dx=d, dy=d)
    assert rep.consistent and rep.value == 0
    assert sorted(h.name for h in built) == ["id_torus", "shift"]

    made = []
    real = lefschetz.transfers

    def recording(h, *args):
        made.append(h)
        return real(h, *args)

    monkeypatch.setattr(lefschetz, "transfers", recording)
    built.clear()
    h = identity_map(x)
    assert coincidence_number(h, h, dx=d, dy=d).value == 0
    assert built == made == [h]


def test_suite_coincidence_builds_one_chain_map_per_catalog_map(monkeypatch):
    """The catalog hands out one object per map name, so the coincidence
    suite builds each catalog map's f_# once."""
    catalog.get_map.cache_clear()
    for builder in catalog.MAP_BUILDERS.values():
        getattr(builder, "cache_clear", lambda: None)()
    built = count_chain_map_builds(monkeypatch)
    checks = verify.suite_coincidence()
    assert checks and all(c.passed for c in checks)
    names = [f.name for f in built]
    assert sorted(names) == sorted(set(names))
    used = {name for pair in verify.COINCIDENCE_PAIRS for name in pair[:2]}
    assert used <= set(names)
    assert all(catalog.get_map(f.name) is f for f in built)


def test_coincidence_and_cli_queries_make_no_cap_constant(monkeypatch, capsys):
    """Every cap with a fundamental class is read off the duality
    operators' matrices, so coincidence numbers, ``simhom lefschetz`` and
    ``simhom coincidence`` compute no cap structure constant."""
    from simhom.cli import main
    from simhom.products import RingStructure

    def refuse(*args):
        raise AssertionError("a cap structure constant was computed")

    monkeypatch.setattr(RingStructure, "cap_basis", refuse)
    for fname, gname, _, _, expected in verify.COINCIDENCE_PAIRS:
        report = coincidence_number(catalog.get_map(fname), catalog.get_map(gname))
        assert report.consistent and report.value == expected, (fname, gname)
    for argv in (
        ["lefschetz", "genus2"],
        ["coincidence", "hex_wrap2", "hex_wrap1", "--witness"],
        ["coincidence", "oct_rotate", "id_octahedron"],
    ):
        assert main([*argv, "--json"]) == 0, argv
    capsys.readouterr()


def test_lefschetz_iso_zero():
    d = dop("torus")
    prod = product_space(d.space, d.space)
    sigma = GradedMap(d.space.cohomology, d.space.cohomology, {})
    tensor, tr = lefschetz_iso_and_trace(d, prod, sigma)
    assert tensor.is_zero()
    assert tr == 0


def test_lefschetz_iso_takes_only_endomorphisms_of_cohomology():
    d = dop("torus")
    prod = product_space(d.space, d.space)
    with pytest.raises(DegreeMismatch):
        lefschetz_iso(d, prod, GradedMap.identity(d.space.homology))
    with pytest.raises(DegreeMismatch):
        lefschetz_iso(d, prod, GradedMap.identity(dop("octahedron").space.cohomology))


def test_graded_trace_takes_only_degree_preserving_endomorphisms():
    """Tr needs sigma^q : H^q -> H^q: the duality operator (H^* to H_*) and
    a map of H^*(X) to itself that raises degrees are refused, by the trace
    and by lambda_X."""
    d = dop("torus")
    h = d.space.cohomology
    prod = product_space(d.space, d.space)
    assert lefschetz.graded_trace(GradedMap.identity(h)) == 0
    assert lefschetz.graded_trace(d.inverse.compose(d)) == 0
    raising = GradedMap(h, h, {0: ((ONE,), (ZERO,))}, 1, 1)
    for sigma in (d, d.inverse, raising):
        with pytest.raises(DegreeMismatch, match="degree-preserving endomorphism"):
            lefschetz.graded_trace(sigma)
    with pytest.raises(DegreeMismatch, match="lambda_X takes"):
        lefschetz_iso(d, prod, raising)


def test_coincidence_through_a_zero_middle_degree():
    """Maps torus -> sphere meet H^1(S^2) = 0 between two copies of H^1(T):
    the composite is the 2 x 2 zero matrix, not a 2 x 0 one, so every trace
    formula answers and all six agree.  Constant maps at two vertices have
    no coincidence and lambda = 0; so do genus 2 -> torus."""
    from simhom.complex import constant_map

    t, o = catalog.torus(), catalog.octahedron()
    f, g = constant_map(t, o, o.vertices[0]), constant_map(t, o, o.vertices[1])
    dt, do = dop("torus"), dop("octahedron")
    tg = transfers(g, dt, do)
    composite = tg.pull.compose(tg.up)
    assert tg.up.matrix(1) == () and composite.matrix(1) == ((ZERO, ZERO), (ZERO, ZERO))
    report = coincidence_number(f, g, dt, do)
    assert report.consistent and report.value == 0
    g2 = catalog.genus2()
    f, g = constant_map(g2, t, t.vertices[0]), constant_map(g2, t, t.vertices[3])
    report = coincidence_number(f, g, dop("genus2"), dt)
    assert report.consistent and report.value == 0


def test_lefschetz_trace_projection_line():
    # projection onto one H^1 line of the torus: Tr = -1, matched by pairing
    d = dop("torus")
    prod = product_space(d.space, d.space)
    h = d.space.cohomology
    proj = GradedMap(h, h, {1: ((ONE, ZERO), (ZERO, ZERO))})
    tensor, tr = lefschetz_iso_and_trace(d, prod, proj)
    assert tr == -1


def test_lambda_naturality_lemma():
    # (g x f)^*(lambda_Y(s)) = lambda_X(f^* o s o g^!) on randomized s;
    # the g-side pulls back the dual slot of the tensor expansion.
    f = catalog.hex_wrap2()
    g = catalog.hex_wrap1()
    sx, sy = space("hexagon"), space("triangle")
    dx, dy = dop("hexagon"), dop("triangle")
    tg = transfers(g, dx, dy)
    f_up = induced_map(f, sy.cohomology, sx.cohomology)
    g_up = induced_map(g, sy.cohomology, sx.cohomology)
    prod_yy = product_space(sy, sy)
    prod_xx = product_space(sx, sx)
    pull = product_map(g_up, f_up, prod_yy, prod_xx)
    rng = random.Random(29)
    for _ in range(6):
        mats = {}
        for q in range(sy.dim + 1):
            b = sy.cohomology.betti(q)
            mats[q] = tuple(
                tuple(F(rng.randint(-2, 2)) for _ in range(b)) for _ in range(b)
            )
        sigma = GradedMap(sy.cohomology, sy.cohomology, mats)
        lhs = pull(lefschetz_iso(dy, prod_yy, sigma))
        comp = {}
        for q in range(sx.dim + 1):
            comp[q] = dense_mul(
                f_up.matrix(q), dense_mul(sigma.matrix(q), tg.up.matrix(q))
            )
        rhs = lefschetz_iso(dx, prod_xx, GradedMap(sx.cohomology, sx.cohomology, comp))
        assert lhs == rhs


PAIR_EXPECTATIONS = [
    # (f, g, dom, cod, expected lambda)
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


def _report(fname, gname, dom, cod):
    f = catalog.get_map(fname)
    g = catalog.get_map(gname)
    return coincidence_number(f, g, dx=dop(dom), dy=dop(cod))


def test_coincidence_pairs_and_consistency():
    for fname, gname, dom, cod, expected in PAIR_EXPECTATIONS:
        rep = _report(fname, gname, dom, cod)
        assert rep.consistent, (fname, gname, rep.lambdas)
        assert rep.value == expected, (fname, gname, rep.lambdas)
        assert len(rep.lambdas) == 6


def test_coincidence_symmetry():
    # lambda(f, g) = (-1)^n lambda(g, f)
    cases = [
        ("hex_wrap2", "hex_wrap1", "hexagon", "triangle"),
        ("oct_antipodal", "oct_rotate", "octahedron", "octahedron"),
        ("torus_transpose", "torus_shift", "torus", "torus"),
    ]
    for fname, gname, dom, cod in cases:
        a = _report(fname, gname, dom, cod)
        b = _report(gname, fname, dom, cod)
        n = a.dimension
        assert a.value == (-ONE) ** n * b.value, (fname, gname)


def test_coincidence_composition_scaling():
    # lambda(f o h, g o h) = deg h * lambda(f, g)
    base = _report("hex_wrap2", "hex_wrap1", "hexagon", "triangle")
    # h = reflection, degree -1
    rep = _report("wrap2_after_reflect", "wrap1_after_rotate", "hexagon", "triangle")
    # different h per factor is not covered by the law; use matching h instead
    f_h = catalog.get_map("wrap2_after_dodeca")
    g_h = catalog.get_map("wrap1_after_dodeca")
    rep2 = coincidence_number(f_h, g_h, dx=dop("dodecagon"), dy=dop("triangle"))
    h_deg = degree(catalog.dodeca_wrap2(), dop("dodecagon"), dop("hexagon"))
    assert h_deg == 2
    assert rep2.value == h_deg * base.value
    assert rep2.consistent
    # and h = reflection (degree -1) applied to both maps
    f_r = catalog.get_map("wrap2_after_reflect")
    from simhom.complex import compose

    g_r = compose(catalog.hex_wrap1(), catalog.hex_reflect(), name="wrap1_after_reflect")
    rep3 = coincidence_number(f_r, g_r, dx=dop("hexagon"), dy=dop("triangle"))
    assert rep3.value == -base.value


def test_coincidence_self_is_degree_times_euler():
    # lambda(f, f) = deg f * chi(X)
    cases = [
        ("oct_antipodal", "octahedron", "octahedron"),
        ("hex_wrap2", "hexagon", "triangle"),
        ("torus_transpose", "torus", "torus"),
    ]
    for name, dom, cod in cases:
        f = catalog.get_map(name)
        rep = coincidence_number(f, f, dx=dop(dom), dy=dop(cod))
        d = degree(f, dop(dom), dop(cod))
        chi = euler_data(dop(cod)).euler_number
        assert rep.value == d * chi, name


def test_coincidence_dimension_mismatch():
    f = catalog.get_map("id_hexagon")
    with pytest.raises(DimensionMismatch):
        coincidence_number(f, catalog.get_map("id_octahedron"))


def test_coincidence_refuses_maps_with_different_codomains():
    """id_hexagon and hex_wrap2 share their domain and dimension but not
    their codomain: the common-ends check refuses them, not a later one."""
    f, g = catalog.get_map("id_hexagon"), catalog.get_map("hex_wrap2")
    for pair in ((f, g), (g, f)):
        with pytest.raises(DimensionMismatch, match="^coincidence needs maps with common domain and codomain$"):
            coincidence_number(*pair)


def test_coincidence_refuses_manifolds_of_different_dimensions():
    """Two constant maps hexagon -> octahedron share their ends, but
    dim X = 1 and dim Y = 2."""
    x, y = catalog.hexagon(), catalog.octahedron()
    f = constant_map(x, y, y.vertices[0])
    g = constant_map(x, y, y.vertices[1])
    with pytest.raises(DimensionMismatch, match="^dim X = 1 differs from dim Y = 2$"):
        coincidence_number(f, g)


def test_witness_equal_maps_immediate():
    f = catalog.get_map("id_octahedron")
    point, status = coincidence_witness(f, f)
    assert status == "found"
    assert sum(point.coords) == 1


def test_witness_wrap_pair():
    f = catalog.hex_wrap2()
    g = catalog.hex_wrap1()
    point, status = coincidence_witness(f, g)
    assert status == "found"
    assert point is not None
    # exact verification is internal; double-check here too, codomain
    # vertices at standard basis points
    fm, gm = f.vertex_map_names(), g.vertex_map_names()
    image_f, image_g = {}, {}
    for v, t in zip(point.carrier, point.coords):
        image_f[fm[v]] = image_f.get(fm[v], 0) + t
        image_g[gm[v]] = image_g.get(gm[v], 0) + t
    assert image_f == image_g


def test_witness_constants_disjoint():
    f = catalog.get_map("hex_const_v0")
    g = catalog.get_map("hex_const_v3")
    point, status = coincidence_witness(f, g)
    assert point is None
    assert status == "search-exhausted"


def test_witness_subdivision_levels_on_surface():
    # disjoint constants on the sphere: the single search over the
    # octahedron's own triangles is exhausted, and the report says the
    # search ran at subdivision level 0
    from simhom.complex import constant_map

    oct_ = catalog.octahedron()
    f = constant_map(oct_, oct_, "u")
    g = constant_map(oct_, oct_, "d")
    point, status = coincidence_witness(f, g)
    assert point is None
    assert status == "search-exhausted"
    d = duality_operator(Space(oct_))
    rep = coincidence_number(f, g, dx=d, dy=d, witness=True)
    assert rep.value == 0 and rep.witness is None
    assert rep.to_json()["subdivision_level"] == 0


def test_single_level_witness_search_over_catalog_pairs(monkeypatch):
    # |f| and |g| are affine on each closed simplex, so one search over the
    # domain's own simplices decides every pair; a nonzero lambda always
    # comes with a witness.  Every LP of the search gives the point that the
    # hand-written substitution table for the equalities gave.  The search
    # reads vertex ids; the reference reads vertex names and orders the LP's
    # equalities by name.  The RREF of [A | b] does not depend on the row
    # order, so every pair gives the reference's point.
    def checked(cons, nvars):
        point = lp_feasible(cons, nvars)
        assert point == oracle_lp_feasible(cons, nvars), cons
        return point

    monkeypatch.setattr(lefschetz, "lp_feasible", checked)
    maps = [catalog.get_map(name) for name in catalog.MAP_BUILDERS]
    found = exhausted = 0
    for f in maps:
        for g in maps:
            if f.domain is not g.domain or f.codomain is not g.codomain:
                continue
            point, status = coincidence_witness(f, g)
            found += status == "found"
            exhausted += status == "search-exhausted"
            got = None if point is None else (point.carrier, point.coords)
            assert got == oracle_coincidence_witness(f, g), (f.name, g.name)
            if point is None:
                rep = coincidence_number(
                    f, g, dx=dop(f.domain.name), dy=dop(f.codomain.name)
                )
                assert rep.value == 0, (f.name, g.name)
    assert (found, exhausted) == (83, 16)


def test_witness_search_refuses_maps_with_different_domains():
    with pytest.raises(DimensionMismatch, match="witness search needs a common domain"):
        coincidence_witness(catalog.get_map("hex_wrap2"), catalog.get_map("id_triangle"))


def test_run_suites_refuses_an_unknown_suite():
    with pytest.raises(KeyError, match="unknown suite 'nope'"):
        verify.run_suites(["nope"])


def test_witness_gate_support_spans_no_simplex(monkeypatch, capsys):
    # v0 and v3 span no edge of the hexagon; f = g, so only this gate fires
    monkeypatch.setattr(lefschetz, "_search_complex", lambda f, g: [(0, F(1, 2)), (3, F(1, 2))])
    f = catalog.get_map("hex_rotate")
    with pytest.raises(AssertionError, match="witness support does not span a simplex"):
        coincidence_witness(f, f)
    code, _, err = run(capsys, "coincidence", "hex_rotate", "hex_rotate", "--witness")
    assert (code, err) == (3, "assertion failed: witness support does not span a simplex\n")


def test_witness_gate_exact_verification(monkeypatch, capsys):
    # every LP answers the first vertex of its simplex, which the two
    # disjoint constants send to different vertices
    monkeypatch.setattr(lefschetz, "lp_feasible", lambda cons, k: (ONE,) + (ZERO,) * (k - 1))
    f, g = catalog.get_map("hex_const_v0"), catalog.get_map("hex_const_v3")
    with pytest.raises(AssertionError, match="witness fails exact verification"):
        coincidence_witness(f, g)
    code, _, err = run(capsys, "coincidence", "hex_const_v0", "hex_const_v3", "--witness")
    assert (code, err) == (3, "assertion failed: witness fails exact verification\n")


def test_extraction_gate_fires_on_a_wrong_coefficient(monkeypatch):
    real = lefschetz.coefficient_extraction_table

    def moved(lef, d):
        (q, i, j, value, expected), *rest = real(lef, d)
        return [(q, i, j, value + 1, expected), *rest]

    monkeypatch.setattr(lefschetz, "coefficient_extraction_table", moved)
    d = duality_operator(Space(catalog.octahedron()))
    with pytest.raises(AssertionError, match=r"Lefschetz extraction failed at degree 0, \(0,0\): 2 != 1"):
        lefschetz_class(d)
    assert d._lefschetz is None


def test_euler_gate_fires_on_a_wrong_pairing(monkeypatch):
    real = lefschetz.kronecker
    monkeypatch.setattr(lefschetz, "kronecker", lambda a, b: real(a, b) + 1)
    d = duality_operator(Space(catalog.octahedron()))
    with pytest.raises(
        AssertionError, match="Euler mismatch on 'octahedron': pairing 3 vs combinatorial 2"
    ):
        euler_data(d)


def test_trace_formula_gate_fires_on_a_wrong_trace(monkeypatch):
    real = lefschetz.graded_trace
    monkeypatch.setattr(lefschetz, "graded_trace", lambda sigma: real(sigma) + 1)
    d = duality_operator(Space(catalog.octahedron()))
    prod = product_space(d.space, d.space)
    with pytest.raises(AssertionError, match="trace formula violated: pairing 2 vs trace 3"):
        lefschetz_iso_and_trace(d, prod, GradedMap.identity(d.space.cohomology))


def test_nonorientable_inputs_rejected():
    from simhom.complex import identity_map
    from simhom.errors import NonOrientable

    rp2 = catalog.rp2()
    with pytest.raises(NonOrientable):
        coincidence_number(identity_map(rp2), identity_map(rp2))


def test_witness_in_report():
    rep = coincidence_number(
        catalog.hex_wrap2(),
        catalog.hex_wrap1(),
        dx=dop("hexagon"),
        dy=dop("triangle"),
        witness=True,
    )
    assert rep.value == -1
    assert rep.witness_status == "found"
    assert rep.witness is not None

    rep0 = coincidence_number(
        catalog.get_map("hex_const_v0"),
        catalog.get_map("hex_const_v3"),
        dx=dop("hexagon"),
        dy=dop("hexagon"),
        witness=True,
    )
    assert rep0.value == 0
    assert rep0.witness is None
    assert rep0.witness_status == "no-claim-lambda-zero"


def test_witness_interior_point():
    # rotation vs reflection of the hexagon never agree on a vertex, so the
    # witness must be an interior point of an edge (the exact midpoint)
    f = catalog.get_map("hex_rotate")
    g = catalog.get_map("hex_reflect")
    fm, gm = f.vertex_map_names(), g.vertex_map_names()
    assert all(fm[v] != gm[v] for v in fm)
    point, status = coincidence_witness(f, g)
    assert status == "found"
    assert len(point.carrier) == 2
    assert point.coords == (F(1, 2), F(1, 2))


def test_fixed_point_specialization():
    # lambda(const_p, 1_X) = 1 on the sphere and the unique coincidence is p
    rep = coincidence_number(
        catalog.get_map("oct_const_u"),
        catalog.get_map("id_octahedron"),
        dx=dop("octahedron"),
        dy=dop("octahedron"),
        witness=True,
    )
    assert rep.value == 1 and rep.consistent
    assert rep.witness.carrier == ("u",)


def test_witness_rotation_fixed_pole():
    rep = coincidence_number(
        catalog.get_map("oct_rotate"),
        catalog.get_map("id_octahedron"),
        dx=dop("octahedron"),
        dy=dop("octahedron"),
        witness=True,
    )
    assert rep.value == 2
    assert rep.witness_status == "found"
    # the fixed points are the poles
    assert set(rep.witness.carrier) <= {"u", "d"}


def test_report_json_shape():
    rep = coincidence_number(
        catalog.hex_wrap2(), catalog.hex_wrap1(), dx=dop("hexagon"), dy=dop("triangle")
    )
    data = rep.to_json()
    assert data["value"] == "-1"
    assert set(data["lambda"]) == {
        "tr(f*.g!)", "tr(f!.g*)", "tr(f_!.g_*)", "tr(f_*.g_!)", "pairing", "intersection",
    }


def test_betti_level_values_are_fractions(monkeypatch):
    """The chain layer holds int entries; every class coefficient, graded
    map and duality entry, Kronecker value and lambda is still a Fraction,
    so a true division of two ints cannot slip through."""
    from simhom.verify import COINCIDENCE_PAIRS

    checked = []

    def fractions_only(values, where):
        values = list(values)
        assert all(type(v) is Fraction for v in values), (where, values)
        checked.extend(values)

    def entries(matrix):
        return (v for row in matrix for v in row)

    real_class, real_map = homology.HClass.__init__, homology.GradedMap.__init__

    def class_init(self, space, degree, coeffs):
        fractions_only(coeffs, "HClass")
        real_class(self, space, degree, coeffs)

    def map_init(self, source, target, matrices, *rule):
        for q, m in matrices.items():
            fractions_only(entries(m), ("GradedMap", q))
        real_map(self, source, target, matrices, *rule)

    monkeypatch.setattr(homology.HClass, "__init__", class_init)
    monkeypatch.setattr(homology.GradedMap, "__init__", map_init)
    for name in ORIENTABLE + ["rp2"]:
        s = Space(catalog.get_complex(name))
        for q in range(s.dim + 1):
            fractions_only(
                [
                    homology.kronecker(basis_class(s.cohomology, q, i), basis_class(s.homology, q, j))
                    for i in range(s.cohomology.betti(q))
                    for j in range(s.homology.betti(q))
                ],
                ("kronecker", name, q),
            )
        if name == "rp2":
            continue
        d = duality_operator(s)
        data = euler_data(d)
        fractions_only([data.euler_number], ("euler", name))
        for q in range(d.n + 1):
            fractions_only(entries(d.matrix(q)), ("duality", name, q))
            fractions_only(entries(d.inverse.matrix(q)), ("duality inverse", name, q))
            d.dual_basis(q)
    for f, g, _, _, _ in COINCIDENCE_PAIRS:
        f, g = catalog.get_map(f), catalog.get_map(g)
        fractions_only(coincidence_number(f, g).lambdas.values(), ("lambda", f.name, g.name))
        t = transfers(f, duality_operator(Space(f.domain)), duality_operator(Space(f.codomain)))
        for m in list(t.up.matrices.values()) + list(t.down.matrices.values()):
            fractions_only(entries(m), ("transfer", f.name))
    assert len(checked) > 1000


def test_coincidence_report_json_and_agreement():
    """Constructor defaults, ``agreement`` and ``to_json``: keys in order,
    values as exact strings, and the witness as its carrier and coords."""
    from simhom.complex import GeometricPoint
    from simhom.lefschetz import CoincidenceReport

    lambdas = {"trace": Fraction(-1), "transfer": Fraction(1, 2)}
    rep = CoincidenceReport("f", "g", 2, lambdas, False, Fraction(-1))
    assert rep.agreement() == {"trace": True, "transfer": False}
    data = rep.to_json()
    assert list(data) == [
        "f", "g", "dimension", "lambda", "agreement", "consistent", "value",
        "witness", "witness_status", "subdivision_level",
    ]
    assert data == {
        "f": "f",
        "g": "g",
        "dimension": 2,
        "lambda": {"trace": "-1", "transfer": "1/2"},
        "agreement": {"trace": True, "transfer": False},
        "consistent": False,
        "value": "-1",
        "witness": None,
        "witness_status": None,
        "subdivision_level": None,
    }
    point = GeometricPoint(("a", "b"), (Fraction(1, 3), Fraction(2, 3)))
    rep = CoincidenceReport(
        f_name="f", g_name="g", dimension=1, lambdas={"trace": ONE}, consistent=True,
        value=ONE, witness=point, witness_status="found", subdivision_level=1,
    )
    assert rep.to_json()["witness"] == {"carrier": ["a", "b"], "coords": ["1/3", "2/3"]}
    assert [rep.to_json()[k] for k in ("witness_status", "subdivision_level")] == ["found", 1]


def test_vertex_permutations_of_s3():
    """On S^3 = the boundary of a 4-simplex, every vertex permutation s is
    an automorphism of degree sgn s with lambda(s, id) = 1 - sgn s, the
    Lefschetz number of s, and lambda(id, s) = (-1)^3 lambda(s, id); all
    six formulas agree.  In odd dimension the pullbacks carry (-1)^n = -1."""
    from itertools import permutations

    from simhom.complex import SimplicialMap, constant_map, identity_map

    from test_homology import _boundary_of_4_simplex

    x = _boundary_of_4_simplex()
    d = duality_operator(Space(x))
    ident = identity_map(x)
    seen = set()
    for perm in permutations(range(5)):
        s = SimplicialMap(x, x, perm, name=f"s{perm}")
        sign = (-1) ** sum(a > b for k, b in enumerate(perm) for a in perm[:k])
        assert degree(s, d, d) == sign
        fixed = coincidence_number(s, ident, dx=d, dy=d)
        swapped = coincidence_number(ident, s, dx=d, dy=d)
        assert fixed.consistent and swapped.consistent, perm
        assert fixed.value == 1 - sign and swapped.value == -fixed.value, perm
        seen.add((sign, fixed.value))
    assert seen == {(1, 0), (-1, 2)}
