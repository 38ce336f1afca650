import random
from fractions import Fraction

import pytest

from simhom import catalog
from simhom.complex import constant_map, validate
from simhom.duality import (
    ProductDuality,
    duality_operator,
    degree,
    fundamental_class,
    intersection,
    transfers,
)
from simhom.errors import (
    DegreeMismatch,
    DimensionMismatch,
    NonOrientable,
    NotClosed,
    SingularDuality,
)
from simhom.exactlin import (
    ONE,
    ZERO,
    dense_eq,
    dense_identity,
    dense_inv,
    dense_mul,
)
from simhom.homology import (
    COHOMOLOGY,
    HClass,
    Space,
    basis_class,
    induced_map,
    kronecker,
)
from simhom.products import (
    TensorClass,
    cap,
    cap_on_product,
    cross,
    cross_h,
    cup,
    product_map,
    product_space,
    tensor_fundamental,
    unit_cocycle,
)

F = Fraction

ORIENTABLE = ["hexagon", "triangle", "dodecagon", "octahedron", "icosahedron",
              "torus", "torus7", "genus2", "point"]


def space(name):
    return Space(catalog.get_complex(name))


def rand_class(rng, graded, q):
    return HClass(graded, q, tuple(F(rng.randint(-3, 3)) for _ in range(graded.betti(q))))


def sphere3():
    return validate([[v for v in "abcde" if v != w] for w in "abcde"], name="S3")


def test_fundamental_class_octahedron():
    s = space("octahedron")
    fc = fundamental_class(s)
    assert len(fc.chain) == 8
    assert all(abs(c) == 1 for c in fc.chain)
    assert not any(s.cc.boundary(2).apply(fc.chain))
    assert not fc.cls.is_zero()


def test_fundamental_class_hexagon():
    s = space("hexagon")
    fc = fundamental_class(s)
    assert len(fc.chain) == 6
    assert not any(s.cc.boundary(1).apply(fc.chain))


def test_fundamental_class_rp2_refused():
    with pytest.raises(NonOrientable):
        fundamental_class(space("rp2"))


def test_fundamental_class_interval_refused():
    with pytest.raises(NotClosed):
        fundamental_class(space("interval"))


def test_fundamental_class_refuses_signs_that_are_no_cycle(monkeypatch):
    import simhom.duality as duality
    from simhom.complex import OrientationData, orient

    x = catalog.octahedron()
    data = orient(x)
    assert data.report.is_closed_pseudo_manifold
    flipped = (-data.signs[0],) + data.signs[1:]
    flip = OrientationData(signs=flipped, coherent=data.coherent, report=data.report)
    monkeypatch.setattr(duality, "orient", lambda _: flip)
    with pytest.raises(NotClosed, match="oriented top chain of 'octahedron' is not a cycle"):
        fundamental_class(Space(x))


def test_fundamental_class_refuses_a_top_homology_of_rank_two(monkeypatch):
    """Two disjoint spheres, their signs handed over as if ``orient`` had
    accepted them: the signed top chain is a cycle, but H_2 has rank 2."""
    import simhom.duality as duality
    from simhom.complex import OrientationData, orient

    x = catalog.octahedron()
    tops = [x.simplex_names(s) for s in x.top_simplices()]
    two = validate(
        [[f"{c}{v}" for v in t] for c in "ab" for t in tops],
        name="two_spheres",
        vertex_order=[f"{c}{v}" for c in "ab" for v in x.vertices],
    )
    with pytest.raises(NotClosed, match="not a closed pseudo-manifold"):
        orient(two)
    data = orient(x)
    both = OrientationData(signs=data.signs * 2, coherent=True, report=data.report)
    monkeypatch.setattr(duality, "orient", lambda _: both)
    with pytest.raises(NotClosed, match="H_2 of 'two_spheres' is not one-dimensional"):
        fundamental_class(Space(two))


def test_fundamental_class_refuses_a_top_cycle_that_is_zero(monkeypatch):
    import simhom.duality as duality
    from simhom.complex import OrientationData, orient

    x = catalog.octahedron()
    data = orient(x)
    zero = OrientationData(signs=(0,) * len(data.signs), coherent=True, report=data.report)
    monkeypatch.setattr(duality, "orient", lambda _: zero)
    with pytest.raises(NotClosed, match="top cycle of 'octahedron' is a boundary"):
        fundamental_class(Space(x))


def test_duality_operator_refuses_asymmetric_betti_numbers(monkeypatch):
    from simhom.duality import DualityOperator

    s = Space(catalog.octahedron())
    fc = fundamental_class(s)
    real = s.cohomology.betti
    monkeypatch.setattr(s.cohomology, "betti", lambda q: real(q) + (q == 0))
    with pytest.raises(SingularDuality, match="Betti asymmetry b\\^0 = 2 vs b_2 = 1 on 'octahedron'"):
        DualityOperator(s, fc)


def test_duality_operator_refuses_a_singular_cap(monkeypatch):
    import simhom.duality as duality

    monkeypatch.setattr(duality, "dense_inv", lambda m: None)
    with pytest.raises(
        SingularDuality,
        match="cap with the fundamental class is singular in degree 0 on 'octahedron'",
    ):
        duality_operator(Space(catalog.octahedron()))


def test_dual_basis_refuses_a_singular_pairing(monkeypatch):
    import simhom.duality as duality
    from simhom.errors import SingularPairing

    d = duality_operator(Space(catalog.octahedron()))
    monkeypatch.setattr(duality, "dense_inv", lambda m: None)
    with pytest.raises(SingularPairing, match="cup pairing singular in degree 1 on 'octahedron'"):
        d.dual_basis(1)


def test_fundamental_class_shares_the_orientation_forest_and_drops_it(monkeypatch):
    """``orient`` leaves its forest of d_n's rows on the orientation data,
    as no field of it; ``fundamental_class`` hands it to the (co)homology
    walk, which builds no dual forest of its own, and once the duality
    operator is built no forest is alive or reachable from it."""
    import gc

    from simhom.complex import OrientationData, barycentric_subdivide, orient
    from simhom.duality import DualityOperator
    from simhom.exactlin import SignedForest

    x = catalog.torus()
    data = orient(x)
    assert data == OrientationData(signs=data.signs, coherent=True, report=data.report)
    assert hash(data) == hash(OrientationData(data.signs, True, data.report))
    forest = data.take_forest()
    assert forest.source[0] is x.boundary(2) and forest.source[1] is False
    assert data.take_forest() is None

    def live_forests():
        gc.collect()
        return [o for o in gc.get_objects() if isinstance(o, SignedForest)]

    sd, _ = barycentric_subdivide(catalog.genus2())
    del data, forest
    before = {id(o) for o in live_forests()}
    real_init = SignedForest.__init__
    sizes = []

    def recording_init(f, n, a, *ends):
        sizes.append((n, len(a)))
        real_init(f, n, a, *ends)

    s = Space(sd)
    monkeypatch.setattr(SignedForest, "__init__", recording_init)
    op = DualityOperator(s, fundamental_class(s))
    monkeypatch.undo()
    assert sizes.count((sd.n_simplices(2), sd.n_simplices(1))) == 1
    assert not [o for o in live_forests() if id(o) not in before]
    assert op.fundamental.orientation.take_forest() is None


def test_duality_operator_invertible_on_catalog():
    for name in ORIENTABLE:
        s = space(name)
        d = duality_operator(s)
        for q in range(s.dim + 1):
            b = s.cohomology.betti(q)
            if b:
                prod = d.inverse.compose(d).matrix(q)
                assert dense_eq(prod, dense_identity(b)), (name, q)


def test_betti_symmetry_on_catalog():
    for name in ORIENTABLE:
        s = space(name)
        duality_operator(s)  # raises SingularDuality on asymmetry
        n = s.dim
        for q in range(n + 1):
            assert s.homology.betti(q) == s.homology.betti(n - q), name


def test_duality_degree_zero_sends_unit_to_fundamental():
    s = space("octahedron")
    d = duality_operator(s)
    one = unit_cocycle(s)
    assert d.apply(one).coeffs == d.fundamental.cls.coeffs


def test_duality_torus_degree_one_invertible():
    s = space("torus")
    d = duality_operator(s)
    m = d.matrix(1)
    assert len(m) == 2 and len(m[0]) == 2
    assert d.inverse.matrix(1) is not ()


def test_dual_basis_identity_pairing():
    for name in ["octahedron", "torus", "genus2", "hexagon"]:
        s = space(name)
        d = duality_operator(s)
        n = s.dim
        for q in range(n + 1):
            duals = d.dual_basis(q)
            for i, bhat in enumerate(duals):
                for j in range(s.cohomology.betti(q)):
                    val = kronecker(
                        cup(bhat, basis_class(s.cohomology, q, j), s),
                        d.fundamental.cls,
                    )
                    assert val == (ONE if i == j else ZERO), (name, q, i, j)


def test_dual_basis_inverts_the_pairing_of_cup_constants(monkeypatch):
    """dual_basis reads the cup pairing as K D and forms no cup; inverting
    the pairing built from the ring's cup constants and the Kronecker
    pairing gives the same classes, odd dimension included."""
    from simhom.products import RingStructure

    def refuse(*args):
        raise AssertionError("the dual basis formed a cup")

    for x in [catalog.get_complex(name) for name in ORIENTABLE] + [sphere3()]:
        s = Space(x)
        d = duality_operator(s)
        n = d.n
        with monkeypatch.context() as m:
            m.setattr(RingStructure, "cup_basis", refuse)
            for q in range(n + 1):
                d.dual_basis(q)
        for q in range(n + 1):
            b = s.cohomology.betti(q)
            pairing = [
                [
                    kronecker(
                        HClass(s.cohomology, n, s.ring.cup_basis(n - q, i, q, j)),
                        d.fundamental.cls,
                    )
                    for j in range(b)
                ]
                for i in range(b)
            ]
            inv = dense_inv(pairing) if b else ()
            duals = d.dual_basis(q)
            assert [c.coeffs for c in duals] == [tuple(row) for row in inv], (x.name, q)
            assert all(c.space is s.cohomology and c.degree == n - q for c in duals)


def test_dual_basis_octahedron_unit():
    s = space("octahedron")
    d = duality_operator(s)
    # the dual of the unit is the top class with Kronecker value 1 on zeta
    one = unit_cocycle(s)
    duals = d.dual_basis(0)
    # express the unit in the degree-0 basis to locate its dual
    coeff = one.coeffs[0]
    bhat = duals[0].scale(1 / coeff) if coeff != 1 else duals[0]
    assert kronecker(cup(bhat, one, s), d.fundamental.cls) == 1


def test_duality_vs_cap_route():
    # D_X o (a u .) = (a n .) o D_X on randomized classes
    s = space("torus")
    d = duality_operator(s)
    rng = random.Random(17)
    for _ in range(10):
        p = rng.choice([0, 1])
        q = rng.choice([0, 1])
        if p + q > 2:
            continue
        a = rand_class(rng, s.cohomology, p)
        b = rand_class(rng, s.cohomology, q)
        lhs = d.apply(cup(a, b, s))
        rhs = cap(a, d.apply(b), s)
        assert lhs.coeffs == rhs.coeffs


def test_transfer_identity_map():
    s = space("torus")
    d = duality_operator(s)
    f = catalog.get_map("id_torus")
    t = transfers(f, d, d)
    for q in range(3):
        b = s.cohomology.betti(q)
        assert dense_eq(t.up.matrix(q), dense_identity(b))
        assert dense_eq(t.down.matrix(q), dense_identity(b))


def test_transfer_wrap_h0_is_degree():
    hexa, tri = space("hexagon"), space("triangle")
    dh, dt = duality_operator(hexa), duality_operator(tri)
    f = catalog.hex_wrap2()
    t = transfers(f, dh, dt)
    m = t.up.matrix(0)
    # f^! on H^0 multiplies by deg f = 2 (both units normalized to H^0 bases)
    one_h = unit_cocycle(hexa)
    one_t = unit_cocycle(tri)
    pushed = t.up.apply(one_h)
    assert pushed.coeffs == one_t.scale(2).coeffs


def test_degrees_of_catalog_maps():
    cases = [
        ("id_octahedron", "octahedron", "octahedron", 1),
        ("hex_wrap2", "hexagon", "triangle", 2),
        ("hex_wrap1", "hexagon", "triangle", 1),
        ("dodeca_wrap2", "dodecagon", "hexagon", 2),
        ("oct_antipodal", "octahedron", "octahedron", -1),
        ("oct_rotate", "octahedron", "octahedron", 1),
        ("torus_shift", "torus", "torus", 1),
        ("torus_transpose", "torus", "torus", -1),
        ("hex_reflect", "hexagon", "hexagon", -1),
        ("hex_const_v0", "hexagon", "hexagon", 0),
    ]
    for name, dom, cod, expected in cases:
        f = catalog.get_map(name)
        dx = duality_operator(space(dom))
        dy = duality_operator(space(cod)) if dom != cod else dx
        assert degree(f, dx, dy) == expected, name
        assert transfers(f, dx, dy).degree() == expected, name


def test_degree_rejects_operators_of_other_complexes():
    f = catalog.hex_wrap2()  # hexagon -> triangle
    dh, dt = duality_operator(space("hexagon")), duality_operator(space("triangle"))
    for dx, dy in ((dh, dh), (dt, dt), (dt, dh)):
        with pytest.raises(DimensionMismatch):
            degree(f, dx, dy)
    assert degree(f, dh, dt) == 2


def test_suite_duality_builds_each_induced_map_once(monkeypatch):
    # f_* and f^* of the four transfer cases and of wrap2_after_dodeca
    import simhom.duality as duality_module
    import simhom.homology as homology_module
    import simhom.verify as verify_module

    calls = []
    real = homology_module.induced_map

    def counted(f, source, target):
        calls.append((f.name, source.kind))
        return real(f, source, target)

    for module in (homology_module, duality_module, verify_module):
        monkeypatch.setattr(module, "induced_map", counted)
    assert all(c.passed for c in verify_module.suite_duality(0))
    assert len(calls) == len(set(calls)) == 10


def test_transfers_refuse_classes_they_do_not_act_on():
    hexa, tri = space("hexagon"), space("triangle")
    dh, dt = duality_operator(hexa), duality_operator(tri)
    t = transfers(catalog.hex_wrap2(), dh, dt)
    assert t.up.apply(basis_class(hexa.cohomology, 1, 0)).space is tri.cohomology
    for wrong in (
        lambda: t.up.apply(basis_class(tri.cohomology, 1, 0)),
        lambda: t.up.apply(basis_class(hexa.homology, 1, 0)),
        lambda: t.up.apply(basis_class(space("hexagon").cohomology, 1, 0)),
        lambda: t.down.apply(basis_class(hexa.homology, 1, 0)),
        lambda: t.down.apply(basis_class(tri.cohomology, 1, 0)),
    ):
        with pytest.raises(DegreeMismatch):
            wrong()
    # hexagon -> point lowers the degree by one: f^! has no degree-0 part
    pt = space("point")
    c = transfers(constant_map(hexa.complex, pt.complex, "p"), dh, duality_operator(pt))
    assert c.up.apply(basis_class(hexa.cohomology, 1, 0)).degree == 0
    with pytest.raises(DegreeMismatch):
        c.up.apply(basis_class(hexa.cohomology, 0, 0))


def test_graded_maps_refuse_classes_of_the_wrong_length():
    """A class with more or fewer coefficients than its degree's basis is
    refused, not truncated: torus_transpose's f_* on H_1 of the torus."""
    t = space("torus")
    f_low = induced_map(catalog.get_map("torus_transpose"), t.homology, t.homology)
    assert f_low.apply(HClass(t.homology, 1, (ONE, ZERO))) == basis_class(t.homology, 1, 1)
    for coeffs in ((ONE,), (ONE, ZERO, ONE)):
        with pytest.raises(DegreeMismatch, match="coefficient count"):
            f_low.apply(HClass(t.homology, 1, coeffs))


def test_graded_maps_refuse_target_degrees_outside_the_target():
    """Each map's degree rule must land in 0..dim of its target: D and
    D^{-1} of the torus above degree 2, f^! of hexagon -> point on H^0
    (the rule q -> q - 1), and the connecting map of (disk, circle) on H_0."""
    from simhom.homology import long_exact_sequence

    t = space("torus")
    d = duality_operator(t)
    assert (d.sign, d.shift, d.inverse.sign, d.inverse.shift) == (-1, 2, -1, 2)
    assert d.apply(basis_class(t.cohomology, 0, 0)).degree == 2
    assert d.inverse.apply(d.fundamental.cls).degree == 0
    hexa, pt = space("hexagon"), space("point")
    up = transfers(
        constant_map(hexa.complex, pt.complex, "p"), duality_operator(hexa), duality_operator(pt)
    ).up
    assert (up.sign, up.shift) == (1, -1)
    circle = validate([["a", "b"], ["b", "c"], ["a", "c"]], name="circle")
    seq = long_exact_sequence(catalog.triangle2(), circle)
    assert (seq.connecting.sign, seq.connecting.shift) == (1, -1)
    assert seq.connecting.apply(basis_class(seq.pair, 2, 0)).degree == 1
    for graded, cls in (
        (d, HClass(t.cohomology, 5, ())),
        (d.inverse, HClass(t.homology, 5, ())),
        (up, basis_class(hexa.cohomology, 0, 0)),
        (seq.connecting, HClass(seq.pair, 0, ())),
    ):
        with pytest.raises(DegreeMismatch, match="outside"):
            graded.apply(cls)


def test_compose_composes_the_degree_rules():
    """D^{-1} o D keeps degrees and is the identity; f^! and f_! of
    hexagon -> point shift by -1 and +1, as D^{-1} f_* D and D f^* D^{-1}."""
    for name in ("torus", "hexagon", "point"):
        s = space(name)
        d = duality_operator(s)
        round_trip = d.inverse.compose(d)
        assert (round_trip.sign, round_trip.shift) == (1, 0)
        for q in range(s.dim + 1):
            assert dense_eq(round_trip.matrix(q), dense_identity(s.cohomology.betti(q)))
        other_way = d.compose(d.inverse)
        assert (other_way.sign, other_way.shift) == (1, 0)
    hexa, pt = space("hexagon"), space("point")
    dh, dp = duality_operator(hexa), duality_operator(pt)
    t = transfers(constant_map(hexa.complex, pt.complex, "p"), dh, dp)
    assert (t.down.sign, t.down.shift) == (1, 1)
    assert sorted(t.up.matrices) == [1] and sorted(t.down.matrices) == [0]
    assert t.down.apply(basis_class(pt.homology, 0, 0)).degree == 1
    with pytest.raises(DegreeMismatch):
        dh.compose(dh)  # H_* is not H^*


def test_product_map_refuses_degree_shifting_maps():
    """f x g applies no Koszul sign, so a factor that moves degrees, such
    as the duality operator, is refused."""
    s = space("torus")
    d = duality_operator(s)
    prod = product_space(s, s)
    identity = induced_map(catalog.get_map("id_torus"), s.cohomology, s.cohomology)
    for f, g in ((d, identity), (identity, d), (d, d), (d.inverse, d.inverse)):
        with pytest.raises(DegreeMismatch, match="keep degrees"):
            product_map(f, g, prod, prod)
    product_map(identity, identity, prod, prod)


def test_transfer_pushpull_is_degree_times_identity():
    # f_* o f_! = deg f  and  f^! o f^* = deg f on H^*(Y)
    cases = [
        ("hex_wrap2", "hexagon", "triangle"),
        ("hex_wrap1", "hexagon", "triangle"),
        ("oct_antipodal", "octahedron", "octahedron"),
        ("torus_transpose", "torus", "torus"),
        ("dodeca_wrap2", "dodecagon", "hexagon"),
    ]
    for name, dom, cod in cases:
        f = catalog.get_map(name)
        sx, sy = space(dom), space(cod)
        dx = duality_operator(sx)
        dy = duality_operator(sy) if dom != cod else dx
        t = transfers(f, dx, dy)
        d = degree(f, dx, dy)
        f_low = induced_map(f, sx.homology, sy.homology)
        f_up = induced_map(f, sy.cohomology, sx.cohomology)
        for q in range(sy.dim + 1):
            b = sy.homology.betti(q)
            lhs = dense_mul(f_low.matrix(q), t.down.matrix(q))
            assert dense_eq(lhs, tuple(tuple(d * v for v in row) for row in dense_identity(b))), name
            lhs2 = dense_mul(t.up.matrix(q), f_up.matrix(q))
            assert dense_eq(lhs2, tuple(tuple(d * v for v in row) for row in dense_identity(b))), name


def test_transfer_composition_law():
    # (g o f)^! = g^! o f^!
    f = catalog.dodeca_wrap2()
    g = catalog.hex_wrap2()
    gf = catalog.get_map("wrap2_after_dodeca")
    s12, s6, s3 = space("dodecagon"), space("hexagon"), space("triangle")
    d12, d6, d3 = duality_operator(s12), duality_operator(s6), duality_operator(s3)
    tf = transfers(f, d12, d6)
    tg = transfers(g, d6, d3)
    tgf = transfers(gf, d12, d3)
    for q in range(2):
        assert dense_eq(dense_mul(tg.up.matrix(q), tf.up.matrix(q)), tgf.up.matrix(q))
        assert dense_eq(
            dense_mul(tf.down.matrix(q), tg.down.matrix(q)), tgf.down.matrix(q)
        )


def test_transfer_projection_formula():
    # f_!(a n b) = f^* a n f_! b for cohomology a on Y, homology b on Y
    cases = [("hex_wrap2", "hexagon", "triangle"), ("oct_antipodal", "octahedron", "octahedron")]
    rng = random.Random(19)
    for name, dom, cod in cases:
        f = catalog.get_map(name)
        sx = space(dom)
        sy = space(cod) if dom != cod else sx
        dx = duality_operator(sx)
        dy = duality_operator(sy) if dom != cod else dx
        t = transfers(f, dx, dy)
        f_up = induced_map(f, sy.cohomology, sx.cohomology)
        for _ in range(8):
            qa = rng.randint(0, sy.dim)
            qb = rng.randint(qa, sy.dim)
            a = rand_class(rng, sy.cohomology, qa)
            b = rand_class(rng, sy.homology, qb)
            lhs = t.down.apply(cap(a, b, sy))
            rhs = cap(f_up.apply(a), t.down.apply(b), sx)
            assert lhs.coeffs == rhs.coeffs, name


def test_restricted_inverse_identities():
    # f_! o f_* = deg f on the image of f_!, f^* o f^! = deg f on im f^*
    f = catalog.hex_wrap2()
    sx, sy = space("hexagon"), space("triangle")
    dx, dy = duality_operator(sx), duality_operator(sy)
    t = transfers(f, dx, dy)
    d = degree(f, dx, dy)
    f_low = induced_map(f, sx.homology, sy.homology)
    f_up = induced_map(f, sy.cohomology, sx.cohomology)
    rng = random.Random(20)
    for q in range(2):
        for _ in range(5):
            b = rand_class(rng, sy.homology, q)
            img = t.down.apply(b)  # in the image of f_!
            back = t.down.apply(f_low.apply(img))
            assert back.coeffs == img.scale(d).coeffs
            a = rand_class(rng, sy.cohomology, q)
            imga = f_up.apply(a)
            back2 = f_up.apply(t.up.apply(imga))
            assert back2.coeffs == imga.scale(d).coeffs


def test_intersection_units_and_skew():
    t = space("torus")
    d = duality_operator(t)
    zeta = d.fundamental.cls
    rng = random.Random(21)
    for q in range(3):
        b = rand_class(rng, t.homology, q)
        assert intersection(zeta, b, d).coeffs == b.coeffs
        assert intersection(b, zeta, d).coeffs == b.coeffs
    # two H_1 generators intersect in +-1 point class; skew for n = 2, degs (1,1)
    a = basis_class(t.homology, 1, 0)
    b = basis_class(t.homology, 1, 1)
    ab = intersection(a, b, d)
    ba = intersection(b, a, d)
    assert not ab.is_zero()
    assert ba.coeffs == ab.scale(-1).coeffs
    assert intersection(a, a, d).is_zero()


def test_intersection_pairing_on_torus_h1():
    t = space("torus")
    d = duality_operator(t)
    from simhom.homology import augmentation

    mat = [
        [
            augmentation(
                intersection(
                    basis_class(t.homology, 1, i), basis_class(t.homology, 1, j), d
                )
            )
            for j in range(2)
        ]
        for i in range(2)
    ]
    assert mat[0][0] == 0 and mat[1][1] == 0
    assert mat[0][1] == -mat[1][0] != 0


def test_product_duality_roundtrip_and_signs():
    c = space("hexagon")
    d = duality_operator(c)
    prod = product_space(c, c)
    pd = ProductDuality(prod, d, d)
    rng = random.Random(22)
    for deg in range(3):
        terms = {}
        for p in range(deg + 1):
            q = deg - p
            for i in range(c.homology.betti(p)):
                for j in range(c.homology.betti(q)):
                    terms[(p, i, j)] = F(rng.randint(-2, 2))
        from simhom.homology import HOMOLOGY
        from simhom.products import TensorClass

        t = TensorClass(prod, HOMOLOGY, deg, terms)._clean()
        assert pd.apply(pd.invert(t)) == t


def _rand_tensor(rng, prod, kind, deg):
    gx = prod.x.cohomology if kind == COHOMOLOGY else prod.x.homology
    gy = prod.y.cohomology if kind == COHOMOLOGY else prod.y.homology
    terms = {
        (p, i, j): F(rng.randint(-3, 3))
        for p in range(deg + 1)
        for i in range(gx.betti(p))
        for j in range(gy.betti(deg - p))
    }
    return TensorClass(prod, kind, deg, terms)._clean()


def test_product_duality_is_the_cap_with_the_product_fundamental_class():
    """D read blockwise off D_X and D_Y equals the termwise cap with
    zeta_X x zeta_Y in every degree, and its inverse undoes it."""
    rng = random.Random(41)
    s3 = Space(sphere3())
    for sx, sy in (
        (space("hexagon"), space("triangle")),
        (space("torus"), space("octahedron")),
        (s3, s3),
    ):
        dx = duality_operator(sx)
        dy = duality_operator(sy) if sy is not sx else dx
        prod = product_space(sx, sy)
        pd = ProductDuality(prod, dx, dy)
        zeta = tensor_fundamental(prod, dx.fundamental.cls, dy.fundamental.cls)
        for deg in range(prod.dim + 1):
            for _ in range(3):
                t = _rand_tensor(rng, prod, COHOMOLOGY, deg)
                dual = pd.apply(t)
                assert dual == cap_on_product(t, zeta), (prod, deg)
                assert pd.invert(dual) == t, (prod, deg)


def test_product_duality_refuses_tensors_of_other_products_and_kinds():
    hexa, tri = space("hexagon"), space("triangle")
    pd = ProductDuality(product_space(hexa, tri), duality_operator(hexa), duality_operator(tri))
    swapped = product_space(tri, hexa)
    h1_tri, h1_hex = basis_class(tri.homology, 1, 0), basis_class(hexa.homology, 1, 0)
    c1_tri, c1_hex = basis_class(tri.cohomology, 1, 0), basis_class(hexa.cohomology, 1, 0)
    for wrong in (
        lambda: pd.invert(cross_h(h1_tri, h1_hex, swapped)),
        lambda: pd.apply(cross(c1_tri, c1_hex, swapped)),
        lambda: pd.invert(cross(c1_hex, c1_tri, pd.prod)),
        lambda: pd.apply(cross_h(h1_hex, h1_tri, pd.prod)),
    ):
        with pytest.raises(DegreeMismatch):
            wrong()


def test_intersection_via_diagonal_transfer():
    # a . b = (-1)^{n(n - deg b)} D_X Delta^* D_{XxX}^{-1} (a x b)
    from simhom.products import cross_h, diagonal_pullback

    rng = random.Random(31)
    for name in ["torus", "hexagon", "octahedron"]:
        s = space(name)
        d = duality_operator(s)
        n = d.n
        prod = product_space(s, s)
        pd = ProductDuality(prod, d, d)
        for _ in range(8):
            qa, qb = rng.randint(0, n), rng.randint(0, n)
            if qa + qb < n:
                continue
            a = rand_class(rng, s.homology, qa)
            b = rand_class(rng, s.homology, qb)
            direct = intersection(a, b, d)
            pulled = diagonal_pullback(pd.invert(cross_h(a, b, prod)), s)
            route = d.apply(pulled).scale((-ONE) ** (n * (n - qb)))
            assert route.degree == direct.degree
            assert route.coeffs == direct.coeffs, (name, qa, qb)


def test_cross_via_projection_transfers():
    # a x s = (-1)^{n(m - deg s)} (p_X! a) . (p_Y! s) in the tensor model
    from simhom.products import cross_h

    sx, sy = space("hexagon"), space("triangle")
    dx, dy = duality_operator(sx), duality_operator(sy)
    n, m = dx.n, dy.n
    prod = product_space(sx, sy)
    pd = ProductDuality(prod, dx, dy)
    one_x, one_y = unit_cocycle(sx), unit_cocycle(sy)

    def px_shriek(a):
        return pd.apply(cross(dx.inverse.apply(a), one_y, prod))

    def py_shriek(s):
        return pd.apply(cross(one_x, dy.inverse.apply(s), prod))

    rng = random.Random(33)
    for _ in range(10):
        qa, qs = rng.randint(0, n), rng.randint(0, m)
        a = rand_class(rng, sx.homology, qa)
        s = rand_class(rng, sy.homology, qs)
        lhs = cross_h(a, s, prod)
        rhs = pd.intersection(px_shriek(a), py_shriek(s)).scale(
            (-ONE) ** (n * (m - qs))
        )
        assert lhs == rhs


def test_product_transfer_law_equal_dims():
    # (f x g)^!(a x b) = f^!(a) x g^!(b) for equal-dimensional factors
    hexa, tri = space("hexagon"), space("triangle")
    dh, dt = duality_operator(hexa), duality_operator(tri)
    f = catalog.hex_wrap2()
    g = catalog.hex_wrap1()
    tf = transfers(f, dh, dt)
    tg = transfers(g, dh, dt)
    px = product_space(hexa, hexa)
    py = product_space(tri, tri)
    pdx = ProductDuality(px, dh, dh)
    pdy = ProductDuality(py, dt, dt)
    f_low = induced_map(f, hexa.homology, tri.homology)
    g_low = induced_map(g, hexa.homology, tri.homology)
    fxg_low = product_map(f_low, g_low, px, py)
    rng = random.Random(23)
    for _ in range(8):
        p = rng.choice([0, 1])
        q = rng.choice([0, 1])
        a = rand_class(rng, hexa.cohomology, p)
        b = rand_class(rng, hexa.cohomology, q)
        lhs = pdy.invert(fxg_low(pdx.apply(cross(a, b, px))))
        rhs = cross(tf.up.apply(a), tg.up.apply(b), py)
        assert lhs == rhs


def _int_or_proper_fraction(values):
    return all(type(v) is int or (type(v) is F and v.denominator != 1) for v in values)


def test_chain_level_vectors_stay_int(monkeypatch):
    """Representatives of H_* and H^*, the fundamental cycle and every
    cochain ``cup_basis`` builds hold ``int`` where integral, never an
    integral Fraction, on every catalog space and the golden Sd inputs.
    ``chain_of`` with integral coefficients over ``int`` representatives
    gives an ``int`` chain.  Every entry of f_# of a catalog map and of
    Sd_# of a catalog complex is an ``int`` +-1, and ``apply`` and f_#'s
    ``pull`` take an ``int`` representative to an ``int`` chain."""
    import json
    import os

    import simhom.products as products
    from simhom.chains import induced_chain_map, subdivision_chain_map
    from simhom.complex import complex_from_json
    from simhom.verify import ORIENTABLE as CLOSED_ORIENTABLE

    from oracles import sparse_of

    here = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
    complexes = [catalog.get_complex(name) for name in catalog.COMPLEX_BUILDERS]
    for fname in ("sd1_torus.json", "sd1_genus2.json", "sd2_torus.json"):
        with open(os.path.join(here, fname)) as fh:
            complexes.append(complex_from_json(json.load(fh)))
    closed = set(CLOSED_ORIENTABLE) | {x.name for x in complexes[-3:]}
    cochains = []
    real_cup = products.cup_cochain

    def recording_cup(*args):
        out = real_cup(*args)
        cochains.append(out)
        return out

    def all_int(values):
        return all(type(v) is int for v in values)

    def signs(m):
        return all(type(v) is int and v in (1, -1) for v in m.entries.values())

    monkeypatch.setattr(products, "cup_cochain", recording_cup)
    fundamentals = 0
    int_chains = 0
    spaces = {}
    for x in complexes:
        s = spaces[x.name] = Space(x)
        h, c = s.homology_and_cohomology()
        for graded in (h, c):
            for q in range(s.dim + 1):
                reps = graded.representatives(q)
                for rep in reps:
                    assert _int_or_proper_fraction(rep), (x.name, graded.kind, q)
                if reps and all(map(all_int, reps)):
                    coeffs = tuple(F(k - 1) for k in range(len(reps)))
                    assert all_int(graded.chain_of(q, coeffs)), (x.name, graded.kind, q)
                    int_chains += 1
        if x.name in closed:
            assert _int_or_proper_fraction(fundamental_class(s).chain), x.name
            fundamentals += 1
        for p in range(s.dim + 1):
            for q in range(s.dim + 1 - p):
                for i in range(c.betti(p)):
                    for j in range(c.betti(q)):
                        s.ring.cup_basis(p, i, q, j)
    assert fundamentals == len(CLOSED_ORIENTABLE) + 3
    assert len(cochains) > 50
    assert all(_int_or_proper_fraction(v) for v in cochains)
    assert int_chains > 30

    pushed = 0

    def push(apply, reps, where):
        nonlocal pushed
        for rep in filter(all_int, reps):
            assert all_int(apply(rep)), where
            pushed += 1

    for name in catalog.MAP_BUILDERS:
        f = catalog.get_map(name)
        sx, sy = spaces[f.domain.name], spaces[f.codomain.name]
        for q, m in induced_chain_map(f).items():
            assert signs(sparse_of(m)), (name, q)
            push(m.apply, sx.homology.representatives(q), (name, q))
            push(m.pull, sy.cohomology.representatives(q), (name, q))
    for name in catalog.COMPLEX_BUILDERS:
        sd_map = subdivision_chain_map(spaces[name].complex)
        for q in range(sd_map.source.dim + 1):
            m = sd_map.matrix(q)
            assert signs(m), (name, q)
            push(m.apply, spaces[name].homology.representatives(q), (name, q))
    assert pushed > 100


def test_mixed_int_and_fraction_vectors_match_all_fraction_inputs():
    """``class_of``, ``cup_cochain`` and ``cap_chain`` give on vectors mixing
    ``int`` and Fraction entries exactly what they give on the same
    vectors with every entry a Fraction."""
    from simhom.products import cap_chain, cup_cochain

    rng = random.Random(15)
    s = space("genus2")
    h, c = s.homology_and_cohomology()
    cc = s.cc

    def combination(graded, q):
        """A rational combination of degree-q representatives, in two forms:
        every entry a Fraction, and integral entries as int or Fraction at
        random."""
        coeffs = [F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(graded.betti(q))]
        vec = [F(0)] * cc.n(q)
        for k, rep in zip(coeffs, graded.representatives(q)):
            for i, v in enumerate(rep):
                vec[i] += k * v
        mixed = tuple(
            v.numerator if v.denominator == 1 and rng.random() < 0.7 else v for v in vec
        )
        if any(type(v) is int and v for v in mixed) and any(type(v) is F for v in mixed):
            mixes.append(mixed)
        return coeffs, tuple(vec), mixed

    mixes = []
    checked = 0
    for _ in range(4):
        for graded in (h, c):
            for q in range(s.dim + 1):
                coeffs, frac, mixed = combination(graded, q)
                got = graded.class_of(q, mixed)
                assert got == graded.class_of(q, frac) == tuple(coeffs)
                assert all(type(v) is F for v in got)
        for p, q in ((0, 1), (1, 1), (0, 2), (1, 0)):
            _, fa, ma = combination(c, p)
            _, fb, mb = combination(c, q)
            assert cup_cochain(cc, p, q, ma, fb) == cup_cochain(cc, p, q, fa, fb)
            assert cup_cochain(cc, p, q, ma, mb) == cup_cochain(cc, p, q, fa, fb)
            _, fs, ms = combination(h, p + q)
            assert cap_chain(cc, q, mb, p + q, ms) == cap_chain(cc, q, fb, p + q, fs)
            checked += 1
    assert checked == 16 and len(mixes) > 40
