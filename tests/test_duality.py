import random
from fractions import Fraction

import pytest

from simhom import catalog
from simhom.duality import (
    ProductDuality,
    duality_operator,
    degree,
    fundamental_class,
    intersection,
    transfers,
)
from simhom.errors import NonOrientable, NotClosed, SingularDuality
from simhom.exactlin import ONE, ZERO, dense_eq, dense_identity, dense_mul, vec_is_zero
from simhom.homology import (
    HClass,
    Space,
    basis_class,
    induced_map,
    kronecker,
)
from simhom.products import (
    cap,
    cross,
    cup,
    product_map,
    product_space,
    unit_cocycle,
)

F = Fraction

ORIENTABLE = ["hexagon", "triangle", "dodecagon", "octahedron", "icosahedron",
              "torus", "torus7", "genus2", "point"]


def space(name):
    return Space(catalog.get_complex(name))


def rand_class(rng, graded, q):
    return HClass(graded, q, tuple(F(rng.randint(-3, 3)) for _ in range(graded.betti(q))))


def test_fundamental_class_octahedron():
    s = space("octahedron")
    fc = fundamental_class(s)
    assert len(fc.chain) == 8
    assert all(abs(c) == 1 for c in fc.chain)
    assert vec_is_zero(s.cc.boundary(2).apply(fc.chain))
    assert not fc.cls.is_zero()


def test_fundamental_class_hexagon():
    s = space("hexagon")
    fc = fundamental_class(s)
    assert len(fc.chain) == 6
    assert vec_is_zero(s.cc.boundary(1).apply(fc.chain))


def test_fundamental_class_rp2_refused():
    with pytest.raises(NonOrientable):
        fundamental_class(space("rp2"))


def test_fundamental_class_interval_refused():
    with pytest.raises(NotClosed):
        fundamental_class(space("interval"))


def test_duality_operator_invertible_on_catalog():
    for name in ORIENTABLE:
        s = space(name)
        d = duality_operator(s)
        for q in range(s.dim + 1):
            b = s.cohomology.betti(q)
            if b:
                prod = dense_mul(d.inverse_matrix(q), d.matrix(q))
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
    assert d.inverse_matrix(1) is not ()


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
        assert dense_eq(t.up_matrix(q), dense_identity(b))
        assert dense_eq(t.down_matrix(q), dense_identity(b))


def test_transfer_wrap_h0_is_degree():
    hexa, tri = space("hexagon"), space("triangle")
    dh, dt = duality_operator(hexa), duality_operator(tri)
    f = catalog.hex_wrap2()
    t = transfers(f, dh, dt)
    m = t.up_matrix(0)
    # f^! on H^0 multiplies by deg f = 2 (both units normalized to H^0 bases)
    one_h = unit_cocycle(hexa)
    one_t = unit_cocycle(tri)
    pushed = t.apply_up(one_h)
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
            lhs = dense_mul(f_low.matrix(q), t.down_matrix(q))
            assert dense_eq(lhs, tuple(tuple(d * v for v in row) for row in dense_identity(b))), name
            lhs2 = dense_mul(t.up_matrix(q), f_up.matrix(q))
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
        assert dense_eq(dense_mul(tg.up_matrix(q), tf.up_matrix(q)), tgf.up_matrix(q))
        assert dense_eq(
            dense_mul(tf.down_matrix(q), tg.down_matrix(q)), tgf.down_matrix(q)
        )


def test_transfer_projection_formula():
    # f_!(a n b) = f^* a n f_! b for cohomology a on Y, homology b on Y
    cases = [("hex_wrap2", "hexagon", "triangle"), ("oct_antipodal", "octahedron", "octahedron")]
    rng = random.Random(19)
    for name, dom, cod in cases:
        f = catalog.get_map(name)
        sx, sy = space(dom), space(cod)
        dx = duality_operator(sx)
        dy = duality_operator(sy) if dom != cod else dx
        t = transfers(f, dx, dy)
        f_up = induced_map(f, sy.cohomology, sx.cohomology)
        for _ in range(8):
            qa = rng.randint(0, sy.dim)
            qb = rng.randint(qa, sy.dim)
            a = rand_class(rng, sy.cohomology, qa)
            b = rand_class(rng, sy.homology, qb)
            lhs = t.apply_down(cap(a, b, sy))
            rhs = cap(f_up.apply(a), t.apply_down(b), sx)
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
            img = t.apply_down(b)  # in the image of f_!
            back = t.apply_down(f_low.apply(img))
            assert back.coeffs == img.scale(d).coeffs
            a = rand_class(rng, sy.cohomology, q)
            imga = f_up.apply(a)
            back2 = f_up.apply(t.apply_up(imga))
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
        return pd.apply(cross(dx.invert(a), one_y, prod))

    def py_shriek(s):
        return pd.apply(cross(one_x, dy.invert(s), prod))

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
        rhs = cross(tf.apply_up(a), tg.apply_up(b), py)
        assert lhs == rhs
