import random
from fractions import Fraction

from simhom import catalog
from simhom.exactlin import ONE, ZERO, solve, vec_dot
from simhom.homology import (
    COHOMOLOGY,
    HOMOLOGY,
    HClass,
    Space,
    basis_class,
    induced_map,
    kronecker,
)
from simhom.products import (
    cap,
    cap_chain,
    cap_on_product,
    cross,
    cross_h,
    cup,
    cup_cochain,
    cup_on_product,
    diagonal_pullback,
    kronecker_product,
    product_map,
    product_space,
    swap_pushforward,
    tensor_fundamental,
    unit_cocycle,
)

F = Fraction


def space(name):
    return Space(catalog.get_complex(name))


def rand_vec(rng, n):
    return tuple(F(rng.randint(-3, 3)) for _ in range(n))


def rand_class(rng, graded, q):
    return HClass(graded, q, rand_vec(rng, graded.betti(q)))


# ---------------------------------------------------------------------------
# chain-level laws
# ---------------------------------------------------------------------------


def test_products_share_their_factors_rings():
    s, t = space("torus"), space("hexagon")
    assert product_space(s, s).rx is product_space(s, t).rx
    assert product_space(s, t).ry is product_space(t, t).rx is t.ring


def test_space_and_its_ring_form_no_reference_cycle():
    import gc
    import weakref

    s = Space(catalog.get_complex("torus"))
    assert product_space(s, s).rx.cup_basis(1, 0, 1, 1) == (-ONE,)
    ref = weakref.ref(s)
    gc.disable()
    try:
        del s
        assert ref() is None
    finally:
        gc.enable()


def test_cup_unit_exact_at_cochain_level():
    s = space("torus")
    cc = s.cc
    ones = tuple([ONE] * cc.n(0))
    rng = random.Random(1)
    for q in range(3):
        a = rand_vec(rng, cc.n(q))
        assert cup_cochain(cc, 0, q, ones, a) == a
        assert cup_cochain(cc, q, 0, a, ones) == a


def test_cup_associative_exact_at_cochain_level():
    s = space("genus2")
    cc = s.cc
    rng = random.Random(2)
    for _ in range(10):
        a = rand_vec(rng, cc.n(1))
        b = rand_vec(rng, cc.n(1))
        c = rand_vec(rng, cc.n(0))
        lhs = cup_cochain(cc, 2, 0, cup_cochain(cc, 1, 1, a, b), c)
        rhs = cup_cochain(cc, 1, 1, a, cup_cochain(cc, 1, 0, b, c))
        assert lhs == rhs


def test_cap_duality_exact_at_chain_level():
    # (a u b, s) = (a, b n s) for arbitrary cochains and chains
    s = space("torus")
    cc = s.cc
    rng = random.Random(3)
    for _ in range(15):
        p = rng.choice([0, 1])
        q = rng.choice([0, 1])
        if p + q > 2:
            continue
        a = rand_vec(rng, cc.n(p))
        b = rand_vec(rng, cc.n(q))
        sig = rand_vec(rng, cc.n(p + q))
        lhs = vec_dot(cup_cochain(cc, p, q, a, b), sig)
        rhs = vec_dot(a, cap_chain(cc, q, b, p + q, sig))
        assert lhs == rhs


def test_cap_associativity_exact_at_chain_level():
    # (a u b) n s = a n (b n s)
    s = space("octahedron")
    cc = s.cc
    rng = random.Random(4)
    for _ in range(10):
        a = rand_vec(rng, cc.n(1))
        b = rand_vec(rng, cc.n(1))
        sig = rand_vec(rng, cc.n(2))
        lhs = cap_chain(cc, 2, cup_cochain(cc, 1, 1, a, b), 2, sig)
        rhs = cap_chain(cc, 1, a, 1, cap_chain(cc, 1, b, 2, sig))
        assert lhs == rhs


def test_cap_unit_exact():
    s = space("torus")
    cc = s.cc
    ones = tuple([ONE] * cc.n(0))
    rng = random.Random(5)
    for q in range(3):
        sig = rand_vec(rng, cc.n(q))
        assert cap_chain(cc, 0, ones, q, sig) == sig


def test_cap_leibniz_rule():
    # d(b n s) = b n ds + (-1)^p (db) n s, p the degree of the result
    s = space("torus")
    cc = s.cc
    rng = random.Random(6)
    for _ in range(10):
        q = rng.choice([0, 1])
        d = rng.choice([1, 2])
        if q > d:
            continue
        p = d - q
        b = rand_vec(rng, cc.n(q))
        sig = rand_vec(rng, cc.n(d))
        lhs = cc.boundary(p).apply(cap_chain(cc, q, b, d, sig)) if p >= 1 else ()
        db = cc.coboundary(q).apply(b)
        ds = cc.boundary(d).apply(sig)
        t1 = cap_chain(cc, q, b, d - 1, ds) if q <= d - 1 else tuple([ZERO] * cc.n(p - 1))
        t2 = cap_chain(cc, q + 1, db, d, sig) if q + 1 <= d else tuple([ZERO] * cc.n(p - 1))
        rhs = tuple(x + (-ONE) ** p * y for x, y in zip(t1, t2))
        if p >= 1:
            assert lhs == rhs


# ---------------------------------------------------------------------------
# class-level laws
# ---------------------------------------------------------------------------


def test_cup_unit_class_level():
    for name in ["torus", "octahedron", "genus2"]:
        s = space(name)
        one = unit_cocycle(s)
        rng = random.Random(7)
        for q in range(s.dim + 1):
            a = rand_class(rng, s.cohomology, q)
            assert cup(one, a, s).coeffs == a.coeffs
            assert cup(a, one, s).coeffs == a.coeffs


def test_cup_skew_commutative_up_to_coboundary():
    s = space("torus")
    cc = s.cc
    rng = random.Random(8)
    for _ in range(10):
        p, q = 1, 1
        a = rand_class(rng, s.cohomology, p)
        b = rand_class(rng, s.cohomology, q)
        ab = cup_cochain(cc, p, q, a.chain(), b.chain())
        ba = cup_cochain(cc, q, p, b.chain(), a.chain())
        diff = tuple(x - (-ONE) ** (p * q) * y for x, y in zip(ab, ba))
        # coboundary membership, decided by exact solve
        assert solve(cc.coboundary(p + q - 1), diff) is not None
        # and the classes agree up to the sign
        assert cup(a, b, s).coeffs == cup(b, a, s).scale((-ONE) ** (p * q)).coeffs


def test_cup_naturality_on_catalog_maps():
    cases = [
        ("hex_wrap2", "hexagon", "triangle"),
        ("oct_antipodal", "octahedron", "octahedron"),
        ("torus_transpose", "torus", "torus"),
        ("torus_shift", "torus", "torus"),
    ]
    rng = random.Random(9)
    for map_name, dom_name, cod_name in cases:
        f = catalog.get_map(map_name)
        sx, sy = space(dom_name), space(cod_name)
        fstar = induced_map(f, sy.cohomology, sx.cohomology)
        for _ in range(6):
            p = rng.randint(0, sy.dim)
            q = rng.randint(0, sy.dim - p)
            a = rand_class(rng, sy.cohomology, p)
            b = rand_class(rng, sy.cohomology, q)
            lhs = fstar.apply(cup(a, b, sy))
            rhs = cup(fstar.apply(a), fstar.apply(b), sx)
            assert lhs.coeffs == rhs.coeffs, map_name


def test_cap_naturality_on_catalog_maps():
    # f_*((f^* a) n s) = a n (f_* s)
    cases = [
        ("hex_wrap2", "hexagon", "triangle"),
        ("oct_rotate", "octahedron", "octahedron"),
        ("torus_transpose", "torus", "torus"),
    ]
    rng = random.Random(10)
    for map_name, dom_name, cod_name in cases:
        f = catalog.get_map(map_name)
        sx, sy = space(dom_name), space(cod_name)
        fstar = induced_map(f, sy.cohomology, sx.cohomology)
        flow = induced_map(f, sx.homology, sy.homology)
        for _ in range(6):
            q = rng.randint(0, sy.dim)
            d = rng.randint(q, sx.dim)
            a = rand_class(rng, sy.cohomology, q)
            sig = rand_class(rng, sx.homology, d)
            lhs = flow.apply(cap(fstar.apply(a), sig, sx))
            rhs = cap(a, flow.apply(sig), sy)
            assert lhs.coeffs == rhs.coeffs, map_name


def test_torus_cup_square_zero_and_pairing():
    t = space("torus")
    a = basis_class(t.cohomology, 1, 0)
    b = basis_class(t.cohomology, 1, 1)
    assert cup(a, a, t).is_zero()
    assert cup(b, b, t).is_zero()
    ab = cup(a, b, t)
    assert not ab.is_zero()
    assert cup(b, a, t).coeffs == ab.scale(-1).coeffs


def test_octahedron_unit_times_top():
    s = space("octahedron")
    one = unit_cocycle(s)
    top = basis_class(s.cohomology, 2, 0)
    assert cup(one, top, s).coeffs == top.coeffs


# ---------------------------------------------------------------------------
# tensor model
# ---------------------------------------------------------------------------


def test_kunneth_counts():
    s1 = space("hexagon")
    prod = product_space(s1, space("triangle"))
    assert prod.betti_vector() == (1, 2, 1)
    assert prod.betti_vector(COHOMOLOGY) == (1, 2, 1)
    assert space("torus").homology.betti_vector() == (1, 2, 1)

    pt = product_space(space("point"), space("torus"))
    assert pt.betti_vector() == (1, 2, 1)

    s2 = space("octahedron")
    ss = product_space(s2, space("icosahedron"))
    assert ss.betti_vector() == (1, 0, 2, 0, 1)


def test_cross_units_point_factor():
    pt, t = space("point"), space("torus")
    prod = product_space(pt, t)
    one_pt = unit_cocycle(pt)
    rng = random.Random(11)
    for q in range(3):
        a = rand_class(rng, t.cohomology, q)
        tc = cross(one_pt, a, prod)
        # identification point x X = X: coefficients carry over unchanged
        assert tc.terms == {
            (0, 0, j): c for j, c in enumerate(a.coeffs) if c != 0
        }


def test_cross_swap_sign():
    t = space("hexagon")
    prod = product_space(t, t)
    rng = random.Random(12)
    a = rand_class(rng, t.homology, 1)
    b = rand_class(rng, t.homology, 1)
    ab = cross_h(a, b, prod)
    swapped = swap_pushforward(ab, prod)
    ba = cross_h(b, a, prod)
    assert swapped == ba.scale((-ONE) ** (1 * 1))


def test_cross_duality_sign():
    # (a x b, s x t) with |a| = |t| = 1 picks up an overall -1
    c = space("hexagon")
    prod = product_space(c, c)
    a = basis_class(c.cohomology, 1, 0)
    b = unit_cocycle(c)
    s = basis_class(c.homology, 1, 0)
    t0 = basis_class(c.homology, 0, 0)
    lhs = kronecker_product(cross(a, b, prod), cross_h(t0, s, prod))
    # nonzero pairing only matches degrees (1,0) vs (0,1): zero here
    assert lhs == 0
    rhs = kronecker_product(cross(a, b, prod), cross_h(s, t0, prod))
    assert rhs == kronecker(a, s) * kronecker(b, t0)
    # now the signed case: |alpha| = 0 on X, |tau| = 1 on Y
    a2 = unit_cocycle(c)
    b2 = basis_class(c.cohomology, 1, 0)
    val = kronecker_product(cross(a2, b2, prod), cross_h(t0, s, prod))
    assert val == kronecker(a2, t0) * kronecker(b2, s)
    a3 = basis_class(c.cohomology, 1, 0)
    b3 = basis_class(c.cohomology, 1, 0)
    prod2 = product_space(c, c)
    s2 = basis_class(c.homology, 1, 0)
    val2 = kronecker_product(cross(a3, b3, prod2), cross_h(s2, s2, prod2))
    # |tau| = 1, |alpha| = 1: sign (-1)
    assert val2 == -kronecker(a3, s2) * kronecker(b3, s2)


def test_cross_naturality():
    hexa, tri = space("hexagon"), space("triangle")
    f = catalog.hex_wrap2()
    g = catalog.hex_wrap1()
    px = product_space(hexa, hexa)
    py = product_space(tri, tri)
    fh = induced_map(f, hexa.homology, tri.homology)
    gh = induced_map(g, hexa.homology, tri.homology)
    fxg = product_map(fh, gh, px, py)
    rng = random.Random(13)
    for _ in range(8):
        p = rng.choice([0, 1])
        q = rng.choice([0, 1])
        a = rand_class(rng, hexa.homology, p)
        b = rand_class(rng, hexa.homology, q)
        assert fxg(cross_h(a, b, px)) == cross_h(fh.apply(a), gh.apply(b), py)


def test_cup_on_product_units_and_sign():
    c = space("hexagon")
    prod = product_space(c, c)
    one = unit_cocycle(c)
    rng = random.Random(14)
    a = rand_class(rng, c.cohomology, 1)
    b = rand_class(rng, c.cohomology, 1)
    unit_tensor = cross(one, one, prod)
    ab = cross(a, b, prod)
    assert cup_on_product(unit_tensor, ab) == ab
    # (a x 1) u (1 x b) = a x b, no sign
    lhs = cup_on_product(cross(a, one, prod), cross(one, b, prod))
    assert lhs == ab
    # (1 x b) u (a x 1) = (-1)^{|b||a|} a x b
    rhs = cup_on_product(cross(one, b, prod), cross(a, one, prod))
    assert rhs == ab.scale(-1)


def test_cap_on_product_multiplicativity():
    s2 = space("octahedron")
    prod = product_space(s2, s2)
    from simhom.duality import duality_operator

    dx = duality_operator(s2)
    zeta = dx.fundamental.cls
    zz = tensor_fundamental(prod, zeta, zeta)
    one = unit_cocycle(s2)
    a = basis_class(s2.cohomology, 2, 0)
    t = cross(a, one, prod)
    capped = cap_on_product(t, zz)
    direct = cross_h(cap(a, zeta, s2), cap(one, zeta, s2), prod)
    # |b| = 0 so no sign
    assert capped == direct


def test_diagonal_pullback_unit_and_cup():
    t = space("torus")
    prod = product_space(t, t)
    one = unit_cocycle(t)
    rng = random.Random(15)
    for _ in range(6):
        q = rng.choice([0, 1, 2])
        a = rand_class(rng, t.cohomology, q)
        assert diagonal_pullback(cross(one, a, prod), t).coeffs == a.coeffs
        b = rand_class(rng, t.cohomology, 1)
        direct = cup(a, b, t) if q + 1 <= 2 else None
        if direct is not None:
            assert diagonal_pullback(cross(a, b, prod), t).coeffs == direct.coeffs


def test_kunneth_vs_triangulated_torus_pairing_structure():
    # tensor-model torus has the same Betti numbers and an invertible
    # degree-1 cup pairing, matching the direct triangulation
    c = space("hexagon")
    prod = product_space(c, c)
    assert prod.betti_vector() == space("torus").homology.betti_vector()
