import random
from fractions import Fraction

import pytest

from simhom import catalog
from simhom.chains import subdivision_chain_map
from simhom.complex import identity_map, validate
from simhom.errors import DegreeMismatch, HypothesisViolated
from simhom.exactlin import ONE, ZERO, dense_inv, vec_is_zero
from simhom.homology import (
    GradedMap,
    HClass,
    Space,
    augmentation,
    basis_class,
    class_matrix,
    excision_check,
    induced_map,
    kronecker,
    long_exact_sequence,
)

from oracles import oracle_betti

F = Fraction

EXPECTED_BETTI = {
    "point": (1,),
    "interval": (1, 0),
    "disk": (1, 0, 0),
    "hexagon": (1, 1),
    "triangle": (1, 1),
    "dodecagon": (1, 1),
    "octahedron": (1, 0, 1),
    "icosahedron": (1, 0, 1),
    "torus": (1, 2, 1),
    "torus7": (1, 2, 1),
    "genus2": (1, 4, 1),
    "rp2": (1, 0, 0),
}


def space(name):
    return Space(catalog.get_complex(name))


def test_betti_numbers_catalog_and_oracle():
    for name, expected in EXPECTED_BETTI.items():
        x = catalog.get_complex(name)
        maximal = [x.simplex_names(s) for s in x.maximal_simplices()]
        assert oracle_betti(maximal) == expected, name
        assert space(name).homology.betti_vector() == expected, name


def test_dimension_axiom():
    h = space("point").homology
    assert h.betti(0) == 1
    assert all(h.betti(q) == 0 for q in range(1, 5))


def test_cohomology_matches_homology_dims():
    for name in EXPECTED_BETTI:
        s = space(name)
        hv = s.homology.betti_vector()
        cv = s.cohomology.betti_vector()
        assert hv == cv, name


def test_representatives_are_cycles():
    for name in ["octahedron", "torus", "genus2"]:
        s = space(name)
        cc = s.cc
        for q in range(s.dim + 1):
            for rep in s.homology.representatives(q):
                assert vec_is_zero(cc.boundary(q).apply(rep))
            for rep in s.cohomology.representatives(q):
                assert vec_is_zero(cc.coboundary(q).apply(rep))


def test_class_extraction_roundtrip():
    s = space("torus")
    h = s.homology
    rng = random.Random(11)
    for q in range(s.dim + 1):
        b = h.betti(q)
        coeffs = tuple(F(rng.randint(-3, 3)) for _ in range(b))
        chain = h.chain_of(q, coeffs)
        assert h.class_of(q, chain) == coeffs


def test_class_of_rejects_non_cycles():
    s = space("torus")
    edge = s.cc.chain_from_simplex(s.cc.basis(1)[0]).coeffs
    # an edge has a nonzero boundary, and its indicator cochain a nonzero
    # coboundary: neither is a (co)cycle
    for graded in (s.homology, s.cohomology):
        with pytest.raises(ValueError, match="not a .*cycle in degree 1"):
            graded.class_of(1, edge)
    h = s.homology
    assert class_matrix(h, 1, h, 1, lambda rep: rep) == ((ONE, ZERO), (ZERO, ONE))
    with pytest.raises(ValueError):
        class_matrix(h, 1, h, 1, lambda rep: edge)


def test_induced_identity():
    for name in ["point", "hexagon", "octahedron", "torus", "rp2"]:
        s = space(name)
        for h in (s.homology, s.cohomology):
            m = induced_map(identity_map(s.complex), h, h)
            for q in range(s.dim + 1):
                b = h.betti(q)
                assert m.matrix(q) == tuple(
                    tuple(ONE if i == j else ZERO for j in range(b)) for i in range(b)
                ), (name, q)
            assert GradedMap.identity(h).matrices == m.matrices, name


def test_induced_map_rejects_mixed_kinds():
    hexa, tri = space("hexagon"), space("triangle")
    f = catalog.hex_wrap2()
    with pytest.raises(DegreeMismatch):
        induced_map(f, hexa.homology, tri.cohomology)
    with pytest.raises(DegreeMismatch):
        induced_map(f, tri.cohomology, hexa.homology)


def test_induced_wrap_degree_two_on_h1():
    hexa, tri = space("hexagon"), space("triangle")
    f = catalog.hex_wrap2()
    m = induced_map(f, hexa.homology, tri.homology)
    mat = m.matrix(1)
    assert len(mat) == 1 and len(mat[0]) == 1
    assert abs(mat[0][0]) == 2


def test_induced_constant_zero_in_positive_degrees():
    hexa = space("hexagon")
    f = catalog.get_map("hex_const_v0")
    m = induced_map(f, hexa.homology, hexa.homology)
    assert all(v == 0 for row in m.matrix(1) for v in row)


def test_functoriality_covariant_and_contravariant():
    hexa, tri = space("hexagon"), space("triangle")
    f = catalog.hex_reflect()
    g = catalog.hex_wrap2()
    gf = catalog.get_map("wrap2_after_reflect")
    m_f = induced_map(f, hexa.homology, hexa.homology)
    m_g = induced_map(g, hexa.homology, tri.homology)
    m_gf = induced_map(gf, hexa.homology, tri.homology)
    for q in range(2):
        assert m_g.compose(m_f).matrix(q) == m_gf.matrix(q)
    c_f = induced_map(f, hexa.cohomology, hexa.cohomology)
    c_g = induced_map(g, tri.cohomology, hexa.cohomology)
    c_gf = induced_map(gf, tri.cohomology, hexa.cohomology)
    for q in range(2):
        assert c_f.compose(c_g).matrix(q) == c_gf.matrix(q)


def test_kronecker_unit_counts_components():
    s = space("octahedron")
    one = basis_class(s.cohomology, 0, 0)
    vertex = basis_class(s.homology, 0, 0)
    val = kronecker(one, vertex)
    assert val != 0
    # the unit cocycle evaluates each vertex to the same value
    chain = one.chain()
    assert len(set(chain)) == 1


def test_kronecker_degree_mismatch():
    s = space("torus")
    with pytest.raises(DegreeMismatch):
        kronecker(basis_class(s.cohomology, 0, 0), basis_class(s.homology, 1, 0))


def test_kronecker_naturality():
    # (f^* a, b) = (a, f_* b) for the wrap map on randomized classes
    hexa, tri = space("hexagon"), space("triangle")
    f = catalog.hex_wrap2()
    fh = induced_map(f, hexa.homology, tri.homology)
    fc = induced_map(f, tri.cohomology, hexa.cohomology)
    rng = random.Random(23)
    for _ in range(20):
        q = rng.choice([0, 1])
        a = HClass(
            tri.cohomology,
            q,
            tuple(F(rng.randint(-3, 3)) for _ in range(tri.cohomology.betti(q))),
        )
        b = HClass(
            hexa.homology,
            q,
            tuple(F(rng.randint(-3, 3)) for _ in range(hexa.homology.betti(q))),
        )
        assert kronecker(fc.apply(a), b) == kronecker(a, fh.apply(b))


def test_kronecker_pairing_torus_invertible():
    t = space("torus")
    mat = [
        [
            kronecker(basis_class(t.cohomology, 1, i), basis_class(t.homology, 1, j))
            for j in range(2)
        ]
        for i in range(2)
    ]
    assert dense_inv(tuple(map(tuple, mat))) is not None


def test_kronecker_representative_independence():
    # adding a boundary to the cycle or a coboundary to the cocycle changes nothing
    t = space("torus")
    cc = t.cc
    alpha = basis_class(t.cohomology, 1, 0)
    sigma = basis_class(t.homology, 1, 1)
    base = kronecker(alpha, sigma)
    rng = random.Random(31)
    two_chain = tuple(F(rng.randint(-2, 2)) for _ in range(cc.n(2)))
    moved = tuple(a + b for a, b in zip(sigma.chain(), cc.boundary(2).apply(two_chain)))
    from simhom.exactlin import vec_dot

    assert vec_dot(alpha.chain(), moved) == base
    zero_cochain = tuple(F(rng.randint(-2, 2)) for _ in range(cc.n(0)))
    moved_alpha = tuple(
        a + b for a, b in zip(alpha.chain(), cc.coboundary(0).apply(zero_cochain))
    )
    assert vec_dot(moved_alpha, sigma.chain()) == base


def test_augmentation():
    s = space("octahedron")
    assert augmentation(basis_class(s.homology, 0, 0)) != 0


def test_relative_homology_and_cohomology_of_disk_pair():
    from simhom.chains import build_relative
    from simhom.homology import compute_homology as ch, compute_cohomology as cc

    disk = catalog.triangle2()
    circle = validate([["a", "b"], ["b", "c"], ["a", "c"]], name="circle")
    pair = build_relative(disk, circle)
    assert ch(pair).betti_vector() == (0, 0, 1)
    assert cc(pair).betti_vector() == (0, 0, 1)


def test_long_exact_sequence_disk_circle():
    disk = catalog.triangle2()
    circle = validate([["a", "b"], ["b", "c"], ["a", "c"]], name="circle")
    seq = long_exact_sequence(disk, circle)
    assert seq.pair.betti(2) == 1
    # d_2 : H_2(X, A) -> H_1(A) is an isomorphism
    d2 = seq.connecting[2]
    assert len(d2) == 1 and len(d2[0]) == 1 and d2[0][0] != 0
    assert seq.exact


def test_long_exact_sequence_empty_sub():
    x = catalog.hexagon()
    empty = validate([], name="empty")
    seq = long_exact_sequence(x, empty)
    assert seq.exact
    # j_* is an isomorphism in every degree
    for q in range(x.dim + 1):
        mat = seq.j_star[q]
        assert len(mat) == seq.pair.betti(q)
        if mat and mat[0]:
            assert dense_inv(tuple(map(tuple, mat))) is not None


def test_long_exact_sequence_full_sub():
    x = catalog.hexagon()
    seq = long_exact_sequence(x, x)
    assert seq.exact
    assert all(seq.pair.betti(q) == 0 for q in range(x.dim + 1))


def test_long_exact_sequence_octahedron_equator():
    x = catalog.octahedron()
    a = validate([["n", "e"], ["e", "s"], ["s", "w"], ["n", "w"]], name="equator")
    seq = long_exact_sequence(x, a)
    assert seq.exact


def test_excision_disk_boundary_edge():
    disk = catalog.triangle2()
    circle = validate([["a", "b"], ["b", "c"], ["a", "c"]], name="circle")
    rep = excision_check(disk, circle, [("a", "b")])
    assert rep.isomorphism
    assert rep.dims_excised == rep.dims_pair


def test_excision_empty_u():
    x = catalog.octahedron()
    a = validate([["n", "e"], ["e", "s"], ["s", "w"], ["n", "w"]], name="equator")
    rep = excision_check(x, a, [])
    assert rep.isomorphism


def test_excision_hypothesis_violated():
    disk = catalog.triangle2()
    circle = validate([["a", "b"], ["b", "c"], ["a", "c"]], name="circle")
    # removing a vertex leaves A - U not face-closed
    with pytest.raises(HypothesisViolated):
        excision_check(disk, circle, [("a",)])
    # U must lie inside A
    with pytest.raises(HypothesisViolated):
        excision_check(disk, circle, [("a", "b", "c")])


def test_betti_subdivision_invariance_and_iso():
    for name in ["hexagon", "octahedron", "torus7"]:
        x = catalog.get_complex(name)
        s = Space(x)
        sd_map = subdivision_chain_map(x)
        sd_space = Space(sd_map.subdivided)
        assert s.homology.betti_vector() == sd_space.homology.betti_vector(), name
        for q in range(x.dim + 1):
            b = s.homology.betti(q)
            cols = []
            for i in range(b):
                rep = s.homology.chain_of(
                    q, tuple(ONE if k == i else ZERO for k in range(b))
                )
                pushed = sd_map.matrix(q).apply(rep)
                cols.append(sd_space.homology.class_of(q, pushed))
            if b:
                mat = tuple(tuple(cols[i][r] for i in range(b)) for r in range(b))
                assert dense_inv(mat) is not None, (name, q)


def test_each_differential_is_eliminated_once(monkeypatch):
    """H_* reduces each d_k once and H^* each d_k transposed once."""
    from collections import Counter

    import simhom.exactlin as exactlin
    from simhom.homology import compute_cohomology, compute_homology

    def signature(rows, ncols):
        return ncols, tuple(tuple(sorted(r.items())) for r in rows)

    seen = Counter()
    real_rref = exactlin._rref

    def recording_rref(rows, ncols, *args, **kwargs):
        seen[signature(rows, ncols)] += 1
        return real_rref(rows, ncols, *args, **kwargs)

    monkeypatch.setattr(exactlin, "_rref", recording_rref)
    cc = Space(catalog.get_complex("torus")).cc

    def eliminations(m):
        return seen[signature(exactlin._row_dicts(m), m.cols)]

    compute_homology(cc)
    assert [eliminations(cc.boundary(k)) for k in range(cc.dim + 2)] == [1, 1, 1, 1]
    seen.clear()
    compute_cohomology(cc)
    assert [eliminations(cc.coboundary(k - 1)) for k in range(cc.dim + 2)] == [1, 1, 1, 1]
