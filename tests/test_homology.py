import random
from fractions import Fraction

import pytest

from simhom import catalog
from simhom.chains import subdivision_chain_map
from simhom.complex import identity_map, validate
from simhom.errors import DegreeMismatch, HypothesisViolated
from simhom.exactlin import ONE, ZERO, dense_inv
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

from oracles import dense_rref, oracle_betti, oracle_select

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
                assert not any(cc.boundary(q).apply(rep))
            for rep in s.cohomology.representatives(q):
                assert not any(cc.coboundary(q).apply(rep))


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
    edge = (ONE,) + (ZERO,) * (s.cc.n(1) - 1)  # the first edge
    # an edge has a nonzero boundary, and its indicator cochain a nonzero
    # coboundary: neither is a (co)cycle
    for graded in (s.homology, s.cohomology):
        with pytest.raises(ValueError, match="not a .*cycle in degree 1"):
            graded.class_of(1, edge)
    h = s.homology
    assert class_matrix(h, 1, h, 1, lambda rep: rep) == ((ONE, ZERO), (ZERO, ONE))
    with pytest.raises(ValueError):
        class_matrix(h, 1, h, 1, lambda rep: edge)


def test_cycle_check_scales_fractional_chains_exactly():
    """The int cycle check on the torus, for H_* and H^*.

    A fractional combination of representatives is a cycle with exactly
    its coefficients as class; a fraction of an edge, alone or added to a
    cycle, is not a cycle however small its coefficient.
    """
    s = space("torus")
    edge = (ONE,) + (ZERO,) * (s.cc.n(1) - 1)  # the first edge
    for graded in (s.homology, s.cohomology):
        z1, z2 = graded.representatives(1)
        chain = tuple(F(1, 3) * a + F(2, 5) * b for a, b in zip(z1, z2))
        coeffs = graded.class_of(1, chain)
        assert coeffs == (F(1, 3), F(2, 5))
        assert all(type(c) is F for c in coeffs)
        for bad in (
            tuple(c / 3 for c in edge),
            tuple(a + c / 7 for a, c in zip(z1, edge)),
        ):
            with pytest.raises(ValueError, match="not a .*cycle in degree 1"):
                graded.class_of(1, bad)


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


def test_kronecker_pairs_in_betti_sized_arithmetic(monkeypatch):
    """Once the representatives of two spaces are paired, kronecker,
    RingStructure.kron, dual_basis and euler_data build no chain and take
    no chain-length dot; every value is still the dense dot of the
    representative chains."""
    import json
    import os

    import simhom.exactlin as exactlin
    import simhom.homology as homology
    from simhom.complex import complex_from_json
    from simhom.duality import DualityOperator, duality_operator
    from simhom.homology import GradedSpace
    from simhom.lefschetz import euler_data
    from simhom.verify import ORIENTABLE

    complexes = {name: catalog.get_complex(name) for name in ORIENTABLE + ["rp2"]}
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "data", "sd1_torus.json")) as fh:
        complexes["Sd torus, relabeled"] = complex_from_json(json.load(fh))
    spaces = {label: Space(x) for label, x in complexes.items()}
    expected, fresh, duals = {}, {}, {}
    for label, s in spaces.items():
        h, c = s.homology, s.cohomology
        for q in range(s.dim + 1):
            for i in range(c.betti(q)):
                alpha = basis_class(c, q, i).chain()
                for j in range(h.betti(q)):
                    sigma = basis_class(h, q, j).chain()
                    expected[label, q, i, j] = sum((a * b for a, b in zip(alpha, sigma)), ZERO)
        if label != "rp2":
            warm = duality_operator(s)
            euler_data(warm)  # the first pairing; also fills the ring's cup table
            duals[label] = {q: warm.dual_basis(q) for q in range(s.dim + 1)}
            fresh[label] = DualityOperator(s, warm.fundamental)

    def refuse(*args):
        raise AssertionError("chain-sized work in a Betti-sized pairing")

    monkeypatch.setattr(GradedSpace, "chain_of", refuse)
    monkeypatch.setattr(exactlin, "vec_dot", refuse)
    monkeypatch.setattr(homology, "vec_dot", refuse, raising=False)
    for (label, q, i, j), value in expected.items():
        s = spaces[label]
        pair = kronecker(basis_class(s.cohomology, q, i), basis_class(s.homology, q, j))
        assert pair == value and s.ring.kron(q)[i][j] == value, (label, q, i, j)
    for label, d in fresh.items():
        for q in range(d.n + 1):
            assert [b.coeffs for b in d.dual_basis(q)] == [b.coeffs for b in duals[label][q]]
        euler_data(d)
    assert len(expected) > 40


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
    d2 = seq.connecting.matrix(2)
    assert len(d2) == 1 and len(d2[0]) == 1 and d2[0][0] != 0
    assert seq.exact


def test_long_exact_sequence_empty_sub():
    x = catalog.hexagon()
    empty = validate([], name="empty")
    seq = long_exact_sequence(x, empty)
    assert seq.exact
    # j_* is an isomorphism in every degree
    for q in range(x.dim + 1):
        mat = seq.j_star.matrix(q)
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


def test_exactness_check_fires_when_a_composite_is_not_zero():
    """One row of j_2 doubled on (octahedron, equator) keeps every rank, so
    only the test that d o j_* vanishes can see that the sequence is no
    longer exact: the check must name H_2(X, A) and that node alone."""
    from simhom.homology import _check_exactness

    x = catalog.octahedron()
    a = validate([["n", "e"], ["e", "s"], ["s", "w"], ["n", "w"]], name="equator")
    seq = long_exact_sequence(x, a)
    j = seq.j_star
    m = j.matrix(2)
    assert len(m) == 2 and all(row[0] for row in m)  # both hemispheres
    scaled = (tuple(2 * v for v in m[0]),) + m[1:]
    wrong = GradedMap(j.source, j.target, {**j.matrices, 2: scaled})
    maps = (seq.i_star, wrong, seq.connecting)
    exact, details = _check_exactness(maps, range(x.dim + 1))
    assert not exact
    assert [(label, p) for label, p, ok in details if not ok] == [("H(X,A)", 2)]
    assert _check_exactness((seq.i_star, j, seq.connecting), range(x.dim + 1))[0]


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


def test_excision_names_a_non_simplex_of_unknown_vertices():
    disk = catalog.triangle2()
    circle = validate([["a", "b"], ["b", "c"], ["a", "c"]], name="circle")
    for u in ([("a", "zz")], [("a", "b", "c", "d")]):
        with pytest.raises(HypothesisViolated, match="U contains a non-simplex"):
            excision_check(disk, circle, u)


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


def _boundary_of_4_simplex():
    """S^3 as the boundary of a 4-simplex: its d_2 has three entries in
    every column and every row, so it is not graph-like."""
    return validate([[v for v in "abcde" if v != w] for w in "abcde"], name="S3")


def test_each_differential_is_eliminated_once(monkeypatch):
    """Built together, H_* and H^* of S^3 eliminate its d_2, which is not
    graph-like, in full once in one orientation, and the other orientation
    once, on rank(d_2) of its rows; d_1 and d_3 are read off their graphs
    and never eliminated."""
    from collections import Counter

    import simhom.exactlin as exactlin
    from simhom.exactlin import rank

    def signature(rows, ncols):
        return ncols, tuple(sorted(tuple(sorted(r.items())) for r in rows))

    seen = Counter()
    real_rref = exactlin._rref

    def recording_rref(rows, ncols, *args, **kwargs):
        seen[signature(rows, ncols)] += 1
        return real_rref(rows, ncols, *args, **kwargs)

    s = Space(_boundary_of_4_simplex())
    cc = s.cc
    monkeypatch.setattr(exactlin, "_rref", recording_rref)
    h, c = s.homology_and_cohomology()
    monkeypatch.undo()
    assert h.betti_vector() == c.betti_vector() == (1, 0, 0, 1)
    for k in range(1, cc.dim + 1):
        orientations = (cc.boundary(k), cc.coboundary(k - 1))
        full = [seen[signature(m.lines(), m.cols)] for m in orientations]
        if k != 2:
            assert full == [0, 0], k
            continue
        assert sorted(full) == [0, 1]
        wide, tall = orientations if full[0] else orientations[::-1]
        assert wide.cols >= wide.rows
        basis = exactlin.Solver(wide).pivot_cols
        rows = tall.lines()
        assert len(basis) == rank(tall) < tall.rows
        assert seen[signature([rows[i] for i in basis], tall.cols)] == 1
    assert sum(seen.values()) == 2


def _recorded_eliminations(monkeypatch):
    """Record the (rows, columns) of every ``_rref`` run from now on."""
    import simhom.exactlin as exactlin

    shapes = []
    real_rref = exactlin._rref

    def recording_rref(rows, ncols, *args, **kwargs):
        shapes.append((len(rows), ncols))
        return real_rref(rows, ncols, *args, **kwargs)

    monkeypatch.setattr(exactlin, "_rref", recording_rref)
    return shapes


def _recorded_reductions(monkeypatch):
    """Record (matrix, transposed, reduction) of every orientation reduced
    through ``Reductions`` from now on, once each as it is built: a
    ``GraphReduction`` when it was read off a graph, else a ``Solver``."""
    from simhom.exactlin import Reductions

    seen = []
    real = Reductions.of

    def recording(self, transposed=False):
        fresh = transposed not in self._reductions
        red = real(self, transposed)
        if fresh:
            seen.append((self.m, transposed, red))
        return red

    monkeypatch.setattr(Reductions, "of", recording)
    return seen


def _shape(m, transposed):
    return (m.cols, m.rows) if transposed else (m.rows, m.cols)


def test_classes_need_no_chain_sized_elimination(monkeypatch):
    """Each selection is rank B_q x dim Z_q, whether a graph or ``_rref``
    reduces it; class extraction eliminates nothing bigger than a Betti
    number once H_* and H^* are built.  On the torus nothing is eliminated
    at all while they are built; on S^3 only d_2 is.  Degrees 0 and n
    select nothing, their basis being forced: no B_F^T ``SparseMatrix`` is
    built for them, no reduction or forest of one, and the zero maps d_0
    and d_{n+1} are never reduced."""
    from simhom.complex import check_simplicial
    from simhom.duality import DualityOperator, fundamental_class
    from simhom.exactlin import SignedForest, SparseMatrix, rank

    s3 = _boundary_of_4_simplex()
    swap = check_simplicial({"a": "b", "b": "a", "c": "c", "d": "d", "e": "e"}, s3, s3)
    for x, f in ((catalog.torus(), catalog.get_map("torus_transpose")), (s3, swap)):
        s = Space(x)
        cc = s.cc
        ranks = {k: rank(cc.boundary(k)) for k in range(cc.dim + 2)}
        differentials = [cc.boundary(k) for k in range(cc.dim + 2)]
        tried = _recorded_reductions(monkeypatch)
        shapes = _recorded_eliminations(monkeypatch)
        built, forests = [], []
        real_init, real_of = SparseMatrix.__init__, SignedForest.of.__func__

        def recording_init(m, rows, cols, entries=None):
            built.append((rows, cols))
            real_init(m, rows, cols, entries)

        def recording_of(cls, m, by_column):
            forests.append(m)
            return real_of(cls, m, by_column)

        monkeypatch.setattr(SparseMatrix, "__init__", recording_init)
        monkeypatch.setattr(SignedForest, "of", classmethod(recording_of))
        h, c = s.homology, s.cohomology
        monkeypatch.undo()
        selections = [_shape(m, t) for m, t, _ in tried if not any(m is d for d in differentials)]
        degrees = range(1, cc.dim)  # the degrees that select
        cycles = {q: cc.n(q) - ranks[q] for q in degrees}
        cocycles = {q: cc.n(q) - ranks[q + 1] for q in degrees}
        expected = [(ranks[q + 1], cycles[q]) for q in degrees]
        expected += [(ranks[q], cocycles[q]) for q in degrees]
        assert sorted(selections) == sorted(expected), x.name
        assert sorted(built) == sorted(expected), x.name
        read = [m for m, _, _ in tried]  # the differentials and the selections
        assert all(any(m is r for r in read) for m in forests), x.name
        zero_maps = (differentials[0], differentials[cc.dim + 1])
        assert not [t for m, t, _ in tried if any(m is d for d in zero_maps)], x.name
        if x is s3:
            # built apart, each walk reduces d_2 in full; H^* also its
            # transpose, on rank(d_2) rows
            assert sorted(shapes) == [(ranks[2], cc.n(1))] + [(cc.n(1), cc.n(2))] * 2
        else:
            assert shapes == []

        shapes = _recorded_eliminations(monkeypatch)
        induced_map(f, h, h)
        induced_map(f, c, c)
        class_matrix(h, 1, h, 1, lambda rep: rep)
        DualityOperator(s, fundamental_class(s))
        monkeypatch.undo()
        largest = max(h.betti_vector())
        # each run inverts a Betti-sized matrix A as the RREF of [A | I]
        assert shapes and all(r <= largest and n == 2 * r for r, n in shapes), x.name


def test_closed_orientable_surfaces_need_no_elimination(monkeypatch):
    """On a closed orientable surface every reduction H_* and H^* make is
    a graph's: built alone or together, they run no ``_rref`` at all."""
    from simhom.complex import barycentric_subdivide
    from simhom.exactlin import GraphReduction

    surfaces = [catalog.get_complex(n) for n in ("octahedron", "torus", "torus7", "genus2")]
    surfaces.append(_shuffled(barycentric_subdivide(catalog.genus2())[0], 6))
    for x in surfaces:
        shapes = _recorded_eliminations(monkeypatch)
        tried = _recorded_reductions(monkeypatch)
        alone, other, together = Space(x), Space(x), Space(x)
        alone.homology, other.cohomology, together.homology_and_cohomology()
        monkeypatch.undo()
        assert shapes == [], x.name
        assert tried and all(isinstance(r, GraphReduction) for _, _, r in tried), x.name


def _shuffled(x, seed):
    from simhom.complex import complex_from_json, complex_to_json

    data = complex_to_json(x)
    random.Random(seed).shuffle(data["vertex_order"])
    return complex_from_json(data)


def _textbook_degree(kind, cc, q):
    """Dense Gauss-Jordan (co)homology of degree q: the canonical kernel
    basis, the boundaries, the cycles kept by selecting on [B | Z], and
    the columns whose chains are not cycles."""
    if kind == "homology":
        leaving, entering = cc.boundary(q), cc.boundary(q + 1)
    else:
        leaving, entering = cc.boundary(q + 1).transpose(), cc.boundary(q).transpose()
    n = cc.n(q)
    leaving = leaving.to_dense()
    rows, pivots = dense_rref(leaving, n)
    cycles = []
    for f in (f for f in range(n) if f not in pivots):
        z = [F(0)] * n
        z[f] = F(1)
        for k, c in enumerate(pivots):
            z[c] = -rows[k][f]
        cycles.append(tuple(z))
    dense = entering.to_dense()
    _, image = dense_rref(dense, entering.cols)
    bounds = [tuple(dense[i][c] for i in range(n)) for c in image]
    cols = bounds + cycles
    _, kept = dense_rref([[col[i] for col in cols] for i in range(n)], len(cols))
    reps = [cycles[c - len(bounds)] for c in kept if c >= len(bounds)]
    moving = [j for j in range(n) if any(row[j] for row in leaving)]
    return cycles, bounds, reps, moving


def _textbook_class(bounds, reps, z):
    """Solve [B | reps] y = z exactly; the class is y's reps part."""
    cols = bounds + reps
    aug = [[col[i] for col in cols] + [z[i]] for i in range(len(z))]
    rows, pivots = dense_rref(aug, len(cols) + 1)
    assert len(cols) not in pivots, "not a cycle"
    y = [F(0)] * len(cols)
    for k, c in enumerate(pivots):
        y[c] = rows[k][-1]
    return tuple(y[len(bounds):])


def test_bases_and_classes_match_textbook_selection_and_solve():
    from simhom.chains import ChainComplex, build_relative
    from simhom.homology import compute_cohomology, compute_homology

    torus = _shuffled(catalog.torus(), 3)
    circle = validate([["t00", "t10"], ["t10", "t20"], ["t00", "t20"]], name="circle")
    # the closed triangle {t00, t10, t01} and its faces, excised from the torus
    closed = {tuple(sorted(torus.vertex_index[v] for v in s)) for s in (
        ("t00",), ("t10",), ("t01",), ("t00", "t10"), ("t00", "t01"),
        ("t10", "t01"), ("t00", "t10", "t01"),
    )}
    kept = {q: [s for s in torus.basis(q) if s not in closed] for q in range(3)}
    carriers = {
        "torus": ChainComplex(torus),
        "genus2": ChainComplex(_shuffled(catalog.genus2(), 4)),
        "torus rel circle": build_relative(torus, circle),
        "torus minus a triangle": ChainComplex(torus, kept),
    }
    rng = random.Random(8)

    def coefficient():
        return F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))

    checked = 0
    for label, cc in carriers.items():
        for graded in (compute_homology(cc), compute_cohomology(cc)):
            for q in range(cc.dim + 1):
                where = (label, graded.kind, q)
                cycles, bounds, reps, moving = _textbook_degree(graded.kind, cc, q)
                assert graded.representatives(q) == reps, where
                n = cc.n(q)
                for _ in range(3):
                    z = [F(0)] * n
                    for vec in cycles + bounds:
                        c = coefficient()
                        for i, v in enumerate(vec):
                            z[i] += c * v
                    expected = _textbook_class(bounds, reps, z)
                    assert graded.class_of(q, tuple(z)) == expected, where
                    checked += any(expected)
                    assert graded.class_of(q, graded.chain_of(q, expected)) == expected
                    with pytest.raises(ValueError):
                        graded.class_of(q, tuple(z) + (ONE,))
                    if n:
                        with pytest.raises(ValueError):
                            graded.class_of(q, tuple(z[:-1]))
                    if moving:
                        z[rng.choice(moving)] += ONE
                        with pytest.raises(ValueError, match="not a .*cycle"):
                            graded.class_of(q, tuple(z))
    assert checked > 20


def _as_fractions(coords):
    return {f: {t: F(v) for t, v in row.items()} for f, row in coords.items()}


def test_selection_matches_identity_block_reference():
    """Representatives and class coordinates, as Fractions, equal those of
    the [B_F | I] selection, for H_* and H^* of every catalog complex and
    of Sd of five surfaces under three vertex shuffles each."""
    from simhom.complex import barycentric_subdivide
    from simhom.exactlin import Solver

    complexes = [catalog.get_complex(name) for name in catalog.COMPLEX_BUILDERS]
    for base in ("octahedron", "icosahedron", "torus", "torus7", "genus2"):
        sd, _ = barycentric_subdivide(catalog.get_complex(base))
        complexes += [_shuffled(sd, seed) for seed in (11, 12, 13)]
    for x in complexes:
        s = Space(x)
        h, c = s.homology_and_cohomology()
        cc = s.cc
        for q in range(cc.dim + 1):
            for graded, leaving, entering in (
                (h, cc.boundary(q), cc.boundary(q + 1)),
                (c, cc.coboundary(q), cc.coboundary(q - 1)),
            ):
                reps, coords = oracle_select(Solver(leaving), Solver(entering))
                where = (x.name, graded.kind, q)
                assert graded.representatives(q) == reps, where
                assert _as_fractions(graded._coords[q]) == _as_fractions(coords), where


def _renamed(x, prefix):
    """The maximal simplices of ``x``, each vertex renamed ``prefix + name``."""
    return [[prefix + v for v in x.simplex_names(s)] for s in x.maximal_simplices()]


def test_forced_degrees_match_the_generic_selection(monkeypatch):
    """Degrees 0 and n take their basis off the spanning forests with no
    B_F^T: their representatives and coordinates, type for type, equal
    what ``_selection`` reduces on the same ``Reductions``.  Checked on
    every catalog complex, shuffled Sd of five surfaces, a disconnected
    complex, S^3, relative pairs whose components reach ground, and
    relative pairs whose A holds the whole (n-1)-skeleton.  Only
    a top degree whose dual graph does not balance (rp2) or is no graph (a
    book of three triangles, a theta graph) is selected; on an oriented
    surface H_0 is [v_0] with every coordinate 1 and H^2 is [t_0] with the
    orientation's signs as coordinates."""
    import simhom.homology as homology
    from simhom.chains import ChainComplex, build_relative
    from simhom.complex import barycentric_subdivide, orient
    from simhom.exactlin import Reductions

    from test_exactlin import typed

    carriers = {name: ChainComplex(catalog.get_complex(name)) for name in catalog.COMPLEX_BUILDERS}
    surfaces = []
    for base in ("octahedron", "icosahedron", "torus", "torus7", "genus2"):
        sd, _ = barycentric_subdivide(catalog.get_complex(base))
        surfaces.append(_shuffled(sd, 21))
        carriers[f"Sd {base}"] = ChainComplex(surfaces[-1])
    apart = _renamed(catalog.torus(), "t") + _renamed(catalog.octahedron(), "o") + [["p"]]
    carriers["torus + octahedron + point"] = ChainComplex(validate(apart, name="apart"))
    carriers["S3"] = ChainComplex(_boundary_of_4_simplex())
    book = validate([["a", "b", "c"], ["a", "b", "d"], ["a", "b", "e"]], name="book")
    carriers["book"] = ChainComplex(book)
    theta = validate([["a", "b"], ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]], name="theta")
    carriers["theta"] = ChainComplex(theta)
    ring = [f"v{k}" for k in range(6)]
    fan = validate([["c", u, v] for u, v in zip(ring, ring[1:] + ring[:1])], name="fan")
    rim = validate([[u, v] for u, v in zip(ring, ring[1:] + ring[:1])], name="rim")
    carriers["(disk, circle)"] = build_relative(fan, rim)
    circle = [["a", "b"], ["b", "c"], ["a", "c"]]
    whisker = validate(circle + [["c", "w"], ["p", "q"], ["q", "r"], ["p", "r"]], name="whisker")
    carriers["(whisker + circle, circle)"] = build_relative(whisker, validate(circle, name="abc"))
    # A holds the whole (q-1)-skeleton: C_{q-1} = 0, so d_q is a zero map
    # with no rows, and H_q, H^q keep every chain with {t: 1}
    carriers["(circle, vertices)"] = build_relative(
        validate(circle, name="abc"), validate([["a"], ["b"], ["c"]], name="abc0")
    )
    carriers["(triangle, rim)"] = build_relative(
        validate([["a", "b", "c"]], name="tri"), validate(circle, name="abc")
    )

    real = homology._selection
    selected = []
    monkeypatch.setattr(
        homology, "_selection", lambda *args: selected.append(args) or real(*args)
    )
    generic = set()
    for label, cc in carriers.items():
        n = cc.dim
        for q in sorted({0, n}):
            below, above = Reductions(cc.boundary(q)), Reductions(cc.boundary(q + 1))
            for kind, leaving, entering, transposed in (
                ("homology", below, above, False),
                ("cohomology", above, below, True),
            ):
                selected.clear()
                forced = homology._select(leaving, entering, transposed)
                if selected:
                    generic.add((label, kind, q))
                assert typed(forced) == typed(real(leaving, entering, transposed)), (label, kind, q)
    assert generic == {("rp2", "cohomology", 2), ("book", "cohomology", 2), ("theta", "cohomology", 1)}
    monkeypatch.undo()

    for x in surfaces:
        h, c = Space(x).homology_and_cohomology()
        assert h.representatives(0)[0][0] == 1
        assert h._coords[0] == {v: {0: 1} for v in range(x.n_simplices(0))}, x.name
        assert c.representatives(2)[0][0] == 1
        assert c._coords[2] == {t: {0: s} for t, s in enumerate(orient(x).signs)}, x.name


def _reachable(root):
    """Objects reachable from ``root``, not entering types, modules or functions."""
    import gc
    import types

    seen, todo = set(), [root]
    while todo:
        o = todo.pop()
        if id(o) in seen or isinstance(o, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(o))
        yield o
        todo.extend(gc.get_referents(o))


def test_built_spaces_keep_no_reduction():
    """No reduction or forest outlives the walk that reads it: not on a
    space whose H^* is never built, nor on one whose H_* and H^* are built
    together."""
    import gc

    from simhom.complex import barycentric_subdivide
    from simhom.exactlin import GraphReduction, Reductions, SignedForest, Solver

    sd, _ = barycentric_subdivide(catalog.genus2())
    kinds = (Reductions, Solver, GraphReduction, SignedForest)

    def live():
        gc.collect()
        return [o for o in gc.get_objects() if isinstance(o, kinds)]

    def left_over(before, s):
        """Reductions made since ``before`` that are still alive, and any
        reachable from the space; ``before`` holds the older ones, so no
        id is reused."""
        older = {id(o) for o in before}
        made = [o for o in live() if id(o) not in older]
        return made + [o for o in _reachable(s) if isinstance(o, kinds)]

    # genus 2 is reduced on graphs only; rp2 and S^3 fall back to Solver
    for x, betti in (
        (_shuffled(sd, 5), (1, 4, 1)),
        (catalog.rp2(), (1, 0, 0)),
        (_boundary_of_4_simplex(), (1, 0, 0, 1)),
    ):
        before = live()
        alone = Space(x)
        assert alone.homology.betti_vector() == betti
        assert not left_over(before, alone)
        together = Space(x)
        h, c = together.homology_and_cohomology()
        assert h.betti_vector() == c.betti_vector() == betti
        assert not left_over(before, together)


def test_homology_alone_builds_no_coboundary(monkeypatch):
    """H_* reads each d_k as itself and H^* as d_k^T, read off d_k: built
    alone, neither reduces the other orientation of any d_k on a surface,
    and neither makes a transposed copy."""
    from simhom.complex import barycentric_subdivide

    sd, _ = barycentric_subdivide(catalog.genus2())
    differentials = [sd.boundary(k) for k in range(sd.dim + 2)]
    for kind, transposed in (("homology", False), ("cohomology", True)):
        tried = _recorded_reductions(monkeypatch)
        _forbid_transpose(monkeypatch)
        assert getattr(Space(sd), kind).betti_vector() == (1, 4, 1)
        monkeypatch.undo()
        read = {t for m, t, _ in tried if any(m is d for d in differentials)}
        assert read == {transposed}, kind


def _forbid_transpose(monkeypatch):
    from simhom.exactlin import SparseMatrix

    def transpose(m):
        raise AssertionError(f"transposed copy of {m!r}")

    monkeypatch.setattr(SparseMatrix, "transpose", transpose)


def test_no_transposed_copy_is_made(monkeypatch):
    """With ``SparseMatrix.transpose`` made to raise, H_* and H^*, the
    duality operator and the coincidence number complete on every catalog
    complex and ``verify`` pair, on S^3 = boundary of the 4-simplex, whose
    d_2 is eliminated in both orientations, and on a relative pair."""
    from simhom.chains import build_relative
    from simhom.complex import check_simplicial, identity_map
    from simhom.duality import duality_operator
    from simhom.errors import TopologyError
    from simhom.homology import compute_cohomology, compute_homology
    from simhom.lefschetz import coincidence_number
    from simhom.verify import COINCIDENCE_PAIRS

    s3 = _boundary_of_4_simplex()
    swap = check_simplicial({"a": "b", "b": "a", "c": "c", "d": "d", "e": "e"}, s3, s3)
    torus = catalog.torus()
    circle = validate([["t00", "t10"], ["t10", "t20"], ["t00", "t20"]], name="circle")
    _forbid_transpose(monkeypatch)
    operators = 0
    for x in [catalog.get_complex(name) for name in catalog.COMPLEX_BUILDERS] + [s3]:
        Space(x).homology_and_cohomology()
        try:
            duality_operator(Space(x))
            operators += 1
        except TopologyError:
            assert x.name in ("interval", "disk", "rp2"), x.name
    assert operators == len(catalog.COMPLEX_BUILDERS) - 2
    for fname, gname, _, _, expected in COINCIDENCE_PAIRS:
        report = coincidence_number(catalog.get_map(fname), catalog.get_map(gname))
        assert report.value == expected, (fname, gname)
    assert coincidence_number(swap, identity_map(s3)).value == 2
    pair = build_relative(torus, circle)
    assert compute_homology(pair).betti_vector() == compute_cohomology(pair).betti_vector()


def test_graph_reductions_equal_elimination(monkeypatch):
    """Every reduction the homology layer reads off a graph equals the
    ``Solver`` of the same orientation, built on an explicit M or M^T,
    value for value and type for type, and
    the spaces equal those built with the graph routine switched off.
    Over every catalog complex (only rp2 falls back), Sd of five surfaces
    under three vertex shuffles each, and the pairs of the long exact
    sequences and excisions ``verify`` checks, whose relative chains give
    one-entry columns."""
    from collections import Counter

    import simhom.exactlin as exactlin
    from simhom.chains import build_relative
    from simhom.complex import barycentric_subdivide
    from simhom.exactlin import GraphReduction
    from simhom.homology import GradedSpace, compute_cohomology, compute_homology

    from test_exactlin import assert_matches_solver, typed

    def comparable(result):
        if isinstance(result, GradedSpace):
            return typed(result.reps), typed(result._coords)
        return typed(result)

    def agree(build, label):
        """Build with and without the graph routine; returns what it tried."""
        tried = _recorded_reductions(monkeypatch)
        fast = build()
        monkeypatch.undo()
        for m, t, r in tried:
            if isinstance(r, GraphReduction):
                assert_matches_solver(r, m.transpose() if t else m)
        for form in ("_column_form", "_row_form"):
            monkeypatch.setattr(exactlin, form, lambda forest: None)
        slow = build()
        monkeypatch.undo()
        assert [comparable(r) for r in fast] == [comparable(r) for r in slow], label
        return tried

    def spaces(x):
        return lambda: Space(x).homology_and_cohomology()

    for name in catalog.COMPLEX_BUILDERS:
        tried = agree(spaces(catalog.get_complex(name)), name)
        eliminated = any(not isinstance(r, GraphReduction) for _, _, r in tried)
        assert eliminated == (name == "rp2"), name
    for base in ("octahedron", "icosahedron", "torus", "torus7", "genus2"):
        sd, _ = barycentric_subdivide(catalog.get_complex(base))
        for seed in (11, 12, 13):
            tried = agree(spaces(_shuffled(sd, seed)), (base, seed))
            assert all(isinstance(r, GraphReduction) for _, _, r in tried), (base, seed)

    def has_one_entry_column(m, transposed):
        return 1 in Counter(key[0 if transposed else 1] for key in m.entries).values()

    circle = validate([["a", "b"], ["b", "c"], ["a", "c"]], name="circle")
    equator = validate([["n", "e"], ["e", "s"], ["s", "w"], ["n", "w"]], name="equator")
    arc = validate([["v0", "v1"], ["v1", "v2"]], name="arc")
    pairs = [(catalog.triangle2(), circle), (catalog.octahedron(), equator), (catalog.hexagon(), arc)]
    for x, a in pairs:

        def sequence():
            seq = long_exact_sequence(x, a)
            return [seq.pair, seq.j_star.matrices, seq.connecting.matrices, seq.exact, seq.details]

        tried = agree(sequence, a.name)
        assert any(
            isinstance(r, GraphReduction) and has_one_entry_column(m, t) for m, t, r in tried
        ), a.name
        rel = build_relative(x, a)
        agree(lambda: [compute_homology(rel), compute_cohomology(rel)], a.name)
    for u in ([("a", "b")], []):
        agree(lambda: [excision_check(catalog.triangle2(), circle, u)], u)


def test_class_arithmetic_and_equality():
    """Classes add, subtract and scale coefficientwise with Fraction
    coefficients, compare and hash by space, degree and coefficients, and
    refuse to add across spaces or degrees."""
    h = Space(catalog.torus()).homology
    a, b = basis_class(h, 1, 0), basis_class(h, 1, 1)
    assert a + b == HClass(h, 1, (ONE, ONE))
    assert a - b == HClass(space=h, degree=1, coeffs=(ONE, -ONE))
    assert a.scale(Fraction(3, 2)) == HClass(h, 1, (Fraction(3, 2), ZERO))
    assert all(type(c) is Fraction for c in (a - b.scale(2)).coeffs)
    assert a == basis_class(h, 1, 0) and hash(a) == hash(basis_class(h, 1, 0))
    assert a != b and a != a.coeffs
    assert a != basis_class(Space(catalog.torus()).homology, 1, 0)  # another space
    assert len({a, basis_class(h, 1, 0), b}) == 2
    with pytest.raises(DegreeMismatch):
        a + basis_class(h, 0, 0)
    with pytest.raises(DegreeMismatch):
        a + basis_class(Space(catalog.torus()).homology, 1, 0)
