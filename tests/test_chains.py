import random
from fractions import Fraction
from itertools import combinations

import pytest

from simhom import catalog
from simhom.chains import (
    ChainComplex,
    build_relative,
    induced_chain_map,
    subdivision_chain_map,
)
from simhom.complex import barycentric_subdivide, constant_map, identity_map, sort_sign, validate
from simhom.errors import NotSubcomplex
from simhom.exactlin import SparseMatrix

from oracles import (
    oracle_apply,
    oracle_boundary,
    oracle_dict_table,
    oracle_induced_chain_map,
    oracle_maximal_simplices,
    oracle_subdivision_matrix,
    oracle_transpose,
    sparse_of,
)

F = Fraction


def test_boundary_of_edge():
    x = validate([["a", "b"]], name="edge")
    cc = ChainComplex(x)
    d1 = cc.boundary(1)
    # d[a,b] = [b] - [a]
    assert d1.to_dense() == [[F(-1)], [F(1)]]


def test_boundary_squared_zero_catalog():
    for name in catalog.COMPLEX_BUILDERS:
        cc = ChainComplex(catalog.get_complex(name))
        for q in range(2, cc.dim + 1):
            assert (cc.boundary(q - 1) @ cc.boundary(q)).is_zero(), (name, q)


def test_coboundary_squared_zero_catalog():
    for name in ["octahedron", "torus", "genus2"]:
        cc = ChainComplex(catalog.get_complex(name))
        for q in range(cc.dim - 1):
            assert (cc.coboundary(q + 1) @ cc.coboundary(q)).is_zero(), (name, q)


def test_point_boundaries_trivial():
    cc = ChainComplex(catalog.point())
    assert cc.boundary(0).rows == 0
    assert cc.boundary(1).cols == 0


def test_relative_disk_boundary_pair():
    disk = catalog.triangle2()
    circle = validate([["a", "b"], ["b", "c"], ["a", "c"]], name="circle")
    pair = build_relative(disk, circle)
    assert pair.n(2) == 1
    assert pair.n(1) == 0
    assert pair.n(0) == 0
    assert pair.boundary(2).is_zero()


def test_relative_empty_and_full():
    x = catalog.hexagon()
    empty = validate([], name="empty")
    pair = build_relative(x, empty)
    cc = ChainComplex(x)
    for q in range(x.dim + 1):
        assert pair.n(q) == cc.n(q)
        assert pair.boundary(q) == cc.boundary(q)
    full = build_relative(x, x)
    assert all(full.n(q) == 0 for q in range(x.dim + 1))


def test_relative_rejects_non_subcomplex():
    x = catalog.hexagon()
    other = validate([["v0", "v2"]], name="chord")
    with pytest.raises(NotSubcomplex):
        build_relative(x, other)


def test_relative_short_exact_ranks():
    # 0 -> C(A) -> C(X) -> C(X,A) -> 0 degreewise
    x = catalog.octahedron()
    a = validate([["n", "e"], ["e", "s"], ["s", "w"], ["n", "w"]], name="equator")
    pair = build_relative(x, a)
    cca = ChainComplex(a)
    ccx = ChainComplex(x)
    for q in range(x.dim + 1):
        assert cca.n(q) + pair.n(q) == ccx.n(q)


def test_boundaries_are_built_once_with_int_signs():
    """d_q is built once and delta^q is its transpose; both hold the face
    signs as int +-1, at the ends too: delta^{-1} is n_0 x 0 and d_0 is
    0 x n_0."""
    from simhom.chains import ChainComplex

    x = catalog.octahedron()
    face = x.basis(1)[0]
    closed = {face, face[:1], face[1:]}
    kept = {q: [s for s in x.basis(q) if s not in closed] for q in range(x.dim + 1)}
    carriers = {
        "octahedron": ChainComplex(x),
        "octahedron rel equator": build_relative(
            x, validate([["n", "e"], ["e", "s"], ["s", "w"], ["n", "w"]], name="equator")
        ),
        "octahedron minus an edge": ChainComplex(x, kept),
    }
    for label, cc in carriers.items():
        for q in range(-1, cc.dim + 1):
            d, delta = cc.boundary(q + 1), cc.coboundary(q)
            assert cc.boundary(q + 1) is d, (label, q)
            assert (d.rows, d.cols) == (cc.n(q), cc.n(q + 1)), (label, q)
            assert (delta.rows, delta.cols) == (cc.n(q + 1), cc.n(q)), (label, q)
            assert delta.entries == {(j, i): v for (i, j), v in d.entries.items()}
            expected = {}
            for j, s in enumerate(cc.basis(q + 1)):
                for i in range(len(s)):
                    row = cc.index[q].get(s[:i] + s[i + 1 :]) if q >= 0 else None
                    if row is not None:
                        expected[(row, j)] = (-1) ** i
            assert d.entries == expected, (label, q)
            assert all(type(v) is int for v in d.entries.values()), (label, q)
        assert (cc.coboundary(-1).rows, cc.coboundary(-1).cols) == (cc.n(0), 0)
        assert (cc.boundary(0).rows, cc.boundary(0).cols) == (0, cc.n(0))
        assert cc.boundary(0) is not cc.coboundary(-1)


def test_boundary_matches_textbook_oracle():
    """d_q of every chain complex equals the dense textbook boundary, entry
    for entry and type for type (int), and the full complex's is the
    complex's own table: over the catalog, Sd of five surfaces under three
    vertex shuffles each, and three relative pairs, whose kept bases the
    check derives from vertex names alone."""
    from test_complex import _shuffled

    def typed_dense(m):
        dense = [[0] * m.cols for _ in range(m.rows)]
        for (i, j), v in m.entries.items():
            dense[i][j] = v
        return [[(type(v), v) for v in row] for row in dense]

    def agree(cc, bases, label):
        for q in range(-1, cc.dim + 2):
            d = cc.boundary(q)
            expected = oracle_boundary(bases(q - 1), bases(q))
            assert (d.rows, d.cols) == (len(bases(q - 1)), len(bases(q))), (label, q)
            assert typed_dense(d) == [[(type(v), v) for v in row] for row in expected], (label, q)

    complexes = [catalog.get_complex(name) for name in catalog.COMPLEX_BUILDERS]
    for base in ("octahedron", "icosahedron", "torus", "torus7", "genus2"):
        sd, _ = barycentric_subdivide(catalog.get_complex(base))
        complexes += [_shuffled(sd, seed) for seed in (11, 12, 13)]
    for x in complexes:
        cc = ChainComplex(x)
        agree(cc, x.basis, x.name)
        assert all(cc.boundary(q) is x.boundary(q) for q in range(-1, x.dim + 2)), x.name

    circle = validate([["a", "b"], ["b", "c"], ["a", "c"]], name="circle")
    equator = validate([["n", "e"], ["e", "s"], ["s", "w"], ["n", "w"]], name="equator")
    arc = validate([["v0", "v1"], ["v1", "v2"]], name="arc")
    for x, a in [(catalog.triangle2(), circle), (catalog.octahedron(), equator), (catalog.hexagon(), arc)]:
        in_a = {frozenset(a.simplex_names(s)) for q in range(a.dim + 1) for s in a.basis(q)}

        def kept(q, x=x, in_a=in_a):
            return [s for s in x.basis(q) if frozenset(x.simplex_names(s)) not in in_a]

        agree(build_relative(x, a), kept, (x.name, a.name))


def test_solve_homogeneous_boundary():
    # the fundamental-cycle candidate minus itself solves the homogeneous system
    from simhom.exactlin import solve

    cc = ChainComplex(catalog.octahedron())
    d2 = cc.boundary(2)
    zero = tuple(F(0) for _ in range(d2.rows))
    assert solve(d2, zero) == tuple(F(0) for _ in range(d2.cols))


def test_sort_sign():
    assert sort_sign([0, 1, 2]) == 1
    assert sort_sign([1, 0, 2]) == -1
    assert sort_sign([2, 2]) == 0


def test_induced_identity_matrices():
    x = catalog.torus()
    f = identity_map(x)
    mats = induced_chain_map(f)
    for q in range(x.dim + 1):
        assert sparse_of(mats[q]) == SparseMatrix.identity(x.n_simplices(q))


def test_induced_constant_collapses():
    x = catalog.hexagon()
    f = catalog.MAP_BUILDERS["hex_const_v0"]()
    mats = induced_chain_map(f)
    assert sparse_of(mats[1]).is_zero()


def _boundary_of_4_simplex():
    return validate([[v for v in "abcde" if v != w] for w in "abcde"], name="S3")


def test_identity_chain_map_is_the_int_diagonal():
    """Every image of the identity is a key of the codomain's index as it
    stands, so f_# is the +1 diagonal, in int, in every degree, and the
    map hands out the one f_# it built."""
    for x in (catalog.torus(), _boundary_of_4_simplex()):
        f = identity_map(x)
        mats = induced_chain_map(f)
        assert induced_chain_map(f) is mats
        assert sorted(mats) == list(range(x.dim + 1))
        for q, m in mats.items():
            n = x.n_simplices(q)
            assert (m.rows, m.cols) == (n, n)
            assert sparse_of(m).entries == {(j, j): 1 for j in range(n)}
            assert all(type(v) is int for v in sparse_of(m).entries.values())


def test_constant_chain_map_is_zero_above_degree_0():
    """An image with a repeated vertex, such as (0, 0), is sorted but
    degenerate: a constant map's f_# is zero above degree 0, into a
    codomain of lower dimension too, and so are its f_* and f^*."""
    from simhom.homology import Space, induced_map

    tri = catalog.triangle_circle()
    for x, y in ((catalog.torus(), catalog.torus()), (_boundary_of_4_simplex(), tri)):
        for v in (y.vertices[0], y.vertices[-1]):
            f = constant_map(x, y, v)
            mats = induced_chain_map(f)
            c = y.vertex_index[v]
            assert sparse_of(mats[0]).entries == {(c, j): 1 for j in range(len(x.vertices))}
            assert all(sparse_of(mats[q]).is_zero() for q in range(1, x.dim + 1)), v
        sx, sy = Space(x), Space(y)
        for source, target in ((sx.homology, sy.homology), (sy.cohomology, sx.cohomology)):
            got = induced_map(f, source, target)
            assert got.matrix(0) == ((1,),)
            assert all(not any(map(any, got.matrix(q))) for q in range(1, source.dim + 1))


def test_induced_wrap_is_chain_map():
    f = catalog.hex_wrap2()
    mats = {q: sparse_of(m) for q, m in induced_chain_map(f).items()}
    ccx = ChainComplex(f.domain)
    ccy = ChainComplex(f.codomain)
    # each hexagon edge maps to a codomain edge with sign +-1
    for j in range(6):
        col = [mats[1].get(i, j) for i in range(3)]
        assert sorted(map(abs, col)) == [0, 0, 1]
    assert (mats[0] @ ccx.boundary(1)).entries == (ccy.boundary(1) @ mats[1]).entries


def test_chain_map_identity_on_catalog_maps():
    for name in ["hex_wrap2", "hex_wrap1", "oct_antipodal", "oct_rotate",
                 "torus_transpose", "torus_shift", "hex_reflect", "dodeca_wrap2"]:
        f = catalog.get_map(name)
        mats = {q: sparse_of(m) for q, m in induced_chain_map(f).items()}
        ccx = ChainComplex(f.domain)
        ccy = ChainComplex(f.codomain)
        for q in range(1, f.domain.dim + 1):
            lhs = mats[q - 1] @ ccx.boundary(q)
            rhs = ccy.boundary(q) @ mats[q]
            assert lhs == rhs, (name, q)


def test_subdivision_edge():
    x = validate([["a", "b"]], name="edge")
    sd_map = subdivision_chain_map(x)
    m1 = sd_map.matrix(1)
    col = [m1.get(i, 0) for i in range(m1.rows)]
    assert sorted(map(abs, col)) == [1, 1]
    # the two halves carry coherent signs: boundary collapses to b' - a'
    bd = sd_map.target_cc.boundary(1).apply(tuple(col))
    a_new = sd_map.subdivided.vertex_index["a"]
    b_new = sd_map.subdivided.vertex_index["b"]
    assert bd[a_new] == F(-1) and bd[b_new] == F(1)
    assert sum(map(abs, bd)) == 2  # barycenter cancels


def test_subdivision_vertex():
    x = catalog.point()
    sd_map = subdivision_chain_map(x)
    assert sd_map.matrix(0).to_dense() == [[F(1)]]


def test_subdivision_two_simplex_six_pieces():
    x = validate([["a", "b", "c"]], name="t")
    sd_map = subdivision_chain_map(x)
    m2 = sd_map.matrix(2)
    col = [m2.get(i, 0) for i in range(m2.rows)]
    assert sum(1 for c in col if c != 0) == 6
    assert all(abs(c) == 1 for c in col if c != 0)


def test_subdivision_is_chain_map():
    for name in ["hexagon", "octahedron", "torus7", "disk"]:
        x = catalog.get_complex(name)
        sd_map = subdivision_chain_map(x)
        for q in range(1, x.dim + 1):
            lhs = sd_map.target_cc.boundary(q) @ sd_map.matrix(q)
            rhs = sd_map.matrix(q - 1) @ sd_map.source_cc.boundary(q)
            assert lhs == rhs, (name, q)


def _subdivision_inputs():
    for name in catalog.COMPLEX_BUILDERS:
        yield catalog.get_complex(name)
    for name in ["torus", "genus2", "octahedron"]:
        yield barycentric_subdivide(catalog.get_complex(name))[0]
    for name, n, r in (("simplex3", 4, 4), ("boundary_simplex4", 5, 4)):
        vertices = [f"v{i}" for i in range(n)]
        for seed in (1, 2):
            order = list(vertices)
            random.Random(seed).shuffle(order)
            yield validate(list(combinations(vertices, r)), name=name, vertex_order=order)


def test_subdivision_matrix_matches_coning_oracle():
    for x in _subdivision_inputs():
        sd_map = subdivision_chain_map(x)
        for q in range(x.dim + 1):
            m = sd_map.matrix(q)
            assert (m.rows, m.cols) == (sd_map.subdivided.n_simplices(q), x.n_simplices(q))
            expected = oracle_subdivision_matrix(x, sd_map.subdivided, q)
            assert m.entries == expected, (x.name, q)
            assert all(type(v) is int for v in m.entries.values())


def _oracle_class_matrix(source, q, target, entries):
    """``class_matrix`` of the chain map {(row, col): value} pushed by the
    Fraction ``oracle_apply``."""
    from simhom.homology import class_matrix

    return class_matrix(
        source, q, target, q, lambda r: oracle_apply(entries, target.cc.n(q), r)
    )


def test_int_chain_maps_match_fraction_oracle():
    """f_#, its transpose and Sd_# hold int +-1 entries equal to the
    Fraction chain maps of ``oracles``; pushed through ``apply`` and
    ``pull`` they give the Fraction path's chains, and induced_map's f_*
    and f^* its matrices, on every catalog map and on Sd_# of every catalog
    complex."""
    from simhom.homology import Space, class_matrix, induced_map

    spaces = {}

    def space(x):
        if x.name not in spaces:
            spaces[x.name] = Space(x)
        return spaces[x.name]

    pushed = 0
    for name in catalog.MAP_BUILDERS:
        f = catalog.get_map(name)
        mats, oracle = induced_chain_map(f), oracle_induced_chain_map(f)
        assert sorted(mats) == sorted(oracle), name
        sx, sy = space(f.domain), space(f.codomain)
        for q, m in mats.items():
            sparse, back = sparse_of(m), oracle_transpose(oracle[q])
            for got, want in ((sparse, oracle[q]), (sparse.transpose(), back)):
                assert got.entries == want, (name, q)
                assert all(type(v) is int for v in got.entries.values()), (name, q)
            for r in sx.homology.representatives(q):
                assert m.apply(r) == oracle_apply(oracle[q], m.rows, r), (name, q)
            for r in sy.cohomology.representatives(q):
                assert m.pull(r) == oracle_apply(back, m.cols, r), (name, q)
        for source, target, chain in (
            (sx.homology, sy.homology, oracle),
            (sy.cohomology, sx.cohomology, {q: oracle_transpose(e) for q, e in oracle.items()}),
        ):
            got = induced_map(f, source, target)
            for q in range(max(source.dim, 0) + 1):
                want = _oracle_class_matrix(source, q, target, chain.get(q, {}))
                assert got.matrix(q) == want, (name, source.kind, q)
                pushed += source.betti(q)
    for name in catalog.COMPLEX_BUILDERS:
        x = catalog.get_complex(name)
        sd_map = subdivision_chain_map(x)
        h, sd_h = space(x).homology, space(sd_map.subdivided).homology
        for q in range(x.dim + 1):
            m, oracle = sd_map.matrix(q), oracle_subdivision_matrix(x, sd_map.subdivided, q)
            assert m.entries == oracle, (name, q)
            assert all(type(v) is int for v in m.entries.values()), (name, q)
            for r in h.representatives(q):
                assert m.apply(r) == oracle_apply(oracle, m.rows, r), (name, q)
            want = _oracle_class_matrix(h, q, sd_h, oracle)
            assert class_matrix(h, q, sd_h, q, m.apply) == want, (name, q)
            pushed += h.betti(q)
    assert pushed > 100


def _random_complex(rng, name):
    """Up to eight vertices, maximal simplices of dimension 0 to 3."""
    verts = [f"v{i}" for i in range(rng.randint(1, 8))]
    sizes = [min(rng.randint(1, 4), len(verts)) for _ in range(rng.randint(1, 9))]
    return validate([rng.sample(verts, k) for k in sizes], name=name, vertices=verts)


def _facet_table_carriers():
    """Chain complexes whose facet tables the reader test compares: seeded
    random complexes up to dimension 3, S^3 with a shuffled vertex order,
    rp2, a relative pair and an excision view (both with dropped facets)."""
    from test_complex import _shuffled

    rng = random.Random(2024)
    carriers = [ChainComplex(_random_complex(rng, f"random{k}")) for k in range(40)]
    carriers.append(ChainComplex(_shuffled(_boundary_of_4_simplex(), 7)))
    carriers.append(ChainComplex(catalog.rp2()))
    octa = catalog.octahedron()
    equator = validate([["n", "e"], ["e", "s"], ["s", "w"], ["n", "w"]], name="equator")
    carriers.append(build_relative(octa, equator))
    # C(X)/C(A - U), A the equator and U its open edge n-e: the view an
    # excision keeps, with A - U's faces dropped from U's column
    ids = {s: tuple(sorted(octa.vertex_index[v] for v in s)) for s in ("n", "e", "s", "w")}
    ids.update({a + b: tuple(sorted(ids[a] + ids[b])) for a, b in ("ne", "es", "sw", "nw")})
    a_minus_u = set(ids.values()) - {ids["ne"]}
    kept = {q: [s for s in octa.basis(q) if s not in a_minus_u] for q in range(octa.dim + 1)}
    carriers.append(ChainComplex(octa, kept))
    return carriers


def _forest_fields(forest):
    """What a ``SignedForest`` answers, whatever its roots: the joins, and
    per vertex its component's flags and last vertex, and its sign against
    the component's first vertex."""
    if forest is None:
        return None
    roots, signs = forest.flatten()
    first = {}
    for k, r in enumerate(roots):
        first.setdefault(r, k)
    return (
        forest.joins,
        [forest.grounded[r] for r in roots],
        [forest.balanced[r] for r in roots],
        [forest.last[r] for r in roots],
        [s * signs[first[r]] for s, r in zip(signs, roots)],
    )


def test_facet_table_readers_match_dict_table():
    """Every reader of a facet table gives what the same reader gives on the
    dict-keyed table built the old way: ``apply`` and ``pull`` on seeded
    int and Fraction vectors, ``lines`` and ``ends`` in both orientations,
    the ``SignedForest``s of both, ``maximal_simplices``, and the product
    and transpose the checks read."""
    from simhom.exactlin import FacetTable, SignedForest

    from test_exactlin import typed

    rng = random.Random(99)
    for cc in _facet_table_carriers():
        label = cc.complex.name
        for q in range(-1, cc.dim + 3):
            d, ref = cc.boundary(q), oracle_dict_table(cc, q)
            assert type(d) is FacetTable, (label, q)
            assert (d.rows, d.cols) == (ref.rows, ref.cols), (label, q)
            assert d.entries == ref.entries and list(d.entries) == list(ref.entries), (label, q)
            for by_column in (False, True):
                assert d.lines(by_column) == ref.lines(by_column), (label, q, by_column)
                assert d.ends(by_column) == ref.ends(by_column), (label, q, by_column)
                assert _forest_fields(SignedForest.of(d, by_column)) == _forest_fields(
                    SignedForest.of(ref, by_column)
                ), (label, q, by_column)
            for _ in range(3):
                for vec in (
                    tuple(rng.choice((0, 0, 1, -2)) for _ in range(d.cols)),
                    tuple(F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(d.cols)),
                ):
                    assert typed(d.apply(vec)) == typed(ref.apply(vec)), (label, q)
                for vec in (
                    tuple(rng.choice((0, 0, 1, -2)) for _ in range(d.rows)),
                    tuple(F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(d.rows)),
                ):
                    assert typed(d.pull(vec)) == typed(ref.pull(vec)), (label, q)
            assert d.transpose().entries == ref.transpose().entries, (label, q)
            if q >= 1:
                lower = cc.boundary(q - 1)
                assert (lower @ d).entries == (oracle_dict_table(cc, q - 1) @ ref).entries
        if cc.index is cc.complex.index:
            x = cc.complex
            assert x.maximal_simplices() == oracle_maximal_simplices(x), label
