import json
import os
import random
from collections import Counter
from fractions import Fraction

import pytest

from simhom import catalog
from simhom.chains import ChainComplex
from simhom.complex import complex_from_json
from simhom.exactlin import (
    FacetTable,
    GraphReduction,
    Reductions,
    SignedForest,
    Solver,
    SparseMatrix,
    _rref,
    dense_identity,
    dense_inv,
    dense_mul,
    dense_vec,
    image_basis,
    kernel_basis,
    lp_feasible,
    pivot_columns,
    qstr,
    rank,
    solve,
)

from oracles import dense_rref, oracle_gauss_jordan_rref, oracle_lp_feasible

F = Fraction


# d_1 of the boundary circle of one 2-simplex: vertices a,b,c; edges ab,ac,bc.
TRIANGLE_D1 = SparseMatrix.from_dense(
    [
        [-1, -1, 0],
        [1, 0, -1],
        [0, 1, 1],
    ]
)


def test_rank_examples():
    assert rank(TRIANGLE_D1) == 2
    assert rank(SparseMatrix.zero(3, 4)) == 0
    assert rank(SparseMatrix.identity(4)) == 4


def test_kernel_triangle_loop():
    basis = kernel_basis(TRIANGLE_D1)
    assert len(basis) == 1
    assert not any(TRIANGLE_D1.apply(basis[0]))


def test_kernel_trivial_cases():
    assert kernel_basis(SparseMatrix.identity(3)) == []
    row = SparseMatrix.from_dense([[1, 1, 1]])
    assert len(kernel_basis(row)) == 2
    empty = Solver(SparseMatrix(0, 4))  # the shape of d_0 and delta^dim
    assert empty.rank == 0 and empty.free_cols() == [0, 1, 2, 3]
    assert empty.kernel() == [tuple(F(int(i == j)) for j in range(4)) for i in range(4)]


def test_image_basis_dims():
    img = image_basis(TRIANGLE_D1)
    assert len(img) == 2
    assert len(image_basis(SparseMatrix.zero(2, 2))) == 0


def test_solve_identity_and_inconsistent():
    i3 = SparseMatrix.identity(3)
    b = (F(1), F(-2), F("5/3"))
    assert solve(i3, b) == b
    assert solve(SparseMatrix.zero(2, 2), (F(1), F(0))) is None
    # homogeneous always solvable
    assert solve(SparseMatrix.zero(2, 2), (F(0), F(0))) == (F(0), F(0))


def test_solver_reuse():
    s = Solver(TRIANGLE_D1)
    b = TRIANGLE_D1.apply((F(2), F(-1), F(3)))
    x = s.solve(b)
    assert x is not None
    assert TRIANGLE_D1.apply(x) == b
    assert s.solve((F(1), F(1), F(1))) is None  # not in the column space


def test_solve_and_inverse_check_their_input_shapes():
    with pytest.raises(ValueError):
        solve(TRIANGLE_D1, (F(1), F(1)))
    with pytest.raises(ValueError):
        Solver(TRIANGLE_D1).solve((F(1), F(1), F(1), F(1)))
    with pytest.raises(ValueError):
        dense_inv(((F(1), F(2)), (F(3),)))
    with pytest.raises(ValueError):
        dense_inv(((F(1), F(2)),))
    assert dense_inv(()) == ()


def test_rank_nullity_random():
    rng = random.Random(20240811)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = SparseMatrix.from_dense(
            [
                [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
                for _ in range(rows)
            ]
        )
        r = rank(m)
        ker = kernel_basis(m)
        assert r + len(ker) == cols
        assert len(image_basis(m)) == len(pivot_columns(m)) == r
        for v in ker:
            assert not any(m.apply(v))


def test_solve_random_consistency():
    rng = random.Random(7)
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = SparseMatrix.from_dense(
            [[F(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)]
        )
        x0 = tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(cols))
        b = m.apply(x0)
        x = solve(m, b)
        assert x is not None
        assert m.apply(x) == b


def test_matmul_transpose_roundtrip():
    a = SparseMatrix.from_dense([[1, 2], [0, F("1/2")]])
    b = SparseMatrix.from_dense([[3, 0], [1, -1]])
    prod = a @ b
    assert prod.to_dense() == [[F(5), F(-2)], [F("1/2"), F("-1/2")]]
    assert a.transpose().transpose() == a


def test_dense_inverse():
    a = ((F(2), F(1)), (F(1), F(1)))
    inv = dense_inv(a)
    assert dense_mul(a, inv) == ((F(1), F(0)), (F(0), F(1)))
    assert dense_inv(((F(1), F(2)), (F(2), F(4)))) is None
    rng = random.Random(1234)
    invertible = 0
    for _ in range(40):
        n = rng.randint(1, 5)
        a = [
            tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
            for _ in range(n)
        ]
        inv = dense_inv(tuple(a))
        if inv is not None:
            invertible += 1
            assert dense_mul(a, inv) == dense_mul(inv, a) == dense_identity(n)
        if n >= 2:
            i, j = rng.sample(range(n), 2)
            a[j] = a[i]
            assert dense_inv(tuple(a)) is None
    assert invertible >= 30


def test_dense_products_match_fraction_sums():
    """``dense_mul`` and ``dense_vec``, which multiply in int after scaling
    by the lcm of the denominators, give the plain Fraction sums of
    products, every entry a Fraction, on int and rational entries of every
    shape, empty ones included."""
    rng = random.Random(2020)

    def entry():
        v = rng.randint(-4, 4)
        return rng.choice((v, F(v), F(v, rng.randint(1, 6))))

    def matrix(rows, cols):
        return tuple(tuple(entry() for _ in range(cols)) for _ in range(rows))

    def fraction_sum(terms):
        return sum(terms, F(0))

    for _ in range(60):
        rows, inner, cols = (rng.randint(0, 4) for _ in range(3))
        a, b, v = matrix(rows, inner), matrix(inner, cols), matrix(1, inner)[0]
        prod, image = dense_mul(a, b), dense_vec(a, v)
        width = cols if inner else 0  # b has no row to tell its width
        assert prod == tuple(
            tuple(fraction_sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(width))
            for i in range(rows)
        )
        assert image == tuple(fraction_sum(a[i][k] * v[k] for k in range(inner)) for i in range(rows))
        assert all(type(x) is F for x in image + sum(prod, ()))


def test_qstr():
    assert qstr(F(3, 2)) == "3/2"
    assert qstr(F(-4, 2)) == "-2"
    assert qstr(F(0)) == "0"


def test_lp_trivial_box():
    # x >= 0 and x <= 1
    pt = lp_feasible([([1], ">=", 0), ([1], "<=", 1)], 1)
    assert pt is not None
    assert 0 <= pt[0] <= 1


def test_lp_infeasible():
    assert lp_feasible([([1], ">=", 1), ([1], "<=", 0)], 1) is None


def test_lp_barycentric_slice():
    # Delta^2 cap {t0 = t1}: t0+t1+t2 = 1, all >= 0, t0 - t1 = 0.
    cons = [
        ([1, 1, 1], "==", 1),
        ([1, -1, 0], "==", 0),
        ([1, 0, 0], ">=", 0),
        ([0, 1, 0], ">=", 0),
        ([0, 0, 1], ">=", 0),
    ]
    pt = lp_feasible(cons, 3)
    assert pt is not None
    assert sum(pt) == 1
    assert pt[0] == pt[1]
    assert all(c >= 0 for c in pt)
    # (1/2, 1/2, 0) is one admissible witness; any exact solution passes.


def test_lp_equalities_only_inconsistent():
    cons = [([1, 1], "==", 1), ([2, 2], "==", 3)]
    assert lp_feasible(cons, 2) is None


def test_lp_never_reports_false_infeasibility():
    # plant a known feasible point, then generate constraints it satisfies
    rng = random.Random(424242)
    for _ in range(40):
        nv = rng.randint(1, 5)
        x0 = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nv)]
        cons = []
        for _ in range(rng.randint(1, 7)):
            coeffs = [F(rng.randint(-3, 3)) for _ in range(nv)]
            val = sum(c * x for c, x in zip(coeffs, x0))
            kind = rng.choice(["<=", ">=", "=="])
            if kind == "<=":
                cons.append((coeffs, "<=", val + F(rng.randint(0, 2))))
            elif kind == ">=":
                cons.append((coeffs, ">=", val - F(rng.randint(0, 2))))
            else:
                cons.append((coeffs, "==", val))
        pt = lp_feasible(cons, nv)
        assert pt is not None
        for coeffs, op, rhs in cons:
            v = sum(c * x for c, x in zip(coeffs, pt))
            assert (v <= rhs) if op == "<=" else (v >= rhs) if op == ">=" else (v == rhs)


def test_exactness_roundtrip():
    # arithmetic introduces no rounding: scaling by q then 1/q reconstructs
    rng = random.Random(5150)
    m = SparseMatrix.from_dense(
        [[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)] for _ in range(4)]
    )
    q = F(355, 113)
    assert m.scale(q).scale(1 / q) == m
    v = tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5))
    forward = m.apply(v)
    assert m.scale(q).apply(v) == tuple(q * x for x in forward)


def test_lp_random_feasible_points_satisfy_all():
    rng = random.Random(99)
    for _ in range(25):
        nv = rng.randint(1, 4)
        cons = []
        for _ in range(rng.randint(1, 6)):
            coeffs = [F(rng.randint(-2, 2)) for _ in range(nv)]
            op = rng.choice(["<=", ">=", "=="])
            cons.append((coeffs, op, F(rng.randint(-2, 2))))
        pt = lp_feasible(cons, nv)
        if pt is None:
            continue
        for coeffs, op, rhs in cons:
            val = sum(c * x for c, x in zip(coeffs, pt))
            if op == "<=":
                assert val <= rhs
            elif op == ">=":
                assert val >= rhs
            else:
                assert val == rhs


def test_lp_matches_substitution_oracle():
    # random systems, a third of them shaped like the witness LPs: a
    # barycentric simplex cut by equalities with 0/+-1 coefficients
    rng = random.Random(2718)
    found = 0
    for trial in range(600):
        nv = rng.randint(1, 5)
        cons = []
        if trial % 3 == 0:
            cons.append(([1] * nv, "==", 1))
            cons += [([int(i == j) for j in range(nv)], ">=", 0) for i in range(nv)]
            for _ in range(rng.randint(1, 4)):
                cons.append(([rng.choice([-1, 0, 0, 1]) for _ in range(nv)], "==", 0))
        else:
            for _ in range(rng.randint(1, 6)):
                coeffs = [_random_entry(rng) for _ in range(nv)]
                op = rng.choice(["<=", ">=", "==", "=="])
                cons.append((coeffs, op, _random_entry(rng)))
        pt = lp_feasible(cons, nv)
        assert pt == oracle_lp_feasible(cons, nv), cons
        if pt is not None:
            found += 1
            assert all(type(v) is F for v in pt)
    assert 100 <= found <= 500


def _random_entry(rng):
    k = rng.random()
    if k < 0.4:
        return F(0)
    if k < 0.65:
        return F(rng.choice([-1, 1]))
    if k < 0.85:
        return F(rng.randint(-6, 6))
    return F(rng.randint(-7, 7), rng.randint(2, 5))


def _all_fractions(vectors):
    return all(type(v) is F for vec in vectors for v in vec)


def test_elimination_matches_textbook_gauss_jordan():
    rng = random.Random(31337)
    fractional = non_unit_integral = 0
    for trial in range(400):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        if trial % 4 == 0:
            cols = rows
        dense = [[_random_entry(rng) for _ in range(cols)] for _ in range(rows)]
        m = SparseMatrix(rows, cols, {
            (i, j): v for i, row in enumerate(dense) for j, v in enumerate(row) if v
        })
        ref, ref_pivots = dense_rref(dense, cols)
        assert pivot_columns(m) == ref_pivots
        assert rank(m) == len(ref_pivots)
        entries = [v for row in dense for v in row]
        fractional += any(v.denominator > 1 for v in entries)
        non_unit_integral += any(v.denominator == 1 and abs(v) > 1 for v in entries)

        free = [f for f in range(cols) if f not in ref_pivots]
        expected_kernel = []
        for f in free:
            v = [F(0)] * cols
            v[f] = F(1)
            for k, c in enumerate(ref_pivots):
                v[c] = -ref[k][f]
            expected_kernel.append(tuple(v))
        ker = kernel_basis(m)
        assert ker == expected_kernel
        assert _all_fractions(ker)

        img = image_basis(m)
        assert img == [tuple(dense[i][c] for i in range(rows)) for c in ref_pivots]
        assert _all_fractions(img)

        x0 = [_random_entry(rng) for _ in range(cols)]
        for b in (m.apply(x0), tuple(_random_entry(rng) for _ in range(rows))):
            aug, aug_pivots = dense_rref(
                [list(row) + [b[i]] for i, row in enumerate(dense)], cols + 1
            )
            x = solve(m, b)
            if cols in aug_pivots:
                assert x is None
                continue
            expected = [F(0)] * cols
            for k, c in enumerate(aug_pivots):
                expected[c] = aug[k][cols]
            assert x == tuple(expected)
            assert _all_fractions([x])

        if rows == cols:
            inv = dense_inv(tuple(tuple(row) for row in dense))
            if len(ref_pivots) < rows:
                assert inv is None
            else:
                ident = [[F(int(i == j)) for j in range(rows)] for i in range(rows)]
                wide, _ = dense_rref(
                    [list(dense[i]) + ident[i] for i in range(rows)], 2 * rows
                )
                assert inv == tuple(tuple(row[rows:]) for row in wide)
                assert _all_fractions(inv)
    assert fractional > 100 and non_unit_integral > 100


def _gauss_jordan_pivots(rows, ncols):
    pivots, _ = oracle_gauss_jordan_rref(rows, ncols)
    return pivots


def _reduced_as_fractions(m, reduce, row_type=dict):
    """(pivots, RREF rows) of ``reduce`` on fresh row dicts."""
    rows = [row_type() for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    pivots = reduce(rows, m.cols)
    return pivots, [{j: F(v) for j, v in d.items()} for d in rows]


def _assert_matches_gauss_jordan(m):
    got = _reduced_as_fractions(m, _rref)
    assert got == _reduced_as_fractions(m, _gauss_jordan_pivots)


def test_rref_matches_gauss_jordan_on_random_matrices():
    rng = random.Random(20261018)
    deficient = fractional = non_unit = 0
    for _ in range(2000):
        rows, cols = rng.randint(0, 9), rng.randint(0, 9)
        dense = [[_random_entry(rng) for _ in range(cols)] for _ in range(rows)]
        for i in range(1, rows):
            if rng.random() < 0.3:  # a copied or scaled earlier row
                c = F(rng.choice([1, -1, 2, -3])) / rng.randint(1, 4)
                dense[i] = [c * v for v in dense[rng.randrange(i)]]
        m = SparseMatrix.from_dense(dense) if rows else SparseMatrix(0, cols)
        _assert_matches_gauss_jordan(m)
        deficient += Solver(m).rank < min(rows, cols)
        entries = [v for row in dense for v in row]
        fractional += any(v.denominator > 1 for v in entries)
        non_unit += any(v.denominator == 1 and abs(v) > 1 for v in entries)
    assert deficient > 300 and fractional > 500 and non_unit > 500


def test_rref_breaks_pivot_ties_toward_the_lowest_row():
    """Many rows of equal length compete for each pivot: +-1 rows on a few
    repeated supports.  The pivot rows, and so every RREF row in its slot,
    are Gauss-Jordan's, whose rule takes the lowest index among the rows
    with the fewest nonzeros."""
    rng = random.Random(1414)
    for _ in range(400):
        rows, cols = rng.randint(2, 12), rng.randint(2, 8)
        k = rng.randint(1, cols)
        supports = [rng.sample(range(cols), k) for _ in range(rng.randint(1, 3))]
        m = SparseMatrix(rows, cols)
        for i in range(rows):
            for j in rng.choice(supports):
                m.entries[(i, j)] = rng.choice((1, -1))
        _assert_matches_gauss_jordan(m)


def _reduced_by_pivot(s):
    """{pivot column: RREF row as Fractions} of a Solver."""
    return {c: {j: F(v) for j, v in s.rref_rows[r].items()} for r, c in s.pivots}


def test_row_basis_reduction_matches_full_reduction():
    """The rows of M at the pivot columns of M^T span M's row space, so
    their RREF is M's: same pivot columns, same rows, in either order."""
    rng = random.Random(1212)
    deficient = empty = tall = 0
    for _ in range(1500):
        rows, cols = rng.randint(0, 9), rng.randint(0, 9)
        m = SparseMatrix(rows, cols)
        for i in range(rows):
            if i and rng.random() < 0.3:  # a multiple of an earlier row
                k, c = rng.randrange(i), rng.choice([1, -1, 2, -3])
                src = [(j, v) for (r, j), v in m.entries.items() if r == k]
                m.entries.update({(i, j): c * v for j, v in src})
                continue
            for j in range(cols):
                v = rng.choice([0, 0, 0, 1, -1, 2, -3])
                if v:
                    m.entries[(i, j)] = v
        full = Solver(m)
        basis = Solver(m.transpose()).pivot_cols
        assert len(basis) == full.rank
        for order in (basis, basis[::-1]):
            sub = Solver(m, order)
            assert len(sub.rref_rows) == full.rank
            assert sub.pivot_cols == full.pivot_cols
            assert _reduced_by_pivot(sub) == _reduced_by_pivot(full)
            assert sub.kernel() == full.kernel() and sub.image() == full.image()
        deficient += full.rank < min(rows, cols)
        empty += rows == 0 or cols == 0
        tall += rows > cols
    assert deficient > 300 and empty > 100 and tall > 500


def test_transposed_reduction_reads_m_by_columns():
    """The reduction of M^T read off M's columns equals ``Solver`` of an
    explicit transpose: the same pivots, RREF rows (value and type) and
    kernel, for int and Fraction entries, in full and on a row basis of M^T
    in either order.  ``image`` and ``solve`` read M itself, so the
    reduction of M^T refuses them."""
    rng = random.Random(2323)
    counts = Counter()
    for trial in range(800):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        m = SparseMatrix(rows, cols)
        for i in range(rows):
            if i and rng.random() < 0.3:  # a multiple of an earlier row
                k, c = rng.randrange(i), rng.choice([1, -1, 2, -3])
                src = [(j, v) for (r, j), v in m.entries.items() if r == k]
                m.entries.update({(i, j): c * v for j, v in src})
                continue
            for j in range(cols):
                v = rng.choice([0, 0, 0, 1, -1, 2, -3])
                if v:
                    m.entries[(i, j)] = F(v, rng.choice((1, 2, 3))) if trial % 2 else v
        mt = m.transpose()
        basis = Solver(m).pivot_cols  # rows of M^T that span its row space
        for rows_used in (None, basis, basis[::-1]):
            got, want = Solver(m, rows_used, transposed=True), Solver(mt, rows_used)
            assert got.pivots == want.pivots
            assert typed(got.rref_rows) == typed(want.rref_rows)
            assert got.free_cols() == want.free_cols()
            assert got.kernel() == want.kernel()
        with pytest.raises(ValueError):
            got.image()
        with pytest.raises(ValueError):
            got.solve(tuple(F(rng.randint(-2, 2)) for _ in range(cols)))
        counts["tall" if rows > cols else "wide"] += 1
        counts["deficient"] += len(basis) < min(rows, cols)
        counts["fractions"] += any(type(v) is F for r in got.rref_rows for v in r.values())
    assert min(counts.values()) > 60, counts


def _sd1_complexes():
    here = os.path.dirname(os.path.abspath(__file__))
    out = []
    for base in ("torus", "genus2"):
        with open(os.path.join(here, "data", f"sd1_{base}.json")) as fh:
            out.append(complex_from_json(json.load(fh)))
    return out


def test_rref_matches_gauss_jordan_on_every_differential():
    complexes = [catalog.get_complex(name) for name in catalog.COMPLEX_BUILDERS]
    for x in complexes + _sd1_complexes():
        cc = ChainComplex(x)
        for q in range(x.dim + 2):
            _assert_matches_gauss_jordan(cc.boundary(q))
            _assert_matches_gauss_jordan(cc.coboundary(q - 1))


class _CountingRow(dict):
    """A row dict that counts the writes made to it."""

    writes = 0

    def __setitem__(self, key, value):
        _CountingRow.writes += 1
        super().__setitem__(key, value)

    def __delitem__(self, key):
        _CountingRow.writes += 1
        super().__delitem__(key)


def _writes_and_nnz(m, reduce):
    _CountingRow.writes = 0
    _, rows = _reduced_as_fractions(m, reduce, row_type=_CountingRow)
    return _CountingRow.writes - len(m.entries), sum(len(r) for r in rows)


def test_rref_leaves_finished_pivot_rows_alone():
    """H_*'s d_2 of a relabeled Sd genus-2 surface, counted in row writes.

    Gauss-Jordan rewrites every finished pivot row at each pivot; forward
    elimination with one back substitution makes well under half the
    writes for the same 406-entry RREF.
    """
    d2 = ChainComplex(_sd1_complexes()[1]).boundary(2)
    assert (d2.rows, d2.cols) == (306, 204)
    writes, nnz = _writes_and_nnz(d2, _rref)
    assert nnz == 406
    assert writes < 12000
    assert _writes_and_nnz(d2, _gauss_jordan_pivots) == (29064, 406)


def typed(value):
    """``value`` with every number paired with its type, so that ``==``
    compares types too: 1 and Fraction(1) differ."""
    if isinstance(value, dict):
        return {k: typed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [typed(v) for v in value]
    return type(value).__name__, value


def assert_matches_solver(g, a):
    """A reduction answers as ``Solver`` does on the explicit matrix ``a``:
    the same pivot and free columns, and the same kernel vectors and RREF
    entries, value for value and type for type, for every free column and
    for a few in the reverse order."""
    s = Solver(a)
    assert g.pivot_cols == s.pivot_cols
    free = s.free_cols()
    assert g.free_cols() == free
    for wanted in (free, free[::-1][:3]):
        kernel, expected = g.rref_kernel(wanted), s.rref_kernel(wanted)
        assert kernel == expected
        assert [tuple(map(type, v)) for v in kernel] == [tuple(map(type, v)) for v in expected]
        assert typed(sorted(g.rref_entries(wanted))) == typed(sorted(s.rref_entries(wanted)))
    assert g.rref_kernel() == s.rref_kernel()


def _is_balanced(m):
    """Some signs on the rows make every two-entry column (a, -a), by trying
    every sign vector."""
    columns = {}
    for (i, j), v in m.entries.items():
        columns.setdefault(j, []).append((i, v))
    pairs = [c for c in columns.values() if len(c) == 2]
    for mask in range(1 << m.rows):
        signs = [-1 if mask >> i & 1 else 1 for i in range(m.rows)]
        if all(signs[i] * v == -signs[k] * w for (i, v), (k, w) in pairs):
            return True
    return False


def _random_signed_graph(rng):
    """Edges as lines of at most two +-1 entries over vertices in a few
    components: parallel edges, half-edges (one entry), empty lines and
    isolated vertices included.  Signs follow hidden vertex signs, so that
    the graph is balanced, unless ``mixed`` lets some be random."""
    nverts = rng.randint(0, 8)
    component = [rng.randrange(3) for _ in range(nverts)]
    hidden = [rng.choice((1, -1)) for _ in range(nverts)]
    mixed = rng.random() < 0.4
    edges = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.random()
        if nverts == 0 or kind < 0.1:
            edges.append({})
        elif kind < 0.3:
            edges.append({rng.randrange(nverts): rng.choice((1, -1))})
        else:
            a = rng.randrange(nverts)
            mates = [b for b in range(nverts) if b != a and component[b] == component[a]]
            if not mates:
                edges.append({a: rng.choice((1, -1))})
                continue
            b = rng.choice(mates)
            va = rng.choice((1, -1))
            vb = -va * hidden[a] * hidden[b]
            if mixed and rng.random() < 0.3:
                vb = -vb
            edges.append({a: va, b: vb})
    return nverts, edges


def _has_graph_form(m):
    """The rule a graph reduction follows, by counting: at most two
    entries per column with every cycle balanced, or at most two per row
    (the entries being +-1)."""

    def at_most_two(axis):
        return max(Counter(key[axis] for key in m.entries).values(), default=0) <= 2

    return (at_most_two(1) and _is_balanced(m)) or at_most_two(0)


def assert_reductions(m, present=None):
    """``Reductions(m)`` reads M and M^T off a graph exactly when
    ``present`` says so (the rule of ``_has_graph_form`` by default), and
    every orientation, graph or not, answers as ``Solver`` does on the
    explicit matrix, M or M^T, whichever orientation is asked for first.
    Returns the two graph reductions, each None when eliminated."""
    mt = m.transpose()
    if present is None:
        present = _has_graph_form(m), _has_graph_form(mt)
    for order in ((False, True), (True, False)):
        reductions = Reductions(m)
        got = {t: reductions.of(t) for t in order}
        pair = got[False], got[True]
        assert tuple(isinstance(r, GraphReduction) for r in pair) == tuple(present)
        for r, a in zip(pair, (m, mt)):
            assert_matches_solver(r, a)
    return tuple(r if isinstance(r, GraphReduction) else None for r in pair)


def test_graph_reduction_matches_elimination_on_random_signed_graphs():
    """Seeded signed multigraphs, as columns and as rows, each read in both
    orientations from one ``Reductions``: each orientation answers as
    ``Solver`` does on M and on M^T; it is eliminated (None) exactly when
    no graph form applies: an unbalanced cycle in the column form
    and a row with more than two entries.  Paths and cycles, with at most
    two entries in every line, qualify in both line forms."""
    rng = random.Random(1616)
    counts = {
        "column": 0,
        "row": 0,
        "fallback": 0,
        "unbalanced row form": 0,
        "both line forms": 0,
    }
    for trial in range(1500):
        nverts, edges = _random_signed_graph(rng)
        as_columns = rng.random() < 0.5
        ent = {}
        for e, line in enumerate(edges):
            for v, sign in line.items():
                ent[(v, e) if as_columns else (e, v)] = sign
        shape = (nverts, len(edges)) if as_columns else (len(edges), nverts)
        if trial % 2:
            m = SparseMatrix(*shape, ent)  # Fraction +-1 entries
        else:
            m = SparseMatrix(*shape)
            m.entries.update(ent)
        g, gt = assert_reductions(m)
        graph = m if as_columns else m.transpose()  # the graph's vertices as rows
        row_form = gt if as_columns else g
        counts["column" if as_columns else "row"] += g is not None
        counts["fallback"] += g is None or gt is None
        counts["unbalanced row form"] += row_form is not None and not _is_balanced(graph)
        degrees = Counter(i for i, _ in graph.entries).values()
        counts["both line forms"] += max(degrees, default=0) <= 2
    assert min(counts.values()) > 40, counts


def test_reductions_take_a_forest_only_off_their_own_matrix():
    """A forest handed to ``Reductions`` stands in for one of M's own only
    when ``SignedForest.of`` read it off M itself, checked by identity, and
    only in the orientation it was read in.  A forest of an equal copy of
    M, or one built by hand from M's ends, is ignored, and M's own forest
    is built instead; the reductions are the same either way."""
    x = catalog.torus()
    d1, d2 = x.boundary(1), x.boundary(2)
    rows = SignedForest.of(d2, False)
    taken = Reductions(d2, rows)
    assert taken.column_forest(True) is rows
    assert taken._forest(True) is None  # three entries a column: no forest of d_2's columns
    copy = FacetTable(d2.rows, d2.cols, d2.width, d2.facets[:])
    by_hand = SignedForest(d2.cols, *d2.ends(False))
    for m, forest in ((copy, rows), (d2, by_hand), (d1, rows)):
        own = Reductions(m, forest)
        assert own._forest(False) is not forest
        assert own.of(True).pivot_cols == Reductions(m).of(True).pivot_cols
    assert taken.of(True).pivot_cols == Reductions(d2).of(True).pivot_cols
    columns = SignedForest.of(d1, True)
    assert Reductions(d1, columns).column_forest(False) is columns
    assert Reductions(d1, columns)._forest(False) is not columns


def test_graph_reduction_falls_back_off_graphs():
    """An entry other than +-1, three entries in a column and in a row, or
    an unbalanced cycle with a row of three entries leave the matrix to
    ``Solver``; the transpose of the last is a graph's row form.  Each
    matrix is read in both orientations."""
    # the triangle 0-1-2 with every edge (1, 1), and vertex 0 in three edges
    odd = [[1, 0, 1, 1], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, -1]]
    two_per_row = [row[:] for row in odd]
    two_per_row[0][3] = 0
    # that triangle, then joined by its vertex 2 to the longer path 3-4-5-6:
    # the unbalanced component is merged under the balanced one's root
    lasso = [[0] * 7 for _ in range(7)]
    edges = [(0, 1, 1, 1), (1, 1, 2, 1), (0, 1, 2, 1)]
    edges += [(3, 1, 4, -1), (4, 1, 5, -1), (5, 1, 6, -1), (6, 1, 2, -1)]
    for j, (a, va, b, vb) in enumerate(edges):
        lasso[a][j], lasso[b][j] = va, vb
    cases = [
        ([[2, 0], [1, 1]], (False, False)),
        (odd, (False, True)),
        (two_per_row, (True, True)),
        (lasso, (False, True)),
        ([[1, 1, 1], [1, -1, 0], [1, 0, 0]], (False, False)),
        (TRIANGLE_D1.to_dense(), (True, True)),
    ]
    for dense, present in cases:
        m = SparseMatrix.from_dense(dense)
        assert_reductions(m, present)
        assert_reductions(m.transpose(), present[::-1])
