"""Independent brute-force oracles for freezing expected values.

The oracles recompute from first principles with plain dense row
reduction over Fraction, sharing no code path with the package's sparse
elimination or basis bookkeeping.  The ``oracle_manifold_check``,
``oracle_orient``, ``oracle_gauss_jordan_rref``, ``oracle_select``,
``oracle_subdivision_matrix``, ``oracle_induced_chain_map``,
``oracle_transpose``, ``oracle_apply``, ``oracle_dict_table``,
``oracle_lp_feasible`` and ``oracle_coincidence_witness`` references are
earlier versions of package routines, kept so that their replacements can
be checked value for value.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations


def face_closure(maximal):
    """All faces of the given simplices, as sorted tuples, grouped by dim."""
    seen = set()
    for s in maximal:
        s = tuple(sorted(s))
        for r in range(1, len(s) + 1):
            for f in combinations(s, r):
                seen.add(f)
    by_dim = {}
    for f in seen:
        by_dim.setdefault(len(f) - 1, []).append(f)
    return {q: sorted(v) for q, v in by_dim.items()}


def dense_boundary(levels, q):
    """Boundary matrix C_q -> C_{q-1} as dense Fraction rows."""
    lower = levels.get(q - 1, [])
    upper = levels.get(q, [])
    index = {s: i for i, s in enumerate(lower)}
    mat = [[Fraction(0)] * len(upper) for _ in range(len(lower))]
    for j, s in enumerate(upper):
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            mat[index[face]][j] += Fraction((-1) ** i)
    return mat


def oracle_boundary(lower, upper):
    """The textbook d_q on the bases ``lower`` and ``upper``, dense in int.

    Dropping the vertex at position i of ``upper[j]`` gives a face; when
    ``lower`` holds it, its row gets (-1)^i in column j.  Faces outside
    ``lower`` are dropped, as in a quotient of the chains.
    """
    row = {s: r for r, s in enumerate(lower)}
    mat = [[0] * len(upper) for _ in lower]
    for j, s in enumerate(upper):
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            if face in row:
                mat[row[face]][j] += (-1) ** i
    return mat


def oracle_dict_table(cc, q):
    """d_q of a chain complex as the dict-keyed ``SparseMatrix`` the facet
    table replaced: the entry (-1)^i for each facet that drops vertex i and
    is a kept simplex, filled column by column in slot order, as an int."""
    from simhom.exactlin import SparseMatrix

    m = SparseMatrix(cc.n(q - 1), cc.n(q))
    row = {s: r for r, s in enumerate(cc.basis(q - 1))} if q >= 1 else {}
    for j, s in enumerate(cc.basis(q) if q >= 1 else ()):
        for i in range(len(s)):
            r = row.get(s[:i] + s[i + 1 :])
            if r is not None:
                m.entries[(r, j)] = -1 if i & 1 else 1
    return m


def oracle_maximal_simplices(x):
    """The simplices of ``x`` that lie in no other, by comparing all pairs,
    in the order of dimension and then of ``x``'s bases."""
    every = [set(s) for q in range(x.dim + 1) for s in x.basis(q)]
    return [
        s
        for q in range(x.dim + 1)
        for s in x.basis(q)
        if not any(set(s) < t for t in every)
    ]


def dense_rref(mat, ncols):
    """Textbook Gauss-Jordan over Fraction: (nonzero RREF rows, pivot columns).

    The pivot is the first nonzero at or below the current row; the RREF is
    unique, so any correct elimination must agree with it.
    """
    a = [[Fraction(v) for v in row] for row in mat]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        pv = a[r][c]
        a[r] = [v / pv for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a[: len(pivots)], pivots


def dense_rank(mat):
    if not mat or not mat[0]:
        return 0
    return len(dense_rref(mat, len(mat[0]))[1])


def oracle_betti(maximal):
    """Betti numbers over Q by rank-nullity on dense boundary matrices."""
    levels = face_closure(maximal)
    if not levels:
        return ()
    dim = max(levels)
    out = []
    for q in range(dim + 1):
        n_q = len(levels.get(q, []))
        rank_out = dense_rank(dense_boundary(levels, q)) if q >= 1 else 0
        rank_in = (
            dense_rank(dense_boundary(levels, q + 1)) if q + 1 <= dim else 0
        )
        out.append(n_q - rank_out - rank_in)
    return tuple(out)


def oracle_euler(maximal):
    levels = face_closure(maximal)
    return sum((-1) ** q * len(v) for q, v in levels.items())


def oracle_facet_incidences(maximal):
    """How many top simplices contain each codimension-1 face."""
    levels = face_closure(maximal)
    dim = max(levels)
    counts = {f: 0 for f in levels.get(dim - 1, [])}
    for top in levels[dim]:
        for i in range(len(top)):
            counts[top[:i] + top[i + 1 :]] += 1
    return counts


def oracle_vertex_links_ok(x):
    """The link condition of a complex of dimension <= 2, by the plain scan.

    Dimension 1: every vertex lies in exactly two edges.  Dimension 2: for
    every vertex, scan all triangles for the ones containing it; their
    opposite edges must form one closed cycle.  Reads only ``x.dim``,
    ``x.vertices`` and ``x.basis``; other dimensions give True.
    """
    return oracle_bad_vertex_link(x) is None


def oracle_bad_vertex_link(x):
    """The first vertex failing ``oracle_vertex_links_ok``'s scan, or None."""
    return next((v for v in range(len(x.vertices)) if not _oracle_link_ok(x, v)), None)


def _oracle_link_ok(x, v):
    """The link condition of ``oracle_vertex_links_ok`` at vertex ``v``."""
    if x.dim == 1:
        return sum(v in e for e in x.basis(1)) == 2
    if x.dim != 2:
        return True
    link = [tuple(w for w in t if w != v) for t in x.basis(2) if v in t]
    nbrs = {}
    for a, b in link:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    if not link or any(len(ws) != 2 for ws in nbrs.values()):
        return False
    start = next(iter(nbrs))
    seen, todo = {start}, [start]
    while todo:
        for w in nbrs[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == len(nbrs)


def _oracle_facet_incidences(x):
    """Map each (n-1)-simplex to the list of top simplex ids containing it."""
    inc = {f: [] for f in x.basis(x.dim - 1)}
    for t, top in enumerate(x.top_simplices()):
        for i in range(len(top)):
            facet = top[:i] + top[i + 1 :]
            inc[facet].append(t)
    return inc


def _oracle_connected_over(nodes, adj):
    nodes = list(nodes)
    if not nodes:
        return False
    seen = {nodes[0]}
    todo = deque([nodes[0]])
    while todo:
        cur = todo.popleft()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return len(seen) == len(nodes)


def oracle_manifold_check(x):
    """``complex.manifold_check`` as it built its own unsigned incidence
    table and searched both the dual graph and the vertex graph, with
    ``oracle_vertex_links_ok`` for the link condition."""
    from simhom.complex import ManifoldReport

    n = x.dim
    pure = len(x.maximal_simplices()) == len(x.top_simplices())
    if n <= 0:
        connected = x.n_simplices(0) == 1
        return ManifoldReport(
            dimension=n,
            pure=pure,
            closed=pure,
            facet_incidences_ok=True,
            strongly_connected=connected,
            connected=connected,
            boundary_facets=(),
            is_closed_pseudo_manifold=pure and connected,
            vertex_links_ok=True,
        )
    inc = _oracle_facet_incidences(x)
    boundary = tuple(f for f, ts in sorted(inc.items()) if len(ts) == 1)
    ok = all(len(ts) <= 2 for ts in inc.values())
    closed = ok and not boundary and pure

    tops = x.top_simplices()
    adj = {t: [] for t in range(len(tops))}
    for ts in inc.values():
        if len(ts) == 2:
            a, b = ts
            adj[a].append(b)
            adj[b].append(a)
    strongly = _oracle_connected_over(range(len(tops)), adj) if tops else False

    vadj = {i: set() for i in range(len(x.vertices))}
    for e in x.basis(1):
        vadj[e[0]].add(e[1])
        vadj[e[1]].add(e[0])
    connected = _oracle_connected_over(
        range(len(x.vertices)), {k: sorted(v) for k, v in vadj.items()}
    )

    return ManifoldReport(
        dimension=n,
        pure=pure,
        closed=closed,
        facet_incidences_ok=ok,
        strongly_connected=strongly,
        connected=connected,
        boundary_facets=tuple(x.simplex_names(f) for f in boundary),
        is_closed_pseudo_manifold=pure and closed and strongly,
        vertex_links_ok=oracle_vertex_links_ok(x) if n <= 2 else None,
    )


def oracle_orient(x):
    """``complex.orient`` as it checked the manifold first, rebuilt the
    incidences, searched each facet's position and walked the dual graph
    a second time."""
    from simhom.complex import OrientationData
    from simhom.errors import NonOrientable, NotClosed

    report = oracle_manifold_check(x)
    if not report.is_closed_pseudo_manifold:
        raise NotClosed(f"{x.name!r} is not a closed pseudo-manifold: {report}")
    if x.dim <= 2:
        for v, name in enumerate(x.vertices):
            if not _oracle_link_ok(x, v):
                raise NotClosed(
                    f"{x.name!r} is not a closed manifold: "
                    f"the link of vertex {name!r} is not one circle"
                )
    n = x.dim
    tops = x.top_simplices()
    if n == 0:
        return OrientationData(signs=(1,) * len(tops), coherent=True, report=report)
    inc = _oracle_facet_incidences(x)
    signs = [0] * len(tops)
    signs[0] = 1
    todo = deque([0])

    def facet_sign(t, facet):
        top = tops[t]
        for i in range(len(top)):
            if top[:i] + top[i + 1 :] == facet:
                return (-1) ** i
        raise AssertionError("facet not in top simplex")

    facets_of = [
        [top[:i] + top[i + 1 :] for i in range(len(top))] for top in tops
    ]
    while todo:
        t = todo.popleft()
        for facet in facets_of[t]:
            pair = inc[facet]
            if len(pair) != 2:
                raise NotClosed(f"facet {facet} lies in {len(pair)} top simplices")
            other = pair[0] if pair[1] == t else pair[1]
            induced = signs[t] * facet_sign(t, facet)
            needed = -induced * facet_sign(other, facet)
            if signs[other] == 0:
                signs[other] = needed
                todo.append(other)
            elif signs[other] != needed:
                raise NonOrientable(f"{x.name!r} admits no coherent orientation")
    if any(s == 0 for s in signs):
        raise NotClosed(f"{x.name!r}: dual graph not connected")
    return OrientationData(signs=tuple(signs), coherent=True, report=report)


def _oracle_div(v, p):
    """v / p, an ``int`` when both are ints and p divides v."""
    if type(v) is int and type(p) is int:
        q, r = divmod(v, p)
        return Fraction(v, p) if r else q
    return v / p


def oracle_gauss_jordan_rref(rows, ncols, transform=False):
    """``exactlin._rref`` as Gauss-Jordan elimination, kept verbatim.

    At each pivot it also rewrites every pivot row chosen before, which
    forward elimination with one back substitution avoids; the two must
    agree value for value.  Reduce a list of row dicts to canonical RREF
    in place.

    Returns (pivot list of (row, col), transform rows or None).  Pivot
    columns are scanned left to right; the pivot row is the candidate with
    fewest nonzeros, ties by lowest index.

    Integral entries are turned into ``int`` first and the arithmetic stays
    in ``int`` until a division by a non-unit pivot leaves a remainder, so an
    integer matrix whose pivots are units, as boundary matrices' mostly are,
    is reduced without a single ``Fraction``.  ``holders[j]``
    is the set of rows with a nonzero in column j, kept up to date through
    fill-in and cancellation, so a column's pivot search and elimination
    visit only those rows.  Rows and transform come back holding ``int``
    and ``Fraction`` values; ``Solver`` hands out only ``Fraction``.
    """
    holders = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            if type(v) is not int and v.denominator == 1:
                row[j] = v.numerator
            holders[j].add(i)
    tr = [{i: 1} for i in range(len(rows))] if transform else None
    pivots = []
    used = set()
    for col in range(ncols):
        candidates = [i for i in holders[col] if i not in used]
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(rows[i]), i))
        used.add(p)
        prow = rows[p]
        pv = prow[col]
        if pv != 1:
            for j, v in prow.items():
                prow[j] = _oracle_div(v, pv)
            if transform:
                tp = tr[p]
                for j, v in tp.items():
                    tp[j] = _oracle_div(v, pv)
        for i in holders[col] - {p}:
            ri = rows[i]
            f = ri[col]
            for j, v in prow.items():
                s = ri.get(j, 0) - f * v
                if s:
                    if j not in ri:
                        holders[j].add(i)
                    ri[j] = s
                else:
                    del ri[j]
                    holders[j].remove(i)
            if transform:
                ti = tr[i]
                for j, v in tr[p].items():
                    s = ti.get(j, 0) - f * v
                    if s:
                        ti[j] = s
                    else:
                        del ti[j]
        pivots.append((p, col))
    return pivots, tr


def oracle_select(leaving, entering):
    """The class selection ``homology._select`` made on [B_F | I], kept as
    the reference, with Gauss-Jordan for its elimination.

    ``leaving`` and ``entering`` are ``exactlin.Solver`` reductions of the
    maps leaving and entering one degree.  The selection has dim Z_q rows:
    the boundaries' entries at the free columns F beside the identity.  Its
    pivot columns are B first, then the kept cycles z_f, and the RREF row
    of the t-th kept pivot holds the t-th class coefficient of every later
    z_f.  Returns the dense kept cycles and {f: {t: coefficient}}.
    """
    free = leaving.free_cols()
    slot = {f: k for k, f in enumerate(free)}
    bslot = {c: k for k, c in enumerate(entering.pivot_cols)}
    nb = len(bslot)
    rows = [{nb + k: 1} for k in range(len(free))]
    for (i, j), v in entering.m.entries.items():
        if j in bslot and i in slot:
            rows[slot[i]][bslot[j]] = v
    pivots, _ = oracle_gauss_jordan_rref(rows, nb + len(free))
    kept = [(r, c) for r, c in pivots if c >= nb]
    coords = {}
    for t, (r, c) in enumerate(kept):
        for j, v in rows[r].items():
            coords.setdefault(free[j - nb], {})[t] = v
    return leaving.kernel([free[c - nb] for _, c in kept]), coords


def _oracle_cone(p, chain):
    """Cone p.z of a chain {simplex: coefficient}: the sign is (-1)^k, k
    the position of p in the sorted simplex; simplices holding p vanish."""
    out = {}
    for s, c in chain.items():
        if p in s:
            continue
        t = tuple(sorted(s + (p,)))
        out[t] = out.get(t, 0) + c * (-1) ** t.index(p)
    return {t: c for t, c in out.items() if c}


def oracle_subdivision_matrix(x, sd, q):
    """Sd_# on C_q by recursive coning, the construction that
    ``chains.SubdivisionMap`` used before it read the flags directly.

    Sd(v) = b_v and Sd(s) = b_s . Sd(ds), with the barycenter b_s the
    vertex of ``sd`` named by s's vertex names joined with "|".  Returns
    the matrix entries {(row, col): Fraction} in the bases of ``sd`` and
    ``x``.
    """
    memo = {}

    def subdivide(s):
        if s not in memo:
            b = sd.vertex_index["|".join(str(x.vertices[i]) for i in s)]
            if len(s) == 1:
                memo[s] = {(b,): 1}
            else:
                acc = {}
                for i in range(len(s)):
                    for t, c in subdivide(s[:i] + s[i + 1 :]).items():
                        acc[t] = acc.get(t, 0) + c * (-1) ** i
                memo[s] = _oracle_cone(b, {t: c for t, c in acc.items() if c})
        return memo[s]

    rows = {s: k for k, s in enumerate(sd.basis(q))}
    return {
        (rows[t], j): Fraction(c)
        for j, s in enumerate(x.basis(q))
        for t, c in subdivide(s).items()
    }


def oracle_induced_chain_map(f):
    """f_# as it was built while chain maps held Fractions: per degree, the
    entries {(row, col): Fraction(+-1)} sending a simplex to its sorted
    image with the sign of the sorting permutation, degenerate images to
    zero."""
    dom, cod = f.domain, f.codomain
    out = {}
    for q in range(dom.dim + 1):
        ent = {}
        for j, s in enumerate(dom.basis(q)):
            image = [f.mapping[v] for v in s]
            if len(set(image)) < len(image):
                continue
            inversions = sum(a > b for k, b in enumerate(image) for a in image[:k])
            ent[(cod.simplex_id(q, tuple(sorted(image))), j)] = Fraction((-1) ** inversions)
        out[q] = ent
    return out


def sparse_of(m):
    """A ``ColumnMatrix`` as the SparseMatrix of the same int entries, to
    compare with the references kept as SparseMatrix entries."""
    from simhom.exactlin import SparseMatrix

    out = SparseMatrix(m.rows, m.cols)
    out.entries = {(i, j): s for j, (i, s) in enumerate(zip(m.row, m.sign)) if s}
    return out


def oracle_transpose(entries):
    """The transpose of {(row, col): value}, every entry made a Fraction."""
    return {(j, i): Fraction(v) for (i, j), v in entries.items()}


def oracle_apply(entries, nrows, vec):
    """The product of {(row, col): value} with ``vec``, accumulated in
    Fractions from a Fraction zero."""
    out = [Fraction(0)] * nrows
    for (i, j), v in entries.items():
        if vec[j]:
            out[i] += Fraction(v) * vec[j]
    return tuple(out)


def oracle_lp_feasible(constraints, nvars):
    """``exactlin.lp_feasible`` with its own Gauss-Jordan substitution table
    for the equalities, the version that reduced [A | b] by hand.

    Only the equality elimination is the reference: the inequalities over
    the free variables go to the package's ``_fourier_motzkin`` as before,
    so the two must return the same point.
    """
    from simhom.exactlin import _fourier_motzkin as fourier_motzkin

    eqs = []
    ineqs = []  # stored as (coeffs list, rhs) meaning coeffs . x <= rhs
    for coeffs, op, rhs in constraints:
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != nvars:
            raise ValueError("constraint arity does not match nvars")
        rhs = Fraction(rhs)
        if op == "==":
            eqs.append((coeffs, rhs))
        elif op == "<=":
            ineqs.append((coeffs, rhs))
        elif op == ">=":
            ineqs.append(([-c for c in coeffs], -rhs))
        else:
            raise ValueError(f"unknown relation {op!r}")

    # Eliminate equalities: substitution map pivot var -> affine expr in the rest.
    subs = {}  # var -> (coeffs over all vars with zeros at solved vars, const)
    for coeffs, rhs in eqs:
        coeffs = list(coeffs)
        const = rhs
        for v, (expr, c0) in subs.items():
            f = coeffs[v]
            if f:
                coeffs[v] = Fraction(0)
                for j in range(nvars):
                    coeffs[j] += f * expr[j]
                const -= f * c0
        pivot = None
        for j in range(nvars):
            if coeffs[j] and j not in subs:
                pivot = j
                break
        if pivot is None:
            if const != 0:
                return None
            continue
        pv = coeffs[pivot]
        expr = [-c / pv if j != pivot else Fraction(0) for j, c in enumerate(coeffs)]
        c0 = const / pv
        # Re-normalize previous substitutions against the new one.
        for v, (e, k) in list(subs.items()):
            f = e[pivot]
            if f:
                e = list(e)
                e[pivot] = Fraction(0)
                for j in range(nvars):
                    e[j] += f * expr[j]
                subs[v] = (e, k + f * c0)
        subs[pivot] = (expr, c0)

    solved = sorted(subs)
    free = [j for j in range(nvars) if j not in subs]
    index = {v: k for k, v in enumerate(free)}

    reduced = []  # rows over free vars: (coeffs, rhs)
    for coeffs, rhs in ineqs:
        coeffs = list(coeffs)
        const = rhs
        for v in solved:
            f = coeffs[v]
            if f:
                expr, c0 = subs[v]
                coeffs[v] = Fraction(0)
                for j in range(nvars):
                    coeffs[j] += f * expr[j]
                const -= f * c0
        row = [Fraction(0)] * len(free)
        for j in range(nvars):
            if coeffs[j]:
                row[index[j]] = coeffs[j]
        reduced.append((row, const))

    point = fourier_motzkin(reduced, len(free))
    if point is None:
        return None

    full = [Fraction(0)] * nvars
    for k, v in enumerate(free):
        full[v] = point[k]
    for v in solved:
        expr, c0 = subs[v]
        full[v] = c0 + sum((expr[j] * full[j] for j in range(nvars)), Fraction(0))
    return tuple(full)


def oracle_coincidence_witness(f, g):
    """``lefschetz.coincidence_witness`` as it read vertex names: each
    maximal simplex, largest first, gets the exact LP with one equality per
    codomain vertex name, in name order, and the first solution is checked
    by pushing its named weights through |f| and |g|.  The LP itself is the
    package's ``lp_feasible``.  Returns (carrier names, coords) or None."""
    from simhom.exactlin import lp_feasible

    x = f.domain
    f_names, g_names = f.vertex_map_names(), g.vertex_map_names()
    for simplex in sorted(x.maximal_simplices(), key=lambda s: (-len(s), s)):
        verts = x.simplex_names(simplex)
        k = len(verts)
        targets = sorted({f_names[v] for v in verts} | {g_names[v] for v in verts})
        cons = [([Fraction(1)] * k, "==", Fraction(1))]
        for i in range(k):
            cons.append(([Fraction(int(i == j)) for j in range(k)], ">=", Fraction(0)))
        for w in targets:
            coeffs = [Fraction(int(f_names[v] == w) - int(g_names[v] == w)) for v in verts]
            cons.append((coeffs, "==", Fraction(0)))
        sol = lp_feasible(cons, k)
        if sol is None:
            continue
        combined = {v: t for v, t in zip(verts, sol) if t != 0}
        support = sorted(combined, key=lambda v: x.vertex_index[v])
        assert x.has_simplex(tuple(sorted(x.vertex_index[v] for v in support)))

        def image(names):
            out = {}
            for v, t in combined.items():
                out[names[v]] = out.get(names[v], 0) + t
            return out

        assert image(f_names) == image(g_names)
        return tuple(support), tuple(combined[v] for v in support)
    return None
