"""Finite abstract simplicial complexes, simplicial maps and subdivisions.

A complex is stored as per-dimension tuples of strictly increasing vertex
index tuples, closed under faces.  The vertex order is global (explicit
``vertex_order`` or lexicographic on identifiers) and fixes the ordered
simplices used by every chain-level construction downstream, in particular
the Alexander-Whitney front/back face splitting.

``validate`` gathers each degree's faces into one set and sorts it once;
those levels are the complex's bases.  Each complex holds one facet table
per degree, built on first use from them: ``boundary(q)``, an
``exactlin.FacetTable`` whose column j lists the ids of q-simplex j's
facets, the one dropping vertex i in slot i with the entry (-1)^i.  It is
the only place that enumerates facets.  The chain complex, the manifold
check, purity and ``maximal_simplices`` all read it.

Orientability is decided by one signed union-find pass over the dual graph
of top simplices (``exactlin.SignedForest``), whose links are d_n's rows of
two entries; a balanced dual graph also delivers the signs of the
fundamental cycle.
"""

import reprlib
from array import array
from fractions import Fraction
from itertools import chain, combinations, permutations, repeat
from math import factorial

from .errors import (
    DuplicateVertex,
    MalformedInput,
    NonOrientable,
    NotClosed,
    NotSimplicial,
    TooManyFaces,
    UnknownVertex,
)
from .exactlin import ColumnMatrix, FacetTable, SignedForest, qstr

Simplex = tuple  # strictly increasing tuple of vertex indices

# The most faces ``validate`` enumerates: the sum of 2^k - 1 over the
# maximal simplices, k their vertex counts.  One maximal simplex of 30
# vertices would need 2^30 faces and exhaust memory; genus-2 Sd^4, the
# largest input documented, needs about 0.31 M and Sd^5 about 1.85 M.
MAX_FACES = 1 << 22


class SimplicialComplex:
    """Face-closed finite abstract simplicial complex with ordered vertices.

    ``simplices`` holds one level per degree, each in increasing order, as
    ``validate`` builds them; level 0 is every vertex, so vertex v is the
    0-simplex (v,) with id v.
    """

    def __init__(self, name, vertices, simplices):
        self.name = name
        self.vertices = tuple(vertices)
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        if len(self.vertex_index) != len(self.vertices):
            raise DuplicateVertex(f"duplicate vertex identifiers in {name!r}")
        self.simplices = tuple(map(tuple, simplices))
        self.index = tuple(dict(zip(level, range(len(level)))) for level in self.simplices)
        self.dim = len(self.simplices) - 1
        self._boundary = {}

    def n_simplices(self, q: int) -> int:
        if 0 <= q <= self.dim:
            return len(self.simplices[q])
        return 0

    def basis(self, q: int):
        if 0 <= q <= self.dim:
            return self.simplices[q]
        return ()

    def simplex_id(self, q: int, simplex) -> int:
        return self.index[q][tuple(simplex)]

    def has_simplex(self, simplex) -> bool:
        simplex = tuple(simplex)
        q = len(simplex) - 1
        return 0 <= q <= self.dim and simplex in self.index[q]

    def simplex_names(self, simplex):
        return tuple(self.vertices[i] for i in simplex)

    def euler_characteristic(self) -> int:
        return sum((-1) ** q * len(level) for q, level in enumerate(self.simplices))

    def top_simplices(self):
        return self.simplices[self.dim] if self.dim >= 0 else ()

    def boundary(self, q: int) -> FacetTable:
        """The facet table of the q-simplices, built once: the matrix of d_q,
        column j holding the ids of simplex j's facets, the one dropping
        vertex i in slot i with the entry (-1)^i."""
        m = self._boundary.get(q)
        if m is None:
            level = self.basis(q) if q >= 1 else ()
            if q == 1:  # the facets of (a, b) are (b,) and (a,), ids b and a
                facets = array("i", [v for a, b in level for v in (b, a)])
            elif q == 2:
                e = self.index[1] if level else {}
                facets = array("i", [e[f] for a, b, c in level for f in ((b, c), (a, c), (a, b))])
            else:
                lower = self.index[q - 1] if level else {}
                facets = array(
                    "i", [lower[s[:i] + s[i + 1 :]] for s in level for i in range(q + 1)]
                )
            width = q + 1 if q >= 1 else 0
            m = FacetTable(self.n_simplices(q - 1), self.n_simplices(q), width, facets)
            self._boundary[q] = m
        return m

    def maximal_simplices(self):
        """All simplices that are not a proper face of another simplex: the
        q-simplices whose row of d_{q+1} holds no entry."""
        out = []
        for q in range(self.dim + 1):
            basis = self.basis(q)
            out.extend(basis[i] for i in self.boundary(q + 1).empty_rows())
        return out

    def counts(self):
        return tuple(len(level) for level in self.simplices)

    def __repr__(self):
        return f"SimplicialComplex({self.name!r}, dim={self.dim}, counts={self.counts()})"


def validate(maximal_simplices, name="", vertices=None, vertex_order=None) -> SimplicialComplex:
    """Build a face-closed complex from a list of maximal simplices.

    Vertex identifiers are strings (or any sortable values); the global
    order is ``vertex_order`` when given, else sorted identifiers.  Input
    whose face enumeration would pass ``MAX_FACES`` raises TooManyFaces
    before any face is built.
    """
    seen = []
    seen_set = set()

    def note(v):
        if v not in seen_set:
            seen_set.add(v)
            seen.append(v)

    if vertices is not None:
        for v in vertices:
            note(v)
    cleaned = []
    faces = 0
    for raw in maximal_simplices:
        raw = list(raw)
        faces += (1 << len(raw)) - 1
        if faces > MAX_FACES:
            raise TooManyFaces(
                f"a maximal simplex with {len(raw)} vertices brings the face count "
                f"to {faces}, above the limit of {MAX_FACES}"
            )
        if len(set(raw)) != len(raw):
            raise DuplicateVertex(f"duplicate vertices within simplex {raw!r}")
        if vertices is not None:
            for v in raw:
                if v not in seen_set:
                    raise UnknownVertex(f"vertex {v!r} not among declared vertices")
        else:
            for v in raw:
                note(v)
        cleaned.append(raw)
    if vertex_order is not None:
        order = list(vertex_order)
        if set(order) != seen_set or len(order) != len(seen_set):
            raise UnknownVertex("vertex_order must list each vertex exactly once")
    else:
        order = sorted(seen)
    vindex = {v: i for i, v in enumerate(order)}.__getitem__

    # each degree's faces gathered into one set and sorted once; every
    # declared vertex is a 0-simplex, isolated ones included
    tops = [tuple(sorted(map(vindex, raw))) for raw in cleaned]
    dim = max([1 if order else 0, *map(len, tops)]) - 1
    shortest = min(map(len, tops), default=0)
    levels = [[(v,) for v in range(len(order))]] if dim >= 0 else []
    for r in range(2, dim + 2):
        have = tops if shortest >= r else [t for t in tops if len(t) >= r]
        levels.append(sorted(set(chain.from_iterable(map(combinations, have, repeat(r))))))
    return SimplicialComplex(name, order, levels)


class ManifoldReport:
    """Whether a complex is a closed pseudo-manifold, criterion by criterion.

    ``vertex_links_ok`` is None when dimension > 2 (not decided).  The
    attributes, in the order ``__init__`` sets them, are the fields of the
    repr and the keys of the JSON object.
    """

    def __init__(
        self, dimension, pure, closed, facet_incidences_ok, strongly_connected,
        connected, boundary_facets, is_closed_pseudo_manifold, vertex_links_ok=None,
    ):
        self.dimension = dimension
        self.pure = pure
        self.closed = closed
        self.facet_incidences_ok = facet_incidences_ok
        self.strongly_connected = strongly_connected
        self.connected = connected
        self.boundary_facets = boundary_facets
        self.is_closed_pseudo_manifold = is_closed_pseudo_manifold
        self.vertex_links_ok = vertex_links_ok

    def __eq__(self, other):
        if type(other) is not ManifoldReport:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"ManifoldReport({args})"

    def to_json(self):
        out = dict(vars(self))
        out["boundary_facets"] = [list(f) for f in self.boundary_facets]
        return out


def _analyse(x: SimplicialComplex):
    """The manifold report and the orientation signs, from the rows of one
    facet table and one pass over the dual graph.

    Two top simplices are linked when they are the only two containing a
    facet; the link balances when the facet's two induced orientations
    cancel.  A ``SignedForest`` over the links gives each top simplex t in
    top simplex 0's component the sign s_t s_0, and every other one 0.
    Returns (report, signs, coherent, bad, dual): ``coherent`` is the
    balance of top simplex 0's component, and the complex is strongly
    connected when that component holds every top simplex; ``bad`` is the
    first vertex whose link fails in dimension <= 2, or None; ``dual`` is
    the forest, which ``SignedForest.of`` reads off d_n's rows when no row
    holds more than two entries.  A pure, strongly
    connected complex is connected: every vertex lies in a top simplex.
    Only other complexes join the vertices along the edges, with the same
    routine.
    """
    n = x.dim
    tops = x.top_simplices()
    if n <= 0:  # every simplex is a top simplex, so the complex is pure
        connected = x.n_simplices(0) == 1
        report = ManifoldReport(
            dimension=n,
            pure=True,
            closed=True,
            facet_incidences_ok=True,
            strongly_connected=connected,
            connected=connected,
            boundary_facets=(),
            is_closed_pseudo_manifold=connected,
            vertex_links_ok=True,
        )
        return report, [1] * len(tops), True, None, None
    # d_n by rows: each (n-1)-simplex's cofaces, in top order
    d = x.boundary(n)
    counts = d.row_sizes()
    pure = not any(x.boundary(q).empty_rows() for q in range(1, n + 1))
    boundary = tuple(x.basis(n - 1)[f] for f, c in enumerate(counts) if c == 1)
    ok = max(counts, default=0) <= 2
    closed = ok and not boundary and pure
    # a one-entry row grounds its top simplex, which moves no sign; a row of
    # more than two is no link: the forest then leaves it out and is not d_n's
    dual = SignedForest.of(d, False) or SignedForest(len(tops), *d.ends(False, skip=True))
    roots, signs = dual.flatten()
    r0, s0 = roots[0], signs[0]
    signs = [s * s0 if r == r0 else 0 for r, s in zip(roots, signs)]
    coherent = dual.balanced[r0]
    strongly = all(signs)
    connected = pure and strongly
    if not connected:  # d_1's columns are the edges
        connected = len(SignedForest.of(x.boundary(1), True).joins) == len(x.vertices) - 1
    bad = _bad_vertex_link(x)
    report = ManifoldReport(
        dimension=n,
        pure=pure,
        closed=closed,
        facet_incidences_ok=ok,
        strongly_connected=strongly,
        connected=connected,
        boundary_facets=tuple(x.simplex_names(f) for f in boundary),
        is_closed_pseudo_manifold=pure and closed and strongly,
        vertex_links_ok=bad is None if n <= 2 else None,
    )
    return report, signs, coherent, bad, dual


def manifold_check(x: SimplicialComplex) -> ManifoldReport:
    """Report whether the complex is a closed pseudo-manifold."""
    return _analyse(x)[0]


def _bad_vertex_link(x: SimplicialComplex):
    """The first vertex failing the closed-manifold link condition in
    dimensions 1 and 2, or None when every vertex passes.

    Dimension 1: every vertex lies in exactly two edges.  Dimension 2: the
    link of every vertex is a single closed cycle (distinguishes genuine
    surfaces from pinched pseudo-manifolds).  Every link is read off one
    pass over the triangles, and walked once around the cycle through its
    first vertex: the link is one cycle exactly when every vertex the walk
    meets has degree 2 and the walk meets them all.  A walk longer than the
    link has vertices is no single cycle, so every walk ends.
    """
    n = x.dim
    if n == 1:
        counts = [0] * len(x.vertices)
        for a, b in x.basis(1):
            counts[a] += 1
            counts[b] += 1
        return next((v for v, c in enumerate(counts) if c != 2), None)
    if n != 2:
        return None
    star = [[] for _ in x.vertices]  # vertex -> edges of its link
    for a, b, c in x.basis(2):
        star[a].append((b, c))
        star[b].append((a, c))
        star[c].append((a, b))
    for v, link_edges in enumerate(star):
        if not link_edges:
            return v
        nbrs = {}
        for a, b in link_edges:
            nbrs.setdefault(a, []).append(b)
            nbrs.setdefault(b, []).append(a)
        start = prev = link_edges[0][0]
        cur, steps = link_edges[0][1], 1
        while cur != start:
            ws = nbrs[cur]
            if len(ws) != 2 or steps == len(nbrs):
                return v
            prev, cur = cur, ws[1] if ws[0] == prev else ws[0]
            steps += 1
        if steps != len(nbrs) or len(nbrs[start]) != 2:
            return v
    return None


class OrientationData:
    """Signs on top simplices making codimension-1 incidences cancel, and
    the manifold report that was checked before they were propagated.

    ``orient`` also leaves here the ``SignedForest`` of d_n's rows that the
    signs were read off, for the (co)homology walk of the same query:
    ``take_forest`` hands it over once and forgets it, so data that is kept
    keeps no forest.  It is no field: equality and hashing ignore it.
    """

    def __init__(self, signs, coherent, report, forest=None):
        self.signs = signs
        self.coherent = coherent
        self.report = report
        self._forest = forest

    def _fields(self):
        return self.signs, self.coherent, self.report

    def __eq__(self, other):
        if type(other) is not OrientationData:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def take_forest(self):
        """The forest of d_n's rows, or None once taken or when there is none."""
        forest, self._forest = self._forest, None
        return forest


def orient(x: SimplicialComplex) -> OrientationData:
    """Coherent orientation read off the dual graph of top simplices.

    The first top simplex in canonical order is assigned +1.  The one
    ``SignedForest`` pass of ``_analyse`` over the dual graph's links gives
    every top simplex of that simplex's component its sign, and decides
    strong connectivity too.  Raises NotClosed for non-pseudo-manifolds and
    for pseudo-manifolds with a vertex whose link is not one circle
    (decided in dimension <= 2, the vertex named by the same analysis), and
    NonOrientable when that component is not balanced.  The result holds
    that pass's forest until ``take_forest``.
    """
    report, signs, coherent, bad, dual = _analyse(x)
    if not report.is_closed_pseudo_manifold:
        raise NotClosed(f"{x.name!r} is not a closed pseudo-manifold: {report}")
    if bad is not None:
        v = x.vertices[bad]
        raise NotClosed(
            f"{x.name!r} is not a closed manifold: "
            f"the link of vertex {v!r} is not one circle"
        )
    if not coherent:
        raise NonOrientable(f"{x.name!r} admits no coherent orientation")
    return OrientationData(signs=tuple(signs), coherent=True, report=report, forest=dual)


def sort_sign(seq) -> int:
    """Sign of the permutation sorting ``seq``; 0 if entries repeat."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


class SimplicialMap:
    """Total vertex assignment whose simplex images span codomain simplices.

    The map holds its chain map f_#, built on first use by the walk that
    checks it (``chain_map``), as a complex holds its facet tables.
    """

    def __init__(self, domain, codomain, mapping, name=""):
        self.domain = domain
        self.codomain = codomain
        self.mapping = tuple(mapping)  # domain vertex index -> codomain vertex index
        self.name = name
        self._chain = None

    def vertex_map_names(self):
        return {
            self.domain.vertices[i]: self.codomain.vertices[j]
            for i, j in enumerate(self.mapping)
        }

    def chain_map(self) -> dict:
        """f_#, degree -> ColumnMatrix: a q-simplex goes to its image simplex
        with the sign of the sorting permutation, or to zero when a vertex
        repeats in its image.

        Built once, by one walk over the domain's simplices in degree and
        basis order; the first simplex whose image spans no codomain simplex
        raises NotSimplicial naming it.  A strictly increasing image is a key
        of the codomain's index as it stands, with sign +1; a repeated vertex
        never is, so only the other images are sorted.
        """
        if self._chain is None:
            dom, cod, fv = self.domain, self.codomain, self.mapping
            out = {}
            for q in range(dom.dim + 1):
                index = cod.index[q] if q <= cod.dim else {}
                row, sign = array("i"), array("b")
                for s in dom.basis(q):
                    image = tuple([fv[v] for v in s])
                    i = index.get(image)
                    if i is not None:
                        row.append(i)
                        sign.append(1)
                        continue
                    face = tuple(sorted(set(image)))
                    if not cod.has_simplex(face):
                        raise NotSimplicial(
                            f"image of {dom.simplex_names(s)} spans no simplex of {cod.name!r}",
                            simplex=dom.simplex_names(s),
                        )
                    # a repeated vertex leaves a smaller face: row 0, sign 0
                    row.append(index.get(face, 0))
                    sign.append(sort_sign(image))
                out[q] = ColumnMatrix(cod.n_simplices(q), row, sign)
            self._chain = out
        return self._chain

    def __repr__(self):
        return f"SimplicialMap({self.name or '?'}: {self.domain.name} -> {self.codomain.name})"


def check_simplicial(vertex_map, domain, codomain, name="") -> SimplicialMap:
    """Validate a vertex assignment as a simplicial map.

    ``vertex_map`` maps each domain vertex identifier, and nothing else, to
    a codomain identifier; every domain simplex must land, as a vertex set,
    on a codomain simplex.  The walk that builds the map's chain map checks
    this.
    """
    mapping = []
    for v in domain.vertices:
        if v not in vertex_map:
            raise UnknownVertex(f"vertex {v!r} has no image")
        w = vertex_map[v]
        if w not in codomain.vertex_index:
            raise UnknownVertex(f"image vertex {w!r} not in codomain")
        mapping.append(codomain.vertex_index[w])
    if len(vertex_map) != len(mapping):
        v = next(v for v in vertex_map if v not in domain.vertex_index)
        raise UnknownVertex(f"mapped vertex {v!r} not in domain {domain.name!r}")
    f = SimplicialMap(domain, codomain, mapping, name=name)
    f.chain_map()
    return f


def identity_map(x: SimplicialComplex) -> SimplicialMap:
    return SimplicialMap(x, x, range(len(x.vertices)), name=f"id_{x.name}")


def constant_map(x, y, vertex, name="") -> SimplicialMap:
    j = y.vertex_index[vertex]
    return SimplicialMap(x, y, [j] * len(x.vertices), name=name or f"const_{vertex}")


def compose(g: SimplicialMap, f: SimplicialMap, name="") -> SimplicialMap:
    """The composite g after f."""
    same = f.codomain is g.domain or (
        f.codomain.vertices == g.domain.vertices
        and f.codomain.simplices == g.domain.simplices
    )
    if not same:
        raise NotSimplicial("compose: codomain of f is not the domain of g")
    mapping = [g.mapping[f.mapping[i]] for i in range(len(f.domain.vertices))]
    return SimplicialMap(f.domain, g.codomain, mapping, name=name or f"{g.name}*{f.name}")


BARY_SEP = "|"


def _bary_name(x: SimplicialComplex, simplex) -> str:
    return BARY_SEP.join(str(x.vertices[i]) for i in simplex)


def flags(simplex):
    """The signed full flags s_0 < s_1 < ... < s_q of faces of ``simplex``.

    One flag per ordering pi of the vertices, in ``permutations`` order:
    s_k is spanned by the first k + 1 vertices of pi.  The sign is sgn(pi),
    the parity of pi's inversions against the increasing order.
    """
    for perm in permutations(simplex):
        inversions = sum(a > b for k, b in enumerate(perm) for a in perm[:k])
        flag = tuple(tuple(sorted(perm[: k + 1])) for k in range(len(perm)))
        yield (-1) ** inversions, flag


def barycentric_subdivide(x: SimplicialComplex):
    """Order complex of the face poset, plus the vertex provenance table.

    Each new vertex is the barycenter of a simplex of ``x``; provenance maps
    the new vertex name to the tuple of original vertex names it subdivides.
    New vertices are ordered by (dimension, simplex), so the vertices of a
    flag are automatically increasing.  A maximal simplex of k vertices has
    k! flags of k vertices each, and ``validate`` counts 2^k - 1 faces for
    each: when that sum passes ``MAX_FACES``, TooManyFaces is raised before
    a single flag is enumerated.
    """
    tops = sorted(x.maximal_simplices(), key=lambda s: (len(s), s))
    faces = sum(factorial(len(top)) * ((1 << len(top)) - 1) for top in tops)
    if faces > MAX_FACES:
        raise TooManyFaces(
            f"the subdivision of {x.name!r} would have {faces} faces, "
            f"above the limit of {MAX_FACES}"
        )
    all_simplices = [s for q in range(x.dim + 1) for s in x.basis(q)]
    order = sorted(all_simplices, key=lambda s: (len(s), s))
    names = {s: _bary_name(x, s) for s in order}
    provenance = {names[s]: x.simplex_names(s) for s in order}

    # Maximal simplices: the flags of each maximal simplex of x.
    sd_maximal = []
    for top in tops:
        for _, flag in flags(top):
            sd_maximal.append(tuple(names[s] for s in flag))
    vertex_order = [names[s] for s in order]
    sd = validate(
        sd_maximal,
        name=f"Sd({x.name})",
        vertices=vertex_order,
        vertex_order=vertex_order,
    )
    return sd, provenance


class GeometricPoint:
    """Exact point of the realization: carrier simplex plus barycentric coords."""

    def __init__(self, carrier, coords):
        if len(carrier) != len(coords):
            raise ValueError("coordinate count must equal carrier dimension + 1")
        total = sum(coords, Fraction(0))
        if total != 1:
            raise ValueError("barycentric coordinates must sum to 1")
        if any(c < 0 for c in coords):
            raise ValueError("barycentric coordinates must be nonnegative")
        self.carrier = carrier  # vertex names of the carrier simplex
        self.coords = coords  # Fractions, nonnegative, summing to 1

    def to_json(self):
        return {
            "carrier": list(self.carrier),
            "coords": [qstr(c) for c in self.coords],
        }


# ---------------------------------------------------------------------------
# JSON file formats
# ---------------------------------------------------------------------------


def complex_to_json(x: SimplicialComplex) -> dict:
    return {
        "name": x.name,
        "vertices": list(x.vertices),
        "vertex_order": list(x.vertices),
        "maximal_simplices": [
            list(x.simplex_names(s)) for s in x.maximal_simplices()
        ],
    }


# JSON strings and numbers; a JSON true or false is no vertex id.
_VERTEX_ID_TYPES = frozenset((str, int, float))
_VERTEX_ID = "a vertex id (a string or a number)"


def _checked(entry, label: str, ok: bool, want: str):
    """``entry`` when ``ok``, else MalformedInput naming ``label``."""
    if not ok:
        raise MalformedInput(f"{label} must be {want}, not {reprlib.repr(entry)}")
    return entry


def _vertex_ids(entry, label: str) -> list:
    _checked(entry, label, isinstance(entry, list), "an array of vertex ids")
    if not _VERTEX_ID_TYPES.issuperset(map(type, entry)):
        for k, v in enumerate(entry):
            _checked(v, f"{label}[{k}]", type(v) in _VERTEX_ID_TYPES, _VERTEX_ID)
    return entry


def _json_object(data, kind: str, *required) -> dict:
    """``data`` when it is an object holding every ``required`` key."""
    _checked(data, f"a {kind} file", isinstance(data, dict), "a JSON object")
    for key in required:
        if key not in data:
            raise MalformedInput(f"a {kind} file needs the key {key!r}")
    return data


def complex_from_json(data) -> SimplicialComplex:
    """Validate a complex file; an entry of the wrong shape raises
    MalformedInput naming it."""
    data = _json_object(data, "complex", "maximal_simplices")
    simplices = data["maximal_simplices"]
    _checked(simplices, "maximal_simplices", isinstance(simplices, list), "an array")
    for k, s in enumerate(simplices):
        # a label is made only for a bad simplex
        if not (isinstance(s, list) and s and _VERTEX_ID_TYPES.issuperset(map(type, s))):
            label = f"maximal_simplices[{k}]"
            _checked(s, label, bool(_vertex_ids(s, label)), "a non-empty simplex")
    for key in ("vertices", "vertex_order"):
        if data.get(key) is not None:
            _vertex_ids(data[key], key)
    if data.get("vertex_order") is None:
        ids = [*chain.from_iterable(simplices), *(data.get("vertices") or ())]
        kinds = set(map(type, ids))
        if str in kinds and len(kinds) > 1:
            text = next(v for v in ids if type(v) is str)
            number = next(v for v in ids if type(v) is not str)
            raise MalformedInput(
                f"vertex ids {text!r} and {number!r} mix strings and numbers, "
                "which have no order: list every vertex in vertex_order"
            )
    return validate(
        simplices,
        name=data.get("name", ""),
        vertices=data.get("vertices"),
        vertex_order=data.get("vertex_order"),
    )


def map_to_json(f: SimplicialMap) -> dict:
    return {
        "domain": f.domain.name,
        "codomain": f.codomain.name,
        "vertex_map": {str(k): v for k, v in f.vertex_map_names().items()},
    }


def map_ends(data) -> tuple:
    """The domain and codomain references of a map file."""
    data = _json_object(data, "map", "domain", "codomain")
    return tuple(
        _checked(data[key], key, isinstance(data[key], str), "a complex name or path")
        for key in ("domain", "codomain")
    )


def map_from_json(data, domain: SimplicialComplex, codomain: SimplicialComplex, name="") -> SimplicialMap:
    """Validate a map file's vertex map against its domain and codomain;
    an entry of the wrong shape raises MalformedInput naming it.  A key,
    always a string, names the domain vertex whose ``str`` it is."""
    data = _json_object(data, "map", "vertex_map")
    vertex_map = data["vertex_map"]
    _checked(vertex_map, "vertex_map", isinstance(vertex_map, dict), "an object")
    for v, w in vertex_map.items():
        _checked(w, f"vertex_map[{v!r}]", type(w) in _VERTEX_ID_TYPES, _VERTEX_ID)
    keyed = {}
    for v in domain.vertices:
        k = str(v)
        if k in keyed:
            raise MalformedInput(f"domain vertices {keyed[k]!r} and {v!r} share the map key {k!r}")
        keyed[k] = v
    resolved = {keyed.get(k, k): w for k, w in vertex_map.items()}
    return check_simplicial(resolved, domain, codomain, name=name or data.get("name", ""))
