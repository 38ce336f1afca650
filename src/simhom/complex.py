"""Finite abstract simplicial complexes, simplicial maps and subdivisions.

A complex is stored as per-dimension tuples of strictly increasing vertex
index tuples, closed under faces.  The vertex order is global (explicit
``vertex_order`` or lexicographic on identifiers) and fixes the ordered
simplices used by every chain-level construction downstream, in particular
the Alexander-Whitney front/back face splitting.

Orientability is decided by sign propagation over the dual graph of top
simplices; a successful propagation also delivers the signs of the
fundamental cycle.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from .errors import (
    DuplicateVertex,
    NonOrientable,
    NotClosed,
    NotSimplicial,
    UnknownVertex,
)
from .exactlin import qstr

Simplex = tuple  # strictly increasing tuple of vertex indices


class SimplicialComplex:
    """Face-closed finite abstract simplicial complex with ordered vertices."""

    def __init__(self, name, vertices, simplices):
        self.name = name
        self.vertices = tuple(vertices)
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        if len(self.vertex_index) != len(self.vertices):
            raise DuplicateVertex(f"duplicate vertex identifiers in {name!r}")
        self.simplices = tuple(tuple(sorted(level)) for level in simplices)
        self.index = tuple(
            {s: k for k, s in enumerate(level)} for k, level in enumerate(self.simplices)
        )
        self.dim = len(self.simplices) - 1

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

    def maximal_simplices(self):
        """All simplices that are not a proper face of another simplex."""
        out = []
        for q in range(self.dim + 1):
            covered = set()
            for s in self.basis(q + 1):
                for i in range(len(s)):
                    covered.add(s[:i] + s[i + 1 :])
            out.extend(s for s in self.basis(q) if s not in covered)
        return out

    def counts(self):
        return tuple(len(level) for level in self.simplices)

    def __repr__(self):
        return f"SimplicialComplex({self.name!r}, dim={self.dim}, counts={self.counts()})"


def validate(maximal_simplices, name="", vertices=None, vertex_order=None) -> SimplicialComplex:
    """Build a face-closed complex from a list of maximal simplices.

    Vertex identifiers are strings (or any sortable values); the global
    order is ``vertex_order`` when given, else sorted identifiers.
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
    for raw in maximal_simplices:
        raw = list(raw)
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
    vindex = {v: i for i, v in enumerate(order)}

    by_dim = {}
    for v in order:
        # every declared vertex is a 0-simplex, isolated ones included
        by_dim.setdefault(0, set()).add((vindex[v],))
    for raw in cleaned:
        idx = tuple(sorted(vindex[v] for v in raw))
        for r in range(1, len(idx) + 1):
            for face in combinations(idx, r):
                by_dim.setdefault(r - 1, set()).add(face)
    if not by_dim:
        return SimplicialComplex(name, order, [])
    dim = max(by_dim)
    levels = [sorted(by_dim.get(q, ())) for q in range(dim + 1)]
    return SimplicialComplex(name, order, levels)


@dataclass(frozen=True)
class ManifoldReport:
    dimension: int
    pure: bool
    closed: bool
    facet_incidences_ok: bool
    strongly_connected: bool
    connected: bool
    boundary_facets: tuple
    is_closed_pseudo_manifold: bool
    vertex_links_ok: bool | None = None  # None when dimension > 2 (not decided)

    def to_json(self):
        return {
            "dimension": self.dimension,
            "pure": self.pure,
            "closed": self.closed,
            "facet_incidences_ok": self.facet_incidences_ok,
            "strongly_connected": self.strongly_connected,
            "connected": self.connected,
            "boundary_facets": [list(f) for f in self.boundary_facets],
            "is_closed_pseudo_manifold": self.is_closed_pseudo_manifold,
            "vertex_links_ok": self.vertex_links_ok,
        }


def _facet_incidences(x: SimplicialComplex):
    """Map each (n-1)-simplex to the list of top simplex ids containing it."""
    inc = {f: [] for f in x.basis(x.dim - 1)}
    for t, top in enumerate(x.top_simplices()):
        for i in range(len(top)):
            facet = top[:i] + top[i + 1 :]
            inc[facet].append(t)
    return inc


def manifold_check(x: SimplicialComplex) -> ManifoldReport:
    """Report whether the complex is a closed pseudo-manifold."""
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
    inc = _facet_incidences(x)
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
    strongly = _connected_over(range(len(tops)), adj) if tops else False

    vadj = {i: set() for i in range(len(x.vertices))}
    for e in x.basis(1):
        vadj[e[0]].add(e[1])
        vadj[e[1]].add(e[0])
    connected = _connected_over(range(len(x.vertices)), {k: sorted(v) for k, v in vadj.items()})

    return ManifoldReport(
        dimension=n,
        pure=pure,
        closed=closed,
        facet_incidences_ok=ok,
        strongly_connected=strongly,
        connected=connected,
        boundary_facets=tuple(x.simplex_names(f) for f in boundary),
        is_closed_pseudo_manifold=pure and closed and strongly,
        vertex_links_ok=_vertex_links_ok(x) if n <= 2 else None,
    )


def _vertex_links_ok(x: SimplicialComplex) -> bool:
    """Closed-manifold link condition in dimensions 1 and 2.

    Dimension 1: every vertex lies in exactly two edges.  Dimension 2: the
    link of every vertex is a single closed cycle (distinguishes genuine
    surfaces from pinched pseudo-manifolds).  Every link is read off one
    pass over the triangles.
    """
    n = x.dim
    if n == 1:
        counts = {v: 0 for v in range(len(x.vertices))}
        for e in x.basis(1):
            counts[e[0]] += 1
            counts[e[1]] += 1
        return all(c == 2 for c in counts.values())
    if n != 2:
        return True
    star = [[] for _ in x.vertices]  # vertex -> edges of its link
    for a, b, c in x.basis(2):
        star[a].append((b, c))
        star[b].append((a, c))
        star[c].append((a, b))
    for link_edges in star:
        if not link_edges:
            return False
        deg = {}
        for a, b in link_edges:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        if any(d != 2 for d in deg.values()):
            return False
        adj = {}
        for a, b in link_edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        if not _connected_over(sorted(adj), adj):
            return False
    return True


def _connected_over(nodes, adj):
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


@dataclass(frozen=True)
class OrientationData:
    """Signs on top simplices making codimension-1 incidences cancel, and
    the manifold report that was checked before they were propagated."""

    signs: tuple
    coherent: bool
    report: ManifoldReport


def orient(x: SimplicialComplex) -> OrientationData:
    """Coherent orientation by sign propagation over the dual graph.

    The first top simplex in canonical order is assigned +1; signs spread
    by breadth-first traversal.  Raises NotClosed for non-pseudo-manifolds
    and NonOrientable when propagation meets a contradiction.
    """
    report = manifold_check(x)
    if not report.is_closed_pseudo_manifold:
        raise NotClosed(f"{x.name!r} is not a closed pseudo-manifold: {report}")
    n = x.dim
    tops = x.top_simplices()
    if n == 0:
        return OrientationData(signs=(1,) * len(tops), coherent=True, report=report)
    inc = _facet_incidences(x)
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


class SimplicialMap:
    """Total vertex assignment whose simplex images span codomain simplices."""

    def __init__(self, domain, codomain, mapping, name=""):
        self.domain = domain
        self.codomain = codomain
        self.mapping = tuple(mapping)  # domain vertex index -> codomain vertex index
        self.name = name

    def image_set(self, simplex):
        return tuple(sorted({self.mapping[v] for v in simplex}))

    def vertex_map_names(self):
        return {
            self.domain.vertices[i]: self.codomain.vertices[j]
            for i, j in enumerate(self.mapping)
        }

    def __repr__(self):
        return f"SimplicialMap({self.name or '?'}: {self.domain.name} -> {self.codomain.name})"


def check_simplicial(vertex_map, domain, codomain, name="") -> SimplicialMap:
    """Validate a vertex assignment as a simplicial map.

    ``vertex_map`` maps domain vertex identifiers to codomain identifiers;
    every domain simplex must land, as a vertex set, on a codomain simplex.
    """
    mapping = []
    for v in domain.vertices:
        if v not in vertex_map:
            raise UnknownVertex(f"vertex {v!r} has no image")
        w = vertex_map[v]
        if w not in codomain.vertex_index:
            raise UnknownVertex(f"image vertex {w!r} not in codomain")
        mapping.append(codomain.vertex_index[w])
    f = SimplicialMap(domain, codomain, mapping, name=name)
    for q in range(domain.dim + 1):
        for s in domain.basis(q):
            img = f.image_set(s)
            if not codomain.has_simplex(img):
                raise NotSimplicial(
                    f"image of {domain.simplex_names(s)} spans no simplex of {codomain.name!r}",
                    simplex=domain.simplex_names(s),
                )
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
    flag are automatically increasing.
    """
    all_simplices = [s for q in range(x.dim + 1) for s in x.basis(q)]
    order = sorted(all_simplices, key=lambda s: (len(s), s))
    names = {s: _bary_name(x, s) for s in order}
    provenance = {names[s]: x.simplex_names(s) for s in order}

    # Maximal simplices: the flags of each maximal simplex of x.
    sd_maximal = []
    for top in sorted(x.maximal_simplices(), key=lambda s: (len(s), s)):
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


@dataclass(frozen=True)
class GeometricPoint:
    """Exact point of the realization: carrier simplex plus barycentric coords."""

    carrier: tuple  # vertex names of the carrier simplex
    coords: tuple  # Fractions, nonnegative, summing to 1

    def __post_init__(self):
        if len(self.carrier) != len(self.coords):
            raise ValueError("coordinate count must equal carrier dimension + 1")
        total = sum(self.coords, Fraction(0))
        if total != 1:
            raise ValueError("barycentric coordinates must sum to 1")
        if any(c < 0 for c in self.coords):
            raise ValueError("barycentric coordinates must be nonnegative")

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


def complex_from_json(data: dict) -> SimplicialComplex:
    return validate(
        data["maximal_simplices"],
        name=data.get("name", ""),
        vertices=data.get("vertices"),
        vertex_order=data.get("vertex_order"),
    )


def map_to_json(f: SimplicialMap) -> dict:
    return {
        "domain": f.domain.name,
        "codomain": f.codomain.name,
        "vertex_map": {str(k): str(v) for k, v in f.vertex_map_names().items()},
    }


def map_from_json(data: dict, domain: SimplicialComplex, codomain: SimplicialComplex, name="") -> SimplicialMap:
    return check_simplicial(data["vertex_map"], domain, codomain, name=name or data.get("name", ""))
