"""Chain and cochain complexes of a simplicial complex.

Boundary matrices use the classical alternating-sign face maps over the
global vertex order.  On the full complex d_q is the complex's own facet
table (``SimplicialComplex.boundary``, an ``exactlin.FacetTable``), so
every chain complex of it shares one; a quotient view keeps the columns of
its kept simplices, renumbers their facets and marks the others -1.
delta^q is d_{q+1}^T, and the engine reads it off d_{q+1} by rows
(``FacetTable.cofaces``): ``coboundary`` builds a transposed copy, from the
table's dict view, only for the checks that ask for one.
Induced chain maps send a generator to its image simplex with the sign of
the sorting permutation, or to zero when the image is degenerate.  Each
map builds its f_# once (``SimplicialMap.chain_map``), a ``ColumnMatrix``
per degree, and f^# pulls a cochain back through its columns, one entry
each.  The barycentric subdivision chain map sends a q-simplex to the
signed sum of its (q+1)! flags, the same flags
``complex.barycentric_subdivide`` builds Sd X from; the sign of a flag is
that of its vertex ordering.

Every one of these matrices holds its +-1 signs as ``int``: elimination
takes them as they are, an ``int`` chain pushed through one stays ``int``,
and every product with a ``Fraction`` chain is a ``Fraction``.
"""

from .complex import SimplicialComplex, SimplicialMap, _bary_name, barycentric_subdivide, flags
from .errors import NotSubcomplex
from .exactlin import FacetTable, SparseMatrix


class ChainComplex:
    """Per-degree ordered simplex bases with exact boundary matrices.

    With ``kept`` (degree -> simplices of ``x``) the bases are the kept
    simplices in the complex's order and boundary faces outside them are
    dropped: the quotient of C_*(X) by the span of the other simplices
    (Kaczynski-Mischaikow-Mrozek, Computational Homology, 2004).  Relative
    chains S_*(X)/S_*(A) are the case kept = X - A.
    """

    def __init__(self, x: SimplicialComplex, kept=None):
        self.complex = x
        self.dim = x.dim
        if kept is None:
            self._basis = x.simplices
            self.index = x.index
        else:
            kept = {q: set(level) for q, level in kept.items()}
            self._basis = tuple(
                tuple(s for s in x.basis(q) if s in kept.get(q, ()))
                for q in range(x.dim + 1)
            )
            self.index = tuple(
                {s: k for k, s in enumerate(level)} for level in self._basis
            )
        self._boundary = {}

    def basis(self, q: int):
        return self._basis[q] if 0 <= q <= self.dim else ()

    def n(self, q: int) -> int:
        return len(self.basis(q))

    def boundary(self, q: int) -> FacetTable:
        """The matrix of d_q : C_q -> C_{q-1}, a ``FacetTable``.

        The complex's own table on the full view; a quotient view keeps the
        kept simplices' columns, renumbers their facets and marks a dropped
        one -1, and builds that once.
        """
        x = self.complex
        if self.index is x.index:
            return x.boundary(q)
        m = self._boundary.get(q)
        if m is None:
            rows = [self.index[q - 1].get(s, -1) for s in x.basis(q - 1)]
            kept = [j for j, s in enumerate(x.basis(q)) if s in self.index[q]]
            m = self._boundary[q] = x.boundary(q).restricted(self.n(q - 1), rows, kept)
        return m

    def coboundary(self, q: int) -> SparseMatrix:
        """delta^q, a new transposed copy of d_{q+1} on every call; entries
        are int +-1.  The engine reads d_{q+1} by rows instead."""
        return self.boundary(q + 1).transpose()


def embed(ambient: SimplicialComplex, sub: SimplicialComplex, q: int) -> list:
    """Sub's q-simplices as ambient vertex-index tuples, in sub's order."""
    return [
        tuple(sorted(ambient.vertex_index[v] for v in sub.simplex_names(s)))
        for s in sub.basis(q)
    ]


def is_subcomplex(ambient: SimplicialComplex, sub: SimplicialComplex) -> bool:
    return all(
        ambient.has_simplex(s) for q in range(sub.dim + 1) for s in embed(ambient, sub, q)
    )


def build_relative(ambient: SimplicialComplex, sub: SimplicialComplex) -> ChainComplex:
    """The quotient S_*(X)/S_*(A): X's simplices outside A, in X's order."""
    if not all(v in ambient.vertex_index for v in sub.vertices):
        raise NotSubcomplex(f"{sub.name!r} has vertices outside {ambient.name!r}")
    if not is_subcomplex(ambient, sub):
        raise NotSubcomplex(f"{sub.name!r} is not a subcomplex of {ambient.name!r}")
    kept = {
        q: set(ambient.basis(q)).difference(embed(ambient, sub, q))
        for q in range(ambient.dim + 1)
    }
    return ChainComplex(ambient, kept)


def induced_chain_map(f: SimplicialMap) -> dict:
    """f_#, degree -> ``ColumnMatrix`` with int +-1 entries, degenerate
    images mapped to zero: the map's own, built once by the walk that
    checks it."""
    return f.chain_map()


class SubdivisionMap:
    """The chain map Sd_# : C_*(X) -> C_*(Sd X)."""

    def __init__(self, x: SimplicialComplex):
        self.source = x
        self.subdivided, self.provenance = barycentric_subdivide(x)
        self.source_cc = ChainComplex(x)
        self.target_cc = ChainComplex(self.subdivided)
        self._matrices = {}

    def matrix(self, q: int) -> SparseMatrix:
        """Sd_# on C_q: a q-simplex goes to its flags, each with the int sign sgn(pi).

        This is the recursion Sd(s) = b_s . Sd(ds) unrolled.  b_s sorts last
        in Sd X, so coning a (k-1)-chain over it gives (-1)^k, and dropping
        vertex i of a simplex gives (-1)^i.  Along the flag of pi the
        exponents add up to q(q+1) - inv(pi), which has the parity of inv(pi).
        """
        m = self._matrices.get(q)
        if m is None:
            x, sd = self.source, self.subdivided
            bary = {
                s: sd.vertex_index[_bary_name(x, s)] for p in range(q + 1) for s in x.basis(p)
            }
            m = self._matrices[q] = SparseMatrix(self.target_cc.n(q), self.source_cc.n(q))
            for j, s in enumerate(x.basis(q)):
                for sign, flag in flags(s):
                    m.entries[(sd.simplex_id(q, tuple(bary[f] for f in flag)), j)] = sign
        return m


def subdivision_chain_map(x: SimplicialComplex) -> SubdivisionMap:
    return SubdivisionMap(x)
