"""Chain and cochain complexes of a simplicial complex.

Boundary matrices use the classical alternating-sign face maps over the
global vertex order.  Induced chain maps send a generator to its image
simplex with the sign of the sorting permutation, or to zero when the image
is degenerate.  The cone operator and the barycentric subdivision chain map
are built on top; the subdivision of an m-simplex is the signed sum of its
m-factorial flags, obtained by coning its subdivided boundary over the
barycenter.
"""

from dataclasses import dataclass
from fractions import Fraction

from .complex import SimplicialComplex, SimplicialMap, _bary_name, barycentric_subdivide
from .errors import ConeNotDefined, NotSubcomplex
from .exactlin import ONE, ZERO, SparseMatrix


@dataclass(frozen=True)
class Chain:
    """Coefficient vector over the degree's simplex basis."""

    degree: int
    coeffs: tuple

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)


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

    def simplex_id(self, q: int, simplex) -> int:
        return self.index[q][tuple(simplex)]

    def boundary(self, q: int) -> SparseMatrix:
        """The matrix of d_q : C_q -> C_{q-1}."""
        if q in self._boundary:
            return self._boundary[q]
        ent = {}
        if 1 <= q <= self.dim:
            lower = self.index[q - 1]
            for j, s in enumerate(self.basis(q)):
                for i in range(len(s)):
                    row = lower.get(s[:i] + s[i + 1 :])
                    if row is not None:
                        ent[(row, j)] = ent.get((row, j), ZERO) + (-ONE) ** i
        m = SparseMatrix(self.n(q - 1), self.n(q), ent)
        self._boundary[q] = m
        return m

    def coboundary(self, q: int) -> SparseMatrix:
        """delta^q = transpose of d_{q+1}."""
        return self.boundary(q + 1).transpose()

    def zero_chain(self, q: int) -> Chain:
        return Chain(q, tuple([ZERO] * self.n(q)))

    def chain_from_simplex(self, simplex) -> Chain:
        simplex = tuple(simplex)
        q = len(simplex) - 1
        coeffs = [ZERO] * self.n(q)
        coeffs[self.simplex_id(q, simplex)] = ONE
        return Chain(q, tuple(coeffs))


def build_chain_complex(x: SimplicialComplex) -> ChainComplex:
    return ChainComplex(x)


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


def induced_chain_map(f: SimplicialMap) -> dict:
    """Per-degree matrices of f_#, degenerate images mapped to zero."""
    out = {}
    dom, cod = f.domain, f.codomain
    for q in range(dom.dim + 1):
        rows = cod.n_simplices(q)
        cols = dom.n_simplices(q)
        ent = {}
        for j, s in enumerate(dom.basis(q)):
            image = [f.mapping[v] for v in s]
            sign = sort_sign(image)
            if sign == 0:
                continue
            target = tuple(sorted(image))
            ent[(cod.simplex_id(q, target), j)] = Fraction(sign)
        out[q] = SparseMatrix(rows, cols, ent)
    return out


def cone(point, z: Chain, cc: ChainComplex) -> Chain:
    """Cone p.z inside a complex where each support simplex spans with p.

    Satisfies d(p.z) = z - p.(dz) in degrees >= 1 and d(p.z) = z - eps(z) p
    in degree 0.  Simplices already containing p cone to zero.
    """
    x = cc.complex
    p = x.vertex_index[point] if point in x.vertex_index else None
    if p is None:
        raise ConeNotDefined(f"cone point {point!r} is not a vertex of {x.name!r}")
    q = z.degree
    out = [ZERO] * cc.n(q + 1)
    for j, c in enumerate(z.coeffs):
        if c == 0:
            continue
        s = cc.basis(q)[j]
        if p in s:
            continue
        target = tuple(sorted(s + (p,)))
        if not x.has_simplex(target):
            raise ConeNotDefined(
                f"simplex {x.simplex_names(s)} does not span a simplex with {point!r}"
            )
        sign = (-ONE) ** target.index(p)
        out[x.simplex_id(q + 1, target)] += c * sign
    return Chain(q + 1, tuple(out))


def boundary_of(z: Chain, cc) -> Chain:
    return Chain(z.degree - 1, cc.boundary(z.degree).apply(z.coeffs))


class SubdivisionMap:
    """The chain map Sd_# : C_*(X) -> C_*(Sd X)."""

    def __init__(self, x: SimplicialComplex):
        self.source = x
        self.subdivided, self.provenance = barycentric_subdivide(x)
        self.source_cc = ChainComplex(x)
        self.target_cc = ChainComplex(self.subdivided)
        self._matrices = {}
        self._memo = {}

    def _subdivide_simplex(self, simplex):
        """Chain in Sd X subdividing one simplex, memoized bottom-up."""
        simplex = tuple(simplex)
        if simplex in self._memo:
            return self._memo[simplex]
        q = len(simplex) - 1
        bary = _bary_name(self.source, simplex)
        if q == 0:
            out = self.target_cc.chain_from_simplex((self.subdivided.vertex_index[bary],))
            self._memo[simplex] = out
            return out
        # Sd(sigma) = b_sigma . Sd(d sigma)
        acc = [ZERO] * self.target_cc.n(q - 1)
        for i in range(len(simplex)):
            face = simplex[:i] + simplex[i + 1 :]
            sub = self._subdivide_simplex(face)
            sgn = (-ONE) ** i
            for k, b in enumerate(sub.coeffs):
                if b:
                    acc[k] += sgn * b
        coned = cone(bary, Chain(q - 1, tuple(acc)), self.target_cc)
        self._memo[simplex] = coned
        return coned

    def matrix(self, q: int) -> SparseMatrix:
        if q in self._matrices:
            return self._matrices[q]
        cols = self.source_cc.n(q)
        rows = self.target_cc.n(q)
        ent = {}
        for j, s in enumerate(self.source_cc.basis(q)):
            image = self._subdivide_simplex(s)
            for i, v in enumerate(image.coeffs):
                if v:
                    ent[(i, j)] = v
        m = SparseMatrix(rows, cols, ent)
        self._matrices[q] = m
        return m

    def apply(self, z: Chain) -> Chain:
        return Chain(z.degree, self.matrix(z.degree).apply(z.coeffs))


def subdivision_chain_map(x: SimplicialComplex) -> SubdivisionMap:
    return SubdivisionMap(x)
