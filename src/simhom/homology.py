"""Homology and cohomology over Q with explicit bases.

A GradedSpace keeps, per degree, a list of representative cycles (or
cocycles) whose classes form a basis.  H_* reads the kernel and image of
each d_k, H^* those of d_k^T, both from one ``exactlin.Reductions`` of
d_k, which reduces each orientation at most once from d_k's own entries:
no coboundary is ever copied.  An orientation that is a signed graph's
incidence matrix is read off its graph with no elimination (the
tree-cotree decomposition): d_1's columns are the 1-skeleton's edges and
on a surface d_2's rows are the dual graph's, so on a closed orientable
surface nothing is eliminated.  Any other orientation is eliminated, the
tall one on rank(d_k) rows.  When H_* and H^* are built together, one walk
up the degrees shares these reductions between them, and no reduction
outlives the walk.

Everything else is read in free coordinates.  The canonical kernel vector
z_f of a free column f is 1 at f and 0 at the other free columns, so a
cycle z is the sum of z[f] z_f.  One reduction per degree, of the
boundaries' row space B_F^T in these coordinates (rank B_q x dim Z_q),
selects the representatives, the z_f independent modulo boundaries, and
writes every z_f in them; on a surface B_F^T is a graph too.  Degrees 0
and n select nothing, their basis being forced.  H^0 and H_n have no
boundaries, so every cycle is kept.  In H_0 and H^n every chain is a
cycle, and when the boundaries are a signed graph's column form (d_1's
columns always, d_n^T when the dual graph balances) each component of its
spanning forest that does not reach ground keeps its lowest simplex, and
every simplex of it has that class times the product of the two
simplices' forest signs: one point class per component of H_0, and in H^n
the orientation signs.  ``duality.fundamental_class`` hands the walk the
dual graph's forest that ``complex.orient`` built, so a duality query
builds it once.  The class
of a cycle is then a sparse sum over its free entries, after its support
is pushed through the facet table to check that it is a cycle (a cocycle
through d_{q+1}'s rows): no elimination runs once the spaces are built,
and only the representatives are stored as dense vectors.

The Kronecker pairing is Betti-sized too: the representatives of H^q and
H_q are paired once, by sparse dots over their supports, and every later
evaluation, ``RingStructure.kron`` included, reads that matrix.

Chain-level vectors hold the RREF's own values: a representative is read
off the reduction as it stands, ``int`` while the elimination stayed
integral, and so is a chain built from representatives by ``int`` maps and
signs: f_# and Sd_# hold ``int`` +-1, and the matrices' ``apply`` and
``pull`` and ``chain_of`` accumulate from ``0``.
Betti-sized values become Fractions once, as they leave the chain layer:
class coefficients, Kronecker values and so every matrix on (co)homology.

Every matrix on (co)homology comes from one builder, ``class_matrix``: it
applies a chain map to each representative and extracts the class of the
result.  Induced maps f_* and f^*, the maps i_*, j_* and the connecting map
of a pair, the excision map and the duality cap with the fundamental class
are all built this way, never by transposition shortcuts.
"""

import weakref
from fractions import Fraction
from itertools import compress
from math import lcm

from .chains import ChainComplex, build_relative, embed, induced_chain_map
from .complex import SimplicialComplex, SimplicialMap
from .errors import DegreeMismatch, HypothesisViolated
from .exactlin import (
    ONE,
    ZERO,
    ColumnMatrix,
    Reductions,
    SparseMatrix,
    dense_identity,
    dense_mul,
    dense_vec,
    rank,
)

HOMOLOGY = "homology"
COHOMOLOGY = "cohomology"


class GradedSpace:
    """Basis of H_* or H^* of a (relative) chain complex."""

    def __init__(self, kind, cc, reps, coords):
        self.kind = kind
        self.cc = cc
        self.reps = reps  # degree -> representative vectors, int where integral
        self.dims = {q: len(r) for q, r in reps.items()}  # degree -> Betti number
        # degree -> {free column f: {basis index: class coefficient of z_f}}
        self._coords = coords
        self._supports = {
            q: [[(i, r[i]) for i in compress(range(len(r)), r)] for r in level]
            for q, level in reps.items()
        }
        self._pairings = {}  # (homology space, degree) -> kronecker_matrix

    @property
    def dim(self):
        return self.cc.dim

    def betti(self, q: int) -> int:
        return self.dims.get(q, 0)

    def betti_vector(self):
        return tuple(self.betti(q) for q in range(max(self.dim + 1, 1)))

    def representatives(self, q: int):
        return self.reps.get(q, [])

    def _is_cycle(self, q: int, support) -> bool:
        """d_q z = 0, or for cohomology delta^q z = 0, read off d_{q+1}'s
        rows as d_{q+1}^T z; z is given by its support {index: value}, and
        only the lines of the support are read.

        A chain with a Fraction coefficient is scaled to ``int`` by the lcm
        of its denominators, which changes no zero, so d z is accumulated
        in ``int`` against d's signs.
        """
        if any(type(c) is not int for c in support.values()):
            scale = lcm(*(c.denominator for c in support.values()))
            support = {i: c.numerator * (scale // c.denominator) for i, c in support.items()}
        if self.kind == HOMOLOGY:
            return not any(self.cc.boundary(q).apply_support(support))
        return not any(self.cc.boundary(q + 1).pull_support(support))

    def class_of(self, q: int, vec) -> tuple:
        """Coefficients of a cycle's class over the degree-q basis.

        The class is the sum over free columns f of vec[f] times z_f's
        coordinate row, accumulated in the vector's own values and made
        Fractions at the end; a vector of the wrong length or that is not a
        (co)cycle raises ValueError.
        """
        if len(vec) != self.cc.n(q):
            raise ValueError(f"expected a {self.kind} chain of length {self.cc.n(q)}")
        nonzero = {i: vec[i] for i in compress(range(len(vec)), vec)}
        if not self._is_cycle(q, nonzero):
            raise ValueError(f"vector is not a {self.kind} cycle in degree {q}")
        coords = self._coords.get(q, {})
        out = [0] * self.betti(q)
        for f, c in nonzero.items():
            for t, v in coords.get(f, {}).items():
                out[t] += c * v
        return tuple(Fraction(v) for v in out)

    def chain_of(self, q: int, coeffs) -> tuple:
        """A representative chain of the class with the given coefficients.

        Accumulated from ``0``, an integral coefficient as its ``int``
        numerator, so integral coefficients give an ``int`` chain.
        """
        supports = self._supports.get(q, [])
        if len(coeffs) != len(supports):
            raise DegreeMismatch(f"expected {len(supports)} coefficients in degree {q}")
        out = [0] * self.cc.n(q)
        for c, support in zip(coeffs, supports):
            if c:
                if c.denominator == 1:
                    c = c.numerator
                for i, v in support:
                    out[i] += c * v
        return tuple(out)


class HClass:
    """A (co)homology class: degree plus coefficients over the basis."""

    def __init__(self, space, degree, coeffs):
        self.space = space
        self.degree = degree
        self.coeffs = coeffs

    def __eq__(self, other):
        if type(other) is not HClass:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def chain(self):
        return self.space.chain_of(self.degree, self.coeffs)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        if self.space is not other.space or self.degree != other.degree:
            raise DegreeMismatch("classes live in different spaces or degrees")
        return HClass(
            self.space,
            self.degree,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def scale(self, c):
        c = Fraction(c)
        return HClass(self.space, self.degree, tuple(c * a for a in self.coeffs))

    def __sub__(self, other):
        return self + other.scale(-1)


def basis_class(space: GradedSpace, q: int, i: int) -> HClass:
    coeffs = [ZERO] * space.betti(q)
    coeffs[i] = ONE
    return HClass(space, q, tuple(coeffs))


def _units(n, kept):
    """The unit chains at ``kept`` among ``n`` simplices, as ``int``: the
    canonical kernel vectors of a zero map."""
    out = []
    for f in kept:
        vec = [0] * n
        vec[f] = 1
        out.append(tuple(vec))
    return out


def _select(leaving, entering, transposed):
    """Representatives of one degree and the class coordinates of its cycles.

    ``leaving`` and ``entering`` are the ``Reductions`` of the differentials
    leaving and entering the degree, read as d for H_* and d^T for H^*
    (``transposed``).  Returns the dense kept cycles and {f: {t:
    coefficient}}, the class coordinates of the cycles z_f, t numbering the
    kept cycles in order; ``_selection`` says how a degree selects them.

    Two kinds of degree select nothing, because their basis is forced:

    - No boundaries (H^0, and H_n of an n-complex): every cycle z_f is
      kept, with coordinate {t: 1}, read off the reduction of the map
      leaving the degree.  Where that map's target is empty, as on a
      0-dimensional complex or a pair whose A holds the whole
      (q-1)-skeleton, the map is zero and its z_f are the unit chains.
    - Every chain is a cycle (H_0, and H^n of an n-complex), with B read
      off a signed graph's column form: d_1's columns always, d_n^T when
      the dual graph balances.  B is then the forest's tree edges, so each
      component that does not reach ground keeps its lowest simplex k, and
      a simplex f of it has coordinate {t_k: s_f s_k}, s the forest's
      signs; a grounded component's simplices are boundaries, with no
      coordinate.  These are the values ``_selection`` reads off the row
      form of the tree edges, with no B_F^T built, no second forest, and
      the zero map never reduced.

    Every other degree, and a top degree that is non-orientable or no
    pseudo-manifold, which has no such graph, goes to ``_selection``.
    """
    out, into = leaving.m, entering.m
    every_chain_cycles = (out.cols if transposed else out.rows) == 0
    if (into.rows if transposed else into.cols) == 0:  # no boundaries
        leaving_red = leaving.of(transposed)
        free = leaving_red.free_cols()
        return leaving_red.rref_kernel(free), {f: {t: 1} for t, f in enumerate(free)}
    forest = every_chain_cycles and entering.column_forest(transposed)
    if not forest:
        return _selection(leaving, entering, transposed)
    root, sign = forest.flatten()
    grounded = forest.grounded
    kept, first, coords = [], {}, {}  # first: root -> (t, s_k) of its lowest simplex
    for f, r in enumerate(root):
        if grounded[r]:
            continue
        k = first.get(r)
        if k is None:
            k = first[r] = len(kept), sign[f]
            kept.append(f)
        coords[f] = {k[0]: sign[f] * k[1]}
    return _units(len(root), kept), coords


def _selection(leaving, entering, transposed):
    """``_select``'s answer for any degree, by reducing the boundaries.

    The free columns F of the map leaving the degree index the cycles z_f;
    the pivot columns of the map entering it are a basis of the boundaries
    B.  A cycle's coordinates in the z_f are its entries at F, and x -> sum
    x_f z_f is injective, so B is the row space of B_F^T (one row per
    boundary basis vector, its entries at F).

    Its RREF, with the free columns in reverse order, is rank B x dim Z.
    Its non-pivot columns are the kept representatives: the z_f that
    selecting on [B | Z] keeps, each z_f in F's order that is independent
    of B and of the z_f kept before it.  A set of columns is a basis of
    B_F^T's column space exactly when the other z_f complete B to a basis
    of Z, and the pivots, the greedy such basis over reversed F, leave out
    the greedy completion over F (matroid duality).  Each RREF row, with
    pivot f, is a boundary z_f + sum_j r_j z_j whose other entries sit at
    kept columns j, so class(z_f) = -sum_j r_j [z_j].  The kept cycles and
    the coordinates are in the RREFs' own values.

    B_F^T, whose rows are the entering d's columns at the boundary pivots
    (its rows for H^*), is read off d's columns: for H_* the pivot
    columns, for H^* the columns at F, so d's rows are never built for
    it.  It is reduced on its graph when it is one, and eliminated
    otherwise; either reduction hands out the same RREF entries
    (``rref_entries``).  On a surface it is: the H_1 selection has one
    column per cotree edge, with its two triangles as entries, those of a
    dropped triangle cut away, and the H^1 selection is the 1-skeleton on
    the edges outside the dual spanning tree.
    """
    leaving_red = leaving.of(transposed)
    free = leaving_red.free_cols()
    last = len(free) - 1
    slot = dict(zip(free, range(last, -1, -1)))
    bpivots = entering.of(transposed).pivot_cols
    d = entering.m
    m = SparseMatrix(len(bpivots), len(free))
    ent = m.entries
    if transposed:  # the boundaries are d's rows, F's simplices its columns
        bslot = {r: k for k, r in enumerate(bpivots)}
        for j in free:
            for i, f in enumerate(d.column(j)):
                if f in bslot:
                    ent[(bslot[f], slot[j])] = -1 if i & 1 else 1
    else:  # the boundaries are d's columns
        for k, j in enumerate(bpivots):
            for i, f in enumerate(d.column(j)):
                if f in slot:
                    ent[(k, slot[f])] = -1 if i & 1 else 1
    selection = Reductions(m).of()
    pivot_cols = set(selection.pivot_cols)
    kept = [c for c in range(last, -1, -1) if c not in pivot_cols]
    t_of = {c: t for t, c in enumerate(kept)}
    coords = {free[last - c]: {t: 1} for c, t in t_of.items()}
    for c, j, v in selection.rref_entries(kept):
        coords.setdefault(free[last - c], {})[t_of[j]] = -v
    return leaving_red.rref_kernel([free[last - c] for c in kept]), coords


def _graded_spaces(cc, kinds, dual=None):
    """H_* and/or H^* of ``cc``, one per kind, in one walk up the degrees.

    Degree q of H_* reads d_q's kernel and d_{q+1}'s image; of H^*, the
    kernel of d_{q+1}^T and the image of d_q^T.  So each differential is
    needed at two adjacent degrees, in either orientation, and the walk
    keeps the ``Reductions`` of d_q and d_{q+1} only: each orientation of
    each d_k is reduced at most once, for the two kinds when both are
    built, and no reduction outlives the walk.  ``dual``, the forest of
    d_n's rows that ``complex.orient`` built, replaces the walk's own
    where ``Reductions`` finds that it was read off that very table.
    """
    reps = {kind: {} for kind in kinds}
    coords = {kind: {} for kind in kinds}
    below = Reductions(cc.boundary(0))
    for q in range(cc.dim + 1):
        above = Reductions(cc.boundary(q + 1), dual)
        for kind in kinds:
            transposed = kind == COHOMOLOGY
            leaving, entering = (above, below) if transposed else (below, above)
            reps[kind][q], coords[kind][q] = _select(leaving, entering, transposed)
        below = above
    return [GradedSpace(kind, cc, reps[kind], coords[kind]) for kind in kinds]


def compute_homology(cc) -> GradedSpace:
    """Homology of a ChainComplex (absolute or relative), with explicit bases."""
    return _graded_spaces(cc, (HOMOLOGY,))[0]


def compute_cohomology(cc) -> GradedSpace:
    """Cohomology, reading each differential as its transpose."""
    return _graded_spaces(cc, (COHOMOLOGY,))[0]


class Space:
    """A complex bundled with its lazily computed (co)homology."""

    def __init__(self, x: SimplicialComplex):
        self.complex = x
        self.cc = ChainComplex(x)
        self._homology = None
        self._cohomology = None
        self._ring = None

    @property
    def homology(self) -> GradedSpace:
        if self._homology is None:
            self._homology = compute_homology(self.cc)
        return self._homology

    @property
    def cohomology(self) -> GradedSpace:
        if self._cohomology is None:
            self._cohomology = compute_cohomology(self.cc)
        return self._cohomology

    def homology_and_cohomology(self, dual=None):
        """(H_*, H^*); when neither is built yet, both come from one walk.

        Each differential is then reduced once for the two.  A space that
        only ever needs one of them builds it alone and keeps no reduction.
        ``dual``, the forest of d_n's rows that ``orient`` read, is passed
        to that walk and not kept.
        """
        if self._homology is None and self._cohomology is None:
            self._homology, self._cohomology = _graded_spaces(
                self.cc, (HOMOLOGY, COHOMOLOGY), dual
            )
        return self.homology, self.cohomology

    @property
    def ring(self):
        """The space's cup/cap structure constants, computed once and shared.

        The ring sees the space through a weak proxy: a strong back
        reference would make a cycle that keeps every dropped space and its
        reductions alive until the cyclic garbage collector runs.
        """
        if self._ring is None:
            from .products import RingStructure

            self._ring = RingStructure(weakref.proxy(self))
        return self._ring

    @property
    def dim(self):
        return self.complex.dim

    def __repr__(self):
        return f"Space({self.complex.name!r})"


class GradedMap:
    """Per-degree matrices between graded spaces, with a degree rule.

    Every Betti-level map is one: f_* (homology to homology), f^*
    (cohomology of the codomain to cohomology of the domain), the duality
    operator D : H^q -> H_{n-q} and its inverse D^{-1} : H_p -> H^{n-p},
    the transfers f^! and f_!, the maps i_*, j_* and the connecting map
    d : H_q(X, A) -> H_{q-1}(A) of a pair sequence, and the elements of
    L^*(X), which act on H^*(X).  The direction is read off the spaces,
    never stored.

    The rule sends source degree q to target degree ``sign * q + shift``,
    sign +-1, fixed when the map is built; ``matrix(q)`` is keyed by the
    source degree and is the zero matrix where none was given.
    """

    def __init__(self, source, target, matrices, sign=1, shift=0):
        self.source = source
        self.target = target
        self.matrices = matrices  # source degree -> dense tuple-of-tuples (target x source)
        self.sign = sign
        self.shift = shift

    @classmethod
    def identity(cls, space: GradedSpace) -> "GradedMap":
        degrees = range(max(space.dim, 0) + 1)
        return cls(space, space, {q: dense_identity(space.betti(q)) for q in degrees})

    def target_degree(self, q: int) -> int:
        return self.sign * q + self.shift

    def matrix(self, q: int):
        m = self.matrices.get(q)
        if m is None:
            bt = self.target.betti(self.target_degree(q))
            m = tuple(tuple(ZERO for _ in range(self.source.betti(q))) for _ in range(bt))
        return m

    def apply(self, cls: HClass) -> HClass:
        if cls.space is not self.source:
            raise DegreeMismatch("class does not live in the map's source")
        q = cls.degree
        p = self.target_degree(q)
        if not 0 <= p <= self.target.dim:
            raise DegreeMismatch(f"degree {q} maps to degree {p}, outside 0..{self.target.dim}")
        if len(cls.coeffs) != self.source.betti(q):
            raise DegreeMismatch(f"coefficient count does not match the degree-{q} basis")
        return HClass(self.target, p, dense_vec(self.matrix(q), cls.coeffs))

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other, on the degrees where both have a matrix.

        Through a zero middle space (``m`` has no rows) the composite is the
        zero default of ``matrix``: a product would lose its column count.
        """
        if other.target is not self.source:
            raise DegreeMismatch("graded maps are not composable")
        mats = {
            q: dense_mul(self.matrices[p], m)
            for q, m in sorted(other.matrices.items())
            if m and (p := other.target_degree(q)) in self.matrices
        }
        return GradedMap(
            other.source, self.target, mats,
            self.sign * other.sign, self.sign * other.shift + self.shift,
        )


def class_matrix(source: GradedSpace, q: int, target: GradedSpace, p: int, chain_map):
    """The matrix of H_q(source) -> H_p(target) induced by ``chain_map``.

    ``chain_map`` carries each degree-q representative of ``source`` to a
    degree-p (co)cycle of ``target``, whose class ``class_of`` reads off its
    free entries; the columns are these classes, the rows the target basis.
    A result that is not a (co)cycle raises ValueError from ``class_of``.
    """
    cols = [target.class_of(p, chain_map(r)) for r in source.representatives(q)]
    return tuple(tuple(col[r] for col in cols) for r in range(target.betti(p)))


def induced_map(f: SimplicialMap, source: GradedSpace, target: GradedSpace) -> GradedMap:
    """f_* : H_*(X) -> H_*(Y) or f^* : H^*(Y) -> H^*(X), by the spaces' kind.

    For homology, source/target are the graded spaces of f's domain and
    codomain; for cohomology they are the codomain's and domain's, and
    cochains are pulled back through f_#'s columns.  Both read the map's
    one f_#.  Spaces of different kinds raise DegreeMismatch.
    """
    if source.kind != target.kind:
        raise DegreeMismatch(f"induced map from {source.kind} to {target.kind}")
    chain = induced_chain_map(f)
    pull = source.kind == COHOMOLOGY
    mats = {}
    for q in range(max(source.dim, 0) + 1):
        # above the domain's dimension f_# has no columns
        m = chain[q] if q in chain else ColumnMatrix(f.codomain.n_simplices(q))
        mats[q] = class_matrix(source, q, target, q, m.pull if pull else m.apply)
    return GradedMap(source, target, mats)


def kronecker_matrix(cohomology: GradedSpace, homology: GradedSpace, q: int):
    """K[i][j] = <rep^i, rep_j> of the degree-q representatives, built once.

    One sparse dot per pair of supports, in the representatives' values,
    made a Fraction once; the matrix is cached on the cohomology space,
    which is the only side that refers to the other, so no reference cycle
    forms.
    """
    key = (homology, q)
    k = cohomology._pairings.get(key)
    if k is None:
        cycles = [dict(support) for support in homology._supports.get(q, [])]
        k = tuple(
            tuple(
                Fraction(sum(v * z[i] for i, v in support if i in z)) for z in cycles
            )
            for support in cohomology._supports.get(q, [])
        )
        cohomology._pairings[key] = k
    return k


def kronecker(alpha: HClass, sigma: HClass) -> Fraction:
    """Evaluation of a cohomology class on a homology class.

    Bilinear in the class coefficients: sum over i, j of alpha_i K[i][j]
    sigma_j, with K the representatives' pairing from ``kronecker_matrix``.
    """
    if alpha.space.kind != COHOMOLOGY or sigma.space.kind != HOMOLOGY:
        raise DegreeMismatch("kronecker expects (cohomology, homology)")
    if alpha.space.cc is not sigma.space.cc:
        raise DegreeMismatch("classes live on different complexes")
    q = alpha.degree
    if q != sigma.degree:
        raise DegreeMismatch(f"degree mismatch: {q} vs {sigma.degree}")
    k = kronecker_matrix(alpha.space, sigma.space, q)
    if len(alpha.coeffs) != len(k) or len(sigma.coeffs) != sigma.space.betti(q):
        raise DegreeMismatch(f"coefficient count does not match the degree-{q} basis")
    total = ZERO
    for a, row in zip(alpha.coeffs, k):
        if a:
            for v, s in zip(row, sigma.coeffs):
                if v and s:
                    total += a * v * s
    return total


def augmentation(sigma: HClass) -> Fraction:
    """Coefficient sum of a degree-0 homology class."""
    if sigma.degree != 0:
        raise DegreeMismatch("augmentation is defined in degree 0")
    return sum(sigma.chain(), ZERO)


# ---------------------------------------------------------------------------
# pair sequences and excision
# ---------------------------------------------------------------------------


class PairSequence:
    """The long exact homology sequence of a subcomplex pair."""

    def __init__(self, ambient, sub, pair, i_star, j_star, connecting, exact, details):
        self.ambient = ambient
        self.sub = sub
        self.pair = pair
        self.i_star = i_star
        self.j_star = j_star  # GradedMap H_q(X) -> H_q(X, A)
        self.connecting = connecting  # GradedMap H_q(X, A) -> H_{q-1}(A)
        self.exact = exact
        self.details = details


def _rebase(vec, basis, index) -> tuple:
    """Move a chain's coefficients from ``basis`` to the basis ``index`` numbers.

    Simplices are matched as vertex tuples of the ambient complex; this one
    map is the inclusion A -> X, the projection X -> X/A (coefficients on
    simplices outside ``index`` are dropped), the lift X/A -> X, and the
    excised pair's chains into the pair's.
    """
    out = [0] * len(index)
    for s, v in zip(basis, vec):
        if v and s in index:
            out[index[s]] = v
    return tuple(out)


def long_exact_sequence(x: SimplicialComplex, a: SimplicialComplex) -> PairSequence:
    """Assemble i_*, j_*, and the zig-zag connecting map, then verify
    image = kernel at every node by exact rank identities."""
    pair_cc = build_relative(x, a)
    sx, sa = Space(x), Space(a)
    hx, ha = sx.homology, sa.homology
    hp = compute_homology(pair_cc)
    a_basis = {q: embed(x, a, q) for q in range(a.dim + 1)}  # in X's vertex tuples
    a_index = {q: {s: k for k, s in enumerate(level)} for q, level in a_basis.items()}

    def include(q):
        return lambda v: _rebase(v, a_basis[q], x.index[q])

    def project(q):
        return lambda v: _rebase(v, x.basis(q), pair_cc.index[q])

    def connect(q):
        # Lift a relative cycle to X, take its boundary, restrict it to A.
        def chain_map(rel):
            bd = sx.cc.boundary(q).apply(_rebase(rel, pair_cc.basis(q), x.index[q]))
            restricted = _rebase(bd, x.basis(q - 1), a_index.get(q - 1, {}))
            if sum(map(bool, bd)) != sum(map(bool, restricted)):  # a term was dropped
                raise AssertionError("relative cycle boundary left A")
            return restricted

        return chain_map

    degrees = range(x.dim + 1)
    i_mats = {q: class_matrix(ha, q, hx, q, include(q)) for q in range(max(a.dim, 0) + 1)}
    j_mats = {q: class_matrix(hx, q, hp, q, project(q)) for q in degrees}
    d_mats = {q: class_matrix(hp, q, ha, q - 1, connect(q)) for q in degrees}
    i_star, j_star = GradedMap(ha, hx, i_mats), GradedMap(hx, hp, j_mats)
    connecting = GradedMap(hp, ha, d_mats, shift=-1)
    exact, details = _check_exactness((i_star, j_star, connecting), degrees)
    return PairSequence(sx, sa, hp, i_star, j_star, connecting, exact, details)


def _mat_rank(m) -> int:
    return rank(SparseMatrix.from_dense(m))


def _check_exactness(maps, degrees):
    """im f = ker g at every node M of the sequence, f into M and g out of
    it, by g o f = 0 and rank f + rank g = dim M; each rank computed once."""
    ranks = {(m, q): _mat_rank(m.matrix(q)) for m in maps for q in degrees}
    labels = ("H(X)", "H(X,A)", "H(A)")
    nodes = [(lb, f, g, g.compose(f)) for lb, f, g in zip(labels, maps, maps[1:] + maps[:1])]
    details = []
    for q in degrees:
        for label, f, g, gf in nodes:
            p = f.target_degree(q)
            if p >= 0:
                zero = not any(map(any, gf.matrix(q)))
                ok = zero and ranks[f, q] + ranks[g, p] == f.target.betti(p)
                details.append((label, p, ok))
    return all(ok for _, _, ok in details), details


class ExcisionReport:
    def __init__(self, isomorphism, dims_excised, dims_pair, details):
        self.isomorphism = isomorphism
        self.dims_excised = dims_excised
        self.dims_pair = dims_pair
        self.details = details

    def __eq__(self, other):
        if type(other) is not ExcisionReport:
            return NotImplemented
        return vars(self) == vars(other)


def excision_check(x: SimplicialComplex, a: SimplicialComplex, u) -> ExcisionReport:
    """Verify H_*(X - U, A - U) -> H_*(X, A) is an isomorphism.

    ``u`` is a collection of simplices (tuples of vertex names) forming an
    open subset of A: every simplex of U must lie in A, and A - U must stay
    face-closed.  Raises HypothesisViolated otherwise.
    """
    u_idx = set()
    for s in u:
        t = tuple(sorted(x.vertex_index.get(v, -1) for v in s))
        if not x.has_simplex(t):
            raise HypothesisViolated(f"U contains a non-simplex {s!r}")
        u_idx.add(t)

    all_a = {s for q in range(a.dim + 1) for s in embed(x, a, q)}
    if not u_idx <= all_a:
        raise HypothesisViolated("U is not contained in A")
    a_minus_u = all_a - u_idx
    for q in range(1, x.dim + 1):
        faces, d = x.basis(q - 1), x.boundary(q)
        for j, s in enumerate(x.basis(q)):
            if s in a_minus_u and any(faces[f] in u_idx for f in d.column(j)):
                raise HypothesisViolated(
                    "A - U is not face-closed: U is not open inside A"
                )

    pair = build_relative(x, a)
    h_pair = compute_homology(pair)

    kept = {
        q: [s for s in x.basis(q) if s not in u_idx and s not in a_minus_u]
        for q in range(x.dim + 1)
    }
    excised = ChainComplex(x, kept)
    h_exc = compute_homology(excised)

    details = []
    iso = True
    for q in range(x.dim + 1):
        be, bp = h_exc.betti(q), h_pair.betti(q)
        if be != bp:
            iso = False
            details.append((q, False))
            continue
        mat = class_matrix(
            h_exc, q, h_pair, q, lambda v: _rebase(v, excised.basis(q), pair.index[q])
        )
        full = _mat_rank(mat) == bp
        iso = iso and full
        details.append((q, full))
    return ExcisionReport(
        isomorphism=iso,
        dims_excised=tuple(h_exc.betti(q) for q in range(x.dim + 1)),
        dims_pair=tuple(h_pair.betti(q) for q in range(x.dim + 1)),
        details=details,
    )
