"""Homology and cohomology over Q with explicit bases.

A GradedSpace keeps, per degree, a list of representative cycles (or
cocycles) whose classes form a basis.  Each differential (its transpose
for cohomology) is eliminated exactly once, giving the cycles of the degree
it leaves and the boundaries of the degree it enters.  Representatives are
the canonical kernel-basis vectors that remain independent modulo the
boundary image, selected by one deterministic elimination of
[boundaries | cycles], so identical inputs always produce identical bases.
Classes are extracted by exact solving against the column space
[boundaries | representatives].  Every matrix on (co)homology comes from
one builder, ``class_matrix``: it applies a chain map to each
representative and extracts the class of the result.  Induced maps f_* and
f^*, the maps i_*, j_* and the connecting map of a pair, the excision map
and the duality cap with the fundamental class are all built this way,
never by transposition shortcuts.
"""

import weakref
from dataclasses import dataclass
from fractions import Fraction

from .chains import ChainComplex, build_relative, embed, induced_chain_map
from .complex import SimplicialComplex, SimplicialMap
from .errors import DegreeMismatch, HypothesisViolated
from .exactlin import (
    ONE,
    ZERO,
    Solver,
    SparseMatrix,
    dense_identity,
    dense_mul,
    dense_vec,
    vec_dot,
)

HOMOLOGY = "homology"
COHOMOLOGY = "cohomology"


class GradedSpace:
    """Basis of H_* or H^* of a (relative) chain complex."""

    def __init__(self, kind, cc, dims, reps, boundaries):
        self.kind = kind
        self.cc = cc
        self.dims = dims  # degree -> Betti number
        self.reps = reps  # degree -> list of representative vectors
        self._boundaries = boundaries  # degree -> list of boundary vectors
        self._solvers = {}

    @property
    def dim(self):
        return self.cc.dim

    def betti(self, q: int) -> int:
        return self.dims.get(q, 0)

    def betti_vector(self):
        return tuple(self.betti(q) for q in range(max(self.dim + 1, 1)))

    def representatives(self, q: int):
        return self.reps.get(q, [])

    def _solver(self, q: int):
        if q not in self._solvers:
            cols = [list(b) for b in self._boundaries.get(q, [])] + [
                list(r) for r in self.reps.get(q, [])
            ]
            m = SparseMatrix.from_columns(cols, self.cc.n(q))
            self._solvers[q] = (Solver(m), len(self._boundaries.get(q, [])))
        return self._solvers[q]

    def class_of(self, q: int, vec) -> tuple:
        """Coefficients of a cycle's class over the degree-q basis."""
        solver, nb = self._solver(q)
        sol = solver.solve(list(vec))
        if sol is None:
            raise ValueError(f"vector is not a {self.kind} cycle in degree {q}")
        return tuple(sol[nb:])

    def chain_of(self, q: int, coeffs) -> tuple:
        """A representative chain of the class with the given coefficients."""
        reps = self.reps.get(q, [])
        if len(coeffs) != len(reps):
            raise DegreeMismatch(f"expected {len(reps)} coefficients in degree {q}")
        n = self.cc.n(q)
        out = [ZERO] * n
        for c, r in zip(coeffs, reps):
            if c:
                for i, v in enumerate(r):
                    out[i] += c * v
        return tuple(out)


@dataclass(frozen=True)
class HClass:
    """A (co)homology class: degree plus coefficients over the basis."""

    space: GradedSpace
    degree: int
    coeffs: tuple

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


def _graded_space(kind, cc, differential) -> GradedSpace:
    """H_* (``differential(q)`` = d_q) or H^* (d_{q+1} transposed) of ``cc``.

    Each map leaving a degree q is eliminated once: its kernel is the cycles
    of q, its image the boundaries of the degree it enters, whose cycles the
    previous step left (degrees go up for homology, down for cohomology).
    Only cycle vectors are carried between steps, never a reduction.
    """
    if kind == HOMOLOGY:
        step, walk = -1, range(cc.dim + 2)
    else:
        step, walk = 1, range(cc.dim, -2, -1)
    dims, reps, bounds = {}, {}, {}
    cycles = []
    for q in walk:
        reduction = Solver(differential(q), transform=False)
        entered, bd = q + step, reduction.image()
        cycles, entered_cycles = reduction.kernel(), cycles
        del reduction
        if not 0 <= entered <= cc.dim:
            continue
        kept = []
        if entered_cycles:
            m = SparseMatrix.from_columns(bd + entered_cycles, cc.n(entered))
            pivots = Solver(m, transform=False).pivot_cols
            kept = [entered_cycles[c - len(bd)] for c in pivots if c >= len(bd)]
        dims[entered], reps[entered], bounds[entered] = len(kept), kept, bd
    return GradedSpace(kind, cc, dims, reps, bounds)


def compute_homology(cc) -> GradedSpace:
    """Homology of a ChainComplex (absolute or relative), with explicit bases."""
    return _graded_space(HOMOLOGY, cc, cc.boundary)


def compute_cohomology(cc) -> GradedSpace:
    """Cohomology via the transposed differentials."""
    return _graded_space(COHOMOLOGY, cc, cc.coboundary)


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


@dataclass
class GradedMap:
    """Per-degree matrices between graded spaces.

    Every Betti-level map is one: f_* (homology to homology), f^*
    (cohomology of the codomain to cohomology of the domain), the maps of a
    pair sequence, and the elements of L^*(X), which act on H^*(X).  The
    direction is read off the spaces, never stored.
    """

    source: GradedSpace
    target: GradedSpace
    matrices: dict  # degree -> dense tuple-of-tuples (target dim x source dim)

    @classmethod
    def identity(cls, space: GradedSpace) -> "GradedMap":
        degrees = range(max(space.dim, 0) + 1)
        return cls(space, space, {q: dense_identity(space.betti(q)) for q in degrees})

    def matrix(self, q: int):
        bt = self.target.betti(q)
        bs = self.source.betti(q)
        return self.matrices.get(
            q, tuple(tuple(ZERO for _ in range(bs)) for _ in range(bt))
        )

    def apply(self, cls: HClass) -> HClass:
        if cls.space is not self.source:
            raise DegreeMismatch("class does not live in the map's source")
        return HClass(
            self.target, cls.degree, dense_vec(self.matrix(cls.degree), cls.coeffs)
        )

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other."""
        if other.target is not self.source:
            raise DegreeMismatch("graded maps are not composable")
        degrees = set(self.matrices) | set(other.matrices)
        mats = {
            q: dense_mul(self.matrix(q), other.matrix(q)) for q in sorted(degrees)
        }
        return GradedMap(other.source, self.target, mats)


def class_matrix(source: GradedSpace, q: int, target: GradedSpace, p: int, chain_map):
    """The matrix of H_q(source) -> H_p(target) induced by ``chain_map``.

    ``chain_map`` carries each degree-q representative of ``source`` to a
    degree-p (co)cycle of ``target``, whose class is solved for exactly; the
    columns are these classes, the rows the target basis.  A result that is
    not a (co)cycle raises ValueError from ``class_of``.
    """
    cols = [target.class_of(p, chain_map(r)) for r in source.representatives(q)]
    return tuple(tuple(col[r] for col in cols) for r in range(target.betti(p)))


def induced_map(f: SimplicialMap, source: GradedSpace, target: GradedSpace) -> GradedMap:
    """f_* : H_*(X) -> H_*(Y) or f^* : H^*(Y) -> H^*(X), by the spaces' kind.

    For homology, source/target are the graded spaces of f's domain and
    codomain; for cohomology they are the codomain's and domain's, and
    cochains are pulled back along the transposed chain map.  Spaces of
    different kinds raise DegreeMismatch.
    """
    if source.kind != target.kind:
        raise DegreeMismatch(f"induced map from {source.kind} to {target.kind}")
    chain = induced_chain_map(f)
    if source.kind == COHOMOLOGY:
        chain = {q: m.transpose() for q, m in chain.items()}
    mats = {}
    for q in range(max(source.dim, 0) + 1):
        m = chain.get(q, SparseMatrix(target.cc.n(q), source.cc.n(q), {}))
        mats[q] = class_matrix(source, q, target, q, m.apply)
    return GradedMap(source, target, mats)


def kronecker(alpha: HClass, sigma: HClass) -> Fraction:
    """Evaluation of a cohomology class on a homology class."""
    if alpha.space.kind != COHOMOLOGY or sigma.space.kind != HOMOLOGY:
        raise DegreeMismatch("kronecker expects (cohomology, homology)")
    if alpha.space.cc is not sigma.space.cc:
        raise DegreeMismatch("classes live on different complexes")
    if alpha.degree != sigma.degree:
        raise DegreeMismatch(
            f"degree mismatch: {alpha.degree} vs {sigma.degree}"
        )
    return vec_dot(alpha.chain(), sigma.chain())


def augmentation(sigma: HClass) -> Fraction:
    """Coefficient sum of a degree-0 homology class."""
    if sigma.degree != 0:
        raise DegreeMismatch("augmentation is defined in degree 0")
    return sum(sigma.chain(), ZERO)


# ---------------------------------------------------------------------------
# pair sequences and excision
# ---------------------------------------------------------------------------


@dataclass
class PairSequence:
    """The long exact homology sequence of a subcomplex pair."""

    ambient: Space
    sub: Space
    pair: GradedSpace
    i_star: GradedMap
    j_star: dict  # degree -> matrix H_q(X) -> H_q(X, A)
    connecting: dict  # degree -> matrix H_q(X, A) -> H_{q-1}(A)
    exact: bool
    details: list


def _rebase(vec, basis, index) -> tuple:
    """Move a chain's coefficients from ``basis`` to the basis ``index`` numbers.

    Simplices are matched as vertex tuples of the ambient complex; this one
    map is the inclusion A -> X, the projection X -> X/A (coefficients on
    simplices outside ``index`` are dropped), the lift X/A -> X, and the
    excised pair's chains into the pair's.
    """
    out = [ZERO] * len(index)
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

    i_mats = {q: class_matrix(ha, q, hx, q, include(q)) for q in range(max(a.dim, 0) + 1)}
    j_mats = {q: class_matrix(hx, q, hp, q, project(q)) for q in range(x.dim + 1)}
    d_mats = {q: class_matrix(hp, q, ha, q - 1, connect(q)) for q in range(x.dim + 1)}
    i_star = GradedMap(ha, hx, i_mats)
    exact, details = _check_exactness(ha, hx, hp, i_mats, j_mats, d_mats, x.dim)
    return PairSequence(sx, sa, hp, i_star, j_mats, d_mats, exact, details)


def _mat_rank(m) -> int:
    if not m or not m[0]:
        return 0
    from .exactlin import rank

    return rank(SparseMatrix.from_dense(m))


def _mat_mul_zero(a, b) -> bool:
    if not a or not b or not a[0] or not b[0]:
        return True
    prod = dense_mul(a, b)
    return all(all(v == 0 for v in row) for row in prod)


def _check_exactness(ha, hx, hp, i_mats, j_mats, d_mats, dim):
    """im = ker at every node, by rank identities; each rank computed once."""
    degrees = range(dim + 1)
    ri = {q: _mat_rank(i_mats.get(q, ())) for q in degrees}
    rj = {q: _mat_rank(j_mats.get(q, ())) for q in degrees}
    rd = {q: _mat_rank(d_mats.get(q, ())) for q in degrees}
    details = []
    for q in degrees:
        bi, bj, bd = i_mats.get(q, ()), j_mats.get(q, ()), d_mats.get(q, ())
        # at H_q(X): im i = ker j
        node_ok = _mat_mul_zero(bj, bi) and ri[q] == hx.betti(q) - rj[q]
        details.append(("H(X)", q, node_ok))
        # at H_q(X, A): im j = ker d
        node_ok = _mat_mul_zero(bd, bj) and rj[q] == hp.betti(q) - rd[q]
        details.append(("H(X,A)", q, node_ok))
        # at H_{q-1}(A): im d = ker i
        if q >= 1:
            bi_prev = i_mats.get(q - 1, ())
            node_ok = _mat_mul_zero(bi_prev, bd) and rd[q] == ha.betti(q - 1) - ri[q - 1]
            details.append(("H(A)", q - 1, node_ok))
    return all(ok for _, _, ok in details), details


@dataclass
class ExcisionReport:
    isomorphism: bool
    dims_excised: tuple
    dims_pair: tuple
    details: list


def excision_check(x: SimplicialComplex, a: SimplicialComplex, u) -> ExcisionReport:
    """Verify H_*(X - U, A - U) -> H_*(X, A) is an isomorphism.

    ``u`` is a collection of simplices (tuples of vertex names) forming an
    open subset of A: every simplex of U must lie in A, and A - U must stay
    face-closed.  Raises HypothesisViolated otherwise.
    """
    u_idx = set()
    for s in u:
        t = tuple(sorted(x.vertex_index[v] for v in s))
        if not x.has_simplex(t):
            raise HypothesisViolated(f"U contains a non-simplex {s!r}")
        u_idx.add(t)

    all_a = {s for q in range(a.dim + 1) for s in embed(x, a, q)}
    if not u_idx <= all_a:
        raise HypothesisViolated("U is not contained in A")
    a_minus_u = all_a - u_idx
    for s in a_minus_u:
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            if face and face in u_idx:
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
