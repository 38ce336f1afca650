"""Fundamental classes, Poincare duality, transfers and intersection.

The duality operator caps with the fundamental cycle: D(a) = a n zeta.  Its
matrices must be square and invertible degree by degree; a failure is a
hard SingularDuality error, never repaired, because every transfer and
coincidence formula downstream conjugates through D.

D is a GradedMap with the degree rule q -> n - q, and so is its inverse
D^{-1} : H_p -> H^{n-p}.  Transfers are the wrong-way maps obtained by
conjugation,

    f^! = D_Y^{-1} o f_* o D_X        f_! = D_X o f^* o D_Y^{-1}

and are built as exactly these compositions of GradedMaps, whose degree
rules compose to q -> q + (m - n) and q -> q - (m - n).  The mapping
degree is read off the top pushforward f_*[zeta_X] = deg(f) [zeta_Y].
The intersection product dualizes cup: a . b = D(D^{-1}(a) u D^{-1}(b)).

On a tensor-model product, capping with zeta_X x zeta_Y decomposes into
Koszul-signed blocks D_X tensor D_Y, so both the operator and its inverse
are applied blockwise, from the factors' matrices and their inverses.

The cap with zeta runs at chain level in the chains' own values: zeta is
the orientation's ``int`` signs and the representatives are ``int`` where
integral, so the capped chains are too.  Every matrix of D and of its
inverse, dual basis, transfer and degree is Betti-sized and a Fraction.
"""

from fractions import Fraction

from .complex import SimplicialMap, orient
from .errors import (
    DegreeMismatch,
    DimensionMismatch,
    NotClosed,
    SingularDuality,
    SingularPairing,
)
from .exactlin import dense_inv, dense_mul
from .homology import (
    COHOMOLOGY,
    HOMOLOGY,
    GradedMap,
    HClass,
    Space,
    class_matrix,
    induced_map,
    kronecker_matrix,
)
from .products import (
    ProductSpace,
    TensorClass,
    block_map,
    cap_chain,
    cup,
    cup_on_product,
)


class FundamentalClass:
    """The coherently signed top cycle and its homology class.

    ``chain`` holds the orientation's ``int`` signs, +-1 over the top
    simplices; ``cls`` holds Fraction coefficients, as every class does.
    """

    def __init__(self, space, orientation, chain, cls):
        self.space = space
        self.orientation = orientation
        self.chain = chain  # int +-1 per top simplex
        self.cls = cls  # its class in H_n


def fundamental_class(space: Space) -> FundamentalClass:
    """Signed sum of all top simplices of a closed oriented complex.

    Raises NotClosed / NonOrientable via the orientation pass, and verifies
    both the cycle condition and that the class generates a 1-dimensional
    top homology.  The fundamental class is read for duality, which pairs
    H_* with H^*, so both are built here, in one walk, and that walk shares
    ``orient``'s forest of the dual graph rather than build its own; the
    forest is taken off the orientation data, so it is dropped when this
    returns.
    """
    x = space.complex
    data = orient(x)
    n = x.dim
    homology, _ = space.homology_and_cohomology(data.take_forest())
    chain = data.signs
    try:
        coeffs = homology.class_of(n, chain)  # the one cycle check, in int
    except ValueError:
        raise NotClosed(f"oriented top chain of {x.name!r} is not a cycle") from None
    if homology.betti(n) != 1:
        raise NotClosed(
            f"H_{n} of {x.name!r} is not one-dimensional; no fundamental class"
        )
    cls = HClass(homology, n, coeffs)
    if cls.is_zero():
        raise NotClosed(f"top cycle of {x.name!r} is a boundary")
    return FundamentalClass(space=space, orientation=data, chain=chain, cls=cls)


class DualityOperator(GradedMap):
    """D = cap with the fundamental class, H^q -> H_{n-q}, and its inverse
    D^{-1} : H_p -> H^{n-p}, the GradedMap ``inverse``."""

    def __init__(self, space: Space, fundamental: FundamentalClass):
        self.space = space
        self.fundamental = fundamental
        self.n = n = space.dim
        self._dual_basis = {}
        self._lefschetz = None  # Lambda_X, built and verified by lefschetz_class
        # H_n = Z_n (there are no (n+1)-simplices), so the top cycle is its
        # class's chain exactly
        zeta = fundamental.chain
        mats, inverses = {}, {}
        for q in range(n + 1):
            bq = space.cohomology.betti(q)
            bnq = space.homology.betti(n - q)
            if bq != bnq:
                raise SingularDuality(
                    f"Betti asymmetry b^{q} = {bq} vs b_{n - q} = {bnq} "
                    f"on {space.complex.name!r}"
                )
            mat = class_matrix(
                space.cohomology, q, space.homology, n - q,
                lambda a: cap_chain(space.cc, q, a, n, zeta),
            )
            inv = dense_inv(mat)
            if inv is None:
                raise SingularDuality(
                    f"cap with the fundamental class is singular in degree {q} "
                    f"on {space.complex.name!r}"
                )
            mats[q] = mat
            inverses[n - q] = inv
        super().__init__(space.cohomology, space.homology, mats, -1, n)
        self.inverse = GradedMap(space.homology, space.cohomology, inverses, -1, n)

    def dual_basis(self, q: int):
        """Classes b^_i in H^{n-q} with (b^_i u b_j, zeta) = delta_ij.

        ``b_j`` runs over the degree-q cohomology basis.  The cup pairing is
        read as K_{n-q} D_q, with K the Kronecker matrix: (a u b, zeta) =
        (a, b n zeta) holds at chain level, so no cup is formed.  It is
        square, as b^{n-q} = b_{n-q} = b^q, the last checked on construction.
        """
        if q in self._dual_basis:
            return self._dual_basis[q]
        space = self.space
        pairing = dense_mul(
            kronecker_matrix(space.cohomology, space.homology, self.n - q), self.matrix(q)
        )
        inv = dense_inv(pairing)
        if inv is None:
            raise SingularPairing(
                f"cup pairing singular in degree {q} on {space.complex.name!r}"
            )
        duals = [HClass(space.cohomology, self.n - q, row) for row in inv]
        self._dual_basis[q] = duals
        return duals


def duality_operator(space: Space) -> DualityOperator:
    return DualityOperator(space, fundamental_class(space))


class Transfer:
    """f^! and f_! as compositions through duality, and the induced maps
    f_* and f^* they conjugate; f^! shifts degrees by m - n = dim Y - dim X."""

    def __init__(self, f, dx, dy, push, pull):
        self.f = f
        self.dx = dx
        self.dy = dy
        self.push = push  # f_* : H_*(X) -> H_*(Y)
        self.pull = pull  # f^* : H^*(Y) -> H^*(X)
        self.up = dy.inverse.compose(push.compose(dx))  # f^! : H^q(X) -> H^{q+m-n}(Y)
        self.down = dx.compose(pull.compose(dy.inverse))  # f_! : H_q(Y) -> H_{q-m+n}(X)

    def degree(self) -> Fraction:
        """deg f, read off ``push``.

        Y is connected: ``dy`` oriented it, which needs a strongly
        connected pure complex, and ``transfers`` checked that f lands in it.
        """
        if self.up.shift:  # m - n
            raise DimensionMismatch("degree needs equal-dimensional manifolds")
        return _pushed_degree(self.push, self.dx, self.dy)


def transfers(f: SimplicialMap, dx: DualityOperator, dy: DualityOperator) -> Transfer:
    """Cohomology and homology transfers of f : X -> Y by conjugation."""
    sx, sy = dx.space, dy.space
    if f.domain is not sx.complex or f.codomain is not sy.complex:
        raise DimensionMismatch("transfer: duality operators do not match the map")
    push = induced_map(f, sx.homology, sy.homology)
    pull = induced_map(f, sy.cohomology, sx.cohomology)
    return Transfer(f, dx, dy, push, pull)


def degree(f: SimplicialMap, dx: DualityOperator, dy: DualityOperator) -> Fraction:
    """The integer d with f_*[zeta_X] = d [zeta_Y].

    Y is connected: ``dy`` oriented it, which needs a strongly connected
    pure complex.
    """
    if f.domain is not dx.space.complex or f.codomain is not dy.space.complex:
        raise DimensionMismatch("degree: duality operators do not match the map")
    if dx.n != dy.n:
        raise DimensionMismatch("degree needs equal-dimensional manifolds")
    return _pushed_degree(induced_map(f, dx.space.homology, dy.space.homology), dx, dy)


def _pushed_degree(f_low: GradedMap, dx: DualityOperator, dy: DualityOperator) -> Fraction:
    """The d with f_low[zeta_X] = d [zeta_Y], f_low being f_*."""
    n = dx.n
    pushed = f_low.apply(dx.fundamental.cls)
    target = dy.fundamental.cls
    # both lie in the one-dimensional H_n(Y)
    if dy.space.homology.betti(n) != 1:
        raise NotClosed("codomain top homology is not one-dimensional")
    return pushed.coeffs[0] / target.coeffs[0]


def intersection(a: HClass, b: HClass, d: DualityOperator) -> HClass:
    """a . b = D(D^{-1}(a) u D^{-1}(b)) on homology classes."""
    n = d.n
    if a.degree + b.degree < n:
        raise DegreeMismatch("intersection lands in negative degree")
    return d.apply(cup(d.inverse.apply(a), d.inverse.apply(b), d.space))


class ProductDuality:
    """Duality on a tensor-model product with oriented factors.

    Capping with zeta_X x zeta_Y is D(b x c) = (-1)^{|c| n} D_X(b) x D_Y(c),
    so it and its inverse are applied blockwise from the factors' matrices.
    """

    def __init__(self, prod: ProductSpace, dx: DualityOperator, dy: DualityOperator):
        if prod.x is not dx.space or prod.y is not dy.space:
            raise DimensionMismatch("product duality: operators do not match factors")
        self.prod = prod
        self.dx = dx
        self.dy = dy
        self.n = dx.n
        self.m = dy.n

    def apply(self, t: TensorClass) -> TensorClass:
        dx, dy, n = self.dx, self.dy, self.n
        return self._blockwise(
            t, COHOMOLOGY, lambda p, q: (n - p, (-1) ** (q * n), dx.matrix(p), dy.matrix(q))
        )

    def invert(self, t: TensorClass) -> TensorClass:
        dx, dy, n, m = self.dx, self.dy, self.n, self.m
        return self._blockwise(
            t,
            HOMOLOGY,
            lambda p, q: (n - p, (-1) ** ((m - q) * n), dx.inverse.matrix(p), dy.inverse.matrix(q)),
        )

    def _blockwise(self, t: TensorClass, kind, blocks) -> TensorClass:
        if t.product is not self.prod or t.kind != kind:
            raise DegreeMismatch(f"product duality expects {kind} tensors on {self.prod!r}")
        other = HOMOLOGY if kind == COHOMOLOGY else COHOMOLOGY
        return block_map(t, self.prod, other, self.n + self.m - t.degree, blocks)

    def intersection(self, s: TensorClass, t: TensorClass) -> TensorClass:
        """Intersection product on the product manifold via cup and duality."""
        return self.apply(cup_on_product(self.invert(s), self.invert(t)))
