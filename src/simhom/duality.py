"""Fundamental classes, Poincare duality, transfers and intersection.

The duality operator caps with the fundamental cycle: D(a) = a n zeta.  Its
matrices must be square and invertible degree by degree; a failure is a
hard SingularDuality error, never repaired, because every transfer and
coincidence formula downstream conjugates through D.

Transfers are the wrong-way maps obtained by conjugation,

    f^! = D_Y^{-1} o f_* o D_X        f_! = D_X o f^* o D_Y^{-1}

and the mapping degree is read off the top pushforward f_*[zeta_X] =
deg(f) [zeta_Y].  The intersection product dualizes cup:
a . b = D(D^{-1}(a) u D^{-1}(b)).

On a tensor-model product, capping with zeta_X x zeta_Y decomposes into
Koszul-signed blocks D_X tensor D_Y, which is what makes the inverse
computable factorwise.
"""

from dataclasses import dataclass
from fractions import Fraction

from .complex import SimplicialMap, manifold_check, orient
from .errors import (
    DegreeMismatch,
    DimensionMismatch,
    NotClosed,
    SingularDuality,
    SingularPairing,
)
from .exactlin import (
    ONE,
    ZERO,
    dense_inv,
    dense_mul,
    dense_vec,
    vec_is_zero,
)
from .homology import (
    COHOMOLOGY,
    HOMOLOGY,
    GradedMap,
    HClass,
    Space,
    class_matrix,
    induced_map,
    kronecker,
)
from .products import (
    ProductSpace,
    TensorClass,
    cap_chain,
    cap_on_product,
    cup,
    cup_on_product,
    tensor_fundamental,
)


@dataclass
class FundamentalClass:
    """The coherently signed top cycle and its homology class."""

    space: Space
    orientation: object
    chain: tuple  # signed coefficient vector over top simplices
    cls: HClass  # its class in H_n

    @property
    def degree(self):
        return self.space.dim


def fundamental_class(space: Space) -> FundamentalClass:
    """Signed sum of all top simplices of a closed oriented complex.

    Raises NotClosed / NonOrientable via the orientation pass, and verifies
    both the cycle condition and that the class generates a 1-dimensional
    top homology.
    """
    x = space.complex
    data = orient(x)
    n = x.dim
    chain = tuple(Fraction(s) for s in data.signs)
    if not vec_is_zero(space.cc.boundary(n).apply(chain)):
        raise NotClosed(f"oriented top chain of {x.name!r} is not a cycle")
    if space.homology.betti(n) != 1:
        raise NotClosed(
            f"H_{n} of {x.name!r} is not one-dimensional; no fundamental class"
        )
    cls = HClass(space.homology, n, space.homology.class_of(n, chain))
    if cls.is_zero():
        raise NotClosed(f"top cycle of {x.name!r} is a boundary")
    return FundamentalClass(space=space, orientation=data, chain=chain, cls=cls)


class DualityOperator:
    """Cap with the fundamental class, degreewise, with cached inverses."""

    def __init__(self, space: Space, fundamental: FundamentalClass):
        self.space = space
        self.fundamental = fundamental
        self.n = space.dim
        self._matrix = {}
        self._inverse = {}
        self._dual_basis = {}
        self._lefschetz = None  # Lambda_X, built and verified by lefschetz_class
        zeta = fundamental.cls.chain()
        for q in range(self.n + 1):
            bq = space.cohomology.betti(q)
            bnq = space.homology.betti(self.n - q)
            if bq != bnq:
                raise SingularDuality(
                    f"Betti asymmetry b^{q} = {bq} vs b_{self.n - q} = {bnq} "
                    f"on {space.complex.name!r}"
                )
            mat = class_matrix(
                space.cohomology, q, space.homology, self.n - q,
                lambda a: cap_chain(space.cc, q, a, self.n, zeta),
            )
            inv = dense_inv(mat) if bq else ()
            if bq and inv is None:
                raise SingularDuality(
                    f"cap with the fundamental class is singular in degree {q} "
                    f"on {space.complex.name!r}"
                )
            self._matrix[q] = mat
            self._inverse[q] = inv if bq else ()

    def matrix(self, q: int):
        return self._matrix.get(q, ())

    def inverse_matrix(self, q: int):
        return self._inverse.get(q, ())

    def apply(self, a: HClass) -> HClass:
        """D(a) = a n zeta, from H^q to H_{n-q}."""
        if a.space is not self.space.cohomology:
            raise DegreeMismatch("duality applies to cohomology classes of X")
        return HClass(
            self.space.homology,
            self.n - a.degree,
            dense_vec(self.matrix(a.degree), a.coeffs),
        )

    def invert(self, s: HClass) -> HClass:
        """D^{-1}, from H_{n-q} back to H^q."""
        if s.space is not self.space.homology:
            raise DegreeMismatch("duality inverse applies to homology classes of X")
        q = self.n - s.degree
        return HClass(
            self.space.cohomology, q, dense_vec(self.inverse_matrix(q), s.coeffs)
        )

    def dual_basis(self, q: int):
        """Classes b^_i in H^{n-q} with (b^_i u b_j, zeta) = delta_ij.

        ``b_j`` runs over the degree-q cohomology basis.
        """
        if q in self._dual_basis:
            return self._dual_basis[q]
        space = self.space
        b_q = space.cohomology.betti(q)
        b_nq = space.cohomology.betti(self.n - q)
        if b_q != b_nq:
            raise SingularPairing("cup pairing is not square")
        ring = space.ring
        pairing = tuple(
            tuple(
                kronecker(
                    HClass(space.cohomology, self.n, ring.cup_basis(self.n - q, i, q, j)),
                    self.fundamental.cls,
                )
                for j in range(b_q)
            )
            for i in range(b_nq)
        )
        inv = dense_inv(pairing) if b_q else ()
        if b_q and inv is None:
            raise SingularPairing(
                f"cup pairing singular in degree {q} on {space.complex.name!r}"
            )
        duals = []
        for i in range(b_q):
            coeffs = tuple(inv[i][k] for k in range(b_q))
            duals.append(HClass(space.cohomology, self.n - q, coeffs))
        self._dual_basis[q] = duals
        return duals


def duality_operator(space: Space) -> DualityOperator:
    return DualityOperator(space, fundamental_class(space))


@dataclass
class Transfer:
    """Per-degree matrices of f^! and f_!, with the dimension shift, and the
    induced maps f_* and f^* they conjugate."""

    f: SimplicialMap
    dx: DualityOperator
    dy: DualityOperator
    shift: int
    up: dict  # q -> matrix of f^! : H^q(X) -> H^{q+shift}(Y)
    down: dict  # q -> matrix of f_! : H_q(Y) -> H_{q-shift}(X)
    push: GradedMap  # f_* : H_*(X) -> H_*(Y)
    pull: GradedMap  # f^* : H^*(Y) -> H^*(X)

    def up_matrix(self, q):
        return self.up.get(q, ())

    def down_matrix(self, q):
        return self.down.get(q, ())

    def apply_up(self, a: HClass) -> HClass:
        return HClass(
            self.dy.space.cohomology,
            a.degree + self.shift,
            dense_vec(self.up_matrix(a.degree), a.coeffs),
        )

    def apply_down(self, s: HClass) -> HClass:
        return HClass(
            self.dx.space.homology,
            s.degree - self.shift,
            dense_vec(self.down_matrix(s.degree), s.coeffs),
        )


def transfers(f: SimplicialMap, dx: DualityOperator, dy: DualityOperator) -> Transfer:
    """Cohomology and homology transfers of f : X -> Y by conjugation."""
    sx, sy = dx.space, dy.space
    if f.domain is not sx.complex or f.codomain is not sy.complex:
        raise DimensionMismatch("transfer: duality operators do not match the map")
    n, m = dx.n, dy.n
    shift = m - n
    f_low = induced_map(f, sx.homology, sy.homology)
    f_up = induced_map(f, sy.cohomology, sx.cohomology)
    up = {}
    down = {}
    for q in range(n + 1):
        if 0 <= q + shift <= m:
            up[q] = dense_mul(
                dy.inverse_matrix(q + shift),
                dense_mul(f_low.matrix(n - q), dx.matrix(q)),
            )
    for q in range(m + 1):
        if 0 <= q - shift <= n:
            down[q] = dense_mul(
                dx.matrix(n - (q - shift)),
                dense_mul(f_up.matrix(m - q), dy.inverse_matrix(m - q)),
            )
    return Transfer(f=f, dx=dx, dy=dy, shift=shift, up=up, down=down, push=f_low, pull=f_up)


def degree(f: SimplicialMap, dx: DualityOperator, dy: DualityOperator) -> Fraction:
    """The integer d with f_*[zeta_X] = d [zeta_Y]."""
    if dx.n != dy.n:
        raise DimensionMismatch("degree needs equal-dimensional manifolds")
    if not manifold_check(f.codomain).connected:
        raise NotClosed("degree needs a connected codomain")
    n = dx.n
    f_low = induced_map(f, dx.space.homology, dy.space.homology)
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
    ca = d.invert(a)
    cb = d.invert(b)
    return d.apply(cup(ca, cb, d.space))


class ProductDuality:
    """Duality on a tensor-model product with oriented factors.

    Application is capping with zeta_X x zeta_Y; inversion uses the
    blockwise decomposition D(b x c) = (-1)^{|c| n} D_X(b) x D_Y(c).
    """

    def __init__(self, prod: ProductSpace, dx: DualityOperator, dy: DualityOperator):
        if prod.x is not dx.space or prod.y is not dy.space:
            raise DimensionMismatch("product duality: operators do not match factors")
        self.prod = prod
        self.dx = dx
        self.dy = dy
        self.n = dx.n
        self.m = dy.n
        self.zeta = tensor_fundamental(prod, dx.fundamental.cls, dy.fundamental.cls)

    def apply(self, t: TensorClass) -> TensorClass:
        return cap_on_product(t, self.zeta)

    def invert(self, t: TensorClass) -> TensorClass:
        if t.kind != HOMOLOGY:
            raise DegreeMismatch("product duality inverse acts on homology tensors")
        out = {}
        for (pp, k, l), v in t.terms.items():
            qq = t.degree - pp
            p, q = self.n - pp, self.m - qq
            sign = (-ONE) ** (q * self.n)
            ix = self.dx.inverse_matrix(p)
            iy = self.dy.inverse_matrix(q)
            for i in range(len(ix)):
                vx = ix[i][k]
                if vx == 0:
                    continue
                for j in range(len(iy)):
                    vy = iy[j][l]
                    if vy:
                        key = (p, i, j)
                        out[key] = out.get(key, ZERO) + sign * v * vx * vy
        total_degree = (self.n + self.m) - t.degree
        return TensorClass(self.prod, COHOMOLOGY, total_degree, out)._clean()

    def intersection(self, s: TensorClass, t: TensorClass) -> TensorClass:
        """Intersection product on the product manifold via cup and duality."""
        return self.apply(cup_on_product(self.invert(s), self.invert(t)))
