"""Cup, cap and cross products, and the tensor model of X x Y.

Chain-level conventions, fixed once and tested exactly:

* cup: Alexander-Whitney.  (a u b)(s) = a(front p-face of s) * b(back
  q-face of s) over the global vertex order.
* cap: a cocycle b of degree q caps a (p+q)-simplex s to b(back q-face) *
  (front p-face).  With the AW cup this makes (a u b, s) = (a, b n s) and
  (a u b) n s = a n (b n s) hold on the nose at chain level, and
  d(b n s) = b n ds + (-1)^p (db) n s with p the degree of the result.

Products of spaces are modeled algebraically: over Q the Kuenneth maps are
isomorphisms, so H(X x Y) is carried by formal tensors of basis classes.
The Koszul signs of the cross/cup/cap interplay follow the product laws:

* (a x b, s x t) = (-1)^{|t||a|} (a, s)(b, t)
* (a x b) u (c x d) = (-1)^{|b||c|} (a u c) x (b u d)
* (a x b) n (s x t) = (-1)^{|b||s|} (a n s) x (b n t)
* t_*(s x t) = (-1)^{|s||t|} t x s

The diagonal pullback on X x X is computed as cup, extended bilinearly.

Chain-level cochains keep the values of their inputs: the cup and cap of
``int`` representatives are ``int``.  Structure constants are class
coefficients, so they, and every tensor coefficient, are Fractions.
"""

from fractions import Fraction

from .errors import DegreeMismatch
from .exactlin import ONE, ZERO
from .homology import (
    COHOMOLOGY,
    HOMOLOGY,
    GradedMap,
    GradedSpace,
    HClass,
    Space,
    basis_class,
    kronecker_matrix,
)

# ---------------------------------------------------------------------------
# chain-level cup and cap
# ---------------------------------------------------------------------------


def cup_cochain(cc, p: int, q: int, avec, bvec):
    """AW cup of a p-cochain and a q-cochain, as a (p+q)-cochain vector.

    Entries are products of the inputs' entries, so ``int`` cochains give an
    ``int`` one.
    """
    n = p + q
    out = [0] * cc.n(n)
    if not out:
        return tuple(out)
    idx_p = cc.complex.index[p]
    idx_q = cc.complex.index[q]
    for m, s in enumerate(cc.basis(n)):
        a = avec[idx_p[s[: p + 1]]]
        if a == 0:
            continue
        b = bvec[idx_q[s[p:]]]
        if b:
            out[m] = a * b
    return tuple(out)


def cap_chain(cc, q: int, bvec, sigma_degree: int, svec):
    """Cap a q-cocycle against a chain of degree sigma_degree.

    Accumulated from ``0``, so an ``int`` cocycle and chain give an ``int``
    chain.
    """
    p = sigma_degree - q
    if p < 0:
        raise DegreeMismatch("cap would land in negative degree")
    out = [0] * cc.n(p)
    idx_q = cc.complex.index[q]
    for m, s in enumerate(cc.basis(sigma_degree)):
        c = svec[m]
        if c == 0:
            continue
        b = bvec[idx_q[s[p:]]]
        if b:
            out[cc.complex.index[p][s[: p + 1]]] += c * b
    return tuple(out)


def unit_cocycle(space: Space) -> HClass:
    """The class of the constant-1 cocycle in degree 0."""
    ones = tuple([ONE] * space.cc.n(0))
    return HClass(space.cohomology, 0, space.cohomology.class_of(0, ones))


def cup(a: HClass, b: HClass, space: Space) -> HClass:
    """Cup product of cohomology classes on one complex."""
    if a.space is not space.cohomology or b.space is not space.cohomology:
        raise DegreeMismatch("cup expects cohomology classes of the given space")
    p, q = a.degree, b.degree
    prod = cup_cochain(space.cc, p, q, a.chain(), b.chain())
    return HClass(space.cohomology, p + q, space.cohomology.class_of(p + q, prod))


def cap(a: HClass, sigma: HClass, space: Space) -> HClass:
    """Cap product H^q x H_{p+q} -> H_p on one complex."""
    if a.space is not space.cohomology or sigma.space is not space.homology:
        raise DegreeMismatch("cap expects (cohomology, homology) on the given space")
    if a.degree > sigma.degree:
        raise DegreeMismatch("cap degree mismatch")
    p = sigma.degree - a.degree
    prod = cap_chain(space.cc, a.degree, a.chain(), sigma.degree, sigma.chain())
    return HClass(space.homology, p, space.homology.class_of(p, prod))


class RingStructure:
    """Memoized cup/cap structure constants of one space's basis classes.

    Each Space owns one (``Space.ring``); every product built on the space
    shares it.  A basis class's chain is its stored representative, so the
    constants are read off the representatives as they are.
    """

    def __init__(self, space: Space):
        self.space = space
        self._cup = {}
        self._cap = {}

    def cup_basis(self, p, i, q, j):
        key = (p, i, q, j)
        if key not in self._cup:
            c = self.space.cohomology
            a, b = c.representatives(p)[i], c.representatives(q)[j]
            self._cup[key] = c.class_of(p + q, cup_cochain(self.space.cc, p, q, a, b))
        return self._cup[key]

    def cap_basis(self, q, i, d, j):
        key = (q, i, d, j)
        if key not in self._cap:
            a = self.space.cohomology.representatives(q)[i]
            s = self.space.homology.representatives(d)[j]
            prod = cap_chain(self.space.cc, q, a, d, s)
            self._cap[key] = self.space.homology.class_of(d - q, prod)
        return self._cap[key]

    def kron(self, q):
        """Kronecker matrix of the degree-q cohomology basis against homology."""
        return kronecker_matrix(self.space.cohomology, self.space.homology, q)


class ProductSpace:
    """Tensor model of X x Y over Q, with Koszul sign bookkeeping."""

    def __init__(self, x: Space, y: Space):
        self.x = x
        self.y = y
        self.rx = x.ring
        self.ry = y.ring
        self.dim = x.dim + y.dim

    def betti(self, n: int, kind=HOMOLOGY) -> int:
        gx = self.x.homology if kind == HOMOLOGY else self.x.cohomology
        gy = self.y.homology if kind == HOMOLOGY else self.y.cohomology
        return sum(
            gx.betti(p) * gy.betti(n - p) for p in range(0, n + 1)
        )

    def betti_vector(self, kind=HOMOLOGY):
        return tuple(self.betti(n, kind) for n in range(self.dim + 1))

    def __repr__(self):
        return f"ProductSpace({self.x.complex.name} x {self.y.complex.name})"


class TensorClass:
    """Formal sum of basis tensors b_i x c_j of one total degree."""

    def __init__(self, product, kind, degree, terms):
        self.product = product
        self.kind = kind
        self.degree = degree
        self.terms = terms  # (p, i, j) -> Fraction, p the X-degree, q = degree - p

    def _clean(self):
        self.terms = {k: v for k, v in self.terms.items() if v != 0}
        return self

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.terms.values())

    def __add__(self, other: "TensorClass") -> "TensorClass":
        if (
            other.product is not self.product
            or other.kind != self.kind
            or other.degree != self.degree
        ):
            raise DegreeMismatch("tensor classes are not compatible")
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, ZERO) + v
        return TensorClass(self.product, self.kind, self.degree, terms)._clean()

    def scale(self, c) -> "TensorClass":
        c = Fraction(c)
        return TensorClass(
            self.product,
            self.kind,
            self.degree,
            {k: c * v for k, v in self.terms.items()},
        )._clean()

    def __eq__(self, other):
        return (
            isinstance(other, TensorClass)
            and other.product is self.product
            and other.kind == self.kind
            and other.degree == self.degree
            and self._nonzero() == other._nonzero()
        )

    def _nonzero(self):
        return {k: v for k, v in self.terms.items() if v != 0}


def _graded(space: Space, kind: str) -> GradedSpace:
    return space.homology if kind == HOMOLOGY else space.cohomology


def cross(a: HClass, b: HClass, prod: ProductSpace) -> TensorClass:
    """Cohomology external cross product a x b."""
    return _cross(a, b, prod, COHOMOLOGY)


def cross_h(s: HClass, t: HClass, prod: ProductSpace) -> TensorClass:
    """Homology external cross product s x t."""
    return _cross(s, t, prod, HOMOLOGY)


def _cross(a, b, prod, kind):
    if a.space is not _graded(prod.x, kind) or b.space is not _graded(prod.y, kind):
        raise DegreeMismatch("cross factors must live on the product's factors")
    p, q = a.degree, b.degree
    terms = {}
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        for j, cb in enumerate(b.coeffs):
            if cb:
                terms[(p, i, j)] = ca * cb
    return TensorClass(prod, kind, p + q, terms)


def kronecker_product(alpha: TensorClass, sigma: TensorClass) -> Fraction:
    """(a x b, s x t) = (-1)^{|t||a|} (a, s)(b, t), extended bilinearly."""
    if alpha.kind != COHOMOLOGY or sigma.kind != HOMOLOGY:
        raise DegreeMismatch("kronecker_product expects (cohomology, homology)")
    prod = alpha.product
    if sigma.product is not prod:
        raise DegreeMismatch("classes live on different product spaces")
    total = ZERO
    kx = prod.rx.kron
    ky = prod.ry.kron
    for (p, i, j), va in alpha.terms.items():
        q = alpha.degree - p
        for (pp, k, l), vs in sigma.terms.items():
            qq = sigma.degree - pp
            if p != pp or q != qq:
                continue
            sign = (-1) ** (q * p)
            total += sign * va * vs * kx(p)[i][k] * ky(q)[j][l]
    return total


def cup_on_product(a: TensorClass, b: TensorClass) -> TensorClass:
    """Termwise cup with the multiplicativity sign (-1)^{|b_Y||c_X|}."""
    if b.product is not a.product or a.kind != COHOMOLOGY or b.kind != COHOMOLOGY:
        raise DegreeMismatch("cup_on_product expects cohomology tensor classes")
    return _bilinear(a, b, 1, RingStructure.cup_basis)


def cap_on_product(a: TensorClass, sigma: TensorClass) -> TensorClass:
    """Termwise cap with the multiplicativity sign (-1)^{|b_Y||s_X|}."""
    if sigma.product is not a.product or a.kind != COHOMOLOGY or sigma.kind != HOMOLOGY:
        raise DegreeMismatch("cap_on_product expects (cohomology, homology)")
    return _bilinear(a, sigma, -1, RingStructure.cap_basis)


def _bilinear(a: TensorClass, b: TensorClass, s: int, constant) -> TensorClass:
    """The termwise product of a cohomology tensor ``a`` with ``b``.

    Terms of X-degrees p1, p2 and Y-degrees q1, q2 give (-1)^{q1 p2} times
    ``constant(ring, ...)`` of X's ring tensored with Y's, in X-degree
    p2 + s p1 and Y-degree q2 + s q1: s = 1 for cup, -1 for cap.  A product
    outside a factor's degrees is zero and is not computed.  Integral
    values are multiplied and summed in ``int``, and each coefficient is
    made a Fraction once.
    """
    prod = a.product
    rx, ry, nx, ny = prod.rx, prod.ry, prod.x.dim, prod.y.dim
    out = {}
    b_terms = [(key, _as_int(v)) for key, v in b.terms.items()]
    for (p1, i1, j1), v1 in a.terms.items():
        q1, v1 = a.degree - p1, _as_int(v1)
        for (p2, i2, j2), v2 in b_terms:
            q2 = b.degree - p2
            p, q = p2 + s * p1, q2 + s * q1
            if not (0 <= p <= nx and 0 <= q <= ny):
                continue
            cx = constant(rx, p1, i1, p2, i2)
            cy = [_as_int(v) for v in constant(ry, q1, j1, q2, j2)]
            coeff = (-1 if q1 * p2 & 1 else 1) * v1 * v2
            for i, vx in enumerate(cx):
                if vx == 0:
                    continue
                cv = coeff * _as_int(vx)
                for j, vy in enumerate(cy):
                    if vy:
                        key = (p, i, j)
                        out[key] = out.get(key, 0) + cv * vy
    terms = {key: Fraction(v) for key, v in out.items()}
    return TensorClass(prod, b.kind, b.degree + s * a.degree, terms)._clean()


def _as_int(v):
    """A Fraction as its ``int`` numerator when it is integral, so that
    products and sums of such values are taken in ``int``."""
    return v.numerator if v.denominator == 1 else v


def block_map(t: TensorClass, target: ProductSpace, kind, degree, blocks) -> TensorClass:
    """A map of tensor classes that acts on each bidegree by a pair of matrices.

    ``blocks(p, q)`` gives (p', sign, mx, my) for t's terms of X-degree p and
    Y-degree q: the term v b_i x c_j goes to sign v (column i of mx) x
    (column j of my), in X-degree p'.  The result is a ``kind`` tensor of
    total degree ``degree`` on ``target``.
    """
    out = {}
    for (p, i, j), v in t.terms.items():
        pp, sign, mx, my = blocks(p, t.degree - p)
        v = sign * v
        for ii in range(len(mx)):
            vx = mx[ii][i]
            if vx == 0:
                continue
            for jj in range(len(my)):
                vy = my[jj][j]
                if vy:
                    key = (pp, ii, jj)
                    out[key] = out.get(key, ZERO) + v * vx * vy
    return TensorClass(target, kind, degree, out)._clean()


def product_map(f: GradedMap, g: GradedMap, source: ProductSpace, target: ProductSpace):
    """(f x g) applied termwise to tensor classes; no Koszul sign.

    For covariant maps this is (f x g)_*, for contravariant ones (f x g)^*;
    ``source`` and ``target`` are the product spaces the tensors live on.
    f and g must map the graded spaces of ``source``'s factors, of the
    tensor's kind, to those of ``target``'s, or DegreeMismatch is raised.
    Both must keep degrees (q -> q): a degree-shifting factor would need a
    Koszul sign that ``block_map`` does not apply, so it is refused.
    """
    if any((m.sign, m.shift) != (1, 0) for m in (f, g)):
        raise DegreeMismatch("f x g needs maps that keep degrees")

    def apply(t: TensorClass) -> TensorClass:
        if t.product is not source:
            raise DegreeMismatch("tensor class does not live on the source product")
        ends = [(m.source, m.target) for m in (f, g)]
        factors = [(source.x, target.x), (source.y, target.y)]
        if t.kind == HOMOLOGY:
            wanted = [(a.homology, b.homology) for a, b in factors]
        else:
            wanted = [(a.cohomology, b.cohomology) for a, b in factors]
        if any(m is not w for pair, want in zip(ends, wanted) for m, w in zip(pair, want)):
            raise DegreeMismatch(
                f"f x g does not map the {t.kind} of {source!r}'s factors to {target!r}'s"
            )
        return block_map(
            t, target, t.kind, t.degree, lambda p, q: (p, 1, f.matrix(p), g.matrix(q))
        )

    return apply


def swap_pushforward(t: TensorClass, target: ProductSpace) -> TensorClass:
    """t_*(s x t) = (-1)^{|s||t|} t x s for the factor-swap map."""
    prod = t.product
    if target.x is not prod.y or target.y is not prod.x:
        raise DegreeMismatch("swap target must be the reversed product")
    out = {}
    for (p, i, j), v in t.terms.items():
        q = t.degree - p
        sign = (-1) ** (p * q)
        out[(q, j, i)] = out.get((q, j, i), ZERO) + sign * v
    return TensorClass(target, t.kind, t.degree, out)._clean()


def diagonal_pullback(t: TensorClass, space: Space) -> HClass:
    """Delta_X^* on X x X, computed as cup extended bilinearly."""
    prod = t.product
    if prod.x is not space or prod.y is not space:
        raise DegreeMismatch("diagonal pullback needs a tensor class on X x X")
    if t.kind != COHOMOLOGY:
        raise DegreeMismatch("diagonal pullback acts on cohomology tensors")
    b = space.cohomology.betti(t.degree)
    acc = [ZERO] * b
    for (p, i, j), v in t.terms.items():
        q = t.degree - p
        cupped = prod.rx.cup_basis(p, i, q, j)
        for k, c in enumerate(cupped):
            acc[k] += v * c
    return HClass(space.cohomology, t.degree, tuple(acc))


def product_space(x: Space, y: Space) -> ProductSpace:
    return ProductSpace(x, y)


def tensor_fundamental(prod: ProductSpace, zx: HClass, zy: HClass) -> TensorClass:
    """zeta_{X x Y} := zeta_X x zeta_Y in the tensor model."""
    return cross_h(zx, zy, prod)


def augmentation_product(prod: ProductSpace, t: TensorClass) -> Fraction:
    """Augmentation of a degree-0 homology tensor class."""
    from .homology import augmentation

    if t.kind != HOMOLOGY or t.degree != 0:
        raise DegreeMismatch("augmentation needs a degree-0 homology tensor")
    total = ZERO
    for (p, i, j), v in t.terms.items():
        ex = augmentation(basis_class(prod.x.homology, 0, i))
        ey = augmentation(basis_class(prod.y.homology, 0, j))
        total += v * ex * ey
    return total
