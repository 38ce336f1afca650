"""Lefschetz classes, coincidence numbers, and the witness finder.

The graded-endomorphism space L^*(X) of a closed oriented n-manifold is
carried by ``GradedMap``s from H^*(X) to itself.  Over any basis {b_i} of
H^* with dual basis {b^_i} (cup pairing against the fundamental class), its
Lefschetz isomorphism sends the endomorphism with matrix M on H^q to

    lambda_X(M) = sum_q (-1)^q M[i][j] b^_i x b_j     in H^n(X x X),

and the graded trace Tr s = sum_q (-1)^q tr s^q equals the pairing
(Delta^* lambda_X(s), zeta_X) on the nose.  The Lefschetz class and the
Euler class are defined through it:

    Lambda_X := lambda_X(id) = sum_i (-1)^{deg b_i} b^_i x b_i,
    chi_X := Delta^* Lambda_X.

The coincidence number of f, g : X -> Y is computed six ways: the four
alternating trace formulas tr(f^* g^!), tr(f^! g^*), tr(f_! g_*),
tr(f_* g_!) (graded traces of composed GradedMaps, the second and third
indexed through duality and so signed (-1)^n), the pairing
(Delta^* (f x g)^* Lambda_Y, zeta_X), and the intersection-theoretic
augmentation of zeta_f . zeta_g on X x Y.  A report is consistent only if
all six agree exactly.

The witness finder realizes |Y| with codomain vertices at standard basis
points, making |f| and |g| affine on every simplex with exact rational
matrices; a coincidence inside a simplex is a rational feasibility problem
solved exactly.  One such problem per maximal simplex of X therefore
decides whether a coincidence exists at all, and no subdivision of X can
add one.  When a nonzero coincidence number promises a coincidence point,
the finder locates one and verifies |f|(x) = |g|(x) in rational arithmetic
before returning it.
"""

from fractions import Fraction

from .complex import GeometricPoint, SimplicialMap
from .duality import (
    DualityOperator,
    ProductDuality,
    duality_operator,
    transfers,
)
from .errors import DegreeMismatch, DimensionMismatch
from .exactlin import ONE, ZERO, dense_trace, lp_feasible, qstr
from .homology import (
    COHOMOLOGY,
    GradedMap,
    Space,
    basis_class,
    kronecker,
)
from .products import (
    ProductSpace,
    TensorClass,
    augmentation_product,
    cross,
    cup_on_product,
    diagonal_pullback,
    kronecker_product,
    product_map,
    product_space,
    tensor_fundamental,
)


class LefschetzClass:
    """Lambda_X with its dual-basis expansion."""

    def __init__(self, space, product, tensor, expansion):
        self.space = space
        self.product = product  # X x X
        self.tensor = tensor
        self.expansion = expansion  # (degree, index, sign) summands


class EulerData:
    def __init__(self, euler_class, euler_number, combinatorial):
        self.euler_class = euler_class
        self.euler_number = euler_number
        self.combinatorial = combinatorial


def lefschetz_class(d: DualityOperator) -> LefschetzClass:
    """Lambda_X = lambda_X(id), built once per operator.

    The coefficient-extraction identity <b_i x b^_j, Lambda_X> =
    (-1)^{n deg b_i} (-1)^{deg b_i} delta_ij is verified on construction;
    the verified class is kept on ``d`` and returned by later calls.
    """
    if d._lefschetz is not None:
        return d._lefschetz
    space = d.space
    prod = product_space(space, space)
    tensor = lefschetz_iso(d, prod, GradedMap.identity(space.cohomology))
    expansion = [
        (q, i, (-1) ** q)
        for q in range(d.n + 1)
        for i in range(space.cohomology.betti(q))
    ]
    lef = LefschetzClass(space=space, product=prod, tensor=tensor, expansion=expansion)
    _verify_extraction(lef, d)
    d._lefschetz = lef
    return lef


def _verify_extraction(lef: LefschetzClass, d: DualityOperator):
    """Check the dual-basis coefficient extraction against the expansion."""
    for q, i, j, value, expected in coefficient_extraction_table(lef, d):
        if value != expected:
            raise AssertionError(
                f"Lefschetz extraction failed at degree {q}, ({i},{j}): "
                f"{qstr(value)} != {qstr(expected)}"
            )


def coefficient_extraction_table(lef: LefschetzClass, d: DualityOperator):
    """Rows (q, i, j, <b_i x b^_j, Lambda>, expected diagonal value)."""
    space, prod = lef.space, lef.product
    n = d.n
    zz = tensor_fundamental(prod, d.fundamental.cls, d.fundamental.cls)
    rows = []
    for q in range(n + 1):
        duals = d.dual_basis(q)
        b = space.cohomology.betti(q)
        for i in range(b):
            for j in range(b):
                probe = cross(basis_class(space.cohomology, q, i), duals[j], prod)
                value = kronecker_product(cup_on_product(probe, lef.tensor), zz)
                expected = (-1) ** (n * q) * (-1) ** q if i == j else 0
                rows.append((q, i, j, value, expected))
    return rows


def euler_data(d: DualityOperator) -> EulerData:
    """chi_X = Delta^* Lambda_X and its two Euler numbers."""
    space = d.space
    chi_class = diagonal_pullback(lefschetz_class(d).tensor, space)
    number = kronecker(chi_class, d.fundamental.cls)
    comb = space.complex.euler_characteristic()
    if number != comb:
        raise AssertionError(
            f"Euler mismatch on {space.complex.name!r}: pairing {qstr(number)} "
            f"vs combinatorial {comb}"
        )
    return EulerData(euler_class=chi_class, euler_number=number, combinatorial=comb)


def lefschetz_iso(d: DualityOperator, prod: ProductSpace, sigma: GradedMap) -> TensorClass:
    """lambda_X(sigma) = sum_q (-1)^q M^q[i][j] b^_i x b_j in H^n(X x X)."""
    space = d.space
    ends = (sigma.source, sigma.target, sigma.sign, sigma.shift)
    if ends != (space.cohomology, space.cohomology, 1, 0):
        raise DegreeMismatch("lambda_X takes a graded map from H^*(X) to itself")
    n = d.n
    terms = {}
    for q in range(n + 1):
        m = sigma.matrix(q)
        if not m:
            continue
        duals = d.dual_basis(q)
        sign = (-1) ** q
        for i in range(len(m)):
            for j in range(len(m[0])):
                v = m[i][j]
                if v == 0:
                    continue
                piece = cross(duals[i], basis_class(space.cohomology, q, j), prod)
                for key, c in piece.terms.items():
                    terms[key] = terms.get(key, ZERO) + sign * v * c
    return TensorClass(prod, COHOMOLOGY, n, terms)._clean()


def graded_trace(sigma: GradedMap) -> Fraction:
    """Tr sigma = sum_q (-1)^q tr sigma^q for an endomorphism of a graded space."""
    space = sigma.source
    if sigma.target is not space or (sigma.sign, sigma.shift) != (1, 0):
        raise DegreeMismatch("a graded trace needs a degree-preserving endomorphism")
    total = ZERO
    for q in range(space.dim + 1):
        total += (-1) ** q * dense_trace(sigma.matrix(q))
    return total


def lefschetz_iso_and_trace(d: DualityOperator, prod: ProductSpace, sigma: GradedMap):
    """Both sides of the trace formula; their equality is asserted."""
    tensor = lefschetz_iso(d, prod, sigma)
    tr = graded_trace(sigma)
    paired = kronecker(diagonal_pullback(tensor, d.space), d.fundamental.cls)
    if paired != tr:
        raise AssertionError(
            f"trace formula violated: pairing {qstr(paired)} vs trace {qstr(tr)}"
        )
    return tensor, tr


# ---------------------------------------------------------------------------
# coincidence numbers
# ---------------------------------------------------------------------------


class CoincidenceReport:
    def __init__(
        self, f_name, g_name, dimension, lambdas, consistent, value,
        witness=None, witness_status=None, subdivision_level=None,
    ):
        self.f_name = f_name
        self.g_name = g_name
        self.dimension = dimension
        self.lambdas = lambdas  # formula label -> Fraction
        self.consistent = consistent
        self.value = value
        self.witness = witness  # GeometricPoint or None
        self.witness_status = witness_status
        self.subdivision_level = subdivision_level

    def agreement(self):
        return {k: v == self.value for k, v in self.lambdas.items()}

    def to_json(self):
        out = {
            "f": self.f_name,
            "g": self.g_name,
            "dimension": self.dimension,
            "lambda": {k: qstr(v) for k, v in self.lambdas.items()},
            "agreement": self.agreement(),
            "consistent": self.consistent,
            "value": qstr(self.value),
        }
        out["witness"] = self.witness.to_json() if self.witness else None
        out["witness_status"] = self.witness_status
        out["subdivision_level"] = self.subdivision_level
        return out


def coincidence_number(
    f: SimplicialMap,
    g: SimplicialMap,
    dx: DualityOperator | None = None,
    dy: DualityOperator | None = None,
    witness: bool = False,
) -> CoincidenceReport:
    """The Lefschetz coincidence number of f, g : X -> Y by six formulas."""
    if f.domain is not g.domain or f.codomain is not g.codomain:
        raise DimensionMismatch("coincidence needs maps with common domain and codomain")
    if dx is None:
        dx = duality_operator(Space(f.domain))
    if dy is None:
        dy = duality_operator(Space(f.codomain)) if f.codomain is not f.domain else dx
    sx, sy = dx.space, dy.space
    n = dx.n
    if dy.n != n:
        raise DimensionMismatch(
            f"dim X = {n} differs from dim Y = {dy.n}"
        )

    tf = transfers(f, dx, dy)
    tg = tf if g is f else transfers(g, dx, dy)
    f_low, f_up = tf.push, tf.pull
    g_low, g_up = tg.push, tg.pull

    # The four alternating traces, each of a composite endomorphism: of
    # H^*(X), H^*(Y), H_*(X) and H_*(Y) respectively.  The formulas whose
    # transfer acts last index their trace through duality, by the degree
    # n - q, which multiplies the graded trace by (-1)^n; with that sign
    # all four sums are equal on the nose.
    lambdas = {}
    lambdas["tr(f*.g!)"] = graded_trace(f_up.compose(tg.up))
    lambdas["tr(f!.g*)"] = (-1) ** n * graded_trace(tf.up.compose(g_up))
    lambdas["tr(f_!.g_*)"] = (-1) ** n * graded_trace(tf.down.compose(g_low))
    lambdas["tr(f_*.g_!)"] = graded_trace(f_low.compose(tg.down))

    # Pairing route: (Delta^* (g x f)^* Lambda_Y, zeta_X).  The dual basis
    # occupies the first tensor slot of Lambda_Y, so the g-side pulls back
    # that slot; the opposite slot order computes (-1)^n lambda.
    lam_y, lam_x = lefschetz_class(dy), lefschetz_class(dx)
    prod_yy, prod_xx = lam_y.product, lam_x.product
    pullback = product_map(g_up, f_up, prod_yy, prod_xx)
    pulled = pullback(lam_y.tensor)
    lambdas["pairing"] = kronecker(
        diagonal_pullback(pulled, sx), dx.fundamental.cls
    )

    # Intersection route: eps(zeta_f . zeta_g) on X x Y.
    diag = ProductDuality(prod_xx, dx, dx).apply(lam_x.tensor)  # Delta_*(zeta_X)
    prod_xy = product_space(sx, sy)
    id_low = GradedMap.identity(sx.homology)
    push_f = product_map(id_low, f_low, prod_xx, prod_xy)
    push_g = product_map(id_low, g_low, prod_xx, prod_xy)
    zeta_f = push_f(diag)
    zeta_g = push_g(diag)
    pd = ProductDuality(prod_xy, dx, dy)
    # The dual of the g-graph class cups from the left (skew-commutativity
    # on the 2n-manifold makes the opposite order differ by (-1)^n).
    lambdas["intersection"] = augmentation_product(
        prod_xy, pd.intersection(zeta_g, zeta_f)
    )

    values = list(lambdas.values())
    consistent = all(v == values[0] for v in values)
    report = CoincidenceReport(
        f_name=f.name or "f",
        g_name=g.name or "g",
        dimension=n,
        lambdas=lambdas,
        consistent=consistent,
        value=values[0],
    )
    if witness:
        point, status = coincidence_witness(f, g)
        if point is None and report.value == 0:
            status = "no-claim-lambda-zero"
        report.witness = point
        report.witness_status = status
        report.subdivision_level = 0
    return report


# ---------------------------------------------------------------------------
# witness search
# ---------------------------------------------------------------------------


def _search_complex(f: SimplicialMap, g: SimplicialMap):
    """[(vertex id, weight)] of the first solution of |f|(x) = |g|(x), its
    zero weights dropped, or None.

    One exact feasibility problem per maximal simplex of the domain,
    largest first: barycentric weights t >= 0 summing to 1, and one
    equality per codomain vertex w, the weight f sends to w minus the
    weight g sends there.
    """
    fv, gv = f.mapping, g.mapping
    for simplex in sorted(f.domain.maximal_simplices(), key=lambda s: (-len(s), s)):
        k = len(simplex)
        cons = [([ONE] * k, "==", ONE)]
        for i in range(k):
            coeffs = [ZERO] * k
            coeffs[i] = ONE
            cons.append((coeffs, ">=", ZERO))
        for w in sorted({fv[v] for v in simplex} | {gv[v] for v in simplex}):
            coeffs = [
                (ONE if fv[v] == w else ZERO) - (ONE if gv[v] == w else ZERO)
                for v in simplex
            ]
            cons.append((coeffs, "==", ZERO))
        sol = lp_feasible(cons, k)
        if sol is not None:
            return [(v, t) for v, t in zip(simplex, sol) if t != 0]
    return None


def coincidence_witness(f: SimplicialMap, g: SimplicialMap):
    """Exact coincidence point of |f| and |g|, or None.

    Returns (point, status).  |f| and |g| are affine on every closed
    simplex of X, so the per-simplex affine systems on X's own maximal
    simplices are complete: a coincidence exists iff one of them is
    feasible.  The point's support must span a simplex of X, and |f|(x) =
    |g|(x) is checked exactly, codomain vertices at standard basis points,
    before the point is returned in vertex names.
    """
    if f.domain is not g.domain:
        raise DimensionMismatch("witness search needs a common domain")
    x = f.domain
    support = _search_complex(f, g)
    if support is None:
        return None, "search-exhausted"
    carrier = tuple(v for v, _ in support)
    if not x.has_simplex(carrier):
        raise AssertionError("witness support does not span a simplex")
    gap = {}  # |f|(x) - |g|(x), by codomain vertex
    for v, t in support:
        gap[f.mapping[v]] = gap.get(f.mapping[v], ZERO) + t
        gap[g.mapping[v]] = gap.get(g.mapping[v], ZERO) - t
    if any(gap.values()):
        raise AssertionError("witness fails exact verification")
    point = GeometricPoint(x.simplex_names(carrier), tuple(t for _, t in support))
    return point, "found"
