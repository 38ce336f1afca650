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
tr(f_* g_!) (homology traces indexed through duality), the pairing
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

from dataclasses import dataclass
from fractions import Fraction

from .complex import (
    GeometricPoint,
    SimplicialComplex,
    SimplicialMap,
    check_simplicial,
)
from .duality import (
    DualityOperator,
    ProductDuality,
    duality_operator,
    transfers,
)
from .errors import (
    ApproximationUnavailable,
    DegreeMismatch,
    DimensionMismatch,
    NotSimplicial,
)
from .exactlin import ONE, ZERO, dense_mul, dense_trace, lp_feasible, qstr
from .homology import (
    COHOMOLOGY,
    GradedMap,
    HClass,
    Space,
    basis_class,
    kronecker,
)
from .products import (
    ProductSpace,
    TensorClass,
    augmentation_product,
    cap_on_product,
    cross,
    cup_on_product,
    diagonal_pullback,
    kronecker_product,
    product_map,
    product_space,
    tensor_fundamental,
)


@dataclass
class LefschetzClass:
    """Lambda_X with its dual-basis expansion."""

    space: Space
    product: ProductSpace  # X x X
    tensor: TensorClass
    expansion: list  # (degree, index, sign) summands


@dataclass
class EulerData:
    euler_class: HClass
    euler_number: Fraction
    combinatorial: int


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
        (q, i, (-ONE) ** q)
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
                expected = (
                    (-ONE) ** (n * q) * (-ONE) ** q if i == j else ZERO
                )
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
    if sigma.source is not space.cohomology or sigma.target is not space.cohomology:
        raise DegreeMismatch("lambda_X takes a graded map from H^*(X) to itself")
    n = d.n
    terms = {}
    for q in range(n + 1):
        m = sigma.matrix(q)
        if not m:
            continue
        duals = d.dual_basis(q)
        sign = (-ONE) ** q
        for i in range(len(m)):
            for j in range(len(m[0])):
                v = m[i][j]
                if v == 0:
                    continue
                piece = cross(duals[i], basis_class(space.cohomology, q, j), prod)
                for key, c in piece.terms.items():
                    terms[key] = terms.get(key, ZERO) + sign * v * c
    return TensorClass(prod, COHOMOLOGY, n, terms)._clean()


def graded_trace(matrix_of_degree, n) -> Fraction:
    """Tr = sum_q (-1)^q tr M_q over degrees 0..n, M_q = matrix_of_degree(q)."""
    total = ZERO
    for q in range(n + 1):
        total += (-ONE) ** q * dense_trace(matrix_of_degree(q))
    return total


def lefschetz_iso_and_trace(d: DualityOperator, prod: ProductSpace, sigma: GradedMap):
    """Both sides of the trace formula; their equality is asserted."""
    tensor = lefschetz_iso(d, prod, sigma)
    tr = graded_trace(sigma.matrix, d.n)
    paired = kronecker(diagonal_pullback(tensor, d.space), d.fundamental.cls)
    if paired != tr:
        raise AssertionError(
            f"trace formula violated: pairing {qstr(paired)} vs trace {qstr(tr)}"
        )
    return tensor, tr


# ---------------------------------------------------------------------------
# coincidence numbers
# ---------------------------------------------------------------------------


@dataclass
class CoincidenceReport:
    f_name: str
    g_name: str
    dimension: int
    lambdas: dict  # formula label -> Fraction
    consistent: bool
    value: Fraction
    witness: GeometricPoint | None = None
    witness_status: str | None = None
    subdivision_level: int | None = None

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
    tg = transfers(g, dx, dy)
    f_low, f_up = tf.push, tf.pull
    g_low, g_up = tg.push, tg.pull

    # The four alternating traces.  The composites act on H^q(X), H^{n-q}(Y),
    # H_{n-q}(X) and H_q(Y) respectively: conjugating through duality shifts
    # the degree a trace lives in, and the indexings below are the ones that
    # make all four sums equal on the nose (the complementary choice flips
    # the total by (-1)^n).
    lambdas = {}
    lambdas["tr(f*.g!)"] = graded_trace(
        lambda q: dense_mul(f_up.matrix(q), tg.up_matrix(q)), n
    )
    lambdas["tr(f!.g*)"] = graded_trace(
        lambda q: dense_mul(tf.up_matrix(n - q), g_up.matrix(n - q)), n
    )
    lambdas["tr(f_!.g_*)"] = graded_trace(
        lambda q: dense_mul(tf.down_matrix(n - q), g_low.matrix(n - q)), n
    )
    lambdas["tr(f_*.g_!)"] = graded_trace(
        lambda q: dense_mul(f_low.matrix(q), tg.down_matrix(q)), n
    )

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
    zz_xx = tensor_fundamental(prod_xx, dx.fundamental.cls, dx.fundamental.cls)
    diag = cap_on_product(lam_x.tensor, zz_xx)  # Delta_*(zeta_X) in H_n(X x X)
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


def _affine_image(f: SimplicialMap, position: dict) -> dict:
    """Push an exact barycentric position through |f|.

    ``position`` maps domain vertex names to weights; the image maps
    codomain vertex names to weights (codomain vertices sit at standard
    basis points of the reference space).
    """
    out = {}
    names = f.vertex_map_names()
    for v, w in position.items():
        img = names[v]
        out[img] = out.get(img, ZERO) + w
    return {k: v for k, v in out.items() if v != 0}


def _search_complex(f, g, x):
    """Vertex weights of the first solution of |f|(x) = |g|(x), or None.

    One exact feasibility problem per maximal simplex of x, largest first.
    """
    f_names, g_names = f.vertex_map_names(), g.vertex_map_names()
    for simplex in sorted(x.maximal_simplices(), key=lambda s: (-len(s), s)):
        verts = x.simplex_names(simplex)
        k = len(verts)
        targets = sorted({f_names[v] for v in verts} | {g_names[v] for v in verts})
        cons = [([ONE] * k, "==", ONE)]
        for i in range(k):
            coeffs = [ZERO] * k
            coeffs[i] = ONE
            cons.append((coeffs, ">=", ZERO))
        for w in targets:
            coeffs = [
                (ONE if f_names[v] == w else ZERO) - (ONE if g_names[v] == w else ZERO)
                for v in verts
            ]
            cons.append((coeffs, "==", ZERO))
        sol = lp_feasible(cons, k)
        if sol is not None:
            return {v: t for v, t in zip(verts, sol) if t != 0}
    return None


def subdivide_map(f: SimplicialMap, sd: SimplicialComplex, provenance: dict) -> SimplicialMap:
    """Simplicial approximation of f on the subdivided domain.

    Each barycenter maps to the last vertex (in the codomain order) of the
    image simplex; for simplicial f this is always simplicial, and a
    failure is reported as ApproximationUnavailable.
    """
    names = f.vertex_map_names()
    vm = {}
    for new_vertex, orig_simplex in provenance.items():
        images = sorted(
            {names[v] for v in orig_simplex},
            key=lambda w: f.codomain.vertex_index[w],
        )
        vm[new_vertex] = images[-1]
    try:
        return check_simplicial(vm, sd, f.codomain, name=f"Sd({f.name})")
    except NotSimplicial as exc:
        raise ApproximationUnavailable(
            f"subdivided map {f.name!r} is no longer simplicial: {exc}"
        ) from exc


def coincidence_witness(f: SimplicialMap, g: SimplicialMap):
    """Exact coincidence point of |f| and |g|, or None.

    Returns (point, status).  |f| and |g| are affine on every closed
    simplex of X, so the per-simplex affine systems on X's own maximal
    simplices are complete: a coincidence exists iff one of them is
    feasible.  The returned point satisfies |f|(x) = |g|(x) exactly.
    """
    if f.domain is not g.domain:
        raise DimensionMismatch("witness search needs a common domain")
    combined = _search_complex(f, g, f.domain)
    if combined is None:
        return None, "search-exhausted"
    point = _as_geometric_point(f.domain, combined)
    _verify_witness(f, g, point)
    return point, "found"


def _as_geometric_point(x0: SimplicialComplex, combined: dict) -> GeometricPoint:
    support = sorted(combined, key=lambda v: x0.vertex_index[v])
    carrier_idx = tuple(sorted(x0.vertex_index[v] for v in support))
    if not x0.has_simplex(carrier_idx):
        raise AssertionError("witness support does not span a simplex")
    coords = tuple(combined[v] for v in support)
    return GeometricPoint(carrier=tuple(support), coords=coords)


def _verify_witness(f: SimplicialMap, g: SimplicialMap, point: GeometricPoint):
    pos = dict(zip(point.carrier, point.coords))
    if _affine_image(f, pos) != _affine_image(g, pos):
        raise AssertionError("witness fails exact verification")
