"""simhom: exact simplicial (co)homology and Lefschetz coincidence numbers over Q."""

__version__ = "0.1.0"

from .complex import (
    GeometricPoint,
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivide,
    check_simplicial,
    compose,
    constant_map,
    identity_map,
    manifold_check,
    orient,
    validate,
)
from .chains import (
    Chain,
    ChainComplex,
    build_chain_complex,
    build_relative,
    cone,
    induced_chain_map,
    subdivision_chain_map,
)
from .homology import (
    GradedMap,
    GradedSpace,
    HClass,
    Space,
    augmentation,
    basis_class,
    compute_cohomology,
    compute_homology,
    excision_check,
    induced_map,
    kronecker,
    long_exact_sequence,
)
from .exactlin import Rational, SparseMatrix, kernel_basis, image_basis, lp_feasible, rank, solve
from .products import (
    ProductSpace,
    TensorClass,
    cap,
    cross,
    cross_h,
    cup,
    cup_on_product,
    cap_on_product,
    diagonal_pullback,
    product_space,
    unit_cocycle,
)
from .duality import (
    DualityOperator,
    FundamentalClass,
    ProductDuality,
    Transfer,
    degree,
    duality_operator,
    fundamental_class,
    intersection,
    transfers,
)
from .lefschetz import (
    CoincidenceReport,
    EulerData,
    LefschetzClass,
    coincidence_number,
    coincidence_witness,
    euler_data,
    lefschetz_class,
    lefschetz_iso_and_trace,
)
