"""fractalhull: polytope decisions for convex hulls of self-affine fractals.

A self-affine fractal here is the attractor F of the maps x -> T(x + d_j)
for one contracting matrix T and a finite digit set (d_1 = 0).  The package
decides, with a hard bound on the work, whether conv(F) is a polytope and,
when it is, produces its exact vertices together with the eventually periodic
digit addresses that certify them.
"""

from ._version import __version__
from .decide import (
    CertResult,
    Decision,
    Report,
    analyze_model,
    certify_polytope,
    cross_check,
    decide_polytope,
    extract_ep_addresses,
    hull_steps,
)
from .errors import (
    DegeneratePolytope,
    DimensionMismatch,
    EnumerationBudgetExceeded,
    ExtractionFailure,
    FractalHullError,
    ModeMismatch,
    ModelValidationError,
    NonSingularityFailed,
    NotContractingFailed,
    SingularMatrix,
    UnsupportedDimension,
)
from .hull import Polytope, contains, convex_hull, facet_normals, hausdorff
from .ifs import (
    EpAddress,
    IfsModel,
    VertexLedger,
    attractor_radius_bound,
    brute_force_vertices,
    evaluate_ep_address,
    evaluate_ep_addresses,
    evaluate_finite_address,
    initial_ledger,
    tail_error_bound,
    validate_model,
)
from .linalg import FLOAT, RATIONAL, ToleranceConfig
from .spectral import (
    EigenvalueClass,
    StepBound,
    classify_angle,
    compute_step_bound,
    facet_normal_criterion,
    validate_spectrum,
)

__all__ = [
    "__version__",
    "analyze_model",
    "attractor_radius_bound",
    "brute_force_vertices",
    "certify_polytope",
    "classify_angle",
    "compute_step_bound",
    "contains",
    "convex_hull",
    "cross_check",
    "decide_polytope",
    "evaluate_ep_address",
    "evaluate_ep_addresses",
    "evaluate_finite_address",
    "extract_ep_addresses",
    "facet_normal_criterion",
    "facet_normals",
    "hausdorff",
    "hull_steps",
    "initial_ledger",
    "tail_error_bound",
    "validate_model",
    "validate_spectrum",
    "CertResult",
    "Decision",
    "DegeneratePolytope",
    "DimensionMismatch",
    "EigenvalueClass",
    "EnumerationBudgetExceeded",
    "EpAddress",
    "ExtractionFailure",
    "FLOAT",
    "FractalHullError",
    "IfsModel",
    "ModeMismatch",
    "ModelValidationError",
    "NonSingularityFailed",
    "NotContractingFailed",
    "Polytope",
    "RATIONAL",
    "Report",
    "SingularMatrix",
    "StepBound",
    "ToleranceConfig",
    "UnsupportedDimension",
    "VertexLedger",
]
