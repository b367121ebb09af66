"""Exact linearizations of quadratic two-parameter matrix polynomials.

The library builds the vector space of linear two-parameter pencils
attached to a quadratic Q(lam, mu), certifies which members are genuine
linearizations (explicit unimodular transformations or exact determinant
ratios), and linearizes pairs of quadratics into two-parameter eigenvalue
problems whose spectra and operator determinants it verifies at desk
scale.  All structural checks run over the Gaussian rationals; floating
point appears only in the float stage of a spectrum (its root iteration
imports numpy at its first call) and in the size of a residual that is not
exactly zero.  Importing the package loads neither numpy nor dataclasses:
its records are NamedTuples.
"""

from .bipoly import BiPoly, UniPoly
from .construct import (
    AnsatzTransform,
    LinearizationCertificate,
    ProcedureResult,
    ansatz_transform,
    best_certificate,
    certify_det_ratio,
    certify_scaled_e1,
    certify_standard,
    condition_det_check,
    procedure_linearize,
)
from .errors import (
    ConditionUnsatisfiableError,
    ConvergenceError,
    DegreeError,
    HypothesisViolatedError,
    NonGenericSystemError,
    ParseError,
    ShapeError,
    ZeroAnsatzError,
)
from .matrices import Matrix, kron
from .pencil import (
    CorrespondenceReport,
    Pencil2P,
    QuadPoly2P,
    apply_to_lambda,
    box_add,
    box_add_pencil,
    eigenvector_correspondence,
    lambda_kron_identity,
)
from .polymatrix import PolyMatrix, det_ratio, exact_det_poly
from .qep import (
    DeltaOps,
    EigenpairReport,
    LinearSystem2P,
    QuadSystem2P,
    SpectrumPoint,
    SpectrumReport,
    delta0_operator,
    delta0_singularity,
    delta_operators,
    linearize_system,
    singularity_check,
    spectrum_pencil,
    spectrum_quadratic,
    verify_eigenpair,
    verify_spectral_equality,
)
from .resultants import sylvester_resultant
from .roots import durand_kerner, unipoly_roots
from .scalars import GaussianRational
from .space import (
    DimensionSummary,
    FreeBlocks,
    MembershipResult,
    SingleParamPencil,
    generate_member,
    kernel_member,
    membership,
    reduce_mu_zero,
    space_dimension,
    standard_blocks,
    standard_linearization,
)

__version__ = "0.1.0"

__all__ = [
    "AnsatzTransform",
    "BiPoly",
    "ConditionUnsatisfiableError",
    "ConvergenceError",
    "CorrespondenceReport",
    "DegreeError",
    "DeltaOps",
    "DimensionSummary",
    "EigenpairReport",
    "FreeBlocks",
    "GaussianRational",
    "HypothesisViolatedError",
    "LinearSystem2P",
    "LinearizationCertificate",
    "Matrix",
    "MembershipResult",
    "NonGenericSystemError",
    "ParseError",
    "Pencil2P",
    "PolyMatrix",
    "ProcedureResult",
    "QuadPoly2P",
    "QuadSystem2P",
    "ShapeError",
    "SingleParamPencil",
    "SpectrumPoint",
    "SpectrumReport",
    "UniPoly",
    "ZeroAnsatzError",
    "ansatz_transform",
    "apply_to_lambda",
    "best_certificate",
    "box_add",
    "box_add_pencil",
    "certify_det_ratio",
    "certify_scaled_e1",
    "certify_standard",
    "condition_det_check",
    "delta0_operator",
    "delta0_singularity",
    "delta_operators",
    "det_ratio",
    "durand_kerner",
    "eigenvector_correspondence",
    "exact_det_poly",
    "generate_member",
    "kernel_member",
    "kron",
    "lambda_kron_identity",
    "linearize_system",
    "membership",
    "procedure_linearize",
    "reduce_mu_zero",
    "singularity_check",
    "space_dimension",
    "spectrum_pencil",
    "spectrum_quadratic",
    "standard_blocks",
    "standard_linearization",
    "sylvester_resultant",
    "unipoly_roots",
    "verify_eigenpair",
    "verify_spectral_equality",
]
