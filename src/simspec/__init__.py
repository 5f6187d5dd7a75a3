"""Certified spectral analysis of perturbed diagonal operators.

The package turns a diagonal operator plus a summable perturbation into
a similar operator that is block diagonal along the spectral groups,
with explicit contraction certificates, weighted remainder bounds and
an independent eigensolver to check everything against.
"""

from .errors import (
    AssumptionViolationError,
    ConditionViolationError,
    ContractionViolationError,
    DegenerateWeightError,
    InvalidInputError,
    InvariantBreachError,
    MethodConditionError,
    NonConvergenceError,
    NotInvertibleError,
    OracleFailureError,
    ParseError,
    PartitionMismatchError,
    ResolutionError,
    SimspecError,
    WindowTooSmallError,
)
from .models import (
    MODELS,
    ModelProblem,
    dirac_model,
    hill_model,
    involution_model,
    involution_offdiag_energy,
    kernel_model,
    kernel_split_constants,
    random_trig_coeffs,
)
from .opmatrix import (
    BlockMatrix,
    LowRank,
    Partition,
    Spectrum,
)
from .similarity import (
    PIPELINES,
    FixedPointResult,
    SimilarityResult,
    block_eigenvalue_estimates,
    diagonal_asymptotics,
    fixed_point,
    pipeline_block_norm,
    pipeline_contraction,
    pipeline_coarse,
    pipeline_rebase,
    preliminary_transform,
    similarity_residual,
)
from .splitting import (
    SplitBounds,
    SplitResult,
    certificate_from_constants,
    operator_norm_condition,
    split_certificate,
    split_eigenpair,
    split_system,
)
from .transforms import (
    block_diagonal,
    commutator_inverse,
    commutator_residual,
    off_diagonal_part,
)
from .verify import (
    SpectrumMatch,
    SpectrumReport,
    build_spectrum_report,
    charpoly_eigenvalues,
    match_spectra,
    oracle_eigenvalues,
    projection_compare,
)
from .weighted import (
    WeightSequence,
    decay_weights,
    factorize,
    select_coarsening,
)

__version__ = "0.1.0"
