"""Information bounds for parametric quantum channels.

Compute and cross-validate the classical Fisher information, the SLD quantum
information and the canonical Kraus-derivative channel bound for one- and
multi-parameter channels; decide attainability; construct optimal POVMs; and
verify the bounds empirically with seeded Monte-Carlo estimation.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    CanonicalKraus,
    ConditionReport,
    SpectralCurve,
    attainability_check,
    bound_gap,
    bound_report,
    canonical_kraus,
    fisher_information,
    optimal_povm_from_sld,
    povm_sld_condition_check,
    povm_sm_condition_check,
    remixing_penalty,
    sld_information,
    sld_score,
    sm_bound_kraus,
    sm_bound_spectral,
    spectral_curve,
    unitary_condition,
)
from .channels import (
    ParametricChannel,
    SpectralData,
    builtin,
    custom_spectral,
    directional_channel,
    kraus_derivative,
    random_kraus_channel,
    remix_channel,
)
from .errors import (
    ConsistencyError,
    DegeneracyError,
    NumericError,
    SingularTermError,
    SpecFormatError,
    ValidationError,
)
from .estimation import (
    AdaptiveConfig,
    EstimationRun,
    InputOptimum,
    MLEResult,
    adaptive_experiment,
    adaptive_two_stage,
    cr_experiment,
    mle_estimate,
    optimize_input_state,
    sample_outcomes,
)
from .linalg import (
    DiffConfig,
    EigenSystem,
    differentiate_curve,
    hermitian_eigendecompose,
    loewner_leq,
    psd_sqrt,
)
from .multiparam import (
    InfoMatrix,
    LoewnerReport,
    directional_reduction_check,
    fisher_matrix,
    loewner_report,
    multi_attainability_check,
    pinv_with_rank,
    sld_matrix,
    sm_matrix,
)
from .quantum import (
    POVM,
    DensityMatrix,
    KrausSet,
    PureState,
    apply_channel,
    basis_povm,
    computational_basis_povm,
    measurement_distribution,
    pauli_basis_povm,
    validate,
)
from .specfile import ChannelSpec, parse_channel_spec
