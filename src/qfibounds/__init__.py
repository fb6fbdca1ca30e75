"""Information bounds for parametric quantum channels.

Compute and cross-validate the classical Fisher information, the SLD quantum
information and the canonical Kraus-derivative channel bound for one- and
multi-parameter channels; decide attainability; construct optimal POVMs; and
verify the bounds empirically with seeded Monte-Carlo estimation.
"""

__version__ = "0.1.0"

from .bounds import (
    bound_gap,
    bound_report,
    canonical_kraus,
    fisher_information,
    povm_sld_condition_check,
    sld_information,
    sld_score,
    sm_bound_spectral,
    spectral_curve,
    unitary_condition,
)
from .channels import ParametricChannel, SpectralData, builtin, directional_channel
from .errors import (
    ConsistencyError,
    DegeneracyError,
    NumericError,
    SingularTermError,
    SpecFormatError,
    ValidationError,
)
from .estimation import optimize_input_state
from .quantum import PureState, pauli_basis_povm
from .verify import directional_reduction_check
