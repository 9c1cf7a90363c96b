"""Subspace-fitting DOA estimation for uniform linear arrays.

MODE, PUMA, and MODEX/Enhanced-PUMA estimators over the polynomial
coefficient parameterization of the array steering matrix, together with
numerical certification that the PUMA and MODE criterion functions are
one and the same.
"""

from .array_model import (
    angles_from_coefs,
    coefs_from_angles,
    projector_from_annihilator,
    projector_from_steering,
    steering_matrix,
    toeplitz_annihilator,
)
from .criteria import CriterionValue, v_ml_angles, v_ml_coefs, v_mode, v_puma, vec
from .errors import DimensionError, NumericalError, SingularityError, ValidationError
from .estimators import (
    EstimationResult,
    EstimatorConfig,
    estimate,
    estimate_many,
    match_angles,
    quadratic_form_matrix,
)
from .sample_stats import (
    Scenario,
    SubspaceDecomposition,
    sample_covariance,
    signal_weight,
    simulate_snapshots,
    subspace_decomposition,
    true_covariance,
)

__version__ = "0.1.0"

__all__ = [
    "CriterionValue",
    "DimensionError",
    "EstimationResult",
    "EstimatorConfig",
    "NumericalError",
    "Scenario",
    "SingularityError",
    "SubspaceDecomposition",
    "ValidationError",
    "angles_from_coefs",
    "coefs_from_angles",
    "estimate",
    "estimate_many",
    "match_angles",
    "projector_from_annihilator",
    "projector_from_steering",
    "quadratic_form_matrix",
    "sample_covariance",
    "signal_weight",
    "simulate_snapshots",
    "steering_matrix",
    "subspace_decomposition",
    "toeplitz_annihilator",
    "true_covariance",
    "v_ml_angles",
    "v_ml_coefs",
    "v_mode",
    "v_puma",
    "vec",
]
