"""Growth curve model estimation and verification tools.

Two-stage generalized least squares for Y = X Theta Z' + E with Kronecker
covariance I_n x Sigma: the invariant quadratic first stage, the plug-in
second stage for gamma = C Theta D', its large-sample law, a chi-square
test of gamma = 0 and a Monte Carlo harness that exercises all of it.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateTimes,
    DimensionMismatch,
    GcmError,
    InvalidNoise,
    InvalidValue,
    MatrixParseError,
    NotSpd,
    RankDeficient,
    ShapeViolation,
    TooFewSamples,
    ValidationError,
)
from .model import (
    Contrast,
    Dataset,
    Design,
    NoiseSpec,
    equality_contrast,
    potthoff_roy_design,
    shift,
    simulate,
    validate,
)
from .estimators import (
    h_matrix,
    sigma_hat,
    theta_hat_known,
    two_stage,
    two_stage_gamma,
    two_stage_gamma_pinv,
    two_stage_theta,
)
from .inference import (
    AsymptoticLaw,
    TestResult,
    chi_sq_p_value,
    cov_factors,
    plugin_cov,
    standard_errors,
    standardized_stat,
    test_gamma_zero,
)
from .mc import McConfig, Scenario

__all__ = [
    "__version__",
    "GcmError",
    "ValidationError",
    "InvalidValue",
    "RankDeficient",
    "ShapeViolation",
    "DimensionMismatch",
    "InvalidNoise",
    "DegenerateTimes",
    "ConfigError",
    "MatrixParseError",
    "TooFewSamples",
    "NotSpd",
    "Design",
    "Contrast",
    "NoiseSpec",
    "Dataset",
    "simulate",
    "shift",
    "potthoff_roy_design",
    "equality_contrast",
    "validate",
    "sigma_hat",
    "theta_hat_known",
    "h_matrix",
    "two_stage",
    "two_stage_theta",
    "two_stage_gamma",
    "two_stage_gamma_pinv",
    "AsymptoticLaw",
    "TestResult",
    "cov_factors",
    "plugin_cov",
    "standard_errors",
    "standardized_stat",
    "chi_sq_p_value",
    "test_gamma_zero",
    "Scenario",
    "McConfig",
]
