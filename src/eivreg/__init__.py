"""Closed-form estimation for the multivariate errors-in-variables regression
model: slope, intercept, and mean vectors, with the corrected least-squares
mean-vector estimator, known error-covariance shapes on the same closed forms,
an independent numerical certification layer, and Monte Carlo tooling.
"""

__version__ = "0.1.0"

from .estimators import (
    FitResult,
    estimate_b,
    estimate_u1_corrected,
    fit,
    legacy_means,
    legacy_u1,
)
from .exceptions import (
    DegenerateSubspaceWarning,
    DimensionMismatchError,
    ExcessiveSkipsError,
    NotPositiveDefiniteError,
    ParseError,
    UnidentifiableError,
    ValidationError,
)
from .model_core import (
    EigenStructure,
    ModelKind,
    ModelSpec,
    ObservedData,
    scatter_matrix,
    signal_eigenstructure,
)
from .oracle import (
    OracleReport,
    glse_gradient_check,
    perturbation_probe,
    project_columns_oracle,
)
from .simulate import (
    ConsistencyReport,
    ErrorKind,
    SyntheticTruth,
    consistency_experiment,
    default_mean_grid,
    generate_dataset,
    random_truth,
)

__all__ = [
    "__version__",
    "ConsistencyReport",
    "DegenerateSubspaceWarning",
    "DimensionMismatchError",
    "EigenStructure",
    "ErrorKind",
    "ExcessiveSkipsError",
    "FitResult",
    "ModelKind",
    "ModelSpec",
    "NotPositiveDefiniteError",
    "ObservedData",
    "OracleReport",
    "ParseError",
    "SyntheticTruth",
    "UnidentifiableError",
    "ValidationError",
    "consistency_experiment",
    "default_mean_grid",
    "estimate_b",
    "estimate_u1_corrected",
    "fit",
    "generate_dataset",
    "glse_gradient_check",
    "legacy_means",
    "legacy_u1",
    "perturbation_probe",
    "project_columns_oracle",
    "random_truth",
    "scatter_matrix",
    "signal_eigenstructure",
]
