"""The exact identities of a fit made without a covariance shape, each as a
ratio of deviation to limit; at most 1 passes. ``eivreg verify`` and the tests
share these functions, so each limit is written once: here, or in ``oracle``
for the two its verdict also applies."""

from __future__ import annotations

import numpy as np

from . import oracle
from .estimators import FitResult, estimate_u1_projection, legacy_u1
from .exceptions import ValidationError
from .model_core import ModelKind, ModelSpec, ObservedData

# the rows of the `eivreg verify` table, in the order it prints them
NAMES = (
    "mean-route-equivalence",
    "mean-shift-identity",
    "slope-gram-identity",
    "no-intercept-coincidence",
    "oracle-agreement",
    "glse-stationarity",
)


def _max_abs(x) -> float:
    return float(np.max(np.abs(x)))


def mean_route_equivalence(data: ObservedData, result: FitResult) -> float:
    """Eigenvector- against projection-route means, 1e-9 relative to max |X|."""
    projected = estimate_u1_projection(data, result.alpha_hat, result.b_hat)
    scale = max(1.0, _max_abs(data.x1), _max_abs(data.x2))
    return _max_abs(projected - result.u1_hat) / (1e-9 * scale)


def mean_shift(data: ObservedData, result: FitResult) -> float:
    """Corrected minus legacy means against the mean shift, to 1e-12: the
    per-row predictor means with an intercept, zero without one."""
    legacy = legacy_u1(data, result.eigenstructure, result.kind)
    shift = data.x1.mean(axis=1, keepdims=True) if result.kind is ModelKind.INTERCEPT else 0.0
    return _max_abs(result.u1_hat - legacy - shift) / 1e-12


def slope_gram(data: ObservedData, result: FitResult) -> float:
    """B'B against g11^{-T} g11^{-1} - I, 1e-9 relative to B'B."""
    gram = result.b_hat.T @ result.b_hat
    inverse_g11 = np.linalg.solve(result.eigenstructure.g11, np.eye(data.p))
    identity_form = inverse_g11.T @ inverse_g11 - np.eye(data.p)
    return _max_abs(gram - identity_form) / (1e-9 * max(1.0, _max_abs(gram)))


def oracle_agreement(data: ObservedData, result: FitResult) -> float:
    """Fitted means against the per-column oracle's, weighted by ``result.sigma0``."""
    oracle_u1 = oracle.project_columns_oracle(data, result.alpha_hat, result.b_hat, result.sigma0)
    return _max_abs(oracle_u1 - result.u1_hat) / oracle.agreement_limit(result.u1_hat)


def glse_stationarity(data: ObservedData, result: FitResult) -> float:
    """Finite-difference gradient of the normalized-residual objective over
    the free parameters (the intercept is not one without an intercept)."""
    gradient = oracle.glse_gradient_check(data, result.alpha_hat, result.b_hat)
    if result.kind is ModelKind.NO_INTERCEPT:
        gradient = gradient[data.r :]
    return _max_abs(gradient) / oracle.stationarity_limit(result.glse_objective)


def check_fit(data: ObservedData, spec: ModelSpec, result: FitResult) -> dict:
    """Every invariant's ratio by row name, in evaluation order; stationarity
    is left out when the signal subspace is degenerate."""
    if spec.sigma0 is not None or result.kind is not spec.kind:
        raise ValidationError("the invariants take a fit under this model without sigma0")
    shift_name = NAMES[1] if spec.kind is ModelKind.INTERCEPT else NAMES[3]
    ratios = {
        "mean-route-equivalence": mean_route_equivalence(data, result),
        shift_name: mean_shift(data, result),
        "slope-gram-identity": slope_gram(data, result),
        "oracle-agreement": oracle_agreement(data, result),
    }
    if not result.eigenstructure.degenerate:
        ratios["glse-stationarity"] = glse_stationarity(data, result)
    return ratios
