"""The certification checks of a fit, each as a ratio of deviation to limit;
at most 1 passes. ``eivreg verify`` and the tests share these functions, so
each limit is written once: here, or in ``oracle`` for the agreement and
stationarity checks, whose (deviation, limit) pairs the probe's verdict reads
too. Those two hold under a covariance shape as well; ``check_fit`` takes
fits without one. Each takes the fit alone and reads the data it fitted from
``result.data``."""

from __future__ import annotations

import numpy as np

from . import oracle
from .estimators import FitResult, legacy_u1
from .exceptions import ValidationError
from .model_core import ModelKind

# the rows of the `eivreg verify` table, in the order it prints them
NAMES = (
    "mean-shift-identity",
    "slope-gram-identity",
    "no-intercept-coincidence",
    "oracle-agreement",
    "glse-stationarity",
)


def _max_abs(x) -> float:
    return float(np.max(np.abs(x)))


def mean_shift(result: FitResult) -> float:
    """Corrected minus legacy means against the mean shift, to 1e-12 of the
    predictors' scale, max|X1 - xbar1 1'| + max|xbar1|: the per-row
    predictor means with an intercept, zero without one."""
    data = result.data
    legacy = legacy_u1(data, result.eigenstructure, result.kind)
    shift = data.row_means[: data.p, None] if result.kind is ModelKind.INTERCEPT else 0.0
    return _max_abs(result.u1_hat - legacy - shift) / (1e-12 * oracle.predictor_scale(data))


def slope_gram(result: FitResult) -> float:
    """B'B against g11^{-T} g11^{-1} - I, 1e-9 relative to B'B."""
    gram = result.b_hat.T @ result.b_hat
    inverse_g11 = np.linalg.solve(result.eigenstructure.g11, np.eye(result.data.p))
    identity_form = inverse_g11.T @ inverse_g11 - np.eye(result.data.p)
    return _max_abs(gram - identity_form) / (1e-9 * max(1.0, _max_abs(gram)))


def oracle_agreement(result: FitResult) -> float:
    """Fitted means against the per-column oracle's, weighted by ``result.sigma0``;
    a zero deviation reads 0."""
    deviation, limit = oracle.agreement_check(result)
    return deviation / limit if deviation else 0.0


def glse_stationarity(result: FitResult) -> float:
    """Exact gradient of the normalized-residual objective over the free
    parameters, each entry over the size of its terms, whitened by
    ``result.sigma0`` when the fit has one."""
    view, alpha, b, _, _ = oracle._working_view(result)
    deviation, limit = oracle.stationarity_check(view, alpha, b, result.kind)
    return deviation / limit


def check_fit(result: FitResult) -> dict:
    """Every invariant's ratio by row name, in evaluation order, for a fit
    without sigma0 (else ``ValidationError``), on the data it fitted;
    stationarity is left out when the signal subspace is degenerate."""
    if result.sigma0 is not None:
        raise ValidationError("the invariants take a fit without sigma0")
    shift_name = NAMES[0] if result.kind is ModelKind.INTERCEPT else NAMES[2]
    ratios = {
        shift_name: mean_shift(result),
        "slope-gram-identity": slope_gram(result),
        "oracle-agreement": oracle_agreement(result),
    }
    if not result.eigenstructure.degenerate:
        ratios["glse-stationarity"] = glse_stationarity(result)
    return ratios
