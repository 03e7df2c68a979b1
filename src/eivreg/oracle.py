"""Independent certification layer for the fitted estimators.

Re-derives the mean-vector estimate by brute-force per-column constrained
least squares, checks stationarity of the normalized-residual objective by
central finite differences, and probes optimality of the full least-squares
objective with random perturbations. Everything here assembles its own
objectives and normal equations from the model definition; none of the
estimator module's closed-form identities are reused, which is what makes the
agreement checks meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import FitResult, sigma0_symmetric_roots
from .exceptions import ValidationError
from .model_core import ModelKind, ObservedData

PERTURBATION_SLACK = 1e-12
AGREEMENT_TOL = 1e-9


@dataclass(frozen=True)
class OracleReport:
    """Outcome of the full certification suite for one fit.

    ``passed`` requires: oracle/estimator mean agreement within tolerance,
    near-zero objective gradient at the fitted parameters, no perturbation
    that lowers the least-squares objective, and a legacy-estimate objective
    no better than the corrected one.
    """

    max_abs_deviation: float
    gradient_max_abs: float
    perturbation_violations: int
    legacy_objective_excess: float
    passed: bool


def project_columns_oracle(data: ObservedData, alpha, b, sigma0=None) -> np.ndarray:
    """Brute-force mean-vector estimate by per-column constrained least squares.

    For each observation column independently, minimizes the (optionally
    covariance-weighted) squared distance between the column and a point of
    the model's affine graph set, by assembling and solving the normal
    equations of the stacked map from scratch. The normal matrix is the same
    for every column, so all n systems go to one solve, one right-hand side
    per column. Deliberately shares no code with the estimator module's
    closed forms.
    """
    alpha = np.asarray(alpha, dtype=float)
    b = np.asarray(b, dtype=float)
    p = data.p
    graph_map = np.vstack([np.eye(p), b])
    shifted = data.stacked()
    shifted[p:] -= alpha[:, None]
    weighted = graph_map if sigma0 is None else np.linalg.solve(sigma0, graph_map)
    normal = graph_map.T @ weighted
    # column i of the right-hand side holds column i's own normal equations
    return np.linalg.solve(normal, weighted.T @ shifted)


def agreement_limit(u1_hat, tol: float = AGREEMENT_TOL) -> float:
    """Largest passing oracle/estimator mean deviation: ``tol`` relative to the means."""
    return tol * max(1.0, float(np.max(np.abs(u1_hat))))


def stationarity_limit(glse_objective: float) -> float:
    """Largest passing gradient entry: 1e-5 relative to the GLSE objective."""
    return 1e-5 * max(1.0, glse_objective)


def _olse_objective(data: ObservedData, alpha, b, u1) -> float:
    """Squared Frobenius norm of the full residual, assembled locally."""
    top = data.x1 - u1
    bottom = data.x2 - np.asarray(alpha, dtype=float)[:, None] - b @ u1
    return float(np.sum(top * top) + np.sum(bottom * bottom))


def _glse_objective(data: ObservedData, alpha, b) -> float:
    """Squared Frobenius norm of the normalized response residual.

    Uses the trace identity res' (I + BB')^{-1} res instead of an explicit
    square root; the objective is invariant to that choice.
    """
    res = data.x2 - np.asarray(alpha, dtype=float)[:, None] - b @ data.x1
    return float(np.sum(res * np.linalg.solve(np.eye(data.r) + b @ b.T, res)))


def glse_gradient_check(data: ObservedData, alpha, b, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of the normalized-residual objective.

    Returns the gradient estimate over the intercept coordinates followed by
    the slope coordinates in row-major order (length r + r*p). At the fitted
    parameters of a well-conditioned instance every component should vanish
    to within finite-difference accuracy.
    """
    if not 1e-9 <= step <= 1e-3:
        raise ValidationError(f"step must lie in [1e-9, 1e-3], got {step}")
    alpha = np.asarray(alpha, dtype=float)
    b = np.asarray(b, dtype=float)
    theta = np.concatenate([alpha, b.ravel()])

    def objective(t):
        return _glse_objective(data, t[: alpha.size], t[alpha.size :].reshape(b.shape))

    gradient = np.empty(theta.size)
    for k in range(theta.size):
        plus, minus = theta.copy(), theta.copy()
        plus[k] += step
        minus[k] -= step
        gradient[k] = (objective(plus) - objective(minus)) / (2.0 * step)
    return gradient


def _whitened_view(data, fit_result, sigma0):
    """Re-express the data and the fitted triple in whitened coordinates,
    where the identity-shape least-squares criteria apply."""
    _, inv_root = sigma0_symmetric_roots(sigma0)
    xw = inv_root @ data.stacked()
    wdata = ObservedData(x1=xw[: data.p], x2=xw[data.p :])
    mapped = inv_root @ np.vstack([np.eye(data.p), fit_result.b_hat])
    b_white = np.linalg.solve(mapped[: data.p].T, mapped[data.p :].T).T
    if fit_result.kind is ModelKind.INTERCEPT:
        alpha_white = wdata.x2.mean(axis=1) - b_white @ wdata.x1.mean(axis=1)
    else:
        alpha_white = np.zeros(data.r)
    u_white = inv_root @ np.vstack([fit_result.u1_hat, fit_result.u2_hat])
    return wdata, alpha_white, b_white, u_white[: data.p]


def perturbation_probe(
    data: ObservedData,
    fit_result: FitResult,
    trials: int,
    scale: float,
    seed: int,
    *,
    tol: float = AGREEMENT_TOL,
    grad_step: float = 1e-6,
) -> OracleReport:
    """Run the full certification suite against a fit.

    Draws ``trials`` random perturbations of the fitted parameters and mean
    vectors (Gaussian, per-entry standard deviation ``scale`` times one plus
    the entry magnitude; the intercept is only perturbed when the model has
    one) and counts perturbations that lower the least-squares objective
    beyond roundoff slack. Each trial's stream derives deterministically from
    (seed, trial index), so results do not depend on evaluation order. Also
    re-derives the mean vectors with the per-column oracle, measures the
    finite-difference gradient at the fitted parameters, and evaluates how
    much worse the legacy mean estimate scores.

    For a fit under a known covariance shape (``fit_result.sigma0``), the
    deviation check weighs distances by it and the objective-based checks
    run in whitened coordinates, where the fit's least-squares criteria live.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if not scale > 0:
        raise ValidationError(f"scale must be positive, got {scale}")
    if seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed}")

    sigma0 = fit_result.sigma0
    oracle_u1 = project_columns_oracle(data, fit_result.alpha_hat, fit_result.b_hat, sigma0)
    max_abs_deviation = float(np.max(np.abs(oracle_u1 - fit_result.u1_hat)))

    if sigma0 is None:
        view_data = data
        alpha = np.asarray(fit_result.alpha_hat, dtype=float)
        b = np.asarray(fit_result.b_hat, dtype=float)
        u1 = np.asarray(fit_result.u1_hat, dtype=float)
    else:
        view_data, alpha, b, u1 = _whitened_view(data, fit_result, sigma0)

    base = _olse_objective(view_data, alpha, b, u1)
    slack = PERTURBATION_SLACK * max(1.0, base)
    perturb_alpha = fit_result.kind is ModelKind.INTERCEPT
    u1_spread = 1.0 + np.abs(u1)
    u1_t = np.empty(u1.shape)
    violations = 0
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        alpha_t = alpha
        if perturb_alpha:
            alpha_t = alpha + rng.normal(size=alpha.shape) * scale * (1.0 + np.abs(alpha))
        b_t = b + rng.normal(size=b.shape) * scale * (1.0 + np.abs(b))
        # in place, and in the same rounding order as u1 + z * scale * spread
        rng.standard_normal(out=u1_t)
        u1_t *= scale
        u1_t *= u1_spread
        u1_t += u1
        if _olse_objective(view_data, alpha_t, b_t, u1_t) < base - slack:
            violations += 1

    if fit_result.kind is ModelKind.INTERCEPT:
        legacy = u1 - view_data.x1.mean(axis=1, keepdims=True)
    else:
        legacy = u1
    legacy_objective_excess = _olse_objective(view_data, alpha, b, legacy) - base

    # only free parameters must be stationary: the intercept is a known
    # constant in the no-intercept model, so its coordinates are excluded
    gradient = glse_gradient_check(view_data, alpha, b, grad_step)
    if not perturb_alpha:
        gradient = gradient[alpha.size :]
    gradient_max_abs = float(np.max(np.abs(gradient)))
    glse_value = _glse_objective(view_data, alpha, b)

    passed = (
        max_abs_deviation <= agreement_limit(fit_result.u1_hat, tol)
        and gradient_max_abs <= stationarity_limit(glse_value)
        and violations == 0
        and legacy_objective_excess >= -PERTURBATION_SLACK
    )
    return OracleReport(
        max_abs_deviation=max_abs_deviation,
        gradient_max_abs=gradient_max_abs,
        perturbation_violations=violations,
        legacy_objective_excess=legacy_objective_excess,
        passed=passed,
    )
