"""Independent certification layer for the fitted estimators.

Re-derives the mean-vector estimate by brute-force per-column constrained
least squares, checks stationarity of the normalized-residual objective by
its exact gradient, taken from the objective's definition and read against
the size of its terms, and compares the full least-squares objective at the
fitted means with its value at the legacy means. Everything here assembles
its own objectives and normal equations from the model definition; none of
the estimator module's closed-form identities are reused, which is what
makes the agreement checks meaningful.

The gradient check reads the data once, into a residual
E = X2 - alpha 1' - B Z and its moments E E', M E' and the Gram matrix of
Z - zbar 1', where M = [1; Z - zbar 1']: the gradient of Gleser's (1981,
Ann. Statist.) objective is read off them. Centring Z keeps cancellation
relative to the objective, not to the magnitude of the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import FitResult
from .model_core import ModelKind, ObservedData, _forward

# Largest fall of the objective at the legacy means below the fit's, relative to the fit's.
EXCESS_SLACK = 1e-12
AGREEMENT_TOL = 1e-9
# Largest entry of the GLSE gradient over the size of its terms that a stationary fit may show.
STATIONARITY_TOL = 1e-9


@dataclass(frozen=True)
class OracleReport:
    """Outcome of the full certification suite for one fit.

    ``passed`` requires: oracle/estimator mean agreement within tolerance,
    near-zero objective gradient at the fitted parameters, and a
    legacy-estimate objective no better than the corrected one, within
    roundoff relative to it.
    """

    max_abs_deviation: float
    gradient_max_abs: float
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
    shifted = data.x - np.concatenate([np.zeros(p), alpha])[:, None]
    weighted = graph_map if sigma0 is None else np.linalg.solve(sigma0, graph_map)
    normal = graph_map.T @ weighted
    # column i of the right-hand side holds column i's own normal equations
    return np.linalg.solve(normal, weighted.T @ shifted)


def _olse_objective(data, alpha, b, u1) -> float:
    """Squared Frobenius norm of the full residual, assembled locally, squared in place."""
    top = data.x1 - u1
    bottom = data.x2 - np.asarray(alpha, dtype=float)[:, None]
    bottom -= b @ u1
    return float(np.sum(np.square(top, out=top)) + np.sum(np.square(bottom, out=bottom)))


def _glse_objective(data, alpha, b) -> float:
    """Squared Frobenius norm of the normalized response residual.

    Uses the trace identity res' (I + BB')^{-1} res instead of an explicit
    square root; the objective is invariant to that choice.
    """
    res = data.x2 - np.asarray(alpha, dtype=float)[:, None]
    res -= b @ data.x1
    weighted = np.linalg.solve(np.eye(data.r) + b @ b.T, res)
    return float(np.sum(np.multiply(weighted, res, out=weighted)))


def _mean_residual(x2_mean, alpha, b, z_mean):
    """x2bar - alpha - B zbar, each row summed exactly in rationals, rounded once."""
    # imported here: it imports decimal, which would add milliseconds to every start
    from fractions import Fraction

    z = [Fraction(v) for v in z_mean.tolist()]
    return np.array([
        float(Fraction(m) - Fraction(a) - sum(Fraction(c) * v for c, v in zip(row, z)))
        for m, a, row in zip(x2_mean.tolist(), alpha.tolist(), b.tolist())
    ])


def _expand(x2, alpha, b, z):
    """The residual E = X2 - alpha 1' - B Z, the mean zbar of the regressors
    Z, and the moments the gradient reads: with M = [1; Z - zbar 1'], the
    cross-moments C = M E', and the Gram matrix of Z - zbar 1'.

    E is formed as (X2 - x2bar 1') - B (Z - zbar 1') plus its mean
    x2bar - alpha - B zbar, rounded once. For data far from the origin the
    centring subtractions are exact, so E is rounded relative to the spread of
    the data, not to its offset, and carries no rounding bias common to all
    columns into the moments.
    """
    z_mean = z.mean(axis=1)
    x2_mean = x2.mean(axis=1)
    mean = _mean_residual(x2_mean, alpha, b, z_mean)
    centred = z - z_mean[:, None]
    residual = x2 - x2_mean[:, None]
    residual -= b @ centred
    residual += mean[:, None]
    cross = np.vstack([residual.sum(axis=1), centred @ residual.T])
    return residual, z_mean, cross, centred @ centred.T


def glse_gradient_check(data: ObservedData, alpha, b,
                        kind: ModelKind) -> tuple[np.ndarray, np.ndarray]:
    """(gradient, scale): the exact gradient of the GLSE objective
    tr(S^{-1} E E'), S = I + BB' and E = X2 - alpha 1' - B X1, over the free
    parameters of ``kind`` (the intercept, then the slope in row-major order;
    the slope alone without an intercept), and the size of each entry's terms.

    g_alpha = -2 S^{-1} E 1 and g_B = -2 S^{-1} E Z' - 2 S^{-1} E E' S^{-1} B,
    where Z is X1, centred with an intercept: a slope step there also moves
    alpha by -step * xbar1, so the slope turns about the centre of the data.
    Every term is a moment of ``_expand``'s one pass. With
    c = 2 (|E|_F + |B|_2 |Z|_F) / lambda_min(S), the scale is
    c |Z|_F + max|2 S^{-1} E E' S^{-1} B| for the slope and c sqrt(n) for the
    intercept, so gradient / scale does not depend on the data's units.
    """
    alpha, b = np.asarray(alpha, dtype=float), np.asarray(b, dtype=float)
    (r, p), n = b.shape, data.n
    residual, x1_mean, cross, z_gram = _expand(data.x2, alpha, b, data.x1)
    intercept = kind is ModelKind.INTERCEPT
    # E Z' and |Z|_F from the centred moments, plus the means' part without an intercept
    e_z = cross[1:].T if intercept else cross[1:].T + np.outer(cross[0], x1_mean)
    z_norm = np.sqrt(np.trace(z_gram) + (0.0 if intercept else n * x1_mean @ x1_mean))
    e_gram = residual @ residual.T
    normal = np.eye(r) + b @ b.T
    solved = np.linalg.solve(normal, np.hstack([cross[:1].T, e_z, e_gram]))
    curvature = 2.0 * np.linalg.solve(normal, solved[:, 1 + p:].T @ b)
    low, high = np.linalg.eigvalsh(normal)[[0, -1]]
    c = 2.0 * (np.sqrt(np.trace(e_gram)) + np.sqrt(max(high - 1.0, 0.0)) * z_norm) / low
    g_b = -2.0 * solved[:, 1:1 + p] - curvature
    gradient = np.concatenate([-2.0 * solved[:, 0], g_b.ravel()])
    scale = np.repeat([c * np.sqrt(n), c * z_norm + np.max(np.abs(curvature))], [r, b.size])
    return (gradient, scale) if intercept else (gradient[r:], scale[r:])


def predictor_scale(data: ObservedData) -> float:
    """max|X1 - xbar1 1'| + max|xbar1|, the predictors' size, which scales
    with them and does not shrink with their offset."""
    x1_mean = data.row_means[: data.p, None]
    return float(np.max(np.abs(data.x1 - x1_mean)) + np.max(np.abs(x1_mean)))


def agreement_check(fit_result: FitResult) -> tuple[float, float]:
    """The oracle agreement check as (deviation, limit), passing when
    deviation <= limit: the largest entry of |oracle means - fitted means|,
    the oracle's projection of the fit's data weighted by
    ``fit_result.sigma0``, against ``AGREEMENT_TOL`` times the predictors'
    ``predictor_scale``, which the fitted means do not enter."""
    data = fit_result.data
    oracle_u1 = project_columns_oracle(data, fit_result.alpha_hat, fit_result.b_hat,
                                       fit_result.sigma0)
    deviation = float(np.max(np.abs(oracle_u1 - fit_result.u1_hat)))
    return deviation, AGREEMENT_TOL * predictor_scale(data)


def stationarity_check(view: ObservedData, alpha, b, kind: ModelKind) -> tuple[float, float]:
    """The GLSE stationarity check as (deviation, limit), passing when
    deviation <= limit, in the coordinates of ``_working_view``: the largest
    entry of ``glse_gradient_check`` over the free parameters of ``kind``,
    each over the size of its terms, against ``STATIONARITY_TOL``. A zero
    entry reads 0, whatever its scale."""
    gradient, scale = glse_gradient_check(view, alpha, b, kind)
    ratio = np.divide(np.abs(gradient), scale, out=np.zeros(scale.shape), where=gradient != 0.0)
    return float(np.max(ratio)), STATIONARITY_TOL


def _working_view(fit_result):
    """The fit's data (an ``ObservedData``), the fitted triple and the legacy
    means' shift, in the coordinates where the identity-shape least-squares
    criteria apply: the data's own, where the view is ``fit_result.data``
    itself, not a copy, or, under a covariance shape sigma0 = L L', a copy
    whitened by L^{-1} before it is wrapped, with L its lower Cholesky
    factor. Nothing writes into the view. The fit's alpha and B map as the
    whitened offset L^{-1} [0; alpha] and graph L^{-1} [I; B], whose top
    block is L11^{-1} (L11 the top p-by-p block of L), so the whitened slope
    is its bottom block times L11. The whitened mean vectors are L11^{-1} U1 and the shift
    L11^{-1} xbar1; U2 is not read."""
    data = fit_result.data
    p = data.p
    alpha = np.asarray(fit_result.alpha_hat, dtype=float)
    b = np.asarray(fit_result.b_hat, dtype=float)
    u1 = np.asarray(fit_result.u1_hat, dtype=float)
    intercept = fit_result.kind is ModelKind.INTERCEPT
    if fit_result.sigma0 is None:
        shift = data.row_means[:p, None] if intercept else 0.0
        return data, alpha, b, u1, shift
    root = np.linalg.cholesky(fit_result.sigma0)
    top = root[:p, :p]
    b_white = _forward(root, np.vstack([np.eye(p), b]))[p:] @ top
    alpha_white = _forward(root, np.concatenate([np.zeros(p), alpha])[:, None])[p:, 0]
    # _forward writes in place: a copy of the read-only row means the fit shares
    legacy_shift = _forward(top, data.row_means[:p, None].copy()) if intercept else 0.0
    work = ObservedData._of(_forward(root, data.x.copy()), p)
    return work, alpha_white, b_white, _forward(top, u1.copy()), legacy_shift


def perturbation_probe(fit_result: FitResult) -> OracleReport:
    """Run the full certification suite against a fit, on the data it fitted
    (``fit_result.data``).

    Runs ``agreement_check`` and ``stationarity_check``, the definitions that
    ``invariants`` shares, and evaluates how much worse the legacy mean
    estimate scores: its objective excess must not fall below
    ``-EXCESS_SLACK`` times the objective at the fit, roundoff relative to
    that objective at every scale of the data. The objective at the fit and
    at the legacy means are direct O(n) sums, and the gradient check reads
    one pass of moments; every check is exact, and none draws at random.

    For a fit under a known covariance shape (``fit_result.sigma0``), the
    deviation check weighs distances by it and the objective-based checks
    run in whitened coordinates, where the fit's least-squares criteria live.
    """
    max_abs_deviation, agreement_limit = agreement_check(fit_result)
    view, alpha, b, u1, legacy_shift = _working_view(fit_result)
    base = _olse_objective(view, alpha, b, u1)
    legacy_objective_excess = _olse_objective(view, alpha, b, u1 - legacy_shift) - base
    gradient_max_abs, stationarity_limit = stationarity_check(view, alpha, b, fit_result.kind)
    passed = (
        max_abs_deviation <= agreement_limit
        and gradient_max_abs <= stationarity_limit
        and legacy_objective_excess >= -EXCESS_SLACK * base
    )
    return OracleReport(
        max_abs_deviation=max_abs_deviation,
        gradient_max_abs=gradient_max_abs,
        legacy_objective_excess=legacy_objective_excess,
        passed=passed,
    )
