"""Independent certification layer for the fitted estimators.

Re-derives the mean-vector estimate by brute-force per-column constrained
least squares, checks stationarity of the normalized-residual objective by
its exact gradient, taken from the objective's definition and read against
the size of its terms, and probes optimality of the full least-squares
objective with random perturbations. Everything here assembles its own
objectives and normal equations from the model definition; none of the
estimator module's closed-form identities are reused, which is what makes the
agreement checks meaningful.

The probe and the gradient check each read the data once, into a residual
E = X2 - alpha 1' - B Z and its moments E E', M E' and M M', where
M = [1; Z - zbar 1']: the gradient of Gleser's (1981, Ann. Statist.)
objective is read off them, and so is the probe's, with the mean vectors
held fixed, at any (alpha + da, B + dB): the residual there is E - dTheta M,
dTheta = [da + dB zbar, dB]. Centring Z keeps cancellation relative to the
objective, not to the magnitude of the data. A probe trial also moves the
mean vectors on at most ``PROBE_COLUMNS`` columns of its own choosing, and
that part of its change is evaluated on those columns alone; the OLSE
objective is a sum over columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import FitResult
from .model_core import ModelKind, ObservedData, _forward, _require_count

PERTURBATION_SLACK = 1e-12
AGREEMENT_TOL = 1e-9
# Standard deviation of a probe perturbation, relative to one plus the entry it moves.
PERTURBATION_SCALE = 1e-3
# Largest entry of the GLSE gradient over the size of its terms that a stationary fit may show.
STATIONARITY_TOL = 1e-9
# Columns of the mean vectors one probe trial moves; all of them when n is at most this.
PROBE_COLUMNS = 256
# Trials the probe draws and evaluates together; bounds its memory whatever the trial count.
_TRIAL_BLOCK = 16


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


def _expand(x2, alpha, b, z, out):
    """Write the residual E = X2 - alpha 1' - B Z to ``out`` (which may be
    x2), and return the mean of the regressors Z and the moments that carry E
    to any (alpha + da, B + dB): with M = [1; Z - zbar 1'], the cross-moments
    C = M E' and the Gram matrix Q = M M'.

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
    np.subtract(x2, x2_mean[:, None], out=out)
    out -= b @ centred
    out += mean[:, None]
    sums = centred.sum(axis=1)
    cross = np.vstack([out.sum(axis=1), centred @ out.T])
    gram = np.block([[np.full((1, 1), float(z.shape[1])), sums[None]],
                     [sums[:, None], centred @ centred.T]])
    return z_mean, cross, gram


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
    residual = np.empty(data.x2.shape)
    x1_mean, cross, gram = _expand(data.x2, alpha, b, data.x1, residual)
    intercept = kind is ModelKind.INTERCEPT
    # E Z' and |Z|_F from the centred moments, plus the means' part without an intercept
    e_z = cross[1:].T if intercept else cross[1:].T + np.outer(cross[0], x1_mean)
    z_norm = np.sqrt(np.trace(gram[1:, 1:]) + (0.0 if intercept else n * x1_mean @ x1_mean))
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
    """A writable copy of the fit's data (an ``ObservedData``), the fitted triple
    and the legacy means' shift, in the coordinates where the identity-shape
    least-squares criteria apply: the data's own, or, under a covariance
    shape sigma0 = L L', whitened by L^{-1} before it is wrapped, with L its
    lower Cholesky factor. The fit's alpha and B map as the whitened offset
    L^{-1} [0; alpha] and graph L^{-1} [I; B], whose top block is L11^{-1}
    (L11 the top p-by-p block of L), so the whitened slope is its bottom
    block times L11. The whitened mean vectors are L11^{-1} U1 and the shift
    L11^{-1} xbar1; U2 is not read."""
    data = fit_result.data
    p = data.p
    alpha = np.asarray(fit_result.alpha_hat, dtype=float)
    b = np.asarray(fit_result.b_hat, dtype=float)
    u1 = np.asarray(fit_result.u1_hat, dtype=float)
    intercept = fit_result.kind is ModelKind.INTERCEPT
    if fit_result.sigma0 is None:
        shift = data.row_means[:p, None] if intercept else 0.0
        return ObservedData._of(data.x.copy(), p), alpha, b, u1, shift
    root = np.linalg.cholesky(fit_result.sigma0)
    top = root[:p, :p]
    b_white = _forward(root, np.vstack([np.eye(p), b]))[p:] @ top
    alpha_white = _forward(root, np.concatenate([np.zeros(p), alpha])[:, None])[p:, 0]
    # _forward writes in place: a copy of the read-only row means the fit shares
    legacy_shift = _forward(top, data.row_means[:p, None].copy()) if intercept else 0.0
    work = ObservedData._of(_forward(root, data.x.copy()), p)
    return work, alpha_white, b_white, _forward(top, u1.copy()), legacy_shift


def _draw_trials(trials: range, seed, alpha, b, u1, perturb_alpha):
    """The perturbations of (alpha, B, U1) of the given trials, stacked.

    Trial t draws from its own stream ``default_rng([seed, t])``, in order:
    the intercept's normal deviates (only when it is perturbed), the slope's,
    the mean vectors' on k = min(n, PROBE_COLUMNS) columns (a p-by-k block in
    row-major order), and last, only when n > k, which k distinct columns
    they move. Each deviate is scaled by ``PERTURBATION_SCALE`` times one plus
    the magnitude of the entry it moves. Returns the shifts of alpha (t, r) and
    B (t, r, p), the mean-vector shifts (t, p, k) and their columns (t, k).
    """
    (p, n), r = u1.shape, b.shape[0]
    k = min(n, PROBE_COLUMNS)
    d_alpha = np.zeros((len(trials), r))
    d_b = np.empty((len(trials), r, p))
    d_u1 = np.empty((len(trials), p, k))
    if n <= k:
        columns = np.broadcast_to(np.arange(n), (len(trials), n))
    else:
        columns = np.empty((len(trials), k), dtype=np.intp)
    for row, trial in enumerate(trials):
        rng = np.random.default_rng([seed, trial])
        if perturb_alpha:
            rng.standard_normal(out=d_alpha[row])
        rng.standard_normal(out=d_b[row])
        rng.standard_normal(out=d_u1[row])
        if n > k:
            columns[row] = rng.choice(n, size=k, replace=False)
    for shift, value in ((d_alpha, alpha), (d_b, b)):
        shift *= PERTURBATION_SCALE
        shift *= 1.0 + np.abs(value)
    d_u1 *= PERTURBATION_SCALE
    d_u1 *= 1.0 + np.abs(np.moveaxis(u1[:, columns], 1, 0))
    return d_alpha, d_b, d_u1, columns


def _trial_changes(residual, u1, b, moments, d_alpha, d_b, d_u1, columns) -> np.ndarray:
    """f(alpha + da_t, B + dB_t, U1 + D_t) - f(alpha, B, U1) for each trial t
    of the OLSE objective f, where D_t is zero off the columns ``columns[t]``
    and ``d_u1[t]`` holds it on them. ``residual`` is [X1 - U1; E] at
    (alpha, B, U1), and ``moments`` are E's moments with [1; U1 - u1bar 1']
    (``_expand``).

    The moments give the (alpha, B) part of every change exactly. The U1 part
    is evaluated on each trial's own columns alone.
    """
    p = u1.shape[0]
    u1_mean, cross, gram = moments
    # the residual at (alpha + da, B + dB) is E - dTheta M, dTheta = [da + dB u1bar, dB],
    # and the trace of (E - dTheta M)(E - dTheta M)' - E E' follows from the moments
    d_theta = np.concatenate([(d_alpha + d_b @ u1_mean)[..., None], d_b], axis=-1)
    moved = d_theta @ cross
    changes = np.trace(d_theta @ gram @ np.swapaxes(d_theta, -1, -2) - moved
                       - np.swapaxes(moved, -1, -2), axis1=-2, axis2=-1)
    # the residual at (alpha + da_t, B + dB_t) on trial t's columns, then the
    # change of its squared norm as U1 moves by D_t there
    picked = np.moveaxis(residual[:, columns], 1, 0)
    centred = np.moveaxis(u1[:, columns], 1, 0) - u1_mean[:, None]
    moved_bottom = picked[:, p:] - d_theta[..., :1] - d_b @ centred
    moved = (b + d_b) @ d_u1
    changes += (d_u1 * (d_u1 - 2.0 * picked[:, :p])).sum(axis=(1, 2))
    changes += (moved * (moved - 2.0 * moved_bottom)).sum(axis=(1, 2))
    return changes


def perturbation_probe(fit_result: FitResult, trials: int, seed: int) -> OracleReport:
    """Run the full certification suite against a fit, on the data it fitted
    (``fit_result.data``).

    Draws ``trials`` random perturbations of the fitted parameters and mean
    vectors and counts those that lower the least-squares objective beyond
    roundoff slack, ``PERTURBATION_SLACK`` relative to it. Each entry moves by
    a Gaussian deviate with standard deviation ``PERTURBATION_SCALE`` times
    one plus the entry's magnitude; the intercept moves only when the model
    has one, and the mean vectors move on k = min(n, PROBE_COLUMNS) columns
    per trial, all of them when n <= k. Trial t draws from its own stream
    ``default_rng([seed, t])``, in order: intercept, slope, mean vectors (a
    p-by-k block in row-major order), and last, only when n > k, which k
    distinct columns move. Results do not depend on evaluation order, and for
    n <= k the stream is that of a probe that moves every column.

    The data is read once into the moments of the residual at the fit, which
    give each trial's change in the (alpha, B) directions exactly; the change
    in the mean vectors is evaluated on the trial's columns alone, so the
    trials cost O(trials * k) on top of one O(n) pass. Also runs
    ``agreement_check`` and ``stationarity_check``, the definitions that
    ``invariants`` shares, and evaluates how much worse the legacy mean
    estimate scores, within the trials' slack; the objective at the fit and
    at the legacy means are direct O(n) sums.

    For a fit under a known covariance shape (``fit_result.sigma0``), the
    deviation check weighs distances by it and the objective-based checks
    run in whitened coordinates, where the fit's least-squares criteria live.
    """
    _require_count("trials", trials, 1)
    _require_count("seed", seed, 0)

    perturb_alpha = fit_result.kind is ModelKind.INTERCEPT
    max_abs_deviation, agreement_limit = agreement_check(fit_result)
    view, alpha, b, u1, legacy_shift = _working_view(fit_result)
    base = _olse_objective(view, alpha, b, u1)
    slack = PERTURBATION_SLACK * max(1.0, base)
    legacy_objective_excess = _olse_objective(view, alpha, b, u1 - legacy_shift) - base
    gradient_max_abs, stationarity_limit = stationarity_check(view, alpha, b, fit_result.kind)

    # the working copy now takes the residual at the fit, once its wrapper is
    # dropped (an ObservedData's x must not change); the trials are drawn and
    # evaluated a block at a time, so their memory does not grow with trials
    work, p = view.x, view.p
    del view
    np.subtract(work[:p], u1, out=work[:p])
    moments = _expand(work[p:], alpha, b, u1, out=work[p:])
    violations = 0
    for start in range(0, trials, _TRIAL_BLOCK):
        block = range(start, min(start + _TRIAL_BLOCK, trials))
        draws = _draw_trials(block, seed, alpha, b, u1, perturb_alpha)
        changes = _trial_changes(work, u1, b, moments, *draws)
        violations += sum(change < -slack for change in changes.tolist())

    passed = (
        max_abs_deviation <= agreement_limit
        and gradient_max_abs <= stationarity_limit
        and violations == 0
        and legacy_objective_excess >= -slack
    )
    return OracleReport(
        max_abs_deviation=max_abs_deviation,
        gradient_max_abs=gradient_max_abs,
        perturbation_violations=violations,
        legacy_objective_excess=legacy_objective_excess,
        passed=passed,
    )
