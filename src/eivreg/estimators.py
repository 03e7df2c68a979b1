"""Closed-form estimators for the errors-in-variables regression model.

The slope matrix comes from the leading eigenvectors of the scatter matrix,
the intercept from the sample means, and the mean-vector matrix from either of
two algebraically equivalent routes: an eigenvector-basis expression carrying
an explicit mean-shift correction term, or a direct projection of the
offset-adjusted observations onto the fitted graph subspace. The historically
published eigenvector-basis expression without the mean-shift term is kept as
a first-class, clearly labeled operation because demonstrating that correction
is a primary purpose of this package.

All estimators are pure functions; no matrix inverse is ever formed
explicitly (inverse-like expressions go through linear solves).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NotPositiveDefiniteError, UnidentifiableError, ValidationError
from .model_core import (
    EigenStructure,
    ModelKind,
    ModelSpec,
    ObservedData,
    scatter_matrix,
    signal_eigenstructure,
)

# Conditioning limit for inverting the predictor block of the signal basis.
# Beyond this the slope matrix is declared not computable.
G11_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class FitResult:
    """Complete fit: slope, intercept, fitted mean matrices, and objectives.

    ``u2_hat`` always equals ``alpha_hat 1' + b_hat u1_hat`` as computed, and
    ``alpha_hat`` is exactly zero for the no-intercept model. All estimates
    are in the coordinates of the data. ``sigma0`` is the covariance shape
    the fit was made under (``None`` for the identity); the objectives and
    the residual scale are weighted by its inverse. ``eigenstructure`` is the
    decomposition of the scatter matrix the fit was computed from (whitened
    as sigma0^{-1/2} W sigma0^{-1/2} under a known shape); reports read its
    ``eigengap``, ``g11_condition`` and ``degenerate`` fields.
    """

    kind: ModelKind
    b_hat: np.ndarray
    alpha_hat: np.ndarray
    u1_hat: np.ndarray
    u2_hat: np.ndarray
    olse_objective: float
    glse_objective: float
    residual_scale: float
    eigenstructure: EigenStructure
    sigma0: np.ndarray | None


def estimate_b(es: EigenStructure) -> np.ndarray:
    """Slope matrix: response block of the signal basis over its predictor block.

    Raises ``UnidentifiableError`` when ``g11_condition`` exceeds
    ``G11_CONDITION_LIMIT``, the one identifiability check for every
    covariance shape. Solves g11' Z' = g21' rather than inverting g11.
    """
    if es.g11_condition > G11_CONDITION_LIMIT:
        raise UnidentifiableError(
            f"predictor block of the signal basis is too ill-conditioned "
            f"(condition estimate {es.g11_condition:.3e})"
        )
    return _graph_slope(es.g11, es.g21)


def estimate_alpha(b_hat, data: ObservedData, kind: ModelKind) -> np.ndarray:
    """Intercept: zero for the no-intercept model, else the response sample
    mean minus the slope applied to the predictor sample mean."""
    b_hat = np.asarray(b_hat, dtype=float)
    if kind is ModelKind.NO_INTERCEPT:
        return np.zeros(data.r)
    return data.row_means[data.p :] - b_hat @ data.row_means[: data.p]


def estimate_u1_corrected(data: ObservedData, es: EigenStructure, kind: ModelKind) -> np.ndarray:
    """Least-squares estimate of the predictor mean vectors, eigenvector route.

    For the intercept model this is ``legacy_u1`` plus the mean-shift term
    (the per-row predictor means), the term whose omission makes the legacy
    form incorrect. For the no-intercept model no centering or shift applies
    and the legacy form is already correct.
    """
    u1 = legacy_u1(data, es, kind)
    if kind is ModelKind.INTERCEPT:
        u1 += data.row_means[: data.p, None]
    return u1


def estimate_u1_projection(data: ObservedData, alpha_hat, b_hat) -> np.ndarray:
    """Least-squares estimate of the predictor mean vectors, projection route.

    Projects the offset-adjusted observations onto the graph subspace of the
    slope: solves (I + B'B) U = X1 + B'(X2 - alpha 1'). Algebraically
    identical to the corrected eigenvector route; kept as an independent path.
    """
    alpha_hat = np.asarray(alpha_hat, dtype=float)
    b_hat = np.asarray(b_hat, dtype=float)
    rhs = data.x1 + b_hat.T @ (data.x2 - alpha_hat[:, None])
    return np.linalg.solve(np.eye(data.p) + b_hat.T @ b_hat, rhs)


def legacy_u1(data: ObservedData, es: EigenStructure, kind: ModelKind) -> np.ndarray:
    """The historically published mean-vector estimate, without the mean shift:
    P (X - xbar 1') with P = g11 ``es.left`` (p-by-(p+r)) and xbar
    ``data.row_means`` for the intercept model, zero without one. Both factors
    are read from the signal basis in data coordinates, so one expression
    serves every covariance shape. P1 X1 + P2 X2 is formed on the raw blocks
    and P xbar subtracted as one p-vector, so the data is neither centered
    nor copied.

    Known-incorrect for the intercept model: it differs from the true
    least-squares estimate by exactly the per-row predictor means. For the
    no-intercept model it coincides with the corrected estimate. Retained so
    the defect can be demonstrated and reported side by side.
    """
    proj = es.g11 @ es.left
    u1 = proj[:, : data.p] @ data.x1
    u1 += proj[:, data.p :] @ data.x2
    if kind is ModelKind.INTERCEPT:
        u1 -= proj @ data.row_means[:, None]
    return u1


def estimate_u2(u1_hat, alpha_hat, b_hat) -> np.ndarray:
    """Response mean vectors implied by the model: alpha 1' + B U1."""
    u2 = np.asarray(b_hat, dtype=float) @ np.asarray(u1_hat, dtype=float)
    u2 += np.asarray(alpha_hat, dtype=float)[:, None]
    return u2


def residual_matrix(data: ObservedData, alpha, b, u1) -> np.ndarray:
    """Full stacked residual [X1 - U1; X2 - B U1 - alpha 1'], filled into
    one (p+r)-by-n buffer with no other n-sized temporary."""
    alpha = np.asarray(alpha, dtype=float)
    b = np.asarray(b, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    res = np.empty((data.p + data.r, data.n))
    np.subtract(data.x1, u1, out=res[: data.p])
    response = res[data.p :]
    np.subtract(data.x2, np.matmul(b, u1, out=response), out=response)
    response -= alpha[:, None]
    return res


def glse_residual(data: ObservedData, alpha, b, sigma0=None) -> np.ndarray:
    """Normalized response residual: (C sigma0 C')^{-1/2} (X2 - alpha 1' - B X1)
    with C = [-B I], which is (I + BB')^{-1/2} under the identity shape.

    Uses the symmetric positive-definite square root; the Frobenius norm of
    the result, the only quantity consumed downstream, is invariant to the
    choice of square root.
    """
    alpha = np.asarray(alpha, dtype=float)
    b = np.asarray(b, dtype=float)
    _, normalizer = sigma0_symmetric_roots(_graph_complement(b, sigma0)[1])
    return normalizer @ (data.x2 - alpha[:, None] - b @ data.x1)


def sigma0_symmetric_roots(sigma0) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric square root and inverse square root of a covariance shape.

    Raises ``NotPositiveDefiniteError`` if any eigenvalue is nonpositive.
    """
    s = np.asarray(sigma0, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValidationError(f"sigma0 must be square, got shape {s.shape}")
    lam, v = np.linalg.eigh((s + s.T) / 2.0)
    if lam[0] <= 0.0:
        raise NotPositiveDefiniteError(
            f"covariance shape is not positive definite (min eigenvalue {lam[0]:.3e})"
        )
    root = (v * np.sqrt(lam)) @ v.T
    inv_root = (v / np.sqrt(lam)) @ v.T
    return root, inv_root


def _graph_complement(b: np.ndarray, sigma0) -> tuple[np.ndarray, np.ndarray]:
    """C = [-B I], which annihilates the graph basis [I; B], and C sigma0 C'."""
    c = np.hstack([-b, np.eye(b.shape[0])])
    return c, (np.eye(b.shape[0]) + b @ b.T if sigma0 is None else c @ sigma0 @ c.T)


def _graph_slope(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """Slope of the graph form of a subspace basis: bottom block times the
    inverse of the top block, via a linear solve."""
    try:
        return np.linalg.solve(top.T, bottom.T).T
    except np.linalg.LinAlgError as exc:
        raise UnidentifiableError("predictor block of the signal basis is singular") from exc


def _validate_for_fit(data: ObservedData, spec: ModelSpec) -> None:
    if data.n < 2:
        raise ValidationError(f"fitting requires n >= 2 observations, got n={data.n}")
    if spec.kind is ModelKind.INTERCEPT and data.n < data.p + 1:
        raise ValidationError(
            f"the intercept model requires n >= p + 1 (centering removes one "
            f"degree of freedom), got n={data.n}, p={data.p}"
        )
    if spec.sigma0 is not None and spec.sigma0.shape != (data.p + data.r, data.p + data.r):
        raise ValidationError(
            f"sigma0 shape {spec.sigma0.shape} does not match "
            f"(p+r, p+r) = ({data.p + data.r}, {data.p + data.r})"
        )


def fit(data: ObservedData, spec: ModelSpec) -> FitResult:
    """Fit the errors-in-variables model and return all estimates.

    Center, form the scatter matrix W, take its eigenstructure, and evaluate
    the closed forms. A known covariance shape enters only through
    (p+r)-by-(p+r) matrices: the eigenstructure is that of
    sigma0^{-1/2} W sigma0^{-1/2}, and its signal basis is mapped back
    through sigma0^{1/2}. The observations are never whitened.
    """
    _validate_for_fit(data, spec)
    if spec.sigma0 is not None:
        return _fit_whitened(data, spec.kind, spec.sigma0)
    es = signal_eigenstructure(scatter_matrix(data, spec.kind), data.p)
    return _assemble(data, spec.kind, es)


def _fit_whitened(data: ObservedData, kind: ModelKind, sigma0: np.ndarray) -> FitResult:
    roots = sigma0_symmetric_roots(sigma0)
    w = roots[1] @ scatter_matrix(data, kind) @ roots[1].T
    return _assemble(data, kind, signal_eigenstructure(w, data.p, roots), sigma0)


def _assemble(data, kind, es, sigma0=None) -> FitResult:
    """The closed forms on the signal basis of ``es``, in data coordinates
    for every covariance shape. Both objectives come from the Gram matrix
    G = R R' of the one residual R: OLSE = tr(sigma0^{-1} G) and GLSE =
    tr(S^{-1} C G C'), as C [I; B] = 0 gives C R = X2 - alpha 1' - B X1 (see
    ``_graph_complement``). The trailing eigenvalues of W would lose the
    residual's relative precision as the noise shrinks."""
    b_hat = estimate_b(es)
    alpha_hat = estimate_alpha(b_hat, data, kind)
    u1_hat = estimate_u1_corrected(data, es, kind)
    u2_hat = estimate_u2(u1_hat, alpha_hat, b_hat)
    r_mat = residual_matrix(data, alpha_hat, b_hat, u1_hat)
    gram = r_mat @ r_mat.T
    c, spread = _graph_complement(b_hat, sigma0)
    olse = float(np.trace(gram if sigma0 is None else np.linalg.solve(sigma0, gram)))
    return FitResult(
        kind=kind,
        b_hat=b_hat,
        alpha_hat=alpha_hat,
        u1_hat=u1_hat,
        u2_hat=u2_hat,
        olse_objective=olse,
        glse_objective=float(np.trace(np.linalg.solve(spread, c @ gram @ c.T))),
        # ad hoc scale diagnostic, not a derived estimator of the error variance
        residual_scale=olse / (data.n * (data.p + data.r)),
        eigenstructure=es,
        sigma0=sigma0,
    )


def legacy_means(
    data: ObservedData, spec: ModelSpec, result: FitResult | None = None
) -> np.ndarray:
    """Predictor mean vectors per the legacy formula (``legacy_u1``).

    Evaluated on the eigenstructure of ``result``, the fit of ``data`` under
    ``spec``, without refitting or whitening; without ``result`` the data is
    fitted first. Corrected minus legacy means is thus exactly the per-row
    predictor means (intercept model) or zero (no-intercept model) under
    every covariance shape. Raises ``ValidationError`` if ``result`` is a fit
    under another model kind or covariance shape, or of another data size.
    """
    if result is None:
        result = fit(data, spec)
    # array_equal is also True for None against None, False for None against a matrix
    elif (result.kind is not spec.kind or result.u1_hat.shape != data.x1.shape
          or not np.array_equal(result.sigma0, spec.sigma0)):
        raise ValidationError("result is not a fit of this data under this model")
    return legacy_u1(data, result.eigenstructure, spec.kind)
