"""Closed-form estimators for the errors-in-variables regression model.

The slope matrix comes from the leading eigenvectors of the scatter matrix,
the intercept from the sample means, and the mean-vector matrix from an
eigenvector-basis expression carrying an explicit mean-shift correction term,
which makes it the least-squares projection onto the fitted graph
(``oracle.project_columns_oracle`` computes that projection independently).
The historically published expression without the mean-shift term is kept as
a first-class, clearly labeled operation because demonstrating that correction
is a primary purpose of this package.

All estimators are pure functions; no matrix inverse is ever formed
explicitly. Cholesky factors are applied by one pivot-free substitution,
``model_core._forward``, other inverse-like expressions by linear solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import NotPositiveDefiniteError, UnidentifiableError, ValidationError
from .model_core import (
    EigenStructure,
    ModelKind,
    ModelSpec,
    ObservedData,
    _blockwise,
    _forward,
    _gram,
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
    the residual scale are weighted by its inverse. At the fitted means the
    OLSE equals the GLSE objective, one value (see ``_assemble``).
    ``eigenstructure`` is the decomposition of the (whitened) scatter matrix
    the fit was computed from; reports read its ``eigengap``,
    ``g11_condition`` and ``degenerate`` fields. ``data`` is the very
    ``ObservedData`` the fit was given, not a copy: the probe, the invariants
    and ``legacy_means`` take the fit alone and read its data from here.
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
    data: ObservedData = field(repr=False)


def estimate_b(es: EigenStructure) -> np.ndarray:
    """Slope matrix: response block of the signal basis over its predictor block.

    Raises ``UnidentifiableError`` when ``g11_condition`` exceeds
    ``G11_CONDITION_LIMIT``, the one identifiability check for every
    covariance shape. Solves g11' Z' = g21' rather than inverting g11.
    """
    b_hat, unidentifiable = _slopes(es)
    if unidentifiable:
        raise UnidentifiableError(
            f"predictor block of the signal basis is too ill-conditioned "
            f"(condition estimate {es.g11_condition:.3e})"
        )
    return b_hat


def _slopes(es: EigenStructure) -> tuple[np.ndarray, np.ndarray]:
    """Slopes of a (stacked) eigenstructure and the mask of those past the
    limit, whose g11 is replaced by I so that they cannot fail the solve."""
    unidentifiable = np.asarray(es.g11_condition) > G11_CONDITION_LIMIT
    top = np.where(unidentifiable[..., None, None], np.eye(es.g11.shape[-1]), es.g11)
    return _graph_slope(top, es.g21), unidentifiable


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
    return _with_mean_shift(u1, data, kind, out=u1)


def _with_mean_shift(legacy, data: ObservedData, kind: ModelKind, out=None) -> np.ndarray:
    """Corrected from legacy mean vectors: plus the predictor row means for
    the intercept model, unchanged without one."""
    shifted = kind is ModelKind.INTERCEPT
    return np.add(legacy, data.row_means[..., : data.p, None], out=out) if shifted else legacy


def legacy_u1(data: ObservedData, es: EigenStructure, kind: ModelKind) -> np.ndarray:
    """The historically published mean-vector estimate, without the mean shift:
    P (X - xbar 1') with P = g11 ``es.left`` (p-by-(p+r)) and xbar
    ``data.row_means`` for the intercept model, zero without one. Both factors
    are read from the signal basis in data coordinates, so one expression
    serves every covariance shape. P is applied to the centred blocks of
    ``_blockwise`` that ``fit`` reads, each worker's in its own buffer, so no
    n-sized temporary is formed. Blocks and eigenstructure with matching
    leading axes give one estimate per leading index.

    Known-incorrect for the intercept model: it differs from the true
    least-squares estimate by exactly the per-row predictor means. For the
    no-intercept model it coincides with the corrected estimate. Retained so
    the defect can be demonstrated and reported side by side.
    """
    proj = es.g11 @ es.left
    u1 = np.empty(data.x1.shape)
    _blockwise(data, kind, lambda cols, block: _product(proj, block, out=u1[..., cols]))
    return u1


def estimate_u2(u1_hat, alpha_hat, b_hat) -> np.ndarray:
    """Response mean vectors implied by the model: alpha 1' + B U1."""
    u2 = _product(np.asarray(b_hat, dtype=float), np.asarray(u1_hat, dtype=float))
    u2 += np.asarray(alpha_hat, dtype=float)[:, None]
    return u2


def _product(factor: np.ndarray, block: np.ndarray, out=None) -> np.ndarray:
    """factor @ block, written into ``out`` if given, as a matrix-matrix
    product. matmul takes a one-row factor for a vector (gemv), whose last
    bits depend on a column's position, so such a factor goes in twice and
    one row of the product is kept: a block of columns then gets the bits of
    the same columns within the whole data."""
    if factor.shape[-2] > 1:
        return np.matmul(factor, block, out=out)
    rows = np.matmul(np.repeat(factor, 2, axis=-2), block)
    return np.positive(rows[..., :1, :], out=out)  # a copy of the first row


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
    """Normalized response residual: K^{-1} (X2 - alpha 1' - B X1) with K the
    lower Cholesky factor of S = C sigma0 C', C = [-B I] (S = I + BB' under
    the identity shape). Its Frobenius norm, the only quantity consumed
    downstream, is that of any square root of S. Raises
    ``NotPositiveDefiniteError`` if S is not positive definite.
    """
    alpha = np.asarray(alpha, dtype=float)
    b = np.asarray(b, dtype=float)
    return _forward(_spread_factor(b, sigma0), data.x2 - alpha[:, None] - b @ data.x1)


def _spread_factor(b: np.ndarray, sigma0) -> np.ndarray:
    """Lower Cholesky factor of S = C sigma0 C', C = [-B I] (which annihilates
    the graph basis [I; B]), or ``NotPositiveDefiniteError``. Where S
    overflows, the factor is that of C (sigma0 / 4^k) C' times 2^k, with
    sigma0 / 4^k of order 1 (|B| is at most about ``G11_CONDITION_LIMIT``)."""
    c = np.hstack([-b, np.eye(b.shape[0])])
    with np.errstate(over="ignore", invalid="ignore"):
        spread = c @ c.T if sigma0 is None else c @ sigma0 @ c.T
    k = 0
    if not np.isfinite(spread).all():
        k = int(np.frexp(np.max(np.abs(sigma0)))[1]) // 2
        spread = c @ np.ldexp(sigma0, -2 * k) @ c.T
    try:
        return np.ldexp(np.linalg.cholesky(spread), k)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("C sigma0 C' is not positive definite") from exc


def _graph_slope(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """Slope of the graph form of a subspace basis: bottom block times the
    inverse of the top block, via a linear solve."""
    try:
        return np.linalg.solve(top.mT, bottom.mT).mT
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

    Two passes over the centered columns, each in blocks of at most a few
    thousand that ``_blockwise`` shares among the process's CPUs: the first
    forms the scatter matrix W, the second, after W's eigenstructure,
    evaluates the closed forms. The result has the same bits whatever the
    number of CPUs. Only the returned mean matrices are n-sized. A known
    covariance shape sigma0 enters only through (p+r)-by-(p+r) matrices
    (``signal_eigenstructure``); the observations are never whitened.
    """
    _validate_for_fit(data, spec)
    if spec.sigma0 is not None:
        return _fit_whitened(data, spec.kind, spec.sigma0)
    return _assemble(data, spec.kind, _eigenstructure(data, spec.kind))


def _fit_whitened(data: ObservedData, kind: ModelKind, sigma0: np.ndarray) -> FitResult:
    return _assemble(data, kind, _eigenstructure(data, kind, sigma0), sigma0)


def _eigenstructure(data: ObservedData, kind: ModelKind, sigma0=None) -> EigenStructure:
    """Eigenstructure of the scatter of (each stacked dataset in) ``data``
    under the covariance shape ``sigma0``."""
    return signal_eigenstructure(scatter_matrix(data, kind), data.p, sigma0)


def _assemble(data, kind, es, sigma0=None) -> FitResult:
    """The closed forms on the signal basis of ``es``, in data coordinates
    for every covariance shape, on each centred block Xc of ``_blockwise``:
    the legacy block P Xc (see ``legacy_u1``), U1 = P Xc + xbar1 and
    U2 = alpha 1' + B U1 straight into the returned means, and the graph
    residual K = Xc2 - B Xc1, whose Gram matrix adds to H; B Xc1 is formed in
    the block's columns of U2 before U2 is, so a block allocates no r-row
    temporary. At the fitted
    means OLSE = GLSE = sum q' S^{-1} q, q = X2 - alpha 1' - B X1 (Gleser
    1981), and alpha = xbar2 - B xbar1 makes q = K: both are tr(S^{-1} H),
    taken as tr(R^{-1} H R^{-T}) through S's lower Cholesky factor R, with
    H summed over the blocks in block order whatever the worker count.
    Centering keeps the data's offset out of K; the trailing eigenvalues of
    W would lose its relative precision as the noise shrinks."""
    b_hat = estimate_b(es)
    alpha_hat = estimate_alpha(b_hat, data, kind)
    proj = es.g11 @ es.left
    u1_hat, u2_hat = np.empty(data.x1.shape), np.empty(data.x2.shape)

    def residual_gram(cols, block):
        # public estimators, which the benchmark's tracer wraps with one span
        # stack for all threads, are called only outside the worker threads
        legacy = _product(proj, block, out=u1_hat[:, cols])
        u1 = _with_mean_shift(legacy, data, kind, out=legacy)
        u2 = u2_hat[:, cols]  # first B Xc1, then U2
        block[data.p :] -= _product(b_hat, block[: data.p], out=u2)  # the graph residual K
        _product(b_hat, u1, out=u2)  # estimate_u2, inline
        u2 += alpha_hat[:, None]
        return _gram(block[data.p :])

    factor = _spread_factor(b_hat, sigma0)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = sum(_blockwise(data, kind, residual_gram))
        # H is exactly symmetric: (R^{-1} H)' = H R^{-T}
        objective = float(np.trace(_forward(factor, _forward(factor, gram).T.copy())))
    if not np.isfinite(objective):
        raise ValidationError("the objective overflows in double precision; "
                              "rescale the data or sigma0")
    return FitResult(
        kind=kind,
        b_hat=b_hat,
        alpha_hat=alpha_hat,
        u1_hat=u1_hat,
        u2_hat=u2_hat,
        olse_objective=objective,
        glse_objective=objective,
        # ad hoc scale diagnostic, not a derived estimator of the error variance
        residual_scale=objective / (data.n * (data.p + data.r)),
        eigenstructure=es,
        sigma0=sigma0,
        data=data,
    )


def legacy_means(
    data: ObservedData, spec: ModelSpec, result: FitResult | None = None
) -> np.ndarray:
    """Predictor mean vectors per the legacy formula (``legacy_u1``) on the
    eigenstructure of ``result``, the fit of ``data`` under ``spec``, without
    refitting or whitening (without ``result`` the data is fitted first).
    Corrected minus legacy means is thus exactly the per-row predictor means
    (intercept model) or zero (no-intercept model) under every covariance
    shape. Raises ``ValidationError`` unless ``result`` is a fit of this very
    ``data`` object (``result.data is data``; other data of the same shape
    does not do) under ``spec``'s model kind and covariance shape."""
    if result is None:
        result = fit(data, spec)
    # array_equal is also True for None against None, False for None against a matrix
    if (result.data is not data or result.kind is not spec.kind
            or not np.array_equal(result.sigma0, spec.sigma0)):
        raise ValidationError("result is not a fit of this data under this model")
    return legacy_u1(data, result.eigenstructure, spec.kind)
