"""Synthetic data generation and Monte Carlo estimator experiments.

Generates observations under the errors-in-variables model (fixed true mean
vectors plus i.i.d. error columns of a chosen distribution and covariance
shape) and runs seeded sweeps that track slope consistency and the accuracy
gap between the corrected and legacy mean-vector estimates as the sample size
grows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .estimators import fit, legacy_means
from .exceptions import (
    ExcessiveSkipsError,
    NotPositiveDefiniteError,
    UnidentifiableError,
    ValidationError,
)
from .model_core import ModelKind, ModelSpec, ObservedData, _as_matrix, _as_vector

# Share of replicates that may be skipped before an experiment fails.
MAX_SKIP_FRACTION = 0.10

# Square-free integers whose roots drive the per-dimension additive sequences.
_GRID_IRRATIONALS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class ErrorKind(Enum):
    """Distribution of the error columns; both are centered with the
    requested covariance."""

    GAUSSIAN = "gaussian"
    UNIFORM_CENTERED = "uniform"


@dataclass(frozen=True)
class SyntheticTruth:
    """Ground truth for one synthetic dataset.

    ``u1`` holds the true predictor mean vectors (p-by-n), ``b`` and ``alpha``
    the transformation, ``sigma2`` the error variance (zero gives noise-free
    data), ``sigma0`` the optional covariance shape (identity when ``None``),
    and ``seed`` drives the error draw deterministically.
    """

    u1: np.ndarray
    b: np.ndarray
    alpha: np.ndarray
    sigma2: float
    sigma0: np.ndarray | None = None
    error_kind: ErrorKind = ErrorKind.GAUSSIAN
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "u1", _as_matrix(self.u1, "u1"))
        object.__setattr__(self, "b", _as_matrix(self.b, "b"))
        object.__setattr__(self, "alpha", _as_vector(self.alpha, "alpha"))
        if self.b.shape != (self.alpha.size, self.u1.shape[0]):
            raise ValidationError(
                f"b shape {self.b.shape} does not match (r, p) = "
                f"({self.alpha.size}, {self.u1.shape[0]})"
            )
        if not (np.isfinite(self.sigma2) and self.sigma2 >= 0.0):
            raise ValidationError(f"sigma2 must be finite and >= 0, got {self.sigma2}")
        if self.sigma0 is not None:
            s = _as_matrix(self.sigma0, "sigma0")
            m = self.u1.shape[0] + self.alpha.size
            if s.shape != (m, m):
                raise ValidationError(f"sigma0 shape {s.shape} does not match ({m}, {m})")
            object.__setattr__(self, "sigma0", s)
        if not isinstance(self.error_kind, ErrorKind):
            raise ValidationError(f"error_kind must be an ErrorKind, got {self.error_kind!r}")

    @property
    def p(self) -> int:
        return self.u1.shape[0]

    @property
    def r(self) -> int:
        return self.alpha.size

    @property
    def n(self) -> int:
        return self.u1.shape[1]


@dataclass(frozen=True)
class ConsistencyReport:
    """Per-sample-size error summaries from a consistency sweep."""

    n_grid: tuple[int, ...]
    b_error_median: tuple[float, ...]
    u1_rmse_corrected: tuple[float, ...]
    u1_rmse_legacy: tuple[float, ...]
    replicates: int
    seed: int
    skipped: int


def default_mean_grid(p: int, n: int, spread: float = 1.0, offset: float = 0.0) -> np.ndarray:
    """Deterministic well-spread true mean vectors.

    Row k follows the additive sequence frac((i+1) * sqrt(m_k)) for a
    square-free integer m_k, mapped to [offset - spread, offset + spread].
    The rows use distinct irrationals, so the centered row scatter stays well
    conditioned at every n without a second randomness source.
    """
    if p < 1 or n < 1:
        raise ValidationError(f"p and n must be positive, got p={p}, n={n}")
    if p > len(_GRID_IRRATIONALS):
        raise ValidationError(f"mean grid supports up to {len(_GRID_IRRATIONALS)} rows")
    index = np.arange(1, n + 1, dtype=float)
    rows = [np.mod(index * np.sqrt(m), 1.0) for m in _GRID_IRRATIONALS[:p]]
    return (2.0 * np.stack(rows) - 1.0) * spread + offset


def generate_dataset(truth: SyntheticTruth) -> ObservedData:
    """Draw one dataset under the model: means plus i.i.d. error columns.

    Errors have mean zero and covariance sigma2 times the covariance shape,
    regardless of the chosen distribution. Deterministic given the seed.
    """
    u2 = truth.alpha[:, None] + truth.b @ truth.u1
    u = np.vstack([truth.u1, u2])
    if truth.sigma2 == 0.0:
        return ObservedData(x1=u[: truth.p], x2=u[truth.p :])
    rng = np.random.default_rng(truth.seed)
    m = truth.p + truth.r
    if truth.error_kind is ErrorKind.GAUSSIAN:
        z = rng.standard_normal((m, truth.n))
    else:
        # centered uniform with unit variance
        z = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(m, truth.n))
    if truth.sigma0 is not None:
        try:
            z = np.linalg.cholesky(truth.sigma0) @ z
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError("sigma0 is not positive definite") from exc
    x = u + np.sqrt(truth.sigma2) * z
    return ObservedData(x1=x[: truth.p], x2=x[truth.p :])


def random_truth(
    seed: int,
    index: int,
    kind: ModelKind,
    p: int | None = None,
    r: int | None = None,
    n: int | None = None,
    sigma: float = 0.5,
    error_kind: ErrorKind = ErrorKind.GAUSSIAN,
    sigma0=None,
) -> SyntheticTruth:
    """Seeded random instance for verification sweeps.

    Dimensions default to p in 1..4, r in 1..3, n in 10..60; the slope and
    intercept entries are standard normal and the true means follow the
    deterministic grid with a random per-row offset in [-2, 2]. Instance
    (seed, index) pairs map to independent substreams.
    """
    _require_nonnegative_seed(seed)
    rng = np.random.default_rng([seed, index])
    p = int(rng.integers(1, 5)) if p is None else p
    r = int(rng.integers(1, 4)) if r is None else r
    n = int(rng.integers(10, 61)) if n is None else n
    b = rng.standard_normal((r, p))
    alpha = rng.standard_normal(r) if kind is ModelKind.INTERCEPT else np.zeros(r)
    offsets = rng.uniform(-2.0, 2.0, size=(p, 1))
    u1 = default_mean_grid(p, n) + offsets
    child_seed = int(np.random.SeedSequence([seed, index, 1]).generate_state(1)[0])
    return SyntheticTruth(
        u1=u1,
        b=b,
        alpha=alpha,
        sigma2=sigma * sigma,
        sigma0=sigma0,
        error_kind=error_kind,
        seed=child_seed,
    )


def _template_grid(template_u1: np.ndarray, n: int) -> np.ndarray:
    """True means at a new sample size, spread over each template row's range
    so the centered row scatter stays bounded away from singular."""
    p = template_u1.shape[0]
    base = (default_mean_grid(p, n) + 1.0) / 2.0
    lo = template_u1.min(axis=1, keepdims=True)
    hi = template_u1.max(axis=1, keepdims=True)
    span = np.where(hi - lo < 1e-12, 1.0, hi - lo)
    return lo + base * span


def _require_nonnegative_seed(seed: int) -> None:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")


def consistency_experiment(
    truth_template: SyntheticTruth,
    n_grid,
    replicates: int,
    seed: int,
    *,
    kind: ModelKind,
) -> ConsistencyReport:
    """Seeded sweep over sample sizes comparing the estimators to the truth.

    For every n in the grid, regenerates true means by the template's grid
    rule, draws ``replicates`` datasets from per-replicate substreams derived
    from (seed, n, replicate), fits the model, and records the slope error
    plus the corrected and legacy mean-estimate errors. Replicates whose fit
    is unidentifiable are skipped and counted; the sweep fails if more than
    10% are skipped.
    """
    _require_nonnegative_seed(seed)
    if replicates < 10:
        raise ValidationError(f"replicates must be >= 10, got {replicates}")
    grid = tuple(int(n) for n in n_grid)
    if len(grid) < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError(f"n_grid must be strictly increasing, got {grid}")
    floor = truth_template.p + truth_template.r + 2
    if grid[0] < floor:
        raise ValidationError(f"every n must be >= p + r + 2 = {floor}, got {grid[0]}")

    spec = ModelSpec(kind=kind, sigma0=truth_template.sigma0)
    b_true = truth_template.b
    medians, rmse_corrected, rmse_legacy = [], [], []
    skipped = 0
    for n in grid:
        u1_n = _template_grid(truth_template.u1, n)
        b_errors = []
        corrected_sse = 0.0
        legacy_sse = 0.0
        kept = 0
        for rep in range(replicates):
            child = int(np.random.SeedSequence([seed, n, rep]).generate_state(1)[0])
            truth = replace(truth_template, u1=u1_n, seed=child)
            data = generate_dataset(truth)
            try:
                result = fit(data, spec)
                legacy = legacy_means(data, spec, result)
            except UnidentifiableError:
                skipped += 1
                continue
            kept += 1
            b_errors.append(float(np.linalg.norm(result.b_hat - b_true)))
            corrected_sse += float(np.sum((result.u1_hat - u1_n) ** 2))
            legacy_sse += float(np.sum((legacy - u1_n) ** 2))
        if kept == 0:
            # fully skipped level; the global skip check below will fail the sweep
            medians.append(float("nan"))
            rmse_corrected.append(float("nan"))
            rmse_legacy.append(float("nan"))
            continue
        entries = kept * truth_template.p * n
        medians.append(float(np.median(b_errors)))
        rmse_corrected.append(float(np.sqrt(corrected_sse / entries)))
        rmse_legacy.append(float(np.sqrt(legacy_sse / entries)))

    total = replicates * len(grid)
    if skipped > MAX_SKIP_FRACTION * total:
        raise ExcessiveSkipsError(
            f"{skipped} of {total} replicates were skipped as unidentifiable"
        )
    return ConsistencyReport(
        n_grid=grid,
        b_error_median=tuple(medians),
        u1_rmse_corrected=tuple(rmse_corrected),
        u1_rmse_legacy=tuple(rmse_legacy),
        replicates=replicates,
        seed=seed,
        skipped=skipped,
    )
