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

from .estimators import _eigenstructure, _slopes, _with_mean_shift, legacy_u1
from .estimators import fit, legacy_means  # noqa: F401  traced by bench/tracing.py (ROADMAP item 3)
from .exceptions import ExcessiveSkipsError, ValidationError
from .model_core import ModelKind, ModelSpec, ObservedData, _as_matrix, _covariance_shape
from .model_core import _require_count

# Share of replicates that may be skipped before an experiment fails.
MAX_SKIP_FRACTION = 0.10

# Elements (replicates x (p+r) x n) a sweep draws and fits as one stack: the
# per-call cost is shared by the stack, and memory stays flat in the replicates.
_CHUNK_ELEMENTS = 2**14

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
    and ``seed`` drives the error draw deterministically. ``sigma0`` must
    pass ``ModelSpec``'s check: symmetric to 1e-12 relative, positive definite.
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
        object.__setattr__(self, "alpha", _as_matrix(self.alpha, "alpha", ndim=1))
        if self.alpha.size == 0:
            raise ValidationError("alpha must have at least one entry (r >= 1)")
        if self.b.shape != (self.alpha.size, self.u1.shape[0]):
            raise ValidationError(
                f"b shape {self.b.shape} does not match (r, p) = "
                f"({self.alpha.size}, {self.u1.shape[0]})"
            )
        if not (np.isfinite(self.sigma2) and self.sigma2 >= 0.0):
            raise ValidationError(f"sigma2 must be finite and >= 0, got {self.sigma2}")
        if self.sigma0 is not None:
            s = _covariance_shape(self.sigma0)
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


def default_mean_grid(p: int, n: int, offset: float = 0.0) -> np.ndarray:
    """Deterministic well-spread true mean vectors.

    Row k follows the additive sequence frac((i+1) * sqrt(m_k)) for a
    square-free integer m_k, mapped to [offset - 1, offset + 1].
    The rows use distinct irrationals, so the centered row scatter stays well
    conditioned at every n without a second randomness source.
    """
    _require_count("p", p, 1)
    _require_count("n", n, 1)
    if p > len(_GRID_IRRATIONALS):
        raise ValidationError(f"mean grid supports up to {len(_GRID_IRRATIONALS)} rows")
    index = np.arange(1, n + 1, dtype=float)
    rows = [np.mod(index * np.sqrt(m), 1.0) for m in _GRID_IRRATIONALS[:p]]
    return 2.0 * np.stack(rows) - 1.0 + offset


def generate_dataset(truth: SyntheticTruth) -> ObservedData:
    """Draw one dataset under the model: means plus i.i.d. error columns.

    Errors have mean zero and covariance sigma2 times the covariance shape,
    regardless of the chosen distribution. Deterministic given the seed.
    """
    x = _draw(truth, [truth.seed])[0]
    return ObservedData(x1=x[: truth.p], x2=x[truth.p :])


def _draw(truth: SyntheticTruth, seeds) -> np.ndarray:
    """The (len(seeds), p+r, n) stack of datasets of ``truth``, one per seed:
    the true means plus the error columns drawn from that seed's stream."""
    u = np.vstack([truth.u1, truth.alpha[:, None] + truth.b @ truth.u1])
    stack = np.empty((len(seeds),) + u.shape)
    if truth.sigma2 == 0.0:
        stack[...] = u
        return stack
    for z, seed in zip(stack, seeds):
        rng = np.random.default_rng(seed)
        if truth.error_kind is ErrorKind.GAUSSIAN:
            rng.standard_normal(out=z)
        else:
            # centered uniform with unit variance
            z[...] = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=u.shape)
    if truth.sigma0 is not None:
        stack = np.linalg.cholesky(truth.sigma0) @ stack
    stack *= np.sqrt(truth.sigma2)
    stack += u
    return stack


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
    _require_count("seed", seed, 0)
    _require_count("index", index, 0)
    for name, value in (("p", p), ("r", r)):
        if value is not None:
            _require_count(name, value, 1)
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
    base = (default_mean_grid(template_u1.shape[0], n) + 1.0) / 2.0
    lo = template_u1.min(axis=1, keepdims=True)
    hi = template_u1.max(axis=1, keepdims=True)
    span = np.where(hi - lo < 1e-12, 1.0, hi - lo)
    return lo + base * span


def _fit_stack(stack: np.ndarray, spec: ModelSpec, p: int):
    """Slope, the mask of the unidentifiable, and legacy and corrected means of
    each dataset in a (k, p+r, n) stack, bit for bit those of ``fit``."""
    data = ObservedData._of(stack, p)
    es = _eigenstructure(data, spec.kind, spec.sigma0)
    legacy = legacy_u1(data, es, spec.kind)
    return *_slopes(es), legacy, _with_mean_shift(legacy, data, spec.kind)


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
    10% are skipped. Replicates are fitted in stacks under a fixed element
    budget, with results identical to fitting each one alone.
    """
    _require_count("seed", seed, 0)
    _require_count("replicates", replicates, 10)
    for n in n_grid:
        _require_count("n_grid entries", n, 1)
    grid = tuple(int(n) for n in n_grid)
    if len(grid) < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError(f"n_grid must be strictly increasing, got {grid}")
    p, m = truth_template.p, truth_template.p + truth_template.r
    if grid[0] < m + 2:
        raise ValidationError(f"every n must be >= p + r + 2 = {m + 2}, got {grid[0]}")

    spec = ModelSpec(kind=kind, sigma0=truth_template.sigma0)
    levels, skipped = [], 0
    for n in grid:
        u1_n = _template_grid(truth_template.u1, n)
        truth = replace(truth_template, u1=u1_n)
        per_stack = max(1, _CHUNK_ELEMENTS // (m * n))
        chunks = []
        for start in range(0, replicates, per_stack):
            seeds = [int(np.random.SeedSequence([seed, n, rep]).generate_state(1)[0])
                     for rep in range(start, min(start + per_stack, replicates))]
            b_hat, unidentifiable, legacy, corrected = _fit_stack(_draw(truth, seeds), spec, p)
            skipped += int(np.count_nonzero(unidentifiable))
            # formed as np.linalg.norm and np.sum do per fit; cumsum below totals in replicate order
            b_diff = (b_hat - truth.b).reshape(len(seeds), -1)
            sse = [((u1 - u1_n) ** 2).sum(axis=(-2, -1)) for u1 in (corrected, legacy)]
            chunks.append(np.stack([np.sqrt(np.vecdot(b_diff, b_diff)), *sse])[:, ~unidentifiable])
        b_errors, *sse = np.concatenate(chunks, axis=1)
        if b_errors.size == 0:
            # fully skipped level; the global skip check below will fail the sweep
            levels.append((float("nan"),) * 3)
            continue
        mse = [np.cumsum(errors)[-1] / (b_errors.size * p * n) for errors in sse]
        levels.append((float(np.median(b_errors)), *(float(np.sqrt(v)) for v in mse)))

    total = replicates * len(grid)
    if skipped > MAX_SKIP_FRACTION * total:
        raise ExcessiveSkipsError(f"{skipped} of {total} replicates were skipped as unidentifiable")
    medians, rmse_corrected, rmse_legacy = zip(*levels)
    return ConsistencyReport(
        n_grid=grid,
        b_error_median=medians,
        u1_rmse_corrected=rmse_corrected,
        u1_rmse_legacy=rmse_legacy,
        replicates=replicates,
        seed=seed,
        skipped=skipped,
    )
