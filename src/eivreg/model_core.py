"""Observed-data model, scatter matrix, and its eigenstructure.

Everything the estimators consume but do not own lives here: the observation
matrix and its row means, the intercept/no-intercept model choice, the
scatter matrix W of the (optionally centered) observations, and the signal
basis of W's descending eigendecomposition that the slope and mean-vector
estimators read, with its spectrum and diagnostics.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .exceptions import DegenerateSubspaceWarning, NotPositiveDefiniteError, ValidationError

# Relative eigengap below which the signal subspace is flagged as degenerate
# (warning only; computation proceeds).
DEGENERATE_EIGENGAP_RTOL = 1e-10

# Columns per pass of the blocked scatter and fit: a (p+r)-row block of them
# stays in cache between its writes and its reads.
_BLOCK = 2**13

# Fewest blocks in a run of a pass: a thread start costs about the work of two
# blocks, so a run of fewer would not pay for its thread.
_RUN_BLOCKS = 4

# Threads that share the blocks of a pass, one per CPU the process may run on.
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no CPU affinity on this platform
    _WORKERS = os.cpu_count() or 1


class ModelKind(Enum):
    """Intercept vs. no-intercept variant of the errors-in-variables model."""

    NO_INTERCEPT = "no-intercept"
    INTERCEPT = "intercept"


def _finite(value, name: str, ndim: int = 2) -> np.ndarray:
    """``value`` as a finite float64 2-D array (1-D with ``ndim=1``), not copied if it is one."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim != ndim:
        shape = "matrix" if ndim == 2 else "vector"
        raise ValidationError(f"{name} must be a {ndim}-D {shape}, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def _as_matrix(value, name: str, ndim: int = 2) -> np.ndarray:
    """A read-only copy of ``_finite(value, name, ndim)``."""
    arr = np.array(_finite(value, name, ndim))
    arr.setflags(write=False)
    return arr


def _covariance_shape(value) -> np.ndarray:
    """A read-only copy of a covariance shape, checked as ``ModelSpec`` states."""
    s = _as_matrix(value, "sigma0")
    if s.shape[0] != s.shape[1]:
        raise ValidationError(f"sigma0 must be square, got shape {s.shape}")
    if float(np.max(np.abs(s - s.T))) > 1e-12 * float(np.max(np.abs(s))):
        raise ValidationError("sigma0 is not symmetric to 1e-12 relative")
    _root(s)
    return s


def _root(sigma0: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the covariance shape, or ``NotPositiveDefiniteError``."""
    try:
        return np.linalg.cholesky(sigma0)
    except np.linalg.LinAlgError:
        smallest = np.linalg.eigvalsh((sigma0 + sigma0.T) / 2.0)[0]
        raise NotPositiveDefiniteError(
            f"sigma0 is not positive definite (min eigenvalue {smallest:.3e})"
        ) from None


def _require_count(name: str, value, minimum: int) -> None:
    """Reject anything but a Python or numpy integer >= ``minimum``, bools too."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True, init=False)
class ObservedData:
    """The observations, stored once: ``x`` is the read-only, C-contiguous
    (p+r)-by-n matrix whose rows are the p-row predictor block ``x1`` and then
    the r-row response block ``x2``, both views; column i is the i-th observed
    vector. ``ObservedData(x1, x2)`` checks that the blocks are finite and
    share n >= 1 columns, and copies them into ``x``. Fitting also requires
    n >= 2 (n >= p + 1 for the intercept model), checked at the fit/ingestion
    boundary so that partial objects (a single column) can still be scattered.
    """

    x: np.ndarray
    p: int

    def __init__(self, x1, x2):
        x1, x2 = _finite(x1, "x1"), _finite(x2, "x2")
        if len(x1) < 1 or len(x2) < 1:
            raise ValidationError("x1 and x2 must each have at least one row")
        if x1.shape[1] != x2.shape[1]:
            raise ValidationError(f"x1 and x2 must share the observation count, got "
                                  f"{x1.shape[1]} != {x2.shape[1]}")
        if x1.shape[1] < 1:
            raise ValidationError("at least one observation column is required")
        # one copy, row-contiguous whatever the layout of the blocks
        x = np.concatenate([x1, x2], out=np.empty((len(x1) + len(x2), x1.shape[1])))
        x.setflags(write=False)
        vars(self).update(x=x, p=len(x1))

    @classmethod
    def _of(cls, x: np.ndarray, p: int) -> ObservedData:
        """Checked observations ``x`` (a stack, a working copy) with p predictor rows, as is.
        ``x`` must not change once wrapped: ``row_means`` and the scatter
        matrices are memoized on the object."""
        data = object.__new__(cls)
        vars(data).update(x=x, p=p)
        return data

    @property
    def x1(self) -> np.ndarray:
        return self.x[..., : self.p, :]

    @property
    def x2(self) -> np.ndarray:
        return self.x[..., self.p :, :]

    @property
    def r(self) -> int:
        return self.x.shape[-2] - self.p

    @property
    def n(self) -> int:
        return self.x.shape[-1]

    @cached_property
    def row_means(self) -> np.ndarray:
        """The read-only row means of ``x`` (of each matrix of a stack), taken on first use."""
        means = self.x.mean(axis=-1)
        means.setflags(write=False)
        return means


@dataclass(frozen=True)
class ModelSpec:
    """Model choice: intercept flag plus an optional known error-covariance shape.

    ``sigma0``, when present, is the known shape of the error covariance
    (errors have covariance proportional to it). It must be symmetric to
    1e-12 relative and positive definite; ``None`` means the identity.
    """

    kind: ModelKind
    sigma0: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.kind, ModelKind):
            raise ValidationError(f"kind must be a ModelKind, got {self.kind!r}")
        if self.sigma0 is not None:
            object.__setattr__(self, "sigma0", _covariance_shape(self.sigma0))


@dataclass(frozen=True)
class EigenStructure:
    """Signal basis of the scatter matrix in the coordinates of the data, with
    the diagnostics of its eigendecomposition.

    ``eigenvalues`` holds the spectrum of W, descending; under a known
    covariance shape sigma0 = L L' (L its lower Cholesky factor), that of
    L^{-1} W L^{-T}. For its leading p eigenvectors G_s, ``g11`` is the top
    p-by-p block of the signal basis L G_s, ``g21`` the block below it and
    ``left`` is G_s' L^{-1}, by substitution (G_s and G_s' without sigma0).
    ``eigengap`` separates the p-th and (p+1)-th eigenvalues. ``g11_condition``,
    |L|_2 / sigma_min(g11), bounds the condition number of ``g11`` (no block of
    the basis has a singular value above |L|_2 = |sigma0|_2^{1/2}); it keeps its
    value when sigma0 is scaled, not when one variable's unit changes. Built
    by ``signal_eigenstructure``; the last three fields are numpy scalars, or
    arrays for a stack.
    """

    eigenvalues: np.ndarray
    g11: np.ndarray
    g21: np.ndarray
    left: np.ndarray
    eigengap: float
    g11_condition: float
    degenerate: bool


def scatter_matrix(data: ObservedData, kind: ModelKind) -> np.ndarray:
    """Scatter matrix W of the (centered) stacked observations: the sum, in
    block order, of the Gram matrices of the blocks of ``_blockwise``, so W
    is exactly symmetric and has the same bits whatever the worker count.
    Observation blocks with leading axes, a stack of datasets, give one W
    per dataset, bit for bit the W of that dataset alone.

    W is read-only and computed once per dataset and model kind: the first
    call makes the pass over the columns and stores W on ``data``, beside
    ``row_means``, and later calls return that same array."""
    memo = vars(data).setdefault("_scatter", {})
    if kind not in memo:
        w = sum(_blockwise(data, kind, lambda _, block: _gram(block)))
        w.setflags(write=False)
        memo.setdefault(kind, w)  # concurrent first calls all return the first W stored
    return memo[kind]


def _blockwise(data: ObservedData, kind: ModelKind, work) -> list:
    """``work(cols, block)`` for each slice ``cols`` of ``_column_blocks``,
    ``block`` holding the columns of ``data.x`` in it less ``data.row_means``
    (less 0 without an intercept, an exact copy); the results in block order.

    The blocks are split into contiguous runs, one per worker, up to
    ``_WORKERS`` and at most one per ``_RUN_BLOCKS`` blocks; the first run is
    taken on the calling thread, each other on a thread of its own, so fewer
    than 2 * ``_RUN_BLOCKS`` blocks run inline with no thread started. A run
    centres its blocks one after another by one subtraction each into its own
    (p+r)-row buffer, so a block is valid only during its ``work`` call, and
    ``work`` may write only to its own columns. The buffers are allocated on
    the calling thread: one allocated on a new thread comes from a new malloc
    arena, and raises the process's peak memory by its size. Each block gets
    the same arithmetic whatever the worker count. An exception in any run is
    raised here once every run has stopped."""
    blocks = _column_blocks(data.n)
    means = data.row_means[..., None] if kind is ModelKind.INTERCEPT else 0.0
    results, errors = [None] * len(blocks), []

    def run(indices: range, buffer: np.ndarray) -> None:
        try:
            for i in indices:
                cols = blocks[i]
                block = buffer[..., : cols.stop - cols.start]
                np.subtract(data.x[..., cols], means, out=block)
                results[i] = work(cols, block)
        except BaseException as exc:  # raised on the calling thread once all runs stop
            errors.append(exc)

    workers = max(1, min(_WORKERS, len(blocks) // _RUN_BLOCKS))
    runs = [range(len(blocks) * k // workers, len(blocks) * (k + 1) // workers)
            for k in range(workers)]
    buffers = [np.empty(data.x.shape[:-1] + (min(data.n, _BLOCK),)) for _ in runs]
    threads = []
    try:
        for indices, buffer in zip(runs[1:], buffers[1:]):
            thread = threading.Thread(target=run, args=(indices, buffer))
            thread.start()
            threads.append(thread)
        run(runs[0], buffers[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return results


def _column_blocks(n: int) -> list[slice]:
    """Slices of at most ``_BLOCK`` consecutive columns that cover n columns,
    their widths within one of each other. So no slice is a single column
    unless n is 1: matmul would take it for a vector, and round it otherwise."""
    count = -(-n // _BLOCK)
    bounds = [n * i // count for i in range(count + 1)]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


def _gram(rows: np.ndarray) -> np.ndarray:
    """Gram matrix of the rows (of each matrix of a stack), one dot product
    per pair of rows, so it is exactly symmetric and each matrix of a stack
    gets the bits it gets alone."""
    return np.vecdot(rows[..., :, None, :], rows[..., None, :, :])


def _forward(lower, rows):
    """Overwrite ``rows`` (each matrix of a stack) with lower^{-1} rows and
    return it: forward substitution, without pivoting, by one elementwise
    product per entry of the lower triangular ``lower``."""
    for i in range(rows.shape[-2]):
        for j in range(i):
            rows[..., i, :] -= lower[i, j] * rows[..., j, :]
        rows[..., i, :] /= lower[i, i]
    return rows


def signal_eigenstructure(w, p: int, sigma0=None) -> EigenStructure:
    """Signal basis and descending spectrum of the scatter matrix.

    ``w`` must be square, finite and symmetric to 1e-10 relative, and
    1 <= p < its order. The leading p eigenvectors span the fitted signal
    subspace. A covariance shape ``sigma0`` = L L', L lower triangular,
    whitens ``w`` as L^{-1} W L^{-T} by ``_forward`` (see ``EigenStructure``);
    one whose shape is not that of ``w`` (of each matrix of a stack) or with
    a non-finite entry raises ``ValidationError``, one with no Cholesky
    factor ``NotPositiveDefiniteError``.
    Warns with ``DegenerateSubspaceWarning`` when the eigengap at the
    signal/noise cut vanishes relative to the leading eigenvalue;
    ``estimate_b`` decides whether the slope is computable. A stack of
    matrices gives one of each field per matrix, and warns if any of them is
    degenerate.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim < 2 or w.shape[-1] != w.shape[-2]:
        raise ValidationError(f"w must be square, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValidationError("w contains non-finite entries")
    if not 1 <= p < w.shape[-1]:
        raise ValidationError(f"p must satisfy 1 <= p < {w.shape[-1]}, got {p}")
    if np.any(np.max(np.abs(w - w.mT), axis=(-2, -1)) > 1e-10 * np.max(np.abs(w), axis=(-2, -1))):
        raise ValidationError("w is not symmetric to 1e-10 relative")
    if sigma0 is not None:
        sigma0 = np.asarray(sigma0, dtype=float)
        if sigma0.shape != w.shape[-2:]:
            raise ValidationError(f"sigma0 shape {sigma0.shape} does not match w's {w.shape[-2:]}")
        if not np.all(np.isfinite(sigma0)):
            raise ValidationError("sigma0 contains non-finite entries")
        root = _root(sigma0)
        w = _forward(root, _forward(root, w.copy()).mT.copy())
    eigenvalues, g = np.linalg.eigh((w + w.mT) / 2.0)
    # stable sort keeps the solver's tie order for repeated eigenvalues
    order = np.argsort(-eigenvalues, axis=-1, kind="stable")
    eigenvalues = np.take_along_axis(eigenvalues, order, axis=-1)
    signal = np.take_along_axis(g, order[..., None, :], axis=-1)[..., :p]
    basis, left, root_norm = signal, signal.mT, 1.0
    if sigma0 is not None:
        # L^{-T} G_s: L' read with its rows and columns reversed is lower triangular
        reversed_left = _forward(root.mT[::-1, ::-1], signal[..., ::-1, :].copy())
        basis, left = root @ signal, reversed_left[..., ::-1, :].mT
        root_norm = float(np.linalg.norm(root, 2))
    g11 = basis[..., :p, :].copy()
    g21 = basis[..., p:, :].copy()
    for array in (eigenvalues, g11, g21, left):
        array.setflags(write=False)
    eigengap = eigenvalues[..., p - 1] - eigenvalues[..., p]
    degenerate = eigengap <= DEGENERATE_EIGENGAP_RTOL * eigenvalues[..., 0]
    if np.any(degenerate):
        gap, lead = (np.ravel(a)[np.argmax(degenerate)] for a in (eigengap, eigenvalues[..., 0]))
        warnings.warn(
            f"signal subspace not uniquely determined (eigengap {gap:.3e} at leading "
            f"eigenvalue {lead:.3e})", DegenerateSubspaceWarning, stacklevel=2,
        )
    sigma_min = np.linalg.svd(g11, compute_uv=False)[..., -1]
    with np.errstate(divide="ignore"):
        g11_condition = root_norm / sigma_min
    return EigenStructure(
        eigenvalues=eigenvalues,
        g11=g11,
        g21=g21,
        left=left,
        eigengap=eigengap,
        g11_condition=g11_condition,
        degenerate=degenerate,
    )
