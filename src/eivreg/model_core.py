"""Observed-data model, scatter matrix, and its eigenstructure.

Everything the estimators consume but do not own lives here: the observation
blocks and their row means, the intercept/no-intercept model choice, the
scatter matrix W of the (optionally centered) observations, and the signal
basis of W's descending eigendecomposition that the slope and mean-vector
estimators read, with its spectrum and diagnostics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .exceptions import DegenerateSubspaceWarning, NotPositiveDefiniteError, ValidationError

# Relative eigengap below which the signal subspace is flagged as degenerate
# (warning only; computation proceeds).
DEGENERATE_EIGENGAP_RTOL = 1e-10


class ModelKind(Enum):
    """Intercept vs. no-intercept variant of the errors-in-variables model."""

    NO_INTERCEPT = "no-intercept"
    INTERCEPT = "intercept"


def _as_matrix(value, name: str) -> np.ndarray:
    """Return a read-only float64 copy of a 2-D array with finite entries."""
    arr = np.array(value, dtype=float, copy=True)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _as_vector(value, name: str) -> np.ndarray:
    """Return a read-only float64 copy of a 1-D array with finite entries."""
    arr = np.array(value, dtype=float, copy=True)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a 1-D vector, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ObservedData:
    """Stacked observation blocks.

    ``x1`` is the p-by-n predictor block and ``x2`` the r-by-n response block;
    column i of each holds the i-th observed vector. Entries must be finite.
    Fitting additionally requires n >= 2 (and n >= p + 1 for the intercept
    model); those checks live at the fit/ingestion boundary so that partial
    objects (e.g. a single column) can still flow through the scatter
    operation.
    """

    x1: np.ndarray
    x2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x1", _as_matrix(self.x1, "x1"))
        object.__setattr__(self, "x2", _as_matrix(self.x2, "x2"))
        if self.x1.shape[0] < 1 or self.x2.shape[0] < 1:
            raise ValidationError("x1 and x2 must each have at least one row")
        if self.x1.shape[1] != self.x2.shape[1]:
            raise ValidationError(
                f"x1 and x2 must share the observation count, got "
                f"{self.x1.shape[1]} != {self.x2.shape[1]}"
            )
        if self.n < 1:
            raise ValidationError("at least one observation column is required")

    @property
    def p(self) -> int:
        return self.x1.shape[0]

    @property
    def r(self) -> int:
        return self.x2.shape[0]

    @property
    def n(self) -> int:
        return self.x1.shape[1]

    @cached_property
    def row_means(self) -> np.ndarray:
        """The row means of x1 followed by those of x2, a read-only
        (p+r)-vector computed on first use; the blocks are read-only too."""
        means = np.concatenate([self.x1.mean(axis=1), self.x2.mean(axis=1)])
        means.setflags(write=False)
        return means

    def stacked(self) -> np.ndarray:
        """The (p+r)-by-n matrix with x1 on top of x2."""
        return np.vstack([self.x1, self.x2])


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
        if self.sigma0 is None:
            return
        s = _as_matrix(self.sigma0, "sigma0")
        if s.shape[0] != s.shape[1]:
            raise ValidationError(f"sigma0 must be square, got shape {s.shape}")
        scale = max(1.0, float(np.max(np.abs(s))))
        if float(np.max(np.abs(s - s.T))) > 1e-12 * scale:
            raise ValidationError("sigma0 is not symmetric to 1e-12 relative")
        eigenvalues = np.linalg.eigvalsh((s + s.T) / 2.0)
        if eigenvalues[0] <= 0.0:
            raise NotPositiveDefiniteError(
                f"sigma0 is not positive definite (min eigenvalue {eigenvalues[0]:.3e})"
            )
        object.__setattr__(self, "sigma0", s)


@dataclass(frozen=True)
class EigenStructure:
    """Signal basis of the scatter matrix in the coordinates of the data, with
    the diagnostics of its eigendecomposition.

    ``eigenvalues`` holds the spectrum of W, descending; under a known
    covariance shape sigma0, that of sigma0^{-1/2} W sigma0^{-1/2}. For its
    leading p eigenvectors G_s, ``g11`` is the top p-by-p block of the signal
    basis sigma0^{1/2} G_s, ``g21`` the block below it and ``left`` is
    G_s' sigma0^{-1/2} (G_s and G_s' without sigma0). ``eigengap`` separates
    the p-th and (p+1)-th eigenvalues. ``g11_condition``,
    |sigma0^{1/2}|_2 / sigma_min(g11), bounds the condition number of ``g11``
    (no block of the basis has a singular value above |sigma0^{1/2}|_2) and
    does not change when sigma0 is scaled. ``signal_eigenstructure`` builds it.
    """

    eigenvalues: np.ndarray
    g11: np.ndarray
    g21: np.ndarray
    left: np.ndarray
    eigengap: float
    g11_condition: float
    degenerate: bool


def scatter_matrix(data: ObservedData, kind: ModelKind) -> np.ndarray:
    """Scatter matrix W of the (centered) stacked observations.

    The blocks, less ``data.row_means`` for the intercept model, are written
    once into one (p+r)-by-n buffer whose outer product with itself is W, so
    symmetry and positive semidefiniteness hold by construction (the result
    is symmetrized to absorb roundoff). ``ObservedData`` holds finite copies.
    """
    centered = np.empty((data.p + data.r, data.n))
    intercept = kind is ModelKind.INTERCEPT
    shift = data.row_means[:, None] if intercept else np.zeros((data.p + data.r, 1))
    np.subtract(data.x1, shift[: data.p], out=centered[: data.p])
    np.subtract(data.x2, shift[data.p :], out=centered[data.p :])
    w = centered @ centered.T
    return (w + w.T) / 2.0


def signal_eigenstructure(w, p: int, roots=None) -> EigenStructure:
    """Signal basis and descending spectrum of the scatter matrix.

    ``w`` must be square, finite and symmetric to 1e-10 relative, and
    1 <= p < its order. The leading p eigenvectors span the fitted signal
    subspace; ``roots``, sigma0's (root, inverse root), map its basis back
    from a whitened ``w`` (see ``EigenStructure``). Warns with
    ``DegenerateSubspaceWarning`` when the eigengap at the signal/noise cut
    vanishes relative to the leading eigenvalue; ``estimate_b`` decides
    whether the slope is computable.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValidationError(f"w must be square, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValidationError("w contains non-finite entries")
    if not 1 <= p < w.shape[0]:
        raise ValidationError(f"p must satisfy 1 <= p < {w.shape[0]}, got {p}")
    scale = max(1.0, float(np.max(np.abs(w))))
    if float(np.max(np.abs(w - w.T))) > 1e-10 * scale:
        raise ValidationError("w is not symmetric to 1e-10 relative")
    eigenvalues, g = np.linalg.eigh((w + w.T) / 2.0)
    # stable sort keeps the solver's tie order for repeated eigenvalues
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    signal = g[:, order][:, :p]
    basis, left, root_norm = signal, signal.T, 1.0
    if roots is not None:
        basis, left = roots[0] @ signal, signal.T @ roots[1]
        root_norm = float(np.linalg.norm(roots[0], 2))
    g11 = basis[:p].copy()
    g21 = basis[p:].copy()
    for array in (eigenvalues, g11, g21, left):
        array.setflags(write=False)
    eigengap = float(eigenvalues[p - 1] - eigenvalues[p])
    degenerate = eigengap <= DEGENERATE_EIGENGAP_RTOL * float(eigenvalues[0])
    if degenerate:
        warnings.warn(
            "signal subspace not uniquely determined "
            f"(eigengap {eigengap:.3e} at leading eigenvalue {float(eigenvalues[0]):.3e})",
            DegenerateSubspaceWarning,
            stacklevel=2,
        )
    sigma_min = float(np.linalg.svd(g11, compute_uv=False)[-1])
    return EigenStructure(
        eigenvalues=eigenvalues,
        g11=g11,
        g21=g21,
        left=left,
        eigengap=eigengap,
        g11_condition=float(np.inf) if sigma_min == 0.0 else root_norm / sigma_min,
        degenerate=degenerate,
    )
