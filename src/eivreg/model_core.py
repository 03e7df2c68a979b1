"""Observed-data model, column centering, scatter matrix, and its eigenstructure.

Everything the estimators consume but do not own lives here: the stacked
observation blocks, the intercept/no-intercept model choice, the scatter
matrix W of the (optionally centered) observations, and the
descending-ordered symmetric eigendecomposition of W with the blocks of its
signal basis that the slope and mean-vector estimators read.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

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
    """Ordered eigendecomposition of the scatter matrix, with its signal basis
    in the coordinates of the data.

    ``w = g @ diag(eigenvalues) @ g.T``, eigenvalues descending; under a known
    covariance shape sigma0, ``w`` is sigma0^{-1/2} W sigma0^{-1/2}. For the
    leading p eigenvectors G_s, ``g11`` is the top p-by-p block of the signal
    basis sigma0^{1/2} G_s, ``g21`` the block below it and ``left`` is
    G_s' sigma0^{-1/2} (G_s and G_s' without sigma0). ``eigengap`` separates
    the p-th and (p+1)-th eigenvalues. ``g11_condition``,
    |sigma0^{1/2}|_2 / sigma_min(g11), bounds the condition number of ``g11``
    (no block of the basis has a singular value above |sigma0^{1/2}|_2) and
    does not change when sigma0 is scaled.
    """

    w: np.ndarray
    eigenvalues: np.ndarray
    g: np.ndarray
    g11: np.ndarray
    g21: np.ndarray
    left: np.ndarray
    eigengap: float
    g11_condition: float
    degenerate: bool

    @classmethod
    def from_decomposition(cls, w, eigenvalues, g, p: int, roots=None) -> "EigenStructure":
        """Assemble the signal basis and diagnostics from (w, eigenvalues, g),
        mapped back through ``roots``, sigma0's (root, inverse root), if given.

        Does not verify that (eigenvalues, g) actually decompose w; that is
        the producing operation's contract.
        """
        w = _as_matrix(w, "w")
        eigenvalues = _as_vector(eigenvalues, "eigenvalues")
        g = _as_matrix(g, "g")
        m = w.shape[0]
        if not 1 <= p < m:
            raise ValidationError(f"p must satisfy 1 <= p < {m}, got {p}")
        signal = g[:, :p]
        basis, left, root_norm = signal, signal.T, 1.0
        if roots is not None:
            basis, left = roots[0] @ signal, signal.T @ roots[1]
            root_norm = float(np.linalg.norm(roots[0], 2))
        g11 = basis[:p].copy()
        g21 = basis[p:].copy()
        for block in (g11, g21, left):
            block.setflags(write=False)
        eigengap = float(eigenvalues[p - 1] - eigenvalues[p])
        degenerate = eigengap <= DEGENERATE_EIGENGAP_RTOL * float(eigenvalues[0])
        sigma_min = float(np.linalg.svd(g11, compute_uv=False)[-1])
        g11_condition = float(np.inf) if sigma_min == 0.0 else root_norm / sigma_min
        return cls(
            w=w,
            eigenvalues=eigenvalues,
            g=g,
            g11=g11,
            g21=g21,
            left=left,
            eigengap=eigengap,
            g11_condition=g11_condition,
            degenerate=degenerate,
        )


def scatter_matrix(data: ObservedData, kind: ModelKind) -> np.ndarray:
    """Scatter matrix W of the (centered) stacked observations.

    The blocks, less their row means for the intercept model, are written
    once into one (p+r)-by-n buffer whose outer product with itself is W, so
    symmetry and positive semidefiniteness hold by construction (the result
    is symmetrized to absorb roundoff). ``ObservedData`` holds finite copies.
    """
    centered = np.empty((data.p + data.r, data.n))
    for block, rows in ((data.x1, centered[: data.p]), (data.x2, centered[data.p :])):
        shift = block.mean(axis=1, keepdims=True) if kind is ModelKind.INTERCEPT else 0.0
        np.subtract(block, shift, out=rows)
    w = centered @ centered.T
    return (w + w.T) / 2.0


def signal_eigenstructure(w, p: int, roots=None) -> EigenStructure:
    """Full eigendecomposition of the scatter matrix, sorted descending.

    The leading p eigenvectors span the fitted signal subspace; ``roots``,
    sigma0's (root, inverse root), map its basis back from a whitened ``w``
    (see ``EigenStructure``). Emits a ``DegenerateSubspaceWarning`` when the
    eigengap at the signal/noise cut vanishes relative to the leading
    eigenvalue; ``estimate_b`` decides whether the slope is computable.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValidationError(f"w must be square, got shape {w.shape}")
    scale = max(1.0, float(np.max(np.abs(w))))
    if float(np.max(np.abs(w - w.T))) > 1e-10 * scale:
        raise ValidationError("w is not symmetric to 1e-10 relative")
    eigenvalues, g = np.linalg.eigh((w + w.T) / 2.0)
    # stable sort keeps the solver's tie order for repeated eigenvalues
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    g = g[:, order]
    structure = EigenStructure.from_decomposition(w, eigenvalues, g, p, roots)
    if structure.degenerate:
        warnings.warn(
            "signal subspace not uniquely determined "
            f"(eigengap {structure.eigengap:.3e} at leading eigenvalue "
            f"{float(eigenvalues[0]):.3e})",
            DegenerateSubspaceWarning,
            stacklevel=2,
        )
    return structure
