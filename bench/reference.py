"""Seeded inputs, an independent reference fit, and the output checks.

Inputs are drawn with numpy alone, so the program under test only ever sees
the generated arrays or files. The reference shares no code with eivreg: it
whitens by the Cholesky factor of the covariance shape (the program uses the
symmetric root), takes the SVD of the whitened data (centered for the
intercept model), maps the leading p left singular vectors back, and gets the
mean vectors from one batched Sigma0-weighted projection. At the optimum both
objectives equal the sum of the trailing r squared singular values.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# Deviation allowed between program and reference, relative to the scale of
# the compared quantity. Measured agreement is below 1e-13 at every size used;
# a slope perturbed by 1e-6 relative must still be rejected.
RTOL = 1e-9

# Error standard deviation of generated instances, against unit signal spread.
NOISE = 0.3


@dataclass(frozen=True)
class Instance:
    """One generated dataset: the (p+r)-by-n observations and the model choice."""

    x: np.ndarray
    p: int
    intercept: bool
    sigma0: np.ndarray | None

    @property
    def x1(self) -> np.ndarray:
        return self.x[: self.p]

    @property
    def x2(self) -> np.ndarray:
        return self.x[self.p :]


def make_instance(rng, p, r, n, *, intercept, dense_sigma0) -> Instance:
    """Draw an instance of the model with well-separated signal.

    True predictor means are a nonzero per-row offset plus unit Gaussian
    spread, so the legacy mean estimate is visibly wrong for the intercept
    model. Errors have covariance NOISE^2 * Sigma0; Sigma0 is a dense SPD
    shape with eigenvalues of order one when requested, else the identity.
    """
    m = p + r
    offsets = rng.uniform(1.0, 3.0, size=(p, 1)) * rng.choice([-1.0, 1.0], size=(p, 1))
    u1 = offsets + rng.standard_normal((p, n))
    b = rng.standard_normal((r, p))
    alpha = rng.standard_normal(r) if intercept else np.zeros(r)
    sigma0 = None
    errors = rng.standard_normal((m, n))
    if dense_sigma0:
        a = rng.standard_normal((m, m))
        sigma0 = a @ a.T / m + 0.5 * np.eye(m)
        sigma0 = (sigma0 + sigma0.T) / 2.0
        errors = np.linalg.cholesky(sigma0) @ errors
    x = np.vstack([u1, alpha[:, None] + b @ u1]) + NOISE * errors
    return Instance(x=x, p=p, intercept=intercept, sigma0=sigma0)


def write_csv(path, x: np.ndarray, header: list[str] | None) -> None:
    """Write rows of ``x.T`` with round-trip precision, so parsing is exact."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        np.savetxt(handle, x.T, fmt="%.17g", delimiter=",",
                   header=",".join(header) if header else "", comments="")


def dataset_header(p: int, r: int) -> list[str]:
    return [f"x1_{k + 1}" for k in range(p)] + [f"x2_{k + 1}" for k in range(r)]


def file_checksum(path) -> str:
    with open(path, "rb") as handle:
        return "sha256:" + hashlib.sha256(handle.read()).hexdigest()


@dataclass(frozen=True)
class Reference:
    """Reference estimates for one instance and one covariance shape."""

    b: np.ndarray
    alpha: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    objective: float
    trailing: np.ndarray  # the trailing r squared singular values
    scale: float  # largest absolute observation, the scale of alpha and the means


def reference_fit(inst: Instance, sigma0: np.ndarray | None) -> Reference:
    x, p = inst.x, inst.p
    m = x.shape[0]
    chol = np.eye(m) if sigma0 is None else np.linalg.cholesky(sigma0)
    y = np.linalg.solve(chol, x)
    if inst.intercept:
        y = y - y.mean(axis=1, keepdims=True)
    # SVD of the m-by-n whitened data through its m-by-m triangular factor:
    # y = R' Q' with Q orthonormal, so y and R' share left singular vectors
    # and singular values, and no n-sized factor is formed.
    r_factor = np.linalg.qr(y.T, mode="r")
    left, singular, _ = np.linalg.svd(r_factor.T)
    basis = chol @ left[:, :p]
    b = np.linalg.solve(basis[:p].T, basis[p:].T).T
    means = x.mean(axis=1)
    alpha = means[p:] - b @ means[:p] if inst.intercept else np.zeros(m - p)
    graph = np.vstack([np.eye(p), b])
    weighted = graph if sigma0 is None else np.linalg.solve(sigma0, graph)
    shifted = x - np.concatenate([np.zeros(p), alpha])[:, None]
    u1 = np.linalg.solve(graph.T @ weighted, weighted.T @ shifted)
    trailing = singular[p:] ** 2
    return Reference(
        b=b,
        alpha=alpha,
        u1=u1,
        u2=alpha[:, None] + b @ u1,
        objective=float(np.sum(trailing)),
        trailing=trailing,
        scale=float(np.max(np.abs(x))),
    )


def _close(errors, name, got, want, tol) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        errors.append(f"{name}: shape {got.shape} != reference {want.shape}")
        return
    deviation = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not deviation <= tol:
        errors.append(f"{name}: deviation {deviation:.3e} from reference exceeds {tol:.3e}")


def check_estimates(ref: Reference, *, b, alpha, olse, glse, u1=None, u2=None) -> list[str]:
    """Compare program estimates with the reference; returns failure messages."""
    errors: list[str] = []
    _close(errors, "b_hat", b, ref.b, RTOL * float(np.max(np.abs(ref.b))))
    _close(errors, "alpha_hat", alpha, ref.alpha, RTOL * ref.scale)
    _close(errors, "olse", olse, ref.objective, RTOL * ref.objective)
    _close(errors, "glse", glse, ref.objective, RTOL * ref.objective)
    if u1 is not None:
        _close(errors, "u1_hat", u1, ref.u1, RTOL * ref.scale)
    if u2 is not None:
        _close(errors, "u2_hat", u2, ref.u2, RTOL * ref.scale)
    return errors


def matrix(payload) -> np.ndarray:
    """A report matrix payload ({rows, cols, data}) as an array."""
    return np.array(payload["data"], dtype=float).reshape(payload["rows"], payload["cols"])


def check_fit_report(report: dict, ref: Reference, checksum: str, *, means: bool) -> list[str]:
    """Checks shared by the CLI fit workloads on a parsed JSON report."""
    errors = []
    if report.get("input_checksum") != checksum:
        errors.append(f"input_checksum {report.get('input_checksum')!r} != {checksum!r}")
    u1 = u2 = None
    if means:
        u1 = matrix(report["means"]["u1_hat"])
        u2 = matrix(report["means"]["u2_hat"])
    errors += check_estimates(
        ref,
        b=matrix(report["estimates"]["b_hat"]),
        alpha=report["estimates"]["alpha_hat"],
        olse=report["objectives"]["olse"],
        glse=report["objectives"]["glse"],
        u1=u1,
        u2=u2,
    )
    return errors


def check_certified(report: dict, ref: Reference) -> list[str]:
    """Oracle verdict and the mean-shift structure of the legacy estimate.

    Corrected minus legacy means must be one nonzero column repeated: the
    paper's mean-shift term, mapped back through Sigma0.
    """
    errors = []
    oracle = report.get("oracle", {})
    if oracle.get("passed") is not True:
        errors.append(f"oracle.passed is {oracle.get('passed')!r}")
    if not oracle.get("legacy_objective_excess", 0.0) > 0.0:
        errors.append(f"legacy_objective_excess {oracle.get('legacy_objective_excess')!r} <= 0")
    shift = matrix(report["means"]["u1_hat"]) - matrix(report["legacy_means"]["u1_hat"])
    spread = float(np.max(np.abs(shift - shift[:, :1])))
    if not spread <= RTOL * ref.scale:
        errors.append(f"mean shift varies across columns by {spread:.3e}")
    if not float(np.max(np.abs(shift[:, 0]))) > 1e-6 * ref.scale:
        errors.append("mean shift between corrected and legacy means is zero")
    return errors


SWEEP_HEADER = "n,b_error_median,u1_rmse_corrected,u1_rmse_legacy"


def check_sweep(table: str, summary: dict, grid: list[int], reps: int) -> list[str]:
    """Properties of a consistency sweep, and table/summary agreement."""
    errors = []
    if summary.get("skipped") != 0:
        errors.append(f"skipped = {summary.get('skipped')!r}, expected 0")
    if summary.get("n_grid") != grid or summary.get("replicates") != reps:
        errors.append(f"summary grid/replicates {summary.get('n_grid')}/{summary.get('replicates')}"
                      f" != requested {grid}/{reps}")
    medians = summary.get("b_error_median", [])
    if len(medians) != len(grid) or not all(b < a for a, b in zip(medians, medians[1:])):
        errors.append(f"b_error_median does not fall along the grid: {medians}")
    corrected = summary.get("u1_rmse_corrected", [])
    legacy = summary.get("u1_rmse_legacy", [])
    if len(corrected) != len(grid) or not all(lg > c for c, lg in zip(corrected, legacy)):
        errors.append(f"u1_rmse_legacy not above u1_rmse_corrected: {legacy} vs {corrected}")
    lines = table.splitlines()
    try:
        rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    except ValueError:
        rows = None
    columns = (summary.get("n_grid", []), medians, corrected, legacy)
    if lines[:1] != [SWEEP_HEADER] or rows != [list(map(float, row)) for row in zip(*columns)]:
        errors.append("CSV table differs from the JSON summary")
    return errors
