import dataclasses

import numpy as np
import pytest

import eivreg as ev
from eivreg import invariants, oracle

INTERCEPT = ev.ModelKind.INTERCEPT
NO_INTERCEPT = ev.ModelKind.NO_INTERCEPT


def dsb():
    return ev.ObservedData(x1=[[0.0, 1.0, 2.0]], x2=[[1.0, 3.0, 5.0]])


def noisy_instance(seed=42, index=0, kind=INTERCEPT, **kw):
    truth = ev.random_truth(seed, index, kind, **kw)
    return truth, ev.generate_dataset(truth)


def random_spd(rng, m, lo=0.5, hi=3.0):
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    return (q * rng.uniform(lo, hi, m)) @ q.T


# ---------------------------------------------------------------------------
# per-column projection oracle
# ---------------------------------------------------------------------------

def test_oracle_golden():
    u1 = ev.project_columns_oracle(dsb(), [1.0], [[2.0]])
    np.testing.assert_allclose(u1, [[0.0, 1.0, 2.0]], atol=1e-12)


def test_oracle_zero_slope_returns_x1():
    _, data = noisy_instance(seed=5, index=1)
    u1 = ev.project_columns_oracle(data, np.zeros(data.r), np.zeros((data.r, data.p)))
    np.testing.assert_allclose(u1, data.x1, atol=1e-12)


def test_oracle_matches_projection_route():
    for index in range(8):
        _, data = noisy_instance(seed=19, index=index)
        result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT))
        assert invariants.oracle_agreement(data, result) <= 1.0


def test_oracle_sigma0_matches_generalized_fit():
    rng = np.random.default_rng(77)
    for index in range(5):
        sigma0 = random_spd(rng, 4)
        truth = ev.random_truth(88, index, INTERCEPT, p=2, r=2, sigma0=sigma0)
        data = ev.generate_dataset(truth)
        result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT, sigma0=sigma0))
        assert invariants.oracle_agreement(data, result) <= 1.0


def per_column_oracle(data, alpha, b, sigma0=None):
    """Reference: the oracle as a loop that solves each column's own normal
    equations, rebuilt for every column."""
    alpha = np.asarray(alpha, dtype=float)
    b = np.asarray(b, dtype=float)
    p, n = data.p, data.n
    stacked = data.stacked()
    offset = np.concatenate([np.zeros(p), alpha])
    u1 = np.empty((p, n))
    for i in range(n):
        graph_map = np.vstack([np.eye(p), b])
        shifted = stacked[:, i] - offset
        if sigma0 is None:
            normal = graph_map.T @ graph_map
            rhs = graph_map.T @ shifted
        else:
            weighted = np.linalg.solve(sigma0, graph_map)
            normal = graph_map.T @ weighted
            rhs = weighted.T @ shifted
        u1[:, i] = np.linalg.solve(normal, rhs)
    return u1


@pytest.mark.parametrize("kind", [INTERCEPT, NO_INTERCEPT])
@pytest.mark.parametrize("shape", [None, "identity", "dense"])
@pytest.mark.parametrize("p, r", [(1, 1), (3, 2), (4, 3)])
@pytest.mark.parametrize("smallest_n", [True, False])
def test_batched_oracle_matches_per_column_loop(kind, shape, p, r, smallest_n):
    n = p + 1 if smallest_n else 50
    rng = np.random.default_rng([p, r, n, kind is INTERCEPT])
    sigma0 = {None: None, "identity": np.eye(p + r), "dense": random_spd(rng, p + r)}[shape]
    x1 = rng.normal(size=(p, n)) + rng.uniform(1.0, 3.0, size=(p, 1))
    b = rng.normal(size=(r, p))
    alpha = rng.normal(size=r) if kind is INTERCEPT else np.zeros(r)
    x2 = alpha[:, None] + b @ x1 + 0.3 * rng.normal(size=(r, n))
    data = ev.ObservedData(x1=x1, x2=x2)
    result = ev.fit(data, ev.ModelSpec(kind=kind, sigma0=sigma0))
    batched = ev.project_columns_oracle(data, result.alpha_hat, result.b_hat, sigma0)
    looped = per_column_oracle(data, result.alpha_hat, result.b_hat, sigma0)
    assert batched.shape == (p, n)
    limit = 1e-12 * max(1.0, float(np.max(np.abs(looped))))
    assert float(np.max(np.abs(batched - looped))) <= limit


# ---------------------------------------------------------------------------
# finite-difference stationarity
# ---------------------------------------------------------------------------

def test_gradient_small_at_fit():
    _, data = noisy_instance(seed=33, index=2)
    result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT))
    gradient = ev.glse_gradient_check(data, result.alpha_hat, result.b_hat)
    assert gradient.shape == (data.r + data.r * data.p,)
    assert invariants.glse_stationarity(data, result) <= 1.0


def test_gradient_positive_off_optimum():
    gradient = ev.glse_gradient_check(dsb(), [1.0], [[2.1]])
    # moving the slope further from the exact fit increases the objective
    assert gradient[-1] > 0.0


def test_gradient_zero_at_noise_free_truth():
    truth, data = noisy_instance(seed=50, index=0, sigma=0.0)
    gradient = ev.glse_gradient_check(data, truth.alpha, truth.b)
    assert np.max(np.abs(gradient)) <= 1e-8


def test_gradient_step_bounds():
    with pytest.raises(ev.ValidationError):
        ev.glse_gradient_check(dsb(), [1.0], [[2.0]], step=1e-2)
    with pytest.raises(ev.ValidationError):
        ev.glse_gradient_check(dsb(), [1.0], [[2.0]], step=1e-10)


# ---------------------------------------------------------------------------
# perturbation probe
# ---------------------------------------------------------------------------

def test_probe_passes_on_well_conditioned_fit():
    _, data = noisy_instance(seed=61, index=3)
    result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT))
    report = ev.perturbation_probe(data, result, trials=200, scale=1e-3, seed=7)
    assert report.perturbation_violations == 0
    assert report.passed
    assert report.legacy_objective_excess > 0.0


def test_probe_legacy_excess_positive_with_nonzero_row_means():
    truth, data = noisy_instance(seed=62, index=1)
    assert np.max(np.abs(data.x1.mean(axis=1))) > 0.1
    result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT))
    report = ev.perturbation_probe(data, result, trials=50, scale=1e-3, seed=7)
    assert report.legacy_objective_excess > 0.0


def test_probe_excess_vanishes_after_demeaning_x1():
    _, data = noisy_instance(seed=63, index=2)
    demeaned = ev.ObservedData(
        x1=data.x1 - data.x1.mean(axis=1, keepdims=True), x2=data.x2
    )
    result = ev.fit(demeaned, ev.ModelSpec(kind=INTERCEPT))
    report = ev.perturbation_probe(demeaned, result, trials=50, scale=1e-3, seed=7)
    assert abs(report.legacy_objective_excess) <= 1e-12


def test_probe_no_intercept_fit_passes():
    _, data = noisy_instance(seed=64, index=4, kind=NO_INTERCEPT)
    result = ev.fit(data, ev.ModelSpec(kind=NO_INTERCEPT))
    report = ev.perturbation_probe(data, result, trials=200, scale=1e-3, seed=11)
    assert report.perturbation_violations == 0
    assert abs(report.legacy_objective_excess) <= 1e-12
    assert report.passed


def test_probe_sigma0_aware():
    rng = np.random.default_rng(3)
    sigma0 = random_spd(rng, 3)
    truth = ev.random_truth(65, 0, INTERCEPT, p=2, r=1, sigma0=sigma0)
    data = ev.generate_dataset(truth)
    result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT, sigma0=sigma0))
    report = ev.perturbation_probe(data, result, trials=200, scale=1e-3, seed=5)
    assert report.perturbation_violations == 0
    assert report.passed


def test_probe_deterministic():
    _, data = noisy_instance(seed=66, index=0)
    result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT))
    first = ev.perturbation_probe(data, result, trials=60, scale=1e-3, seed=3)
    second = ev.perturbation_probe(data, result, trials=60, scale=1e-3, seed=3)
    assert first == second


def test_probe_input_validation():
    _, data = noisy_instance(seed=67, index=0)
    result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT))
    with pytest.raises(ev.ValidationError):
        ev.perturbation_probe(data, result, trials=0, scale=1e-3, seed=1)
    with pytest.raises(ev.ValidationError):
        ev.perturbation_probe(data, result, trials=10, scale=0.0, seed=1)


def off_optimum_fit(kind):
    """A fit whose mean vectors are not the least-squares ones: the legacy
    means for the intercept model, the observed predictors without one (in
    column-major order, which must not change which draw perturbs which entry)."""
    _, data = noisy_instance(seed=68, index=2, kind=kind)
    spec = ev.ModelSpec(kind=kind)
    result = ev.fit(data, spec)
    if kind is INTERCEPT:
        wrong = ev.legacy_means(data, spec, result)
    else:
        wrong = np.asfortranarray(data.x1)
    return data, dataclasses.replace(result, u1_hat=wrong)


def reference_violations(data, fit_result, trials, scale, seed):
    """The probe's trial loop written out plainly, one fresh draw per term."""
    alpha, b, u1 = fit_result.alpha_hat, fit_result.b_hat, fit_result.u1_hat
    base = oracle._olse_objective(data, alpha, b, u1)
    slack = oracle.PERTURBATION_SLACK * max(1.0, base)
    violations = 0
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        alpha_t = alpha
        if fit_result.kind is INTERCEPT:
            alpha_t = alpha + rng.normal(size=alpha.shape) * scale * (1.0 + np.abs(alpha))
        b_t = b + rng.normal(size=b.shape) * scale * (1.0 + np.abs(b))
        u1_t = u1 + rng.normal(size=u1.shape) * scale * (1.0 + np.abs(u1))
        if oracle._olse_objective(data, alpha_t, b_t, u1_t) < base - slack:
            violations += 1
    return violations


@pytest.mark.parametrize("kind", [INTERCEPT, NO_INTERCEPT])
def test_probe_counts_violations_of_its_seeded_stream(kind, monkeypatch):
    data, wrong = off_optimum_fit(kind)
    trials = 120
    calls = []
    objective = oracle._olse_objective
    monkeypatch.setattr(oracle, "_olse_objective",
                        lambda *args: calls.append(None) or objective(*args))
    report = ev.perturbation_probe(data, wrong, trials=trials, scale=1e-3, seed=9)
    monkeypatch.undo()
    # the fitted point, one per trial, and the legacy means
    assert len(calls) == trials + 2
    assert 0 < report.perturbation_violations < trials
    assert report.perturbation_violations == reference_violations(data, wrong, trials, 1e-3, 9)
    assert not report.passed
