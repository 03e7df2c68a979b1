import contextlib
import dataclasses
import tracemalloc

import numpy as np
import pytest

import eivreg as ev
from eivreg import estimators, invariants, oracle

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


@pytest.mark.parametrize("kind", [INTERCEPT, NO_INTERCEPT])
def test_oracle_matches_projection_route(kind):
    for index in range(8):
        _, data = noisy_instance(seed=19, index=index, kind=kind)
        result = ev.fit(data, ev.ModelSpec(kind=kind))
        assert invariants.oracle_agreement(result) <= 1.0


def test_oracle_sigma0_matches_generalized_fit():
    rng = np.random.default_rng(77)
    for index in range(5):
        sigma0 = random_spd(rng, 4)
        truth = ev.random_truth(88, index, INTERCEPT, p=2, r=2, sigma0=sigma0)
        data = ev.generate_dataset(truth)
        result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT, sigma0=sigma0))
        assert invariants.oracle_agreement(result) <= 1.0


def per_column_oracle(data, alpha, b, sigma0=None):
    """Reference: the oracle as a loop that solves each column's own normal
    equations, rebuilt for every column."""
    alpha = np.asarray(alpha, dtype=float)
    b = np.asarray(b, dtype=float)
    p, n = data.p, data.n
    offset = np.concatenate([np.zeros(p), alpha])
    u1 = np.empty((p, n))
    for i in range(n):
        graph_map = np.vstack([np.eye(p), b])
        shifted = data.x[:, i] - offset
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
# GLSE stationarity from the exact gradient
# ---------------------------------------------------------------------------

def offset_data(data, offset):
    """``data`` with ``offset`` added to every entry of both blocks."""
    return ev.ObservedData(x1=data.x1 + offset, x2=data.x2 + offset)


OFFSETS = [0.0, 1e3, 1e4, 1e6]


@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("shape", [None, "dense"])
def test_gradient_small_at_fit(offset, shape):
    # each gradient entry is read against the size of its terms, and with an
    # intercept the slope turns about the data's centre, so neither the fit's
    # ratio nor that of a slightly wrong slope grows with the offset; without
    # one the model passes through the origin, so the response moves by B
    # times the predictors' offset, and that distance enters both the gradient
    # and its scale. There, 10^6 from the origin, the signal subspace is
    # flagged degenerate, but the fit is still stationary
    sigma0 = None if shape is None else random_spd(np.random.default_rng(6), 5)
    for kind in (INTERCEPT, NO_INTERCEPT):
        truth = ev.random_truth(1, 0, kind, p=3, r=2, n=200, sigma=0.1, sigma0=sigma0)
        data = ev.generate_dataset(truth)
        shift = offset if kind is INTERCEPT else truth.b @ np.full((3, 1), offset)
        data = ev.ObservedData(x1=data.x1 + offset, x2=data.x2 + shift)
        degenerate = kind is NO_INTERCEPT and offset == 1e6
        with pytest.warns(ev.DegenerateSubspaceWarning) if degenerate else contextlib.nullcontext():
            result = ev.fit(data, ev.ModelSpec(kind=kind, sigma0=sigma0))
        p, r = data.p, data.r
        for free, size in ((INTERCEPT, r + r * p), (NO_INTERCEPT, r * p)):
            gradient, scale = ev.glse_gradient_check(data, result.alpha_hat, result.b_hat, free)
            assert gradient.shape == scale.shape == (size,)
        assert invariants.glse_stationarity(result) <= 1.0
        assert ev.perturbation_probe(result).passed
        # a slope 2e-6 off, relative, with the intercept and means that match it
        b = result.b_hat * (1.0 + 2e-6)
        alpha = estimators.estimate_alpha(b, data, kind)
        u1 = ev.project_columns_oracle(data, alpha, b, sigma0)
        moved = dataclasses.replace(result, b_hat=b, alpha_hat=alpha, u1_hat=u1,
                                    u2_hat=estimators.estimate_u2(u1, alpha, b))
        assert invariants.glse_stationarity(moved) > 1.0


def test_gradient_positive_off_optimum():
    gradient, _ = ev.glse_gradient_check(dsb(), [1.0], [[2.1]], INTERCEPT)
    # moving the slope further from the exact fit increases the objective
    assert gradient[-1] > 0.0


def test_gradient_zero_at_noise_free_truth():
    truth, data = noisy_instance(seed=50, index=0, sigma=0.0)
    gradient, _ = ev.glse_gradient_check(data, truth.alpha, truth.b, INTERCEPT)
    assert np.max(np.abs(gradient)) <= 1e-8
    # a constant response fits B = 0 with a zero residual: the gradient and
    # every term of its scale are zero, and the check reads 0, not 0/0
    constant = ev.ObservedData(x1=data.x1, x2=np.full_like(data.x2, 1.5))
    result = ev.fit(constant, ev.ModelSpec(kind=INTERCEPT))
    gradient, scale = ev.glse_gradient_check(constant, result.alpha_hat, result.b_hat, INTERCEPT)
    assert not np.any(gradient) and not np.any(scale)
    assert invariants.glse_stationarity(result) == 0.0
    assert ev.perturbation_probe(result).passed


@pytest.mark.parametrize("kind", [INTERCEPT, NO_INTERCEPT])
def test_gradient_matches_central_differences_of_the_objective(kind):
    # at a point off the fit, on benign data at unit scale: the slope steps
    # of the intercept model also move alpha by -step * xbar1
    truth, data = noisy_instance(seed=3, index=0, kind=kind, p=3, r=2, n=200, sigma=0.1)
    alpha, b = truth.alpha, truth.b
    gradient, _ = ev.glse_gradient_check(data, alpha, b, kind)
    free = data.r if kind is INTERCEPT else 0
    step = 1e-6
    differences = np.empty(gradient.size)
    for j, move in enumerate(np.eye(gradient.size) * step):
        d_b = move[free:].reshape(b.shape)
        d_alpha = move[:free] - d_b @ data.x1.mean(axis=1) if free else 0.0
        differences[j] = (oracle._glse_objective(data, alpha + d_alpha, b + d_b)
                          - oracle._glse_objective(data, alpha - d_alpha, b - d_b)) / (2 * step)
    assert np.max(np.abs(gradient - differences)) <= 1e-8 * np.max(np.abs(gradient))


def exact_residual(x2, alpha, b, z):
    """X2 - alpha 1' - B Z, each entry summed exactly in rationals, rounded once."""
    from fractions import Fraction

    b_exact = [[Fraction(c) for c in row] for row in b.tolist()]
    z_exact = [[Fraction(v) for v in row] for row in z.tolist()]
    return np.array([
        [float(Fraction(v) - Fraction(a) - sum(c * z_row[j] for c, z_row in zip(b_row, z_exact)))
         for j, v in enumerate(x2_row)]
        for x2_row, a, b_row in zip(x2.tolist(), alpha.tolist(), b_exact)
    ])


@pytest.mark.parametrize("noise", [1e-1, 1e-3, 1e-5])
@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6, 1e9])
def test_moment_route_is_no_less_accurate_than_direct_sums(noise, offset):
    # random (alpha, B, Z) near data offset from the origin: the residual
    # that the gradient's moments are read from carries roundoff relative to
    # the spread of the data; the direct double sums carry it relative to
    # the offset
    p, r, n = 3, 2, 400
    rng = np.random.default_rng([7, int(np.log10(noise) + 10), int(np.log10(1.0 + offset))])
    b = rng.normal(size=(r, p))
    alpha = rng.normal(size=r) + offset
    u1 = rng.normal(size=(p, n)) + offset
    x1 = u1 + noise * rng.normal(size=(p, n))
    x2 = alpha[:, None] + b @ u1 + noise * rng.normal(size=(r, n))
    exact = exact_residual(x2, alpha, b, x1)
    spread = (np.max(np.abs(x2 - x2.mean(axis=1, keepdims=True)))
              + np.max(np.abs(b)) * np.max(np.abs(x1 - x1.mean(axis=1, keepdims=True))))
    unit = np.finfo(float).eps * spread
    residual, x1_mean, cross, z_gram = oracle._expand(x2, alpha, b, x1)
    direct = x2 - alpha[:, None] - b @ x1
    route_error = np.max(np.abs(residual - exact)) / unit
    direct_error = np.max(np.abs(direct - exact)) / unit
    assert route_error <= 4.0
    assert route_error <= max(2.0 * direct_error, 1.0)
    if offset > 0.0:
        assert route_error <= 0.1 * direct_error
    # the moments are those of that residual and of the centred regressors
    centred = x1 - x1_mean[:, None]
    np.testing.assert_array_equal(x1_mean, x1.mean(axis=1))
    np.testing.assert_array_equal(cross, np.vstack([residual.sum(axis=1), centred @ residual.T]))
    np.testing.assert_array_equal(z_gram, centred @ centred.T)


# ---------------------------------------------------------------------------
# the probe: agreement, stationarity and the legacy objective excess
# ---------------------------------------------------------------------------

def test_probe_passes_on_well_conditioned_fit():
    _, data = noisy_instance(seed=61, index=3)
    result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT))
    report = ev.perturbation_probe(result)
    assert report.passed
    assert report.legacy_objective_excess > 0.0


def test_probe_legacy_excess_positive_with_nonzero_row_means():
    truth, data = noisy_instance(seed=62, index=1)
    assert np.max(np.abs(data.x1.mean(axis=1))) > 0.1
    result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT))
    report = ev.perturbation_probe(result)
    assert report.legacy_objective_excess > 0.0


def test_probe_excess_vanishes_after_demeaning_x1():
    _, data = noisy_instance(seed=63, index=2)
    demeaned = ev.ObservedData(
        x1=data.x1 - data.x1.mean(axis=1, keepdims=True), x2=data.x2
    )
    result = ev.fit(demeaned, ev.ModelSpec(kind=INTERCEPT))
    report = ev.perturbation_probe(result)
    assert abs(report.legacy_objective_excess) <= 1e-12
    # that zero carries roundoff that scales with the objective, as the
    # excess check's slack does, so the probe passes such fits at every scale
    for index in range(8):
        _, data = noisy_instance(seed=63, index=index)
        x1 = data.x1 - data.x1.mean(axis=1, keepdims=True)
        for k in (-40, -20, 0, 20, 40):
            scaled = ev.ObservedData(x1=np.ldexp(x1, k), x2=np.ldexp(data.x2, k))
            result = ev.fit(scaled, ev.ModelSpec(kind=INTERCEPT))
            assert ev.perturbation_probe(result).passed


def test_probe_rejects_the_legacy_means_at_every_scale():
    # the agreement limit is relative to the predictors, not absolute and not
    # taken from the fitted means, so a fit carrying the legacy means fails
    # the probe at 2^-40 as at 2^0, and the correct fit passes at each scale
    spec = ev.ModelSpec(kind=INTERCEPT)
    for index in range(3):
        _, data = noisy_instance(seed=3, index=index, p=3, r=2, n=200)
        for k in (-40, -20, 0, 20, 40):
            scaled = ev.ObservedData(x1=np.ldexp(data.x1, k), x2=np.ldexp(data.x2, k))
            result = ev.fit(scaled, spec)
            legacy = dataclasses.replace(result, u1_hat=ev.legacy_means(scaled, spec, result))
            assert ev.perturbation_probe(result).passed
            assert not ev.perturbation_probe(legacy).passed
            assert invariants.oracle_agreement(legacy) > 1.0


def test_probe_no_intercept_fit_passes():
    _, data = noisy_instance(seed=64, index=4, kind=NO_INTERCEPT)
    result = ev.fit(data, ev.ModelSpec(kind=NO_INTERCEPT))
    report = ev.perturbation_probe(result)
    assert abs(report.legacy_objective_excess) <= 1e-12
    assert report.passed


def test_probe_sigma0_aware():
    rng = np.random.default_rng(3)
    sigma0 = random_spd(rng, 3)
    truth = ev.random_truth(65, 0, INTERCEPT, p=2, r=1, sigma0=sigma0)
    data = ev.generate_dataset(truth)
    result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT, sigma0=sigma0))
    assert ev.perturbation_probe(result).passed


@pytest.mark.parametrize("shape", [None, "dense"])
def test_probe_legacy_excess_is_the_weighted_mean_shift(shape):
    # the fit's residual rows sum to zero, so moving every mean point by
    # d = [xbar1; B xbar1] raises the objective by exactly n d' sigma0^{-1} d
    sigma0 = None if shape is None else random_spd(np.random.default_rng(6), 5)
    for index in range(3):
        truth = ev.random_truth(5, index, INTERCEPT, p=3, r=2, n=200, sigma0=sigma0)
        data = ev.generate_dataset(truth)
        result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT, sigma0=sigma0))
        report = ev.perturbation_probe(result)
        x1_mean = data.x1.mean(axis=1)
        d = np.concatenate([x1_mean, result.b_hat @ x1_mean])
        weighted = d if sigma0 is None else np.linalg.solve(sigma0, d)
        assert report.legacy_objective_excess == pytest.approx(data.n * d @ weighted, rel=1e-9)


@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("shape", [None, "dense"])
def test_probe_gradient_flags_a_moved_intercept(offset, shape):
    # the probe maps the fit's own alpha into its coordinates, so under a
    # covariance shape too a wrong alpha leaves the GLSE objective
    # unstationary, and far from the origin the right one still passes
    sigma0 = None if shape is None else random_spd(np.random.default_rng(6), 5)
    truth = ev.random_truth(5, 0, INTERCEPT, p=3, r=2, n=500, sigma0=sigma0)
    data = offset_data(ev.generate_dataset(truth), offset)
    result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT, sigma0=sigma0))
    alpha = result.alpha_hat + 0.1
    moved = dataclasses.replace(
        result, alpha_hat=alpha, u2_hat=estimators.estimate_u2(result.u1_hat, alpha, result.b_hat)
    )
    for fit_result, flagged in ((result, False), (moved, True)):
        assert (invariants.glse_stationarity(fit_result) > 1.0) is flagged
        report = ev.perturbation_probe(fit_result)
        # the probe reads the same definition of the check, in the same coordinates
        view, alpha_w, b_w, _, _ = oracle._working_view(fit_result)
        deviation, _ = oracle.stationarity_check(view, alpha_w, b_w, INTERCEPT)
        assert report.gradient_max_abs == deviation
        assert report.passed is not flagged


@pytest.mark.parametrize("kind", [INTERCEPT, NO_INTERCEPT])
@pytest.mark.parametrize("shape", [None, "dense"])
def test_invariants_divide_the_probes_pairs(kind, shape):
    # oracle_agreement and glse_stationarity are the probe's (deviation,
    # limit) pairs divided, with or without a covariance shape
    sigma0 = None if shape is None else random_spd(np.random.default_rng(6), 5)
    truth = ev.random_truth(7, 1, kind, p=3, r=2, n=300, sigma0=sigma0)
    data = ev.generate_dataset(truth)
    result = ev.fit(data, ev.ModelSpec(kind=kind, sigma0=sigma0))
    moved = dataclasses.replace(result, u1_hat=result.u1_hat + 1e-3)
    for fit_result, flagged in ((result, False), (moved, True)):
        deviation, limit = oracle.agreement_check(fit_result)
        assert invariants.oracle_agreement(fit_result) == deviation / limit
        assert (deviation > limit) is flagged
        report = ev.perturbation_probe(fit_result)
        assert report.max_abs_deviation == deviation
        assert report.passed is not flagged
    view, alpha, b, _, _ = oracle._working_view(result)
    deviation, limit = oracle.stationarity_check(view, alpha, b, kind)
    assert invariants.glse_stationarity(result) == deviation / limit <= 1.0


def test_probe_deterministic():
    _, data = noisy_instance(seed=66, index=0)
    result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT))
    assert ev.perturbation_probe(result) == ev.perturbation_probe(result)


# ---------------------------------------------------------------------------
# mutant catalogue: wrong fits that the probe's exact checks must all fail
# ---------------------------------------------------------------------------

def mutants(result):
    """Wrong fits of ``result``'s data, by name. The saddle, a fit from the
    wrong choice of eigenvectors, is not here: it is stationary, and no
    check of the probe tells it from the minimum."""
    data, kind, sigma0 = result.data, result.kind, result.sigma0
    spec = ev.ModelSpec(kind=kind, sigma0=sigma0)
    size = oracle.predictor_scale(data)
    # the slope moved, with the intercept re-centred for it and the means
    # projected onto its graph, so that only the slope is wrong
    b = result.b_hat * (1.0 + 1e-6)
    alpha = estimators.estimate_alpha(b, data, kind)
    u1 = ev.project_columns_oracle(data, alpha, b, sigma0)
    catalogue = {
        "means moved": dataclasses.replace(result, u1_hat=result.u1_hat + 1e-6 * size),
        "slope moved": dataclasses.replace(result, b_hat=b, alpha_hat=alpha, u1_hat=u1,
                                           u2_hat=estimators.estimate_u2(u1, alpha, b)),
    }
    # the slope alone moved, with the intercept and means of the fit
    for delta in (1e-3, 1e-2):
        catalogue[f"slope alone x(1+{delta})"] = dataclasses.replace(
            result, b_hat=result.b_hat * (1.0 + delta))
    if kind is INTERCEPT:
        catalogue["legacy means"] = dataclasses.replace(
            result, u1_hat=ev.legacy_means(data, spec, result))
        alpha = result.alpha_hat + 0.1 * size
        catalogue["alpha moved"] = dataclasses.replace(
            result, alpha_hat=alpha, u2_hat=estimators.estimate_u2(result.u1_hat, alpha, result.b_hat))
    else:
        # without an intercept the legacy means are the fitted ones
        catalogue["observed predictors"] = dataclasses.replace(result, u1_hat=data.x1)
    wrong_shape = random_spd(np.random.default_rng(9), data.p + data.r) if sigma0 is None else None
    catalogue["wrong sigma0"] = dataclasses.replace(result, sigma0=wrong_shape)
    x = data.x.copy()
    x[:, [0, -1]] = x[:, [-1, 0]]
    swapped = ev.fit(ev.ObservedData(x1=x[:data.p], x2=x[data.p:]), spec)
    catalogue["two columns swapped"] = dataclasses.replace(swapped, data=data)
    return catalogue


@pytest.mark.parametrize("k", [-40, -20, 0, 20, 40])
@pytest.mark.parametrize("shape", [None, "dense"])
@pytest.mark.parametrize("kind", [INTERCEPT, NO_INTERCEPT])
def test_probe_fails_every_mutant(kind, shape, k):
    sigma0 = None if shape is None else random_spd(np.random.default_rng(6), 5)
    for index, n in enumerate((50, 200, 2000)):
        truth = ev.random_truth(71, index, kind, p=3, r=2, n=n, sigma0=sigma0)
        data = ev.generate_dataset(truth)
        scaled = ev.ObservedData(x1=np.ldexp(data.x1, k), x2=np.ldexp(data.x2, k))
        result = ev.fit(scaled, ev.ModelSpec(kind=kind, sigma0=sigma0))
        assert ev.perturbation_probe(result).passed
        passed = [name for name, mutant in mutants(result).items()
                  if ev.perturbation_probe(mutant).passed]
        assert passed == []


@pytest.fixture(scope="module")
def large_fits():
    """A (3, 2) instance of 10^5 columns with its fits under no covariance
    shape and under a dense one."""
    rng = np.random.default_rng(12)
    sigma0 = random_spd(rng, 5)
    u1 = rng.normal(size=(3, 100_000)) + 2.0
    b = rng.normal(size=(2, 3))
    x = np.vstack([u1, 1.0 + b @ u1]) + 0.3 * np.linalg.cholesky(sigma0) @ rng.normal(size=(5, u1.shape[1]))
    data = ev.ObservedData(x1=x[:3], x2=x[3:])
    return data, {shape: ev.fit(data, ev.ModelSpec(kind=INTERCEPT, sigma0=sigma0_))
                  for shape, sigma0_ in (("identity", None), ("dense", sigma0))}


def probe_peak(result):
    tracemalloc.start()
    try:
        ev.perturbation_probe(result)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_probe_under_sigma0_whitens_into_one_buffer(large_fits):
    # under the identity the probe reads the fit's own data, with no copy;
    # under a covariance shape it whitens one copy in place
    data, fits = large_fits
    input_size = data.x1.nbytes + data.x2.nbytes
    assert probe_peak(fits["identity"]) <= 2.5 * input_size
    assert probe_peak(fits["dense"]) <= 4.0 * input_size


def test_olse_objective_squares_its_residual_in_place(large_fits):
    data, fits = large_fits
    fit = fits["identity"]
    tracemalloc.start()
    try:
        value = oracle._olse_objective(data, fit.alpha_hat, fit.b_hat, fit.u1_hat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the residual blocks and one product: 1.4 times the data for (p, r) = (3, 2)
    assert peak <= 1.5 * data.x.nbytes
    top = data.x1 - fit.u1_hat
    bottom = data.x2 - fit.alpha_hat[:, None] - fit.b_hat @ fit.u1_hat
    assert value == float(np.sum(top * top) + np.sum(bottom * bottom))


@pytest.mark.parametrize("shape", ["identity", "dense"])
def test_probe_makes_two_direct_objective_sums(large_fits, shape, monkeypatch):
    # the objective at the fitted point and at the legacy means; the gradient
    # check reads its own moments
    _, fits = large_fits
    calls = []
    for name in ("_olse_objective", "_glse_objective"):
        monkeypatch.setattr(oracle, name, lambda *args, _f=getattr(oracle, name):
                            calls.append(None) or _f(*args))
    ev.perturbation_probe(fits[shape])
    assert len(calls) == 2
