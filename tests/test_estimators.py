import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eivreg as ev
from eivreg import estimators, invariants

INTERCEPT = ev.ModelKind.INTERCEPT
NO_INTERCEPT = ev.ModelKind.NO_INTERCEPT


def dsb():
    return ev.ObservedData(x1=[[0.0, 1.0, 2.0]], x2=[[1.0, 3.0, 5.0]])


def dsa():
    return ev.ObservedData(x1=[[1.0, 2.0, 3.0]], x2=[[2.0, 4.0, 6.0]])


def dsb_eigenstructure():
    return ev.signal_eigenstructure(ev.scatter_matrix(dsb(), INTERCEPT), p=1)


def rotate_signal(es, o):
    """The eigenstructure of the same signal subspace in the basis G_s o."""
    return dataclasses.replace(es, g11=es.g11 @ o, g21=es.g21 @ o, left=o.T @ es.left)


def noisy_instance(seed=42, index=0, kind=INTERCEPT):
    truth = ev.random_truth(seed, index, kind)
    return truth, ev.generate_dataset(truth)


# ---------------------------------------------------------------------------
# slope and intercept
# ---------------------------------------------------------------------------

def test_estimate_b_golden():
    np.testing.assert_allclose(ev.estimate_b(dsb_eigenstructure()), [[2.0]], atol=1e-12)


def test_estimate_b_identity_basis_gives_zero():
    es = ev.signal_eigenstructure(np.diag([3.0, 2.0, 1.0]), p=2)
    np.testing.assert_array_equal(np.abs(es.g11), np.eye(2))
    np.testing.assert_array_equal(ev.estimate_b(es), np.zeros((1, 2)))


def test_estimate_b_invariant_to_signal_basis_rotation():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(5, 11))
    w = a @ a.T
    p = 2
    es = ev.signal_eigenstructure(w, p)
    o, _ = np.linalg.qr(rng.normal(size=(p, p)))
    np.testing.assert_allclose(ev.estimate_b(es), ev.estimate_b(rotate_signal(es, o)), atol=1e-9)


def test_estimate_b_rejects_ill_conditioned_block():
    # a signal direction with a predictor component of 1e-13: g11 is tiny but not zero
    direction = np.array([1e-13, 1.0])
    es = ev.signal_eigenstructure(2.0 * np.outer(direction, direction), p=1)
    assert estimators.G11_CONDITION_LIMIT < es.g11_condition < np.inf
    with pytest.raises(ev.UnidentifiableError):
        ev.estimate_b(es)


def test_estimate_alpha_no_intercept_is_zero():
    _, data = noisy_instance(kind=NO_INTERCEPT)
    alpha = ev.estimate_alpha(np.ones((data.r, data.p)), data, NO_INTERCEPT)
    np.testing.assert_array_equal(alpha, np.zeros(data.r))


def test_estimate_alpha_golden():
    np.testing.assert_allclose(
        ev.estimate_alpha([[2.0]], dsb(), INTERCEPT), [1.0], atol=1e-12
    )


def test_estimate_alpha_constant_rows_zero_slope():
    data = ev.ObservedData(x1=[[1.0, 2.0, 3.0]], x2=[[4.0, 4.0, 4.0]])
    np.testing.assert_allclose(
        ev.estimate_alpha(np.zeros((1, 1)), data, INTERCEPT), [4.0], atol=1e-12
    )


# ---------------------------------------------------------------------------
# mean vectors: corrected, projection, legacy
# ---------------------------------------------------------------------------

def test_u1_corrected_golden_intercept():
    u1 = ev.estimate_u1_corrected(dsb(), dsb_eigenstructure(), INTERCEPT)
    np.testing.assert_allclose(u1, [[0.0, 1.0, 2.0]], atol=1e-12)


def test_u1_corrected_no_intercept_recovers_collinear():
    data = dsa()
    es = ev.signal_eigenstructure(ev.scatter_matrix(data, NO_INTERCEPT), p=1)
    np.testing.assert_allclose(
        ev.estimate_u1_corrected(data, es, NO_INTERCEPT), [[1.0, 2.0, 3.0]], atol=1e-12
    )


def test_corrected_minus_legacy_is_mean_shift():
    _, data = noisy_instance(seed=1, index=4)
    assert invariants.mean_shift(data, ev.fit(data, ev.ModelSpec(kind=INTERCEPT))) <= 1.0


def test_u1_projection_golden():
    u1 = ev.estimate_u1_projection(dsb(), [1.0], [[2.0]])
    np.testing.assert_allclose(u1, [[0.0, 1.0, 2.0]], atol=1e-12)


def test_u1_projection_zero_slope_returns_x1():
    _, data = noisy_instance(seed=9, index=2)
    u1 = ev.estimate_u1_projection(data, np.zeros(data.r), np.zeros((data.r, data.p)))
    np.testing.assert_allclose(u1, data.x1, atol=1e-12)


@pytest.mark.parametrize("kind", [INTERCEPT, NO_INTERCEPT])
def test_projection_equals_corrected(kind):
    for index in range(10):
        _, data = noisy_instance(seed=77, index=index, kind=kind)
        result = ev.fit(data, ev.ModelSpec(kind=kind))
        assert invariants.mean_route_equivalence(data, result) <= 1.0
        projected = ev.estimate_u1_projection(data, result.alpha_hat, result.b_hat)
        scale = max(1.0, float(np.max(np.abs(result.u1_hat))))
        np.testing.assert_allclose(projected, result.u1_hat, atol=1e-9 * scale, rtol=0)


def test_legacy_golden_intercept_shows_defect():
    legacy = ev.legacy_u1(dsb(), dsb_eigenstructure(), INTERCEPT)
    np.testing.assert_allclose(legacy, [[-1.0, 0.0, 1.0]], atol=1e-12)


def test_legacy_correct_without_intercept():
    data = dsa()
    es = ev.signal_eigenstructure(ev.scatter_matrix(data, NO_INTERCEPT), p=1)
    np.testing.assert_allclose(
        ev.legacy_u1(data, es, NO_INTERCEPT), [[1.0, 2.0, 3.0]], atol=1e-12
    )


def test_no_intercept_corrected_and_legacy_coincide():
    for index in range(10):
        _, data = noisy_instance(seed=13, index=index, kind=NO_INTERCEPT)
        result = ev.fit(data, ev.ModelSpec(kind=NO_INTERCEPT))
        assert invariants.mean_shift(data, result) <= 1.0


def test_legacy_means_routes_like_fit():
    _, data = noisy_instance(seed=21, index=1)
    spec = ev.ModelSpec(kind=INTERCEPT)
    es = ev.signal_eigenstructure(ev.scatter_matrix(data, INTERCEPT), data.p)
    np.testing.assert_array_equal(
        ev.legacy_means(data, spec), ev.legacy_u1(data, es, INTERCEPT)
    )


# ---------------------------------------------------------------------------
# response means and residuals
# ---------------------------------------------------------------------------

def test_estimate_u2_golden():
    np.testing.assert_allclose(
        ev.estimate_u2([[0.0, 1.0, 2.0]], [1.0], [[2.0]]), [[1.0, 3.0, 5.0]], atol=1e-12
    )


def test_estimate_u2_zero_slope_repeats_alpha():
    u2 = ev.estimate_u2(np.zeros((2, 4)), [3.0, -1.0], np.zeros((2, 2)))
    np.testing.assert_array_equal(u2, [[3.0] * 4, [-1.0] * 4])


def test_estimate_u2_identity_map():
    u1 = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(ev.estimate_u2(u1, np.zeros(2), np.eye(2)), u1)


def test_residual_zero_at_exact_fit():
    res = ev.residual_matrix(dsb(), [1.0], [[2.0]], [[0.0, 1.0, 2.0]])
    np.testing.assert_allclose(res, np.zeros((2, 3)), atol=1e-12)


def test_residual_direct_substitution():
    _, data = noisy_instance(seed=2, index=0)
    res = ev.residual_matrix(
        data, np.zeros(data.r), np.zeros((data.r, data.p)), data.x1
    )
    np.testing.assert_array_equal(res[: data.p], np.zeros((data.p, data.n)))
    np.testing.assert_array_equal(res[data.p :], data.x2)


def test_glse_residual_zero_slope():
    _, data = noisy_instance(seed=3, index=1)
    alpha = np.arange(float(data.r))
    q = ev.glse_residual(data, alpha, np.zeros((data.r, data.p)))
    np.testing.assert_allclose(q, data.x2 - alpha[:, None], atol=1e-12)


def test_glse_residual_exact_relation_vanishes():
    q = ev.glse_residual(dsb(), [1.0], [[2.0]])
    np.testing.assert_allclose(q, np.zeros((1, 3)), atol=1e-12)


def test_glse_residual_scalar_value():
    data = ev.ObservedData(x1=[[1.0]], x2=[[7.0]])
    q = ev.glse_residual(data, [0.0], [[2.0]])
    np.testing.assert_allclose(q, [[np.sqrt(5.0)]], atol=1e-12)


def test_residual_pair_consistency():
    _, data = noisy_instance(seed=30, index=3)
    result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT))
    r_matrix = ev.residual_matrix(data, result.alpha_hat, result.b_hat, result.u1_hat)
    q_matrix = ev.glse_residual(data, result.alpha_hat, result.b_hat)
    assert r_matrix.shape == (data.p + data.r, data.n)
    assert q_matrix.shape == (data.r, data.n)
    assert float(np.sum(r_matrix**2)) == pytest.approx(result.olse_objective)
    assert float(np.sum(q_matrix**2)) == pytest.approx(result.glse_objective)


def test_residual_scale_examples():
    result = ev.fit(dsb(), ev.ModelSpec(kind=INTERCEPT))
    assert result.residual_scale == pytest.approx(0.0, abs=1e-12)
    _, data, spec = dense_sigma0_instance(INTERCEPT, 15)
    result = ev.fit(data, spec)
    assert result.residual_scale == result.olse_objective / (data.n * (data.p + data.r))


# ---------------------------------------------------------------------------
# the full fit
# ---------------------------------------------------------------------------

def test_fit_golden_intercept():
    result = ev.fit(dsb(), ev.ModelSpec(kind=INTERCEPT))
    np.testing.assert_allclose(result.b_hat, [[2.0]], atol=1e-10)
    np.testing.assert_allclose(result.alpha_hat, [1.0], atol=1e-10)
    np.testing.assert_allclose(result.u1_hat, [[0.0, 1.0, 2.0]], atol=1e-10)
    assert result.olse_objective == pytest.approx(0.0, abs=1e-10)
    assert result.kind is INTERCEPT
    assert not result.eigenstructure.degenerate


def test_fit_golden_no_intercept():
    result = ev.fit(dsa(), ev.ModelSpec(kind=NO_INTERCEPT))
    np.testing.assert_allclose(result.b_hat, [[2.0]], atol=1e-10)
    np.testing.assert_array_equal(result.alpha_hat, [0.0])
    np.testing.assert_allclose(result.u1_hat, [[1.0, 2.0, 3.0]], atol=1e-10)


def test_fit_u2_consistency_invariant():
    for kind in (INTERCEPT, NO_INTERCEPT):
        _, data = noisy_instance(seed=55, index=1, kind=kind)
        result = ev.fit(data, ev.ModelSpec(kind=kind))
        expected = result.alpha_hat[:, None] + result.b_hat @ result.u1_hat
        np.testing.assert_allclose(result.u2_hat, expected, atol=1e-12, rtol=0)


def test_fit_identity_sigma0_matches_plain_path():
    _, data = noisy_instance(seed=14, index=6)
    plain = ev.fit(data, ev.ModelSpec(kind=INTERCEPT))
    white = ev.fit(data, ev.ModelSpec(kind=INTERCEPT, sigma0=np.eye(data.p + data.r)))
    np.testing.assert_allclose(white.b_hat, plain.b_hat, atol=1e-10)
    np.testing.assert_allclose(white.alpha_hat, plain.alpha_hat, atol=1e-10)
    np.testing.assert_allclose(white.u1_hat, plain.u1_hat, atol=1e-10)
    assert white.olse_objective == pytest.approx(plain.olse_objective, abs=1e-10)
    assert white.glse_objective == pytest.approx(plain.glse_objective, abs=1e-10)
    with pytest.raises(ev.ValidationError):  # the invariants hold without a shape only
        invariants.check_fit(data, ev.ModelSpec(INTERCEPT, np.eye(data.p + data.r)), white)


def random_spd(rng, m, lo=0.5, hi=3.0):
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    return (q * rng.uniform(lo, hi, m)) @ q.T


@pytest.mark.parametrize("kind", [INTERCEPT, NO_INTERCEPT])
def test_fit_sigma0_noise_free_recovery(kind):
    rng = np.random.default_rng(100)
    truth = ev.random_truth(100, 0, kind, p=2, r=2, n=25, sigma=0.0)
    sigma0 = random_spd(rng, 4)
    data = ev.generate_dataset(truth)
    result = ev.fit(data, ev.ModelSpec(kind=kind, sigma0=sigma0))
    np.testing.assert_allclose(result.b_hat, truth.b, atol=1e-8)
    np.testing.assert_allclose(result.alpha_hat, truth.alpha, atol=1e-8)
    np.testing.assert_allclose(result.u1_hat, truth.u1, atol=1e-8)


def dense_sigma0_instance(kind, seed):
    rng = np.random.default_rng(seed)
    sigma0 = random_spd(rng, 5)
    data = ev.generate_dataset(ev.random_truth(seed, 0, kind, p=3, r=2, n=200, sigma0=sigma0))
    return rng, data, ev.ModelSpec(kind=kind, sigma0=sigma0)


def assert_close(actual, expected, scale):
    assert float(np.max(np.abs(np.asarray(actual) - expected))) <= 1e-12 * scale


SHAPES = {"identity": None, "dense": random_spd(np.random.default_rng(77), 5)}


@pytest.mark.parametrize("sigma", [1e-1, 1e-3, 1e-5])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("kind", [INTERCEPT, NO_INTERCEPT])
def test_objectives_match_the_direct_residual_sums(kind, shape, sigma):
    # the fit takes both objectives from the residual Gram; the trailing
    # eigenvalues of W drift from these sums as the noise shrinks
    sigma0 = SHAPES[shape]
    truth = ev.random_truth(9, 0, kind, p=3, r=2, n=2000, sigma=sigma, sigma0=sigma0)
    data = ev.generate_dataset(truth)
    result = ev.fit(data, ev.ModelSpec(kind=kind, sigma0=sigma0))
    b, alpha = result.b_hat, result.alpha_hat
    res = ev.residual_matrix(data, alpha, b, result.u1_hat)
    q = data.x2 - alpha[:, None] - b @ data.x1
    c = np.hstack([-b, np.eye(data.r)])
    if sigma0 is None:
        olse, spread = np.sum(res * res), np.eye(data.r) + b @ b.T
    else:
        olse, spread = np.sum(res * np.linalg.solve(sigma0, res)), c @ sigma0 @ c.T
    glse = np.sum(q * np.linalg.solve(spread, q))
    assert result.olse_objective == pytest.approx(olse, rel=1e-10, abs=0)
    assert result.glse_objective == pytest.approx(glse, rel=1e-10, abs=0)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("kind", [INTERCEPT, NO_INTERCEPT])
def test_fit_peak_memory_is_about_twice_the_input(kind, shape, monkeypatch):
    # the result keeps U1 and U2 (one input's worth); the residual is the only
    # other n-sized buffer alive at once, and the data is never stacked
    monkeypatch.setattr(ev.ObservedData, "stacked", None)
    p, r, n = 3, 2, 200_000
    rng = np.random.default_rng(12)
    x1 = rng.normal(size=(p, n)) + 3.0
    x2 = rng.normal(size=(r, p)) @ x1 + 0.1 * rng.normal(size=(r, n))
    data = ev.ObservedData(x1=x1, x2=x2)
    spec = ev.ModelSpec(kind=kind, sigma0=SHAPES[shape])
    tracemalloc.start()
    try:
        ev.fit(data, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * x1.nbytes + 2.1 * x2.nbytes


@pytest.mark.parametrize("kind", [INTERCEPT, NO_INTERCEPT])
def test_fit_sigma0_is_equivariant_under_a_block_diagonal_change_of_units(kind):
    rng, data, spec = dense_sigma0_instance(kind, 71)
    t1 = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
    t2 = np.eye(2) + 0.2 * rng.normal(size=(2, 2))
    t = np.block([[t1, np.zeros((3, 2))], [np.zeros((2, 3)), t2]])
    moved_data = ev.ObservedData(x1=t1 @ data.x1, x2=t2 @ data.x2)
    moved_spec = ev.ModelSpec(kind=kind, sigma0=t @ spec.sigma0 @ t.T)
    base = ev.fit(data, spec)
    moved = ev.fit(moved_data, moved_spec)
    scale = float(np.max(np.abs(moved_data.stacked())))
    expected_b = np.linalg.solve(t1.T, (t2 @ base.b_hat).T).T
    assert_close(moved.b_hat, expected_b, float(np.max(np.abs(expected_b))))
    assert_close(moved.alpha_hat, t2 @ base.alpha_hat, scale)
    assert_close(moved.u1_hat, t1 @ base.u1_hat, scale)
    assert_close(moved.olse_objective, base.olse_objective, base.olse_objective)
    assert_close(moved.glse_objective, base.glse_objective, base.glse_objective)
    assert_close(ev.legacy_means(moved_data, moved_spec, moved),
                 t1 @ ev.legacy_means(data, spec, base), scale)


@pytest.mark.parametrize("kind", [INTERCEPT, NO_INTERCEPT])
def test_fit_sigma0_corrected_minus_legacy_is_the_mean_shift(kind):
    _, data, spec = dense_sigma0_instance(kind, 72)
    result = ev.fit(data, spec)
    shift = data.x1.mean(axis=1, keepdims=True) if kind is INTERCEPT else 0.0
    assert_close(result.u1_hat - ev.legacy_means(data, spec, result), shift,
                 float(np.max(np.abs(data.stacked()))))


def test_fit_sigma0_never_builds_whitened_observations(monkeypatch):
    _, data, spec = dense_sigma0_instance(INTERCEPT, 73)
    built = []
    original = ev.ObservedData.__post_init__
    monkeypatch.setattr(ev.ObservedData, "__post_init__",
                        lambda self: built.append(self) or original(self))
    ev.legacy_means(data, spec, ev.fit(data, spec))
    assert built == []


def test_fit_sigma0_takes_its_roots_once(monkeypatch):
    _, data, spec = dense_sigma0_instance(INTERCEPT, 73)
    shapes = []
    original = estimators.sigma0_symmetric_roots
    monkeypatch.setattr(estimators, "sigma0_symmetric_roots",
                        lambda s: shapes.append(np.shape(s)) or original(s))
    ev.legacy_means(data, spec, ev.fit(data, spec))
    assert shapes.count(spec.sigma0.shape) == 1


@pytest.mark.parametrize("factor", [1e-6, 1e6])
def test_fit_sigma0_slope_and_condition_ignore_the_scale_of_sigma0(factor):
    _, data, spec = dense_sigma0_instance(INTERCEPT, 74)
    base = ev.fit(data, spec)
    scaled = ev.fit(data, ev.ModelSpec(kind=INTERCEPT, sigma0=factor * spec.sigma0))
    assert_close(scaled.b_hat, base.b_hat, float(np.max(np.abs(base.b_hat))))
    condition = base.eigenstructure.g11_condition
    assert_close(scaled.eigenstructure.g11_condition, condition, condition)


LINE_SHAPE = np.array([[1.25, 1.0], [1.0, 1.25]])


def noisy_line(slope, sigma):
    """x = [u; slope u] plus errors of covariance sigma^2 LINE_SHAPE."""
    u = np.linspace(-3.0, 3.0, 50)
    z = np.random.default_rng(0).normal(size=(2, u.size))
    x = np.vstack([u, slope * u]) + sigma * np.linalg.cholesky(LINE_SHAPE) @ z
    return ev.ObservedData(x1=x[:1], x2=x[1:])


@pytest.mark.parametrize("sigma", [0.0, 1e-9])
@pytest.mark.parametrize("kind", [INTERCEPT, NO_INTERCEPT])
def test_fit_sigma0_recovers_a_line_without_noise(kind, sigma):
    # the whitened signal eigenvector of this line has a zero predictor
    # entry, but the slope is read from the basis in data coordinates
    result = ev.fit(noisy_line(2.0, sigma), ev.ModelSpec(kind=kind, sigma0=LINE_SHAPE))
    assert abs(result.b_hat[0, 0] - 2.0) <= 1e-9
    assert result.eigenstructure.g11_condition < 10.0


@pytest.mark.parametrize("shape", [None, np.eye(2), LINE_SHAPE], ids=["none", "eye", "dense"])
def test_near_vertical_line_is_unidentifiable_under_every_shape(shape):
    with pytest.raises(ev.UnidentifiableError):
        ev.fit(noisy_line(1e13, 1e-2), ev.ModelSpec(kind=INTERCEPT, sigma0=shape))


def test_fit_validation_errors():
    with pytest.raises(ev.ValidationError):
        ev.fit(ev.ObservedData(x1=[[1.0]], x2=[[2.0]]), ev.ModelSpec(kind=INTERCEPT))
    data = ev.ObservedData(x1=[[1.0, 2.0], [3.0, 4.0]], x2=[[5.0, 6.0]])
    with pytest.raises(ev.ValidationError):
        # intercept model needs n >= p + 1
        ev.fit(data, ev.ModelSpec(kind=INTERCEPT))
    with pytest.raises(ev.ValidationError):
        ev.fit(dsb(), ev.ModelSpec(kind=INTERCEPT, sigma0=np.eye(3)))


def test_fit_unidentifiable_constant_predictor():
    data = ev.ObservedData(x1=[[1.0, 1.0, 1.0]], x2=[[1.0, 2.0, 3.0]])
    with pytest.raises(ev.UnidentifiableError):
        ev.fit(data, ev.ModelSpec(kind=INTERCEPT))


# ---------------------------------------------------------------------------
# optimality and equivariance properties
# ---------------------------------------------------------------------------

def test_olse_minimality_under_mean_perturbations():
    _, data = noisy_instance(seed=17, index=5)
    result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT))
    base = result.olse_objective
    slack = 1e-12 * max(1.0, base)
    scale = 1e-3 * np.linalg.norm(result.u1_hat)
    rng = np.random.default_rng(99)
    for _ in range(100):
        delta = rng.normal(size=result.u1_hat.shape) * scale
        perturbed = ev.residual_matrix(
            data, result.alpha_hat, result.b_hat, result.u1_hat + delta
        )
        assert float(np.sum(perturbed**2)) >= base - slack


def test_glse_stationarity_at_fit():
    _, data = noisy_instance(seed=23, index=7)
    result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT))
    assert invariants.glse_stationarity(data, result) <= 1.0


def test_u1_corrected_invariant_to_basis_rotation():
    _, data = noisy_instance(seed=31, index=2)
    es = ev.signal_eigenstructure(ev.scatter_matrix(data, INTERCEPT), data.p)
    rng = np.random.default_rng(4)
    o, _ = np.linalg.qr(rng.normal(size=(data.p, data.p)))
    np.testing.assert_allclose(
        ev.estimate_u1_corrected(data, es, INTERCEPT),
        ev.estimate_u1_corrected(data, rotate_signal(es, o), INTERCEPT),
        atol=1e-9,
    )


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 10.0))
def test_fit_scale_equivariance(c):
    _, data = noisy_instance(seed=41, index=3)
    base = ev.fit(data, ev.ModelSpec(kind=INTERCEPT))
    scaled_data = ev.ObservedData(x1=c * data.x1, x2=c * data.x2)
    scaled = ev.fit(scaled_data, ev.ModelSpec(kind=INTERCEPT))
    np.testing.assert_allclose(scaled.b_hat, base.b_hat, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(scaled.alpha_hat, c * base.alpha_hat, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(scaled.u1_hat, c * base.u1_hat, rtol=1e-9, atol=1e-9)


def _fit_counting_warnings(data, kind):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = ev.fit(data, ev.ModelSpec(kind=kind))
    return result, sum(issubclass(w.category, ev.DegenerateSubspaceWarning) for w in caught)


@settings(max_examples=40, deadline=None)
@given(st.floats(-8.0, 8.0), st.sampled_from([INTERCEPT, NO_INTERCEPT]))
def test_fit_is_equivariant_across_scales(exponent, kind):
    s = 10.0**exponent
    data = ev.generate_dataset(ev.random_truth(17, 0, kind, p=2, r=1, n=50))
    base, base_warnings = _fit_counting_warnings(data, kind)
    scaled, scaled_warnings = _fit_counting_warnings(
        ev.ObservedData(x1=s * data.x1, x2=s * data.x2), kind
    )
    np.testing.assert_allclose(scaled.b_hat, base.b_hat, rtol=1e-9, atol=1e-12)
    for name in ("alpha_hat", "u1_hat", "u2_hat"):
        expected = s * getattr(base, name)
        np.testing.assert_allclose(getattr(scaled, name), expected, rtol=1e-9, atol=1e-12 * s)
    for name in ("olse_objective", "glse_objective"):
        assert getattr(scaled, name) == pytest.approx(s * s * getattr(base, name), rel=1e-9)
    assert scaled.eigenstructure.degenerate == base.eigenstructure.degenerate
    assert scaled_warnings == base_warnings


def test_slope_gram_identity():
    for index in range(10):
        _, data = noisy_instance(seed=67, index=index)
        assert invariants.slope_gram(data, ev.fit(data, ev.ModelSpec(kind=INTERCEPT))) <= 1.0


def test_sigma0_roots_invert_each_other():
    rng = np.random.default_rng(6)
    s = random_spd(rng, 4)
    root, inv_root = ev.sigma0_symmetric_roots(s)
    np.testing.assert_allclose(root @ root, s, atol=1e-12)
    np.testing.assert_allclose(root @ inv_root, np.eye(4), atol=1e-12)
    with pytest.raises(ev.NotPositiveDefiniteError):
        ev.sigma0_symmetric_roots(np.diag([1.0, -1.0]))


def legacy_as_fit(data, result, shift=0.0):
    legacy = ev.legacy_u1(data, result.eigenstructure, result.kind)
    return dataclasses.replace(result, u1_hat=legacy + shift)


def perturbed_slope(data, result):
    return dataclasses.replace(result, b_hat=result.b_hat + 1e-3)


def shifted_legacy(data, result):
    return legacy_as_fit(data, result, data.x1.mean(axis=1, keepdims=True))


@pytest.mark.parametrize("kind, wrong, checks", [
    (INTERCEPT, legacy_as_fit, ("mean_route_equivalence", "oracle_agreement", "mean_shift")),
    (INTERCEPT, perturbed_slope, ("slope_gram", "glse_stationarity")),
    (NO_INTERCEPT, shifted_legacy, ("mean_shift",)),
], ids=["legacy-means", "perturbed-slope", "shifted-legacy-no-intercept"])
def test_invariant_rejects_a_known_wrong_fit(kind, wrong, checks):
    """Each invariant passes the fit and fails a wrong one, so a check the
    code and the tests share cannot go vacuous unnoticed."""
    _, data = noisy_instance(seed=31, kind=kind)
    result = ev.fit(data, ev.ModelSpec(kind=kind))
    for name in checks:
        check = getattr(invariants, name)
        assert check(data, result) <= 1.0 < check(data, wrong(data, result)), name
