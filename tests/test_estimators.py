import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eivreg as ev
from eivreg import estimators, invariants, model_core
from test_eigenstructure_reuse import assert_same_bits

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
    alpha = estimators.estimate_alpha(np.ones((data.r, data.p)), data, NO_INTERCEPT)
    np.testing.assert_array_equal(alpha, np.zeros(data.r))


def test_estimate_alpha_golden():
    np.testing.assert_allclose(
        estimators.estimate_alpha([[2.0]], dsb(), INTERCEPT), [1.0], atol=1e-12
    )


def test_estimate_alpha_constant_rows_zero_slope():
    data = ev.ObservedData(x1=[[1.0, 2.0, 3.0]], x2=[[4.0, 4.0, 4.0]])
    np.testing.assert_allclose(
        estimators.estimate_alpha(np.zeros((1, 1)), data, INTERCEPT), [4.0], atol=1e-12
    )


# ---------------------------------------------------------------------------
# mean vectors: corrected, legacy
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
    assert invariants.mean_shift(ev.fit(data, ev.ModelSpec(kind=INTERCEPT))) <= 1.0


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
        assert invariants.mean_shift(result) <= 1.0


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
        estimators.estimate_u2([[0.0, 1.0, 2.0]], [1.0], [[2.0]]), [[1.0, 3.0, 5.0]], atol=1e-12
    )


def test_estimate_u2_zero_slope_repeats_alpha():
    u2 = estimators.estimate_u2(np.zeros((2, 4)), [3.0, -1.0], np.zeros((2, 2)))
    np.testing.assert_array_equal(u2, [[3.0] * 4, [-1.0] * 4])


def test_estimate_u2_identity_map():
    u1 = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(estimators.estimate_u2(u1, np.zeros(2), np.eye(2)), u1)


def test_residual_zero_at_exact_fit():
    res = estimators.residual_matrix(dsb(), [1.0], [[2.0]], [[0.0, 1.0, 2.0]])
    np.testing.assert_allclose(res, np.zeros((2, 3)), atol=1e-12)


def test_residual_direct_substitution():
    _, data = noisy_instance(seed=2, index=0)
    res = estimators.residual_matrix(
        data, np.zeros(data.r), np.zeros((data.r, data.p)), data.x1
    )
    np.testing.assert_array_equal(res[: data.p], np.zeros((data.p, data.n)))
    np.testing.assert_array_equal(res[data.p :], data.x2)


def test_glse_residual_zero_slope():
    _, data = noisy_instance(seed=3, index=1)
    alpha = np.arange(float(data.r))
    q = estimators.glse_residual(data, alpha, np.zeros((data.r, data.p)))
    np.testing.assert_allclose(q, data.x2 - alpha[:, None], atol=1e-12)


def test_glse_residual_exact_relation_vanishes():
    q = estimators.glse_residual(dsb(), [1.0], [[2.0]])
    np.testing.assert_allclose(q, np.zeros((1, 3)), atol=1e-12)


def test_glse_residual_scalar_value():
    data = ev.ObservedData(x1=[[1.0]], x2=[[7.0]])
    q = estimators.glse_residual(data, [0.0], [[2.0]])
    np.testing.assert_allclose(q, [[np.sqrt(5.0)]], atol=1e-12)


def test_residual_pair_consistency():
    _, data = noisy_instance(seed=30, index=3)
    result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT))
    r_matrix = estimators.residual_matrix(data, result.alpha_hat, result.b_hat, result.u1_hat)
    q_matrix = estimators.glse_residual(data, result.alpha_hat, result.b_hat)
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
        invariants.check_fit(white)


def test_a_fit_carries_the_data_it_was_given():
    data = ev.generate_dataset(ev.random_truth(9, 3, INTERCEPT, p=2, r=1, n=30))
    for sigma0 in (None, random_spd(np.random.default_rng(9), 3)):
        result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT, sigma0=sigma0))
        assert result.data is data
        assert "data=" not in repr(result)


@pytest.mark.parametrize("other", ["same-shape", "r"])
def test_legacy_means_rejects_a_fit_of_other_data(other):
    # a fit of other data with this data's (p, r, n) is rejected too
    data = ev.generate_dataset(ev.random_truth(9, 3, INTERCEPT, p=2, r=1, n=30))
    shape = {"same-shape": dict(r=1, n=30), "r": dict(r=2, n=30)}[other]
    spec = ev.ModelSpec(kind=INTERCEPT)
    result = ev.fit(ev.generate_dataset(ev.random_truth(9, 4, INTERCEPT, p=2, **shape)), spec)
    with pytest.raises(ev.ValidationError, match="result is not a fit of this data"):
        ev.legacy_means(data, spec, result)


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
def test_objectives_match_the_direct_residual_sums(kind, shape, sigma, n=2000):
    # the fit takes both objectives from the residual Gram; the trailing
    # eigenvalues of W drift from these sums as the noise shrinks
    sigma0 = SHAPES[shape]
    truth = ev.random_truth(9, 0, kind, p=3, r=2, n=n, sigma=sigma, sigma0=sigma0)
    data = ev.generate_dataset(truth)
    result = ev.fit(data, ev.ModelSpec(kind=kind, sigma0=sigma0))
    b, alpha = result.b_hat, result.alpha_hat
    res = estimators.residual_matrix(data, alpha, b, result.u1_hat)
    q = data.x2 - alpha[:, None] - b @ data.x1
    c = np.hstack([-b, np.eye(data.r)])
    if sigma0 is None:
        olse, spread = np.sum(res * res), np.eye(data.r) + b @ b.T
    else:
        olse, spread = np.sum(res * np.linalg.solve(sigma0, res)), c @ sigma0 @ c.T
    glse = np.sum(q * np.linalg.solve(spread, q))
    assert result.olse_objective == pytest.approx(olse, rel=1e-10, abs=0)
    assert result.glse_objective == pytest.approx(glse, rel=1e-10, abs=0)


BLOCK = model_core._BLOCK


def test_objectives_match_the_direct_residual_sums_over_several_blocks():
    test_objectives_match_the_direct_residual_sums(INTERCEPT, "dense", 1e-5, n=3 * BLOCK + 7)


def long_double_solve(a, b):
    """a^{-1} b in long double for a small symmetric positive definite a, by a
    Cholesky factorisation written out (LAPACK has no long-double routines)."""
    m = a.shape[0]
    low = np.zeros((m, m), dtype=np.longdouble)
    for i in range(m):
        for j in range(i + 1):
            rest = a[i, j] - low[i, :j] @ low[j, :j]
            low[i, j] = np.sqrt(rest) if i == j else rest / low[j, j]
    y = np.empty(b.shape, dtype=np.longdouble)
    for i in range(m):
        y[i] = (b[i] - low[i, :i] @ y[:i]) / low[i, i]
    for i in reversed(range(m)):
        y[i] = (y[i] - low[i + 1 :, i] @ y[i + 1 :]) / low[i, i]
    return y


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e4])
@pytest.mark.parametrize("sigma", [1e-1, 1e-3, 1e-5])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("kind", [INTERCEPT, NO_INTERCEPT])
def test_objectives_match_long_double_sums_at_an_offset(kind, shape, sigma, offset):
    # both objectives at the fitted (alpha, B), summed directly in long double:
    # the OLSE over the residual of the sigma0-weighted projection of X onto
    # the fitted graph, the GLSE over q = X2 - alpha 1' - B X1
    sigma0 = SHAPES[shape]
    truth = ev.random_truth(9, 0, kind, p=3, r=2, n=2000, sigma=sigma, sigma0=sigma0)
    data = ev.generate_dataset(truth)
    data = ev.ObservedData(x1=data.x1 + offset, x2=data.x2 + offset)
    result = ev.fit(data, ev.ModelSpec(kind=kind, sigma0=sigma0))
    ld = np.longdouble
    b = result.b_hat.astype(ld)
    weight = np.eye(5, dtype=ld) if sigma0 is None else sigma0.astype(ld)
    x = np.vstack([data.x1, data.x2]).astype(ld)
    x[3:] -= result.alpha_hat.astype(ld)[:, None]
    graph = np.vstack([np.eye(3, dtype=ld), b])
    u1 = long_double_solve(graph.T @ long_double_solve(weight, graph),
                           graph.T @ long_double_solve(weight, x))
    res = x - graph @ u1
    olse = np.sum(res * long_double_solve(weight, res))
    c = np.hstack([-b, np.eye(2, dtype=ld)])
    q = c @ x
    glse = np.sum(q * long_double_solve(c @ weight @ c.T, q))
    for value, direct in ((result.olse_objective, olse), (result.glse_objective, glse)):
        assert abs(value - direct) <= 1e-10 * direct


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("kind", [INTERCEPT, NO_INTERCEPT])
@pytest.mark.parametrize("p, r", [(3, 2), (1, 3), (3, 1), (1, 1)])
def test_blocked_fit_means_equal_the_whole_data_estimates(p, r, kind, shape, n):
    # a one-row factor (P with p = 1, B with r = 1) is where matmul's vector
    # path would give a block other last bits than the whole data
    sigma0 = None if shape == "identity" else random_spd(np.random.default_rng(77), p + r)
    data = ev.generate_dataset(ev.random_truth(4, 1, kind, p=p, r=r, n=n, sigma0=sigma0))
    result = ev.fit(data, ev.ModelSpec(kind=kind, sigma0=sigma0))
    u1 = ev.estimate_u1_corrected(data, result.eigenstructure, kind)
    np.testing.assert_array_equal(result.u1_hat, u1)
    np.testing.assert_array_equal(result.u2_hat,
                                  estimators.estimate_u2(u1, result.alpha_hat, result.b_hat))
    # the legacy means go over the same blocks
    spec = ev.ModelSpec(kind=kind, sigma0=sigma0)
    np.testing.assert_array_equal(ev.legacy_means(data, spec, result),
                                  ev.legacy_u1(data, result.eigenstructure, kind))


def fit_excess(kind, shape):
    """Peak bytes a fit at n = 10^5 and at 10^6 holds beyond U1 and U2, and
    the legacy means beyond theirs."""
    rng = np.random.default_rng(13)
    spec = ev.ModelSpec(kind=kind, sigma0=SHAPES[shape])
    excess, legacy_excess = [], []
    for n in (10**5, 10**6):
        x1 = rng.normal(size=(3, n)) + 3.0
        data = ev.ObservedData(x1=x1, x2=rng.normal(size=(2, 3)) @ x1 + 0.1 * rng.normal(size=(2, n)))
        tracemalloc.start()
        try:
            result = ev.fit(data, spec)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            legacy = ev.legacy_means(data, spec, result)
            legacy_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        excess.append(peak - result.u1_hat.nbytes - result.u2_hat.nbytes)
        legacy_excess.append(legacy_peak - legacy.nbytes)
    return excess, legacy_excess


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("kind", [INTERCEPT, NO_INTERCEPT])
def test_fit_allocates_only_its_means_and_one_block(kind, shape, monkeypatch):
    # beyond U1 and U2, a fit on one worker holds block-sized buffers whatever
    # n is, and so do the legacy means beyond theirs
    monkeypatch.setattr(model_core, "_WORKERS", 1)
    excess, legacy_excess = fit_excess(kind, shape)
    assert max(excess) < 1e6
    assert excess[1] == pytest.approx(excess[0], rel=0.1)
    assert max(legacy_excess) < 1e6


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("kind", [INTERCEPT, NO_INTERCEPT])
def test_fit_allocates_one_block_per_worker(kind, shape, workers, monkeypatch):
    monkeypatch.setattr(model_core, "_WORKERS", workers)
    monkeypatch.setattr(model_core, "_RUN_BLOCKS", 1)  # every worker runs at n = 10^5 too
    excess, legacy_excess = fit_excess(kind, shape)
    assert max(excess) < workers * 1e6
    assert excess[1] == pytest.approx(excess[0], rel=0.1)
    assert max(legacy_excess) < workers * 1e6


@pytest.mark.parametrize("n", [BLOCK, 2 * BLOCK + 3, 5 * BLOCK + 1])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("kind", [INTERCEPT, NO_INTERCEPT])
def test_a_fit_has_the_same_bits_on_any_number_of_workers(kind, shape, n, monkeypatch):
    # a single column cannot be fitted; the stacked passes below take n = 1
    x = ev.generate_dataset(ev.random_truth(9, 8, kind, p=3, r=2, n=n)).x
    spec = ev.ModelSpec(kind=kind, sigma0=SHAPES[shape])
    monkeypatch.setattr(model_core, "_RUN_BLOCKS", 1)  # threads on data of a few blocks
    fits = []
    for workers in (1, 2, 3, 4):
        monkeypatch.setattr(model_core, "_WORKERS", workers)
        data = ev.ObservedData(x1=x[:3], x2=x[3:])  # fresh, so W is scattered again
        result = ev.fit(data, spec)
        fits.append((result, ev.scatter_matrix(data, kind), ev.legacy_means(data, spec, result)))
    for result, w, legacy in fits[1:]:
        assert_same_bits(result, fits[0][0])
        np.testing.assert_array_equal(w, fits[0][1], strict=True)
        np.testing.assert_array_equal(legacy, fits[0][2], strict=True)


@pytest.mark.parametrize("n", [1, BLOCK, 2 * BLOCK + 3, 5 * BLOCK + 1])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("kind", [INTERCEPT, NO_INTERCEPT])
def test_stacked_passes_have_the_same_bits_on_any_number_of_workers(kind, shape, n, monkeypatch):
    # the W and the legacy means of the simulate sweep's stacks of replicates
    stack = np.random.default_rng(n).normal(loc=3.0, size=(3, 5, n))
    monkeypatch.setattr(model_core, "_RUN_BLOCKS", 1)
    passes = []
    for workers in (1, 2, 3, 4):
        monkeypatch.setattr(model_core, "_WORKERS", workers)
        data = ev.ObservedData._of(stack, 2)
        w = ev.scatter_matrix(data, kind)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ev.DegenerateSubspaceWarning)  # W = 0 at n = 1
            es = ev.signal_eigenstructure(w, 2, SHAPES[shape])
        passes.append((w, ev.legacy_u1(data, es, kind)))
    for w, legacy in passes[1:]:
        np.testing.assert_array_equal(w, passes[0][0], strict=True)
        np.testing.assert_array_equal(legacy, passes[0][1], strict=True)


def test_more_workers_than_cpus_switching_often_keep_the_bits(monkeypatch):
    # one block per worker, and the interpreter switching threads about
    # every bytecode: a lost result or an unwritten column changes the fit
    x = ev.generate_dataset(ev.random_truth(9, 8, INTERCEPT, p=3, r=2, n=9 * BLOCK + 5)).x
    spec = ev.ModelSpec(kind=INTERCEPT, sigma0=SHAPES["dense"])
    alone = ev.fit(ev.ObservedData(x1=x[:3], x2=x[3:]), spec)
    monkeypatch.setattr(model_core, "_WORKERS", 9)
    monkeypatch.setattr(model_core, "_RUN_BLOCKS", 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        shared = ev.fit(ev.ObservedData(x1=x[:3], x2=x[3:]), spec)
    finally:
        sys.setswitchinterval(interval)
    assert_same_bits(shared, alone)


class BlockFailure(Exception):
    pass


@pytest.mark.parametrize("failing", ["calling", "worker"])
def test_a_failing_block_raises_in_the_caller_and_leaves_no_thread(failing, monkeypatch):
    monkeypatch.setattr(model_core, "_WORKERS", 3)
    monkeypatch.setattr(model_core, "_RUN_BLOCKS", 1)
    original = model_core._gram

    def gram(rows):
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller == (failing == "calling"):
            raise BlockFailure(failing)
        return original(rows)

    monkeypatch.setattr(model_core, "_gram", gram)
    x = ev.generate_dataset(ev.random_truth(9, 8, INTERCEPT, p=3, r=2, n=3 * BLOCK)).x
    before = threading.active_count()
    with pytest.raises(BlockFailure, match=failing):
        ev.fit(ev.ObservedData(x1=x[:3], x2=x[3:]), ev.ModelSpec(kind=INTERCEPT))
    assert threading.active_count() == before


def test_one_block_starts_no_thread(monkeypatch):
    monkeypatch.setattr(model_core, "_WORKERS", 4)

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", no_thread)
    data = ev.generate_dataset(ev.random_truth(9, 8, INTERCEPT, p=3, r=2, n=BLOCK))
    result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT))
    ev.legacy_means(data, ev.ModelSpec(kind=INTERCEPT), result)


@pytest.mark.parametrize("blocks, threads", [(3, 0), (8, 1)])
def test_a_pass_starts_a_thread_only_for_a_run_of_enough_blocks(blocks, threads, monkeypatch):
    # a run of fewer than _RUN_BLOCKS blocks costs more to start than it saves
    monkeypatch.setattr(model_core, "_WORKERS", 2)
    passes, started = [], []
    blockwise, thread = model_core._blockwise, threading.Thread

    def counted_blockwise(*args):
        passes.append(1)
        return blockwise(*args)

    def counted_thread(*args, **kwargs):
        started.append(1)
        return thread(*args, **kwargs)

    for module in (model_core, estimators):  # the scatter pass and the fit's second pass
        monkeypatch.setattr(module, "_blockwise", counted_blockwise)
    monkeypatch.setattr(threading, "Thread", counted_thread)
    data = ev.generate_dataset(ev.random_truth(9, 8, INTERCEPT, p=3, r=2, n=blocks * BLOCK))
    ev.fit(data, ev.ModelSpec(kind=INTERCEPT))
    assert passes and len(started) == threads * len(passes)


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
    scale = float(np.max(np.abs(moved_data.x)))
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
                 float(np.max(np.abs(data.x))))


def test_fit_sigma0_never_builds_whitened_observations(monkeypatch):
    _, data, spec = dense_sigma0_instance(INTERCEPT, 73)
    built = []
    init, wrap = ev.ObservedData.__init__, ev.ObservedData._of.__func__
    # both ways to build one: the checked constructor and the unchecked wrapper
    monkeypatch.setattr(ev.ObservedData, "__init__",
                        lambda self, *args, **kw: built.append(args) or init(self, *args, **kw))
    monkeypatch.setattr(ev.ObservedData, "_of",
                        classmethod(lambda cls, *args: built.append(args) or wrap(cls, *args)))
    ev.legacy_means(data, spec, ev.fit(data, spec))
    assert built == []


def test_fit_sigma0_takes_its_roots_once(monkeypatch):
    _, data, spec = dense_sigma0_instance(INTERCEPT, 73)
    shapes = []
    original = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda s, **kw: shapes.append(np.shape(s)) or original(s, **kw))
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
        perturbed = estimators.residual_matrix(
            data, result.alpha_hat, result.b_hat, result.u1_hat + delta
        )
        assert float(np.sum(perturbed**2)) >= base - slack


def test_glse_stationarity_at_fit():
    _, data = noisy_instance(seed=23, index=7)
    result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT))
    assert invariants.glse_stationarity(result) <= 1.0


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


@settings(max_examples=40, deadline=None)
@given(st.integers(-40, 40), st.sampled_from([INTERCEPT, NO_INTERCEPT]),
       st.sampled_from(sorted(SHAPES)))
def test_fit_is_exactly_equivariant_under_powers_of_two(k, kind, shape):
    # scaling by 2^k is exact, and so is every step of a fit and of the checks
    spec = ev.ModelSpec(kind=kind, sigma0=SHAPES[shape])
    data = ev.generate_dataset(ev.random_truth(23, 0, kind, p=3, r=2, n=300, sigma0=spec.sigma0))
    base = ev.fit(data, spec)
    scaled = ev.fit(ev.ObservedData(x1=np.ldexp(data.x1, k), x2=np.ldexp(data.x2, k)), spec)
    np.testing.assert_array_equal(scaled.b_hat, base.b_hat)
    for name in ("alpha_hat", "u1_hat", "u2_hat"):
        np.testing.assert_array_equal(getattr(scaled, name), np.ldexp(getattr(base, name), k))
    for name in ("olse_objective", "glse_objective"):
        assert getattr(scaled, name) == math.ldexp(getattr(base, name), 2 * k)
    for check in (invariants.glse_stationarity, invariants.mean_shift,
                  invariants.oracle_agreement):
        assert check(scaled) == check(base)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-10, 10), min_size=5, max_size=5),
       st.sampled_from([INTERCEPT, NO_INTERCEPT]))
def test_dense_fit_is_exactly_equivariant_under_per_variable_powers_of_two(exponents, kind):
    # x -> T x with T = diag(2^k_i) and sigma0 -> T sigma0 T: whitening
    # substitutes without pivoting, so every step of a fit maps bit for bit
    sigma0 = SHAPES["dense"]
    data = ev.generate_dataset(ev.random_truth(29, 0, kind, p=3, r=2, n=300, sigma0=sigma0))
    t = np.ldexp(1.0, np.array(exponents))
    a, d = t[:3], t[3:]
    base_spec = ev.ModelSpec(kind=kind, sigma0=sigma0)
    spec = ev.ModelSpec(kind=kind, sigma0=sigma0 * np.outer(t, t))
    base = ev.fit(data, base_spec)
    moved = ev.ObservedData(x1=a[:, None] * data.x1, x2=d[:, None] * data.x2)
    scaled = ev.fit(moved, spec)
    np.testing.assert_array_equal(scaled.b_hat, d[:, None] * base.b_hat / a)
    np.testing.assert_array_equal(scaled.alpha_hat, d * base.alpha_hat)
    np.testing.assert_array_equal(scaled.u1_hat, a[:, None] * base.u1_hat)
    np.testing.assert_array_equal(scaled.u2_hat, d[:, None] * base.u2_hat)
    np.testing.assert_array_equal(ev.legacy_means(moved, spec, scaled),
                                  a[:, None] * ev.legacy_means(data, base_spec, base))
    for name in ("olse_objective", "glse_objective"):
        assert getattr(scaled, name) == getattr(base, name)
    for name in ("eigenvalues", "eigengap", "degenerate"):
        np.testing.assert_array_equal(getattr(scaled.eigenstructure, name),
                                      getattr(base.eigenstructure, name))
    assert invariants.glse_stationarity(scaled) == invariants.glse_stationarity(base)


def test_slope_gram_identity():
    for index in range(10):
        _, data = noisy_instance(seed=67, index=index)
        assert invariants.slope_gram(ev.fit(data, ev.ModelSpec(kind=INTERCEPT))) <= 1.0


def legacy_as_fit(data, result, shift=0.0):
    legacy = ev.legacy_u1(data, result.eigenstructure, result.kind)
    return dataclasses.replace(result, u1_hat=legacy + shift)


def perturbed_slope(data, result):
    return dataclasses.replace(result, b_hat=result.b_hat + 1e-3)


def shifted_legacy(data, result):
    return legacy_as_fit(data, result, data.x1.mean(axis=1, keepdims=True))


def moved_slope_claiming_a_large_objective(data, result):
    # a slope 1% off, with the intercept and means that match it, claiming a
    # GLSE objective so large that a limit taken from the claim would pass it
    b = 1.01 * result.b_hat
    alpha = estimators.estimate_alpha(b, data, result.kind)
    u1 = ev.project_columns_oracle(data, alpha, b)
    return dataclasses.replace(result, b_hat=b, alpha_hat=alpha, u1_hat=u1,
                               u2_hat=estimators.estimate_u2(u1, alpha, b), glse_objective=1e12)


@pytest.mark.parametrize("kind, wrong, checks", [
    (INTERCEPT, legacy_as_fit, ("oracle_agreement", "mean_shift")),
    (INTERCEPT, perturbed_slope, ("slope_gram", "glse_stationarity")),
    (NO_INTERCEPT, shifted_legacy, ("mean_shift",)),
    (INTERCEPT, moved_slope_claiming_a_large_objective, ("glse_stationarity",)),
], ids=["legacy-means", "perturbed-slope", "shifted-legacy-no-intercept",
        "moved-slope-claiming-a-large-objective"])
def test_invariant_rejects_a_known_wrong_fit(kind, wrong, checks):
    """Each invariant passes the fit and fails a wrong one, so a check the
    code and the tests share cannot go vacuous unnoticed."""
    _, data = noisy_instance(seed=31, kind=kind)
    result = ev.fit(data, ev.ModelSpec(kind=kind))
    for name in checks:
        check = getattr(invariants, name)
        assert check(result) <= 1.0 < check(wrong(data, result)), name
