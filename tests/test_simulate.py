import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import eivreg as ev
from eivreg import simulate

INTERCEPT = ev.ModelKind.INTERCEPT
NO_INTERCEPT = ev.ModelKind.NO_INTERCEPT


def template(p=2, r=2, sigma=0.1, sigma0=None, error_kind=ev.ErrorKind.GAUSSIAN):
    rng = np.random.default_rng(1)
    return ev.SyntheticTruth(
        u1=ev.default_mean_grid(p, 32, offset=1.0),
        b=rng.standard_normal((r, p)),
        alpha=rng.standard_normal(r),
        sigma2=sigma * sigma,
        sigma0=sigma0,
        error_kind=error_kind,
        seed=1,
    )


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_noise_free_generation_is_exact_and_recoverable():
    truth = ev.random_truth(100, 0, INTERCEPT, p=2, r=2, n=30, sigma=0.0)
    data = ev.generate_dataset(truth)
    expected_x2 = truth.alpha[:, None] + truth.b @ truth.u1
    np.testing.assert_array_equal(data.x1, truth.u1)
    np.testing.assert_array_equal(data.x2, expected_x2)
    result = ev.fit(data, ev.ModelSpec(kind=INTERCEPT))
    np.testing.assert_allclose(result.b_hat, truth.b, atol=1e-8)
    np.testing.assert_allclose(result.alpha_hat, truth.alpha, atol=1e-8)
    np.testing.assert_allclose(result.u1_hat, truth.u1, atol=1e-8)


def test_generation_deterministic_given_seed():
    truth = ev.random_truth(7, 3, INTERCEPT)
    first = ev.generate_dataset(truth)
    second = ev.generate_dataset(truth)
    np.testing.assert_array_equal(first.x, second.x)


@pytest.mark.parametrize("error_kind", [ev.ErrorKind.GAUSSIAN, ev.ErrorKind.UNIFORM_CENTERED])
def test_error_covariance_matches_request(error_kind):
    n = 100_000
    sigma2 = 0.25
    truth = ev.SyntheticTruth(
        u1=np.zeros((1, n)),
        b=np.zeros((1, 1)),
        alpha=np.zeros(1),
        sigma2=sigma2,
        error_kind=error_kind,
        seed=12,
    )
    errors = ev.generate_dataset(truth).x
    sample_cov = errors @ errors.T / n
    bound = 5.0 * sigma2 * np.sqrt(2.0 / n)
    np.testing.assert_allclose(sample_cov, sigma2 * np.eye(2), atol=bound)


def test_error_covariance_with_shape():
    sigma0 = np.array([[2.0, 0.6], [0.6, 1.0]])
    n = 100_000
    truth = ev.SyntheticTruth(
        u1=np.zeros((1, n)),
        b=np.zeros((1, 1)),
        alpha=np.zeros(1),
        sigma2=0.5,
        sigma0=sigma0,
        seed=21,
    )
    errors = ev.generate_dataset(truth).x
    sample_cov = errors @ errors.T / n
    np.testing.assert_allclose(sample_cov, 0.5 * sigma0, atol=5.0 * np.sqrt(2.0 / n))


def test_fit_is_column_permutation_equivariant():
    truth = ev.random_truth(9, 2, INTERCEPT, p=2, r=2, n=25)
    data = ev.generate_dataset(truth)
    rng = np.random.default_rng(0)
    perm = rng.permutation(data.n)
    permuted = ev.ObservedData(x1=data.x1[:, perm], x2=data.x2[:, perm])
    base = ev.fit(data, ev.ModelSpec(kind=INTERCEPT))
    shuffled = ev.fit(permuted, ev.ModelSpec(kind=INTERCEPT))
    scale = max(1.0, float(np.max(np.abs(base.u1_hat))))
    np.testing.assert_allclose(shuffled.b_hat, base.b_hat, atol=1e-9)
    np.testing.assert_allclose(shuffled.alpha_hat, base.alpha_hat, atol=1e-9)
    unshuffled = np.empty_like(shuffled.u1_hat)
    unshuffled[:, perm] = shuffled.u1_hat
    np.testing.assert_allclose(unshuffled, base.u1_hat, atol=1e-9 * scale, rtol=0)


def test_mean_grid_is_well_conditioned():
    for p in range(1, 5):
        u1 = ev.default_mean_grid(p, 10)
        centered = u1 - u1.mean(axis=1, keepdims=True)
        smallest = np.linalg.eigvalsh(centered @ centered.T / 10)[0]
        assert smallest > 1e-3


def test_mean_grid_spread_and_offset():
    grid = ev.default_mean_grid(2, 50, offset=3.0)
    assert grid.shape == (2, 50)
    assert np.all(grid >= 2.0) and np.all(grid <= 4.0)


@pytest.mark.parametrize("p, n", [(2, True), (1.5, 3)])
def test_mean_grid_counts_must_be_integers(p, n):
    with pytest.raises(ev.ValidationError, match="must be an integer >= 1"):
        ev.default_mean_grid(p, n)


def test_random_truth_ranges_and_determinism():
    for index in range(20):
        truth = ev.random_truth(4, index, INTERCEPT)
        assert 1 <= truth.p <= 4
        assert 1 <= truth.r <= 3
        assert 10 <= truth.n <= 60
    again = ev.random_truth(4, 3, INTERCEPT)
    np.testing.assert_array_equal(again.u1, ev.random_truth(4, 3, INTERCEPT).u1)


def test_synthetic_truth_validation():
    with pytest.raises(ev.ValidationError):
        ev.SyntheticTruth(u1=np.zeros((2, 5)), b=np.zeros((1, 3)), alpha=np.zeros(1), sigma2=1.0)
    with pytest.raises(ev.ValidationError):
        ev.SyntheticTruth(u1=np.zeros((1, 5)), b=np.zeros((1, 1)), alpha=np.zeros(1), sigma2=-1.0)


@pytest.mark.parametrize("make, message", [
    (lambda: template(p=1, r=1, sigma0=np.eye(3)), "sigma0 shape (3, 3) does not match (2, 2)"),
    (lambda: template(error_kind="gaussian"), "error_kind must be an ErrorKind, got 'gaussian'"),
    (lambda: ev.default_mean_grid(13, 5), "mean grid supports up to 12 rows"),
], ids=["sigma0 size", "error kind a string", "13 mean rows"])
def test_synthetic_truth_and_mean_grid_reject_malformed_input(make, message):
    with pytest.raises(ev.ValidationError) as excinfo:
        make()
    assert excinfo.type is ev.ValidationError
    assert str(excinfo.value) == message


def test_synthetic_truth_needs_a_response_row():
    with pytest.raises(ev.ValidationError, match="alpha must have at least one entry"):
        ev.SyntheticTruth(u1=np.zeros((1, 5)), b=np.zeros((0, 1)), alpha=np.zeros(0), sigma2=1.0)


def asymmetric_shape():
    # cholesky reads only the lower triangle, so this would draw from I silently
    s = np.eye(4)
    s[0, 3] = 5.0
    return s


def indefinite_shape():
    return np.diag([1.0, 1.0, -1.0, 1.0])


@pytest.mark.parametrize("shape, error", [(asymmetric_shape, ev.ValidationError),
                                          (indefinite_shape, ev.NotPositiveDefiniteError)])
def test_truth_rejects_a_shape_model_spec_rejects(shape, error):
    with pytest.raises(error):
        ev.ModelSpec(kind=INTERCEPT, sigma0=shape())
    with pytest.raises(error):
        template(sigma0=shape())
    with pytest.raises(error):
        ev.random_truth(0, 0, INTERCEPT, p=2, r=2, sigma0=shape())


@pytest.mark.parametrize("seed", [True, False, 1.0, "1", -1])
def test_random_truth_seed_must_be_a_nonnegative_integer(seed):
    with pytest.raises(ev.ValidationError, match="seed must be an integer >= 0"):
        ev.random_truth(seed, 0, INTERCEPT)


@pytest.mark.parametrize("index", [-1, 1.5, True])
def test_random_truth_index_must_be_a_nonnegative_integer(index):
    with pytest.raises(ev.ValidationError, match="index must be an integer >= 0"):
        ev.random_truth(0, index, INTERCEPT)


@pytest.mark.parametrize("name, value", [("p", 1.5), ("p", True), ("r", 0), ("r", 2.0)])
def test_random_truth_dimensions_must_be_positive_integers(name, value):
    with pytest.raises(ev.ValidationError, match=f"{name} must be an integer >= 1"):
        ev.random_truth(0, 0, INTERCEPT, **{name: value})


# ---------------------------------------------------------------------------
# consistency experiment
# ---------------------------------------------------------------------------

def test_consistency_errors_shrink_and_legacy_lags():
    report = ev.consistency_experiment(template(), (30, 120, 480), 12, seed=5, kind=INTERCEPT)
    assert report.skipped == 0
    assert report.b_error_median[0] > report.b_error_median[-1]
    for corrected, legacy in zip(report.u1_rmse_corrected, report.u1_rmse_legacy):
        assert legacy > corrected


def test_consistency_noise_free_is_exact():
    # intercept model: slope and corrected means are recovered exactly, but
    # the legacy estimate stays off by the mean shift even without noise
    report = ev.consistency_experiment(
        template(sigma=0.0), (20, 40), 10, seed=6, kind=INTERCEPT
    )
    assert all(v <= 1e-8 for v in report.b_error_median)
    assert all(v <= 1e-8 for v in report.u1_rmse_corrected)
    assert all(v > 0.5 for v in report.u1_rmse_legacy)


def test_consistency_noise_free_all_zero_without_intercept():
    rng = np.random.default_rng(1)
    truth = ev.SyntheticTruth(
        u1=ev.default_mean_grid(2, 32, offset=1.0),
        b=rng.standard_normal((2, 2)),
        alpha=np.zeros(2),
        sigma2=0.0,
        seed=1,
    )
    report = ev.consistency_experiment(truth, (20, 40), 10, seed=6, kind=NO_INTERCEPT)
    assert all(v <= 1e-8 for v in report.b_error_median)
    assert all(v <= 1e-8 for v in report.u1_rmse_corrected)
    assert all(v <= 1e-8 for v in report.u1_rmse_legacy)


def test_consistency_reproducible():
    first = ev.consistency_experiment(template(), (20, 40), 10, seed=8, kind=INTERCEPT)
    second = ev.consistency_experiment(template(), (20, 40), 10, seed=8, kind=INTERCEPT)
    assert first == second


def test_consistency_with_known_covariance_shape():
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    sigma0 = (q * rng.uniform(0.5, 2.0, 4)) @ q.T
    report = ev.consistency_experiment(
        template(sigma=0.1, sigma0=sigma0), (30, 120), 10, seed=4, kind=INTERCEPT
    )
    assert report.skipped == 0
    assert report.b_error_median[-1] < report.b_error_median[0]
    for corrected, legacy in zip(report.u1_rmse_corrected, report.u1_rmse_legacy):
        assert legacy > corrected


def test_consistency_fails_on_excessive_skips():
    # a near-vertical signal (huge slope) makes every replicate unidentifiable
    truth = ev.SyntheticTruth(
        u1=ev.default_mean_grid(1, 16),
        b=np.array([[1e13]]),
        alpha=np.zeros(1),
        sigma2=0.01,
        seed=2,
    )
    with pytest.raises(ev.ExcessiveSkipsError):
        ev.consistency_experiment(truth, (20, 40), 10, seed=2, kind=INTERCEPT)


def test_consistency_validation():
    with pytest.raises(ev.ValidationError):
        ev.consistency_experiment(template(), (20, 40), 5, seed=1, kind=INTERCEPT)
    with pytest.raises(ev.ValidationError):
        ev.consistency_experiment(template(), (40, 20), 10, seed=1, kind=INTERCEPT)
    with pytest.raises(ev.ValidationError):
        ev.consistency_experiment(template(), (4, 40), 10, seed=1, kind=INTERCEPT)
    with pytest.raises(ev.ValidationError):
        ev.consistency_experiment(template(), (20, 40), 10, seed=-1, kind=INTERCEPT)


@pytest.mark.parametrize("replicates", [10.5, 10.0, True, "10", 9])
def test_consistency_replicates_must_be_an_integer_of_at_least_10(replicates):
    with pytest.raises(ev.ValidationError, match="replicates must be an integer >= 10"):
        ev.consistency_experiment(template(), (20, 40), replicates, seed=1, kind=INTERCEPT)


@pytest.mark.parametrize("seed", [True, 1.0, -1])
def test_consistency_seed_must_be_a_nonnegative_integer(seed):
    with pytest.raises(ev.ValidationError, match="seed must be an integer >= 0"):
        ev.consistency_experiment(template(), (20, 40), 10, seed=seed, kind=INTERCEPT)


@pytest.mark.parametrize("n_grid", [(20.7, 40), (20, True), (20, "40")])
def test_consistency_n_grid_entries_must_be_integers(n_grid):
    with pytest.raises(ev.ValidationError, match="n_grid entries must be an integer"):
        ev.consistency_experiment(template(), n_grid, 10, seed=1, kind=INTERCEPT)


def test_consistency_takes_numpy_integers():
    report = ev.consistency_experiment(template(), (20, 40), np.int64(10), seed=np.int64(1),
                                       kind=INTERCEPT)
    assert report == ev.consistency_experiment(template(), (20, 40), 10, seed=1, kind=INTERCEPT)


# ---------------------------------------------------------------------------
# stacked fits of the sweep
# ---------------------------------------------------------------------------

def dense_sigma0(m):
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(m, m)))
    s = (q * np.linspace(0.5, 2.0, m)) @ q.T
    return (s + s.T) / 2.0


def reference_sweep(truth_template, grid, replicates, seed, kind):
    """The sweep as one ``generate_dataset``, ``fit`` and ``legacy_means`` per replicate."""
    spec = ev.ModelSpec(kind=kind, sigma0=truth_template.sigma0)
    medians, rmse_corrected, rmse_legacy = [], [], []
    skipped = 0
    for n in grid:
        u1_n = simulate._template_grid(truth_template.u1, n)
        b_errors, corrected_sse, legacy_sse = [], 0.0, 0.0
        for rep in range(replicates):
            child = int(np.random.SeedSequence([seed, n, rep]).generate_state(1)[0])
            data = ev.generate_dataset(replace(truth_template, u1=u1_n, seed=child))
            try:
                result = ev.fit(data, spec)
            except ev.UnidentifiableError:
                skipped += 1
                continue
            legacy = ev.legacy_means(data, spec, result)
            b_errors.append(float(np.linalg.norm(result.b_hat - truth_template.b)))
            corrected_sse += float(np.sum((result.u1_hat - u1_n) ** 2))
            legacy_sse += float(np.sum((legacy - u1_n) ** 2))
        entries = len(b_errors) * truth_template.p * n
        medians.append(float(np.median(b_errors)))
        rmse_corrected.append(float(np.sqrt(corrected_sse / entries)))
        rmse_legacy.append(float(np.sqrt(legacy_sse / entries)))
    return ev.ConsistencyReport(
        n_grid=tuple(grid), b_error_median=tuple(medians), u1_rmse_corrected=tuple(rmse_corrected),
        u1_rmse_legacy=tuple(rmse_legacy), replicates=replicates, seed=seed, skipped=skipped,
    )


@pytest.mark.parametrize("kind", [INTERCEPT, NO_INTERCEPT])
@pytest.mark.parametrize("error_kind", list(ev.ErrorKind))
@pytest.mark.parametrize("shape", ["identity", "dense"])
@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_stacked_sweep_equals_per_replicate_fits(kind, error_kind, shape, sigma):
    truth = template(sigma=sigma, error_kind=error_kind,
                     sigma0=dense_sigma0(4) if shape == "dense" else None)
    if kind is NO_INTERCEPT:
        truth = replace(truth, alpha=np.zeros(2))
    budget = simulate._CHUNK_ELEMENTS
    # all 11 replicates in one stack; stacks of 3, 3, 3 and 2; one replicate per stack
    grid = (20, budget // (3 * 4), budget // 4 + 1)
    report = ev.consistency_experiment(truth, grid, 11, seed=5, kind=kind)
    assert report == reference_sweep(truth, grid, 11, 5, kind)


def test_stacked_sweep_skips_the_replicates_a_single_fit_rejects():
    # a near-vertical slope: a few replicates per level are unidentifiable
    truth = ev.SyntheticTruth(u1=ev.default_mean_grid(1, 16), b=np.array([[8e11]]),
                              alpha=np.zeros(1), sigma2=0.09, seed=2)
    report = ev.consistency_experiment(truth, (20, 40), 21, seed=2, kind=INTERCEPT)
    assert report.skipped > 0
    assert report == reference_sweep(truth, (20, 40), 21, 2, INTERCEPT)


def replicate_stack(*blocks):
    return np.stack([np.vstack(block) for block in blocks])


@pytest.mark.parametrize("kind", [INTERCEPT, NO_INTERCEPT])
@pytest.mark.parametrize("shape", ["identity", "dense"])
def test_an_unidentifiable_replicate_is_masked_alone(kind, shape):
    rng = np.random.default_rng(6)
    x1 = rng.normal(size=(2, 1, 12)) + 1.0
    good = [(x, 0.5 + 2.0 * x + 0.1 * rng.normal(size=(1, 12))) for x in x1]
    # a vertical line through the origin: x1 is zero, so no slope is identifiable
    vertical = (np.zeros((1, 12)), rng.normal(size=(1, 12)))
    stack = replicate_stack(good[0], vertical, good[1])
    spec = ev.ModelSpec(kind=kind, sigma0=dense_sigma0(2) if shape == "dense" else None)
    with pytest.raises(ev.UnidentifiableError):
        ev.fit(ev.ObservedData(*vertical), spec)

    b_hat, unidentifiable, legacy, corrected = simulate._fit_stack(stack, spec, 1)
    assert unidentifiable.tolist() == [False, True, False]
    for j, block in ((0, good[0]), (2, good[1])):
        data = ev.ObservedData(*block)
        result = ev.fit(data, spec)
        np.testing.assert_array_equal(b_hat[j], result.b_hat)
        np.testing.assert_array_equal(corrected[j], result.u1_hat)
        np.testing.assert_array_equal(legacy[j], ev.legacy_means(data, spec, result))


def test_a_degenerate_replicate_warns_for_its_stack():
    rng = np.random.default_rng(7)
    x1 = rng.normal(size=(1, 4))
    good = (x1, 2.0 * x1 + 0.1 * rng.normal(size=(1, 4)))
    # equal variances, no covariance: the scatter is a multiple of I
    isotropic = (np.array([[1.0, -1.0, 0.0, 0.0]]), np.array([[0.0, 0.0, 1.0, -1.0]]))
    with pytest.warns(ev.DegenerateSubspaceWarning):
        simulate._fit_stack(replicate_stack(good, isotropic), ev.ModelSpec(kind=INTERCEPT), 1)


def sweep_peak_bytes(replicates: int) -> int:
    truth = template(p=3, r=2)
    tracemalloc.start()
    try:
        ev.consistency_experiment(truth, (1000,), replicates, seed=1, kind=INTERCEPT)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_does_not_grow_with_the_replicates():
    sweep_peak_bytes(10)  # first-call allocations of numpy and the package
    few, many = sweep_peak_bytes(30), sweep_peak_bytes(300)
    assert abs(many - few) <= 0.10 * few, (few, many)
